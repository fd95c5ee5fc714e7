import sys
from types import ModuleType

import modalsim


def test_every_export_resolves_and_none_is_an_alias():
    names = modalsim.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    # Each export is bound under its name in one of the package's submodules
    # and in no standard-library module, so a helper such as ModuleType or
    # Union imported into the package fails.  Objects are compared, because
    # typing aliases such as PreorderKind carry typing's __module__.  The
    # package imports a submodule on the first use of one of its exports, so
    # every export is resolved before the modules are listed.
    values = {name: getattr(modalsim, name) for name in names}
    modules = [(key, m) for key, m in list(sys.modules.items()) if isinstance(m, ModuleType)]
    package = [m for key, m in modules if key.startswith("modalsim.")]
    stdlib = [m for key, m in modules if key.partition(".")[0] in sys.stdlib_module_names]
    owners: dict[int, str] = {}
    for name in names:
        value = values[name]
        assert not isinstance(value, ModuleType), name
        assert any(vars(m).get(name) is value for m in package), name
        assert not any(vars(m).get(name) is value for m in stdlib), name
        assert owners.setdefault(id(value), name) == name, f"{name} aliases {owners[id(value)]}"
    star: dict = {}
    exec("from modalsim import *", star)
    del star["__builtins__"]
    assert sorted(star) == names
