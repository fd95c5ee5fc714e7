import modalsim


def test_every_export_resolves_and_none_is_an_alias():
    names = modalsim.__all__
    assert len(set(names)) == len(names)
    owners: dict[int, str] = {}
    for name in names:
        value = getattr(modalsim, name)
        assert owners.setdefault(id(value), name) == name, f"{name} aliases {owners[id(value)]}"
