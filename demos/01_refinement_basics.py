"""Refinement between modal transition systems.

A vending machine specification leaves room for implementations: may
transitions are permissions, must transitions are obligations.  An
implementation refines the specification when it keeps every obligation
and invents no new behaviour.
"""

from modalsim import (
    Refinement,
    greatest,
    mts,
    print_system,
    universal_mts,
)


def main() -> None:
    spec = mts(
        states=["idle", "paid", "served"],
        acts=["coin", "tea"],
        may=[
            ("idle", "coin", "paid"),
            ("paid", "coin", "paid"),
            ("paid", "tea", "served"),
            ("served", "coin", "paid"),
        ],
        must=[("idle", "coin", "paid"), ("paid", "tea", "served")],
        init="idle",
    )
    print(print_system(spec, "spec"))

    # The implementation drops the optional coin loop in "paid" and the
    # restart from "served"; both were only permissions.
    impl = mts(
        states=["i", "p", "s"],
        acts=["coin", "tea"],
        may=[("i", "coin", "p"), ("p", "tea", "s")],
        must=[("i", "coin", "p"), ("p", "tea", "s")],
        init="i",
    )
    print(print_system(impl, "impl"))

    rel = greatest(Refinement(), spec, impl)
    print(f"spec <= impl: {('idle', 'i') in rel}")

    # Dropping an obligation is not allowed: this machine never serves.
    lazy = mts(
        states=["i", "p"],
        acts=["coin", "tea"],
        may=[("i", "coin", "p")],
        must=[("i", "coin", "p")],
        init="i",
    )
    print(f"spec <= lazy: {('idle', 'i') in greatest(Refinement(), spec, lazy)}")

    # The may-everything single state is below every system: it obliges
    # nothing and permits everything.
    loose = universal_mts(spec.actions)
    rel = greatest(Refinement(), loose, spec)
    print(f"universal <= spec at every state: "
          f"{all((loose.init, s) in rel for s in sorted(spec.states))}")


if __name__ == "__main__":
    main()
