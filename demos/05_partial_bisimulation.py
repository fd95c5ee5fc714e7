"""Partial bisimulation: simulation plus two-way matching on chosen labels.

A controller restricting a plant may drop controllable actions, but
uncontrollable ones (put in the bisimulation set) must be preserved
exactly.  Reading a plain system modally (bisimulation-set labels become
obligations) turns the same question into a refinement check.
"""

from modalsim import (
    PartialBisim,
    Refinement,
    actions,
    greatest,
    lts,
    mts_of_plain_lts,
    plain_signature,
)


def main() -> None:
    alphabet = plain_signature(["request", "grant", "fault"])
    plant = lts(
        states=["idle", "busy"],
        sig=alphabet,
        transitions=[
            ("idle", "request", "busy"),
            ("busy", "grant", "idle"),
            ("busy", "fault", "idle"),
        ],
        init="idle",
    )
    # The supervised system never lets the fault happen.
    supervised = lts(
        states=["i", "b"],
        sig=alphabet,
        transitions=[("i", "request", "b"), ("b", "grant", "i")],
        init="i",
    )

    for bset in [frozenset(), actions("grant"), actions("fault")]:
        rel = greatest(PartialBisim(bset), supervised, plant)
        names = ", ".join(sorted(str(a) for a in bset)) or "(empty)"
        print(f"supervised <=B plant with B = {names}: {('i', 'idle') in rel}")

    # The same answers through the modal reading: B-labelled transitions
    # become obligations, so the refinement must run from plant to
    # supervised and upside down.
    for bset in [actions("grant"), actions("fault")]:
        direct = greatest(PartialBisim(bset), supervised, plant)
        modal = greatest(
            Refinement(), mts_of_plain_lts(plant, bset), mts_of_plain_lts(supervised, bset)
        ).inverse()
        names = ", ".join(sorted(str(a) for a in bset))
        print(f"modal reading agrees for B = {names}: {direct.pairs == modal.pairs}")


if __name__ == "__main__":
    main()
