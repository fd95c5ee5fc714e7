"""Signature morphisms, reducts and the satisfaction condition.

Renaming labels along a morphism moves sentences forward and models
backward, and truth does not care which side you stand on.  The same
machinery explains what the two system views can and cannot host: the
classified world has canonical loosest and strictest one-state models,
the modal world only the loosest one.
"""

from modalsim import (
    CCSim,
    Refinement,
    check_morphism_condition,
    check_satisfaction_condition,
    final_obstruction_pair,
    greatest,
    lts,
    mts_morphism,
    parse_formula,
    print_system,
    reduct,
    sen_map,
    signature,
    formula_text,
    mts,
    universal_mts,
    universal_specification,
    weakly_final_implementation,
)


def main() -> None:
    # One abstract label "act" implemented by two concrete ones.
    f = mts_morphism(["tick", "tock"], ["act"], {"tick": "act", "tock": "act"})
    model = mts(
        states=["s", "t"],
        acts=["act"],
        may=[("s", "act", "t"), ("t", "act", "s")],
        must=[("s", "act", "t")],
        init="s",
    )
    phi = parse_formula("<tick>tt")
    print(f"sentence over the source:   {formula_text(phi)}")
    print(f"translated along f:         {formula_text(sen_map(f, phi))}")
    print(print_system(reduct(model, f), "reduct"))
    print(f"satisfaction condition: {check_satisfaction_condition(f, model, 's', phi)}")

    # The connecting morphism between the two views agrees with encoding.
    psi = parse_formula("<cv(act)>[ct(act)]ff")
    print(f"morphism condition for {formula_text(psi)}: "
          f"{check_morphism_condition(model, 's', psi)}")

    # Canonical witnesses: every classified system maps into the one that
    # loops on covariant labels, and out of the one looping on
    # contravariant labels.
    sig = signature(cov=["a"], con=["b"])
    system = lts(["p", "q"], sig, [("p", "a", "q"), ("q", "b", "p")], "p")
    final = weakly_final_implementation(sig)
    initial = universal_specification(sig)
    print(f"system <=cc final witness:   {('p', 's') in greatest(CCSim(), system, final)}")
    print(f"initial witness <=cc system: {('s', 'p') in greatest(CCSim(), initial, system)}")

    # No modal system can sit above both of these at once: one forces an
    # endless obligation, the other forbids the first step.
    demanding, silent = final_obstruction_pair()
    loose = universal_mts(demanding.actions)
    print(f"demanding <= may-everything: "
          f"{(demanding.init, loose.init) in greatest(Refinement(), demanding, loose)}")
    print(f"silent <= may-everything:    "
          f"{(silent.init, loose.init) in greatest(Refinement(), silent, loose)}")


if __name__ == "__main__":
    main()
