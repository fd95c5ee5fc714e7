"""Covariant-contravariant simulation and the logic that matches it.

Labels carry a class: covariant moves of the smaller system must be
matched by the larger one (think outputs or progress the implementation
promises), contravariant moves go the other way (think inputs the
implementation must accept).  Diamonds are only well formed on covariant
labels, boxes on contravariant ones, and satisfaction of every
well-formed formula travels up the preorder.
"""

from modalsim import (
    distinguishing_formula,
    CCSim,
    formula_text,
    greatest,
    lts,
    mc_cc,
    parse_formula,
    signature,
)


def main() -> None:
    sig = signature(cov=["a"], con=["b"])
    system = lts(
        states=["p", "q", "r", "s"],
        sig=sig,
        transitions=[
            ("p", "a", "s"),
            ("p", "b", "s"),
            ("q", "a", "s"),
            ("r", "b", "s"),
        ],
        init="p",
    )
    rel = greatest(CCSim(), system, system)
    print("ordered pairs:", sorted(rel.pairs))

    # r offers no covariant move and accepts b, so it sits below p, which
    # in turn sits below q (q accepts nothing on b).
    for left, right in [("r", "p"), ("p", "q"), ("q", "p")]:
        related = (left, right) in rel
        print(f"{left} <=cc {right}: {related}")
        if not related:
            witness = distinguishing_formula(CCSim(), system, left, system, right)
            print(f"  separated by: {formula_text(witness)}")

    # Formula truth is monotone along the preorder.
    phi = parse_formula("<a>tt")
    for state in ["r", "p", "q"]:
        print(f"{state} |= <a>tt: {mc_cc(system, state, phi)}")


if __name__ == "__main__":
    main()
