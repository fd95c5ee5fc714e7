"""One formula per process term that captures its refinements exactly.

For finite modal terms, refinement collapses into model checking: t is
below t' precisely when t' satisfies the characteristic formula of t.
The leaner equivalent form drops boxes whose bound is vacuous.
"""

from modalsim import (
    Refinement,
    characteristic_formula,
    enumerate_mts_terms,
    expand_mts_term,
    formula_text,
    greatest,
    mc_mts,
    parse_term,
    term_text,
)


def main() -> None:
    for text in ["a!0", "a.0", "0", "w", "a!w + b.0"]:
        term = parse_term(text)
        result = characteristic_formula(term, ["a", "b"])
        print(f"chi({text:8}) = {formula_text(result.formula)}")
        print(f"   simplified: {formula_text(result.simplified)}")

    # The correspondence, checked exhaustively for every pair of terms of
    # height at most two over one label.
    terms = enumerate_mts_terms(["a"], 2)
    expansions = {t: expand_mts_term(t, ["a"]) for t in terms}
    agreements = 0
    for t in terms:
        chi = characteristic_formula(t, ["a"]).formula
        for u in terms:
            left = expansions[t]
            right = expansions[u]
            refines = (left.init, right.init) in greatest(Refinement(), left, right)
            satisfies = mc_mts(right, right.init, chi)
            assert refines == satisfies, (term_text(t), term_text(u))
            agreements += 1
    print(f"refinement == satisfaction on all {agreements} term pairs")


if __name__ == "__main__":
    main()
