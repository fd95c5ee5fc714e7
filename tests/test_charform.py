import pytest

from modalsim.charform import (
    characteristic_formula,
    characteristic_formula_cc,
    encode_term,
    is_omega_equivalent,
)
from modalsim.formulas import (
    And,
    Bottom,
    Box,
    Diamond,
    Top,
    formula_text,
    mc_cc,
    mc_mts,
)
from modalsim.preorders import Refinement, greatest
from modalsim.systems import action, cv, ct, signature
from modalsim.terms import (
    MustPrefix,
    Omega,
    Prefix,
    Sum,
    Zero,
    enumerate_mts_terms,
    expand_lts_term,
    expand_mts_term,
)
from modalsim.translate import encode_formula

A = action("a")
B = action("b")

MUST_A = MustPrefix(A, Zero())
MAY_A = Prefix(A, Zero())


def test_forced_prefix_gets_both_clauses():
    result = characteristic_formula(MUST_A, ["a"])
    assert formula_text(result.formula) == "<a>[a]ff & [a][a]ff"
    assert formula_text(result.simplified) == "<a>[a]ff & [a][a]ff"


def test_same_label_diamonds_follow_the_text_of_their_targets():
    result = characteristic_formula(Sum(MUST_A, MustPrefix(A, Prefix(A, Omega()))), ["a"])
    assert formula_text(result.formula) == "<a>[a]ff & <a>[a][a]tt & [a]([a]ff | [a][a]tt)"
    assert formula_text(result.simplified) == "<a>[a]ff & <a>tt"


def test_deadlock_forbids_every_action():
    result = characteristic_formula(Zero(), ["a", "b"])
    assert formula_text(result.formula) == "[a]ff & [b]ff"


def test_loosest_term_needs_no_constraints():
    result = characteristic_formula(Omega(), ["a"])
    assert result.formula == Box(A, Top())
    assert result.simplified == Top()


def test_omega_equivalence():
    assert is_omega_equivalent(Omega(), ["a"])
    assert is_omega_equivalent(Prefix(A, Omega()), ["a"])
    assert not is_omega_equivalent(MAY_A, ["a"])
    assert not is_omega_equivalent(MUST_A, ["a"])
    # Over the empty alphabet there is nothing to allow, so 0 is as loose
    # as w already.
    assert is_omega_equivalent(Zero(), [])


def test_literal_prefix_clause_is_not_characteristic():
    sound = characteristic_formula(MAY_A, ["a"])
    broken = characteristic_formula(MAY_A, ["a"], literal_prefix_clause=True)
    assert formula_text(sound.formula) == "[a][a]ff"
    assert formula_text(broken.formula) == "[a]ff"
    assert broken.simplified == sound.simplified

    expansion = expand_mts_term(MAY_A, ["a"])
    # Every term refines itself, so its characteristic formula must hold at
    # its own expansion.  The literal clause loses that.
    assert mc_mts(expansion, expansion.init, sound.formula)
    assert not mc_mts(expansion, expansion.init, broken.formula)


def test_characterisation_on_a_hand_pair():
    may_exp = expand_mts_term(MAY_A, ["a"])
    must_exp = expand_mts_term(MUST_A, ["a"])
    chi_may = characteristic_formula(MAY_A, ["a"]).formula
    chi_must = characteristic_formula(MUST_A, ["a"]).formula
    # a!0 refines a.0 but not the other way around; satisfaction of the
    # characteristic formulae says exactly the same.
    assert (may_exp.init, must_exp.init) in greatest(Refinement(), may_exp, must_exp)
    assert mc_mts(must_exp, must_exp.init, chi_may)
    assert (must_exp.init, may_exp.init) not in greatest(Refinement(), must_exp, may_exp)
    assert not mc_mts(may_exp, may_exp.init, chi_must)


def test_characterisation_across_all_small_terms():
    terms = enumerate_mts_terms(["a"], 2)
    assert len(terms) == 9
    expansions = {t: expand_mts_term(t, ["a"]) for t in terms}
    formulas = {t: characteristic_formula(t, ["a"]) for t in terms}
    for t in terms:
        for u in terms:
            refines = (
                expansions[t].init,
                expansions[u].init,
            ) in greatest(Refinement(), expansions[t], expansions[u])
            holds = mc_mts(expansions[u], expansions[u].init, formulas[t].formula)
            lean = mc_mts(expansions[u], expansions[u].init, formulas[t].simplified)
            assert refines == holds
            assert refines == lean


def test_encode_term_shapes():
    assert encode_term(Zero()) == Zero()
    assert encode_term(Omega()) == Omega()
    assert encode_term(Prefix(A, Omega())) == Prefix(ct(A), Omega())
    assert encode_term(MUST_A) == Sum(
        Prefix(cv(A), Zero()), Prefix(ct(A), Zero())
    )
    both = Sum(MAY_A, MUST_A)
    assert encode_term(both) == Sum(encode_term(MAY_A), encode_term(MUST_A))


def test_encoded_formula_matches_the_codec():
    chi = characteristic_formula(MUST_A, ["a"]).formula
    assert characteristic_formula_cc(MUST_A, ["a"]) == encode_formula(chi)
    assert characteristic_formula_cc(MUST_A, ["a"]) == And(
        Diamond(cv(A), Box(ct(A), Bottom())),
        Box(ct(A), Box(ct(A), Bottom())),
    )


def test_encoded_formula_separates_encoded_terms():
    sig = signature(cov=[cv(A)], con=[ct(A)])
    chi_cc = characteristic_formula_cc(MUST_A, ["a"])
    forced = expand_lts_term(encode_term(MUST_A), sig)
    optional = expand_lts_term(encode_term(MAY_A), sig)
    assert mc_cc(forced, forced.init, chi_cc)
    assert not mc_cc(optional, optional.init, chi_cc)


def _dag_nodes(phi):
    seen, stack = set(), [phi]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, f) for f in ("left", "right", "body") if hasattr(node, f))
    return len(seen)


def test_simplified_must_chain_stays_linear():
    depth = 13
    term = Zero()
    for _ in range(depth):
        term = MustPrefix(A, term)
    result = characteristic_formula(term, ["a", "b"])
    assert _dag_nodes(result.simplified) <= 8 * depth


@pytest.mark.parametrize(
    "term",
    [MustPrefix(B, Zero()), Prefix(B, Omega()), Prefix(A, Prefix(B, Zero()))],
    ids=["b!0", "b.w", "a.b.0"],
)
def test_term_labels_outside_the_alphabet_are_rejected(term):
    with pytest.raises(ValueError, match=r"^term labels b are outside the ambient"):
        characteristic_formula(term, ["a"])
    with pytest.raises(ValueError, match=r"^term labels b are outside the ambient"):
        is_omega_equivalent(term, ["a"])
