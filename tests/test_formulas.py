import random

import pytest
from hypothesis import given, strategies as st

from modalsim.formulas import (
    And,
    BLLogic,
    Bottom,
    Box,
    CCLogic,
    Diamond,
    Or,
    Top,
    check_wf,
    conj,
    disj,
    formula_text,
    is_existential,
    mc_cc,
    mc_mts,
    modal_depth,
    replace_subformula,
    satisfying_states_cc,
    satisfying_states_mts,
    simplify,
    subformulas,
)
from modalsim.sampling import random_bl_formula, random_cc_formula
from modalsim.systems import action, lts, mts, signature

A = action("a")
B = action("b")

VENDING = mts(
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

COIN = action("coin")
TEA = action("tea")


def test_formula_text_precedence():
    assert formula_text(And(Or(Top(), Bottom()), Top())) == "(tt | ff) & tt"
    assert formula_text(Or(Top(), And(Bottom(), Top()))) == "tt | ff & tt"
    assert formula_text(Box(A, And(Top(), Top()))) == "[a](tt & tt)"
    assert formula_text(Diamond(A, Or(Top(), Bottom()))) == "<a>(tt | ff)"
    assert formula_text(Diamond(A, Box(B, Bottom()))) == "<a>[b]ff"


def test_mc_mts_diamond_needs_a_must_edge():
    assert mc_mts(VENDING, "idle", Diamond(COIN, Top()))
    assert not mc_mts(VENDING, "served", Diamond(COIN, Top()))
    assert mc_mts(VENDING, "served", Box(TEA, Bottom()))
    assert not mc_mts(VENDING, "paid", Box(COIN, Bottom()))


def test_mc_mts_box_ranges_over_may_edges():
    # Every may coin edge from paid loops back to paid, which must serve tea.
    phi = Box(COIN, Diamond(TEA, Top()))
    assert mc_mts(VENDING, "paid", phi)
    assert mc_mts(VENDING, "served", phi)
    assert mc_mts(VENDING, "idle", phi)


def test_mc_mts_rejects_unknown_state_and_label():
    with pytest.raises(ValueError):
        mc_mts(VENDING, "nowhere", Top())
    with pytest.raises(ValueError):
        mc_mts(VENDING, "idle", Diamond(action("wash"), Top()))


def test_cc_logic_wellformedness():
    sig = signature(cov=["a"], con=["b"], bi=["c"])
    logic = CCLogic(sig)
    assert check_wf(Diamond(action("a"), Top()), logic) == []
    assert check_wf(Diamond(action("c"), Top()), logic) == []
    assert check_wf(Diamond(action("b"), Top()), logic)
    assert check_wf(Box(action("b"), Top()), logic) == []
    assert check_wf(Box(action("a"), Top()), logic)


def test_mc_cc_uses_one_transition_relation():
    sig = signature(cov=["a"], con=["b"])
    p = lts(["s", "t"], sig, [("s", "a", "t"), ("s", "b", "s")], "s")
    assert mc_cc(p, "s", Diamond(A, Top()))
    assert not mc_cc(p, "t", Diamond(A, Top()))
    assert mc_cc(p, "t", Box(B, Bottom()))
    assert not mc_cc(p, "s", Box(B, Bottom()))
    with pytest.raises(ValueError):
        mc_cc(p, "s", Box(A, Top()))


def test_satisfying_states_agree_with_mc():
    phi = Or(Diamond(COIN, Top()), Box(TEA, Bottom()))
    states = satisfying_states_mts(VENDING, phi)
    for s in VENDING.states:
        assert (s in states) == mc_mts(VENDING, s, phi)


def test_satisfying_states_by_hand():
    everything = frozenset({"idle", "paid", "served"})
    for phi, want in [
        (Top(), everything),
        (Bottom(), frozenset()),
        (Or(Diamond(COIN, Top()), Box(TEA, Bottom())), {"idle", "served"}),
        (Diamond(COIN, Diamond(TEA, Top())), {"idle"}),
        (Box(COIN, Diamond(TEA, Top())), everything),
    ]:
        assert satisfying_states_mts(VENDING, phi) == want
    p = lts(["s", "t"], signature(cov=["a"], con=["b"]), [("s", "a", "t"), ("s", "b", "s")], "s")
    for phi, want in [
        (Diamond(A, Top()), {"s"}),
        (Box(B, Bottom()), {"t"}),
        (Box(B, Diamond(A, Top())), {"s", "t"}),
        (Diamond(A, Box(B, Bottom())), {"s"}),
        (And(Diamond(A, Top()), Box(B, Bottom())), set()),
    ]:
        assert satisfying_states_cc(p, phi) == want


def test_conj_and_disj_edge_cases():
    assert conj([]) == Top()
    assert disj([]) == Bottom()
    assert conj([Top(), Bottom()]) == And(Top(), Bottom())
    three = disj([Top(), Bottom(), Top()])
    assert three == Or(Or(Top(), Bottom()), Top())


def test_simplify_laws():
    phi = And(Top(), Diamond(A, Top()))
    assert simplify(phi) == Diamond(A, Top())
    assert simplify(Or(Bottom(), Box(A, Top()))) == Top()
    assert simplify(Box(A, Top())) == Top()
    assert simplify(And(Bottom(), Diamond(A, Top()))) == Bottom()
    assert simplify(Diamond(A, And(Top(), Top()))) == Diamond(A, Top())


def test_simplify_keeps_a_shared_subformula_shared():
    f = Diamond(A, And(Top(), Box(B, Bottom())))
    out = simplify(And(f, f))
    assert out == And(Diamond(A, Box(B, Bottom())), Diamond(A, Box(B, Bottom())))
    assert out.left is out.right


def test_replace_subformula_keeps_a_shared_subformula_shared():
    f = Diamond(A, Top())
    out = replace_subformula(And(f, f), Top(), Box(B, Bottom()))
    assert out == And(Diamond(A, Box(B, Bottom())), Diamond(A, Box(B, Bottom())))
    assert out.left is out.right


def test_modal_depth_and_existential():
    phi = Diamond(A, Box(B, Or(Top(), Diamond(A, Bottom()))))
    assert modal_depth(phi) == 3
    assert not is_existential(phi)
    assert is_existential(Diamond(A, And(Top(), Diamond(A, Bottom()))))


def test_subformulas_postorder_contains_all_parts():
    phi = And(Diamond(A, Top()), Bottom())
    parts = list(subformulas(phi))
    assert parts[-1] == phi
    assert Top() in parts
    assert Diamond(A, Top()) in parts
    assert Bottom() in parts


@given(st.integers(min_value=0, max_value=10**6))
def test_simplify_never_changes_satisfaction(seed):
    rng = random.Random(seed)
    acts = frozenset({COIN, TEA})
    phi = random_bl_formula(rng, acts, 3)
    lean = simplify(phi)
    assert satisfying_states_mts(VENDING, phi) == satisfying_states_mts(VENDING, lean)


@given(st.integers(min_value=0, max_value=10**6))
def test_generated_cc_formulas_are_wellformed(seed):
    rng = random.Random(seed)
    sig = signature(cov=["a"], con=["b"], bi=["c"])
    phi = random_cc_formula(rng, sig, 4)
    assert check_wf(phi, CCLogic(sig)) == []
