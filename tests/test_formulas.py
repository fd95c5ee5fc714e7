import random
import time
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from modalsim import formulas
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
from modalsim.charform import characteristic_formula
from modalsim.preorders import Refinement, distinguishing_formula
from modalsim.sampling import random_bl_formula, random_cc_formula, random_lts, random_mts, random_signature
from modalsim.systems import CCSignature, action, actions, lts, mts, shared_nodes, signature
from modalsim.terms import MustPrefix, Sum, Zero

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


def reference_text(phi, level=0):
    """The printed tree of ``phi``, written apart from ``formula_text``.
    ``level`` is the context: 0 under ``|``, 1 under ``&``, 2 under a
    modality."""
    if isinstance(phi, Bottom):
        return "ff"
    if isinstance(phi, Top):
        return "tt"
    if isinstance(phi, (Diamond, Box)):
        opening, closing = "<>" if isinstance(phi, Diamond) else "[]"
        return f"{opening}{phi.action}{closing}{reference_text(phi.body, 2)}"
    if isinstance(phi, And):
        text = f"{reference_text(phi.left, 1)} & {reference_text(phi.right, 1)}"
        return f"({text})" if level >= 2 else text
    text = f"{reference_text(phi.left, 0)} | {reference_text(phi.right, 0)}"
    return f"({text})" if level >= 1 else text


def test_formula_text_matches_the_tree_printer_on_random_formulae():
    rng = random.Random(6)
    sig = signature(cov=["a"], con=["b"], bi=["c"])
    for _ in range(200):
        phi = random_bl_formula(rng, frozenset({A, B}), 6)
        psi = random_cc_formula(rng, sig, 6)
        # The same two nodes under &, a modality and |, so each is printed
        # in every context.
        shared = Or(And(phi, psi), Or(And(Box(A, phi), Diamond(B, psi)), Or(phi, psi)))
        for chi in (phi, psi, shared):
            assert formula_text(chi) == reference_text(chi)


def test_formula_text_matches_the_tree_printer_on_shared_dags():
    n = 16
    chain = [f"c{i}" for i in range(n + 2)]
    steps = [(chain[i], "a", chain[i + 1]) for i in range(n + 1)]
    left = mts(states=chain, acts=["a"], may=steps, must=steps, init=chain[0])
    rungs = [(f"x{i}", f"y{i}") for i in range(n)]
    ladder = [("r", "a", dst) for dst in rungs[0]]
    for upper, lower in zip(rungs, rungs[1:]):
        ladder += [(src, "a", dst) for src in upper for dst in lower]
    states = ["r"] + [s for rung in rungs for s in rung]
    right = mts(states=states, acts=["a"], may=ladder, must=ladder, init="r")
    witness = distinguishing_formula(Refinement(), left, "c0", right, "r")
    assert formula_text(witness) == reference_text(witness)

    term = Zero()
    for _ in range(12):
        term = MustPrefix(A, term)
    simplified = characteristic_formula(term, ["a", "b"]).simplified
    assert formula_text(simplified) == reference_text(simplified)


def test_walks_of_a_shared_formula_cost_its_dag_size():
    # 40 levels of <b>(f & f) over [a]tt: 82 nodes, a tree of about 2**42.
    f = Box(A, Top())
    for _ in range(40):
        f = Diamond(B, And(f, f))
    m = mts(states=["s"], acts=["a", "b"], may=[("s", "a", "s"), ("s", "b", "s")],
            must=[("s", "b", "s")], init="s")
    start = time.perf_counter()
    assert check_wf(f, BLLogic(m.actions)) == []
    assert mc_mts(m, "s", f)
    assert modal_depth(f) == 41
    assert not is_existential(f)
    assert time.perf_counter() - start < 1.0


def test_equal_formulae_are_one_node_and_show_in_their_dag_size(monkeypatch):
    # Two separate builds of 40 levels of <b>(f & f) over [a]tt: a tree of
    # about 2**42 nodes, so a tree walk in ==, hash or repr never finishes.
    def build():
        f = Box(A, Top())
        for _ in range(40):
            f = Diamond(B, And(f, f))
        return f

    start = time.perf_counter()
    x, y = build(), build()
    assert x is y
    assert x == y
    assert hash(x) == hash(y)
    assert repr(x) == "<Diamond of 81 nodes besides tt and ff>"
    assert time.perf_counter() - start < 1.0
    # The repr finds the shared nodes once and prints with them.
    walks = []
    monkeypatch.setattr(formulas, "shared_nodes", lambda phi: walks.append(phi) or shared_nodes(phi))
    assert repr(And(Diamond(A, Top()), Or(Top(), Box(B, Bottom())))) == "<a>tt & (tt | [b]ff)"
    assert len(walks) == 1


def test_check_wf_reports_a_shared_subformula_problem_once():
    inner = Box(action("x"), Top())
    outer = Diamond(action("y"), inner)
    phi = And(And(outer, inner), outer)
    x, y = (f"label {name} is not in the alphabet" for name in "xy")
    assert check_wf(phi, BLLogic(frozenset({A}))) == [y, x]


def test_check_wf_of_a_shared_characteristic_formula_is_bounded_by_its_dag():
    # chi(t_k), t_k = a!t_(k-1) + b!t_(k-1), is a DAG linear in k whose tree
    # is exponential in k; over {a} its b-modalities are ill formed.
    def chi(k):
        term = reduce(lambda t, _: Sum(MustPrefix(A, t), MustPrefix(B, t)), range(k), Zero())
        return characteristic_formula(term, ["a", "b"]).formula

    phi = chi(10)
    problems = check_wf(phi, BLLogic(frozenset({A})))
    assert 0 < len(problems) <= len(shared_nodes(phi)[0])
    one = mts(states=["s"], acts=["a"], may=[("s", "a", "s")], must=[("s", "a", "s")], init="s")
    with pytest.raises(ValueError, match="label b is not in the alphabet"):
        mc_mts(one, "s", chi(40))


def _wf_reference(phi, logic, seen=None):
    # check_wf as a recursion over the tree that skips a node it has visited.
    if seen is None:
        seen = set()
    if isinstance(phi, (Bottom, Top)) or phi in seen:
        return []
    seen.add(phi)
    if isinstance(phi, (And, Or)):
        return _wf_reference(phi.left, logic, seen) + _wf_reference(phi.right, logic, seen)
    if not isinstance(phi, (Diamond, Box)):
        raise TypeError(f"not a formula: {phi!r}")
    a, problems = phi.action, []
    if isinstance(logic, BLLogic):
        if a not in logic.actions:
            problems.append(f"label {a} is not in the alphabet")
    else:
        sig = logic.signature
        dia = isinstance(phi, Diamond)
        if a not in sig.actions:
            problems.append(f"label {a} is not in the signature")
        elif a not in (sig.covariant if dia else sig.contravariant) | sig.bivariant:
            modality, side = ("diamond", "covariant") if dia else ("box", "contravariant")
            problems.append(f"{modality} modality needs a {side} or bivariant label: {a}")
    return problems + _wf_reference(phi.body, logic, seen)


def _misfit_case(rng, case):
    # A random formula and a system whose alphabet lacks one of its labels
    # (case 0), or whose signature has one of its labels in another class
    # (case 1) or not at all (case 2).
    if case == 0:
        acts = actions("a", "b", "c")
        phi = random_bl_formula(rng, acts, max_depth=5)
        used = sorted({n.action for n in subformulas(phi) if isinstance(n, (Diamond, Box))}, key=str)
        m = random_mts(rng, acts - {rng.choice(used)} if used else acts)
        return phi, BLLogic(m.actions), lambda: mc_mts(m, m.init, phi)
    sig = random_signature(rng, max_per_class=2)
    phi = random_cc_formula(rng, sig, max_depth=5)
    classes = [set(sig.covariant), set(sig.contravariant), set(sig.bivariant)]
    label = rng.choice(sorted(sig.actions, key=str))
    home = next(i for i, c in enumerate(classes) if label in c)
    classes[home].discard(label)
    if case == 1:
        classes[rng.choice([i for i in range(3) if i != home])].add(label)
    p = random_lts(rng, CCSignature(*map(frozenset, classes)))
    return phi, CCLogic(p.signature), lambda: mc_cc(p, p.init, phi)


def test_check_wf_matches_a_recursive_walk_where_labels_do_not_fit():
    rng = random.Random(20)
    worded = 0
    for case in range(600):
        phi, logic, check = _misfit_case(rng, case % 3)
        problems = check_wf(phi, logic)
        assert problems == _wf_reference(phi, logic)
        if problems:
            worded += 1
            with pytest.raises(ValueError) as error:
                check()
            assert str(error.value) == "; ".join(problems)
        else:
            check()
        for bad in (And(phi, Zero()), Or(Zero(), phi), Diamond(A, Zero()), Zero()):
            with pytest.raises(TypeError, match="not a formula"):
                check_wf(bad, logic)
    assert worded > 200


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
