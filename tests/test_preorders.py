import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from modalsim.formulas import BLLogic, CCLogic, check_wf, mc_cc, mc_mts
from modalsim.preorders import (
    CCSim,
    ORACLE_PRODUCT_CAP,
    PartialBisim,
    Refinement,
    Relation,
    Simulation,
    _Game,
    _prepare,
    compose_relations,
    decide,
    distinguishing_formula,
    fixpoint_rounds,
    greatest,
    oracle_greatest,
)
from modalsim.sampling import random_lts_pair, random_mts_pair, random_plain_lts
from modalsim.systems import action, lts, mts, plain_signature, signature, universal_mts

A = action("a")
B = action("b")

# One covariant and one contravariant label; p can do both moves, q only the
# covariant one, r only the contravariant one.
CC_SIG = signature(cov=["a"], con=["b"])
CCEX = lts(
    states=["p", "q", "r", "s"],
    sig=CC_SIG,
    transitions=[("p", "a", "s"), ("p", "b", "s"), ("q", "a", "s"), ("r", "b", "s")],
    init="p",
)


def test_ccsim_chain_on_the_two_class_example():
    rel = greatest(CCSim(), CCEX, CCEX)
    assert ("r", "p") in rel
    assert ("p", "q") in rel
    assert ("r", "q") in rel
    assert ("p", "r") not in rel
    assert ("q", "p") not in rel
    assert ("q", "r") not in rel


def test_ccsim_distinguishing_formulas_separate():
    for left, right in [("p", "r"), ("q", "p"), ("q", "r")]:
        phi = distinguishing_formula(CCSim(), CCEX, left, CCEX, right)
        assert phi is not None
        assert check_wf(phi, CCLogic(CC_SIG)) == []
        assert mc_cc(CCEX, left, phi)
        assert not mc_cc(CCEX, right, phi)
    assert distinguishing_formula(CCSim(), CCEX, "r", CCEX, "p") is None


def test_refinement_against_the_universal_system():
    u = universal_mts(["a"])
    demanding = mts(["m"], ["a"], [("m", "a", "m")], [("m", "a", "m")], "m")
    assert ("u", "m") in greatest(Refinement(), u, demanding)
    assert ("m", "u") not in greatest(Refinement(), demanding, u)
    loose = mts(["n"], ["a"], [("n", "a", "n")], [], "n")
    assert ("u", "n") in greatest(Refinement(), u, loose)
    assert ("n", "u") in greatest(Refinement(), loose, u)


def test_refinement_clauses_by_hand():
    spec = mts(
        states=["s0", "s1"],
        acts=["a"],
        may=[("s0", "a", "s1")],
        must=[],
        init="s0",
    )
    impl = mts(
        states=["t0", "t1"],
        acts=["a"],
        may=[("t0", "a", "t1")],
        must=[("t0", "a", "t1")],
        init="t0",
    )
    # The spec's may move can be dropped or promoted: spec is below impl.
    assert ("s0", "t0") in greatest(Refinement(), spec, impl)
    # The impl's must move has no counterpart in the spec.
    assert ("t0", "s0") not in greatest(Refinement(), impl, spec)


def test_partial_bisimulation_depends_on_the_set():
    p = lts(["p0", "p1"], plain_signature(["a", "b"]), [("p0", "a", "p1")], "p0")
    q = lts(
        ["q0", "q1", "q2"],
        plain_signature(["a", "b"]),
        [("q0", "a", "q1"), ("q0", "b", "q2")],
        "q0",
    )
    assert ("p0", "q0") in greatest(PartialBisim(frozenset({A})), p, q)
    assert ("p0", "q0") not in greatest(PartialBisim(frozenset({A, B})), p, q)
    assert ("p0", "q0") in greatest(Simulation(), p, q)
    assert ("q0", "p0") not in greatest(Simulation(), q, p)


def test_pbsim_rejects_labels_outside_the_alphabet():
    p = lts(["p0"], plain_signature(["a"]), [], "p0")
    with pytest.raises(ValueError):
        greatest(PartialBisim(frozenset({action("z")})), p, p)


def test_simulation_is_partial_bisimulation_with_the_empty_set():
    assert isinstance(Simulation(), PartialBisim)
    assert Simulation().bset == frozenset()
    assert Simulation() == Simulation()
    assert Simulation() != PartialBisim(frozenset())
    assert repr(Simulation()) == "Simulation()"
    assert type(copy.copy(Simulation())) is type(pickle.loads(pickle.dumps(Simulation()))) is Simulation


# Left moves on ``b``, outside the alphabet {a}: the definitions match every
# move of the left, whatever its label.
STRAY_CASES = [
    (lts(["p0", "p1"], plain_signature(["a"]), [("p0", "b", "p1")], "p0"),
     lts(["q0"], plain_signature(["a"]), [], "q0")),
    (lts(["p0", "p1"], plain_signature(["a"]), [("p0", "b", "p1"), ("p0", "a", "p0")], "p0"),
     lts(["q0", "q1"], plain_signature(["a"]), [("q0", "a", "q0"), ("q0", "b", "q1")], "q0")),
    (lts(["p0", "p1"], plain_signature(["a"]), [("p0", "a", "p1"), ("p1", "b", "p1")], "p0"),
     lts(["q0", "q1", "q2"], plain_signature(["a"]), [("q0", "a", "q1"), ("q0", "a", "q2"), ("q2", "b", "q2")],
         "q0")),
]


@pytest.mark.parametrize("kind", [Simulation(), PartialBisim(frozenset({A}))], ids=["sim", "pbsim"])
@pytest.mark.parametrize("case", range(len(STRAY_CASES)))
def test_left_moves_outside_the_alphabet_are_matched(kind, case):
    p, q = STRAY_CASES[case]
    expected = oracle_greatest(kind, p, q).pairs
    assert greatest(kind, p, q).pairs == expected
    for pp in sorted(p.states):
        for qq in sorted(q.states):
            assert decide(kind, p, pp, q, qq)[0] == ((pp, qq) in expected), (pp, qq)
            assert decide(kind, p, pp, q, qq, whole=True)[0] == ((pp, qq) in expected), (pp, qq)


def test_partial_bisimulation_games_index_the_left_moves_once():
    p, q = STRAY_CASES[1]
    for kind in (Simulation(), PartialBisim(frozenset({A}))):
        game = _Game(p.states, q.states, _prepare(kind, p, q))
        assert game.p_steps is game.p_answers
    left = lts(["s", "t"], CC_SIG, [("s", "a", "t"), ("s", "b", "t")], "s")
    m = mts(["s", "t"], ["a"], [("s", "a", "t")], [("s", "a", "t")], "s")
    for kind, system in ((CCSim(), left), (Refinement(), m)):
        game = _Game(system.states, system.states, _prepare(kind, system, system))
        assert game.p_steps is not game.p_answers


def test_relation_helpers():
    rel = Relation(frozenset({("x", "y"), ("y", "z")}))
    assert ("x", "y") in rel
    assert rel.inverse().pairs == frozenset({("y", "x"), ("z", "y")})
    composed = compose_relations(rel, Relation(frozenset({("y", "w")})))
    assert composed.pairs == frozenset({("x", "w")})


def test_kinds_and_relations_are_read_only_values():
    assert Refinement() == Refinement()
    assert Refinement() != CCSim()
    assert bool(Simulation())
    assert PartialBisim(frozenset({A})) == PartialBisim(bset=frozenset({A}))
    assert hash(PartialBisim(frozenset({A}))) == hash(PartialBisim(frozenset({A})))
    assert PartialBisim(frozenset({A})) != PartialBisim(frozenset({B}))
    rel = Relation(frozenset({("x", "y")}))
    assert rel == Relation(pairs=frozenset({("x", "y")}))
    assert rel != rel.inverse()
    with pytest.raises(TypeError):
        len(rel)
    assert repr(rel) == "Relation(pairs=frozenset({('x', 'y')}))"
    assert repr(PartialBisim(frozenset({A}))) == "PartialBisim(bset=frozenset({Action('a')}))"
    assert repr(CCSim()) == "CCSim()"
    for value, field in ((rel, "pairs"), (PartialBisim(frozenset()), "bset"), (Refinement(), "bset")):
        with pytest.raises(AttributeError):
            setattr(value, field, frozenset())
        assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value


def test_fixpoint_rounds_shrink_from_the_full_product():
    demanding = mts(["m"], ["a"], [("m", "a", "m")], [("m", "a", "m")], "m")
    silent = mts(["n"], ["a"], [], [], "n")
    rounds = fixpoint_rounds(Refinement(), demanding, silent)
    assert rounds[0] == frozenset({("m", "n")})
    assert rounds[-1] == frozenset()
    for earlier, later in zip(rounds, rounds[1:]):
        assert later < earlier


def test_oracle_rejects_large_products():
    big = lts([f"s{i}" for i in range(4)], plain_signature(["a"]), [], "s0")
    other = lts([f"t{i}" for i in range(4)], plain_signature(["a"]), [], "t0")
    assert 16 > ORACLE_PRODUCT_CAP
    with pytest.raises(ValueError):
        oracle_greatest(Simulation(), big, other)


def test_distinguishing_formula_unsupported_kind():
    p = lts(["p0"], plain_signature(["a"]), [], "p0")
    with pytest.raises(TypeError):
        distinguishing_formula(Simulation(), p, "p0", p, "p0")


def test_mismatched_alphabets_are_rejected():
    one = mts(["s"], ["a"], [], [], "s")
    two = mts(["t"], ["b"], [], [], "t")
    with pytest.raises(ValueError):
        greatest(Refinement(), one, two)
    left = lts(["s"], signature(cov=["a"]), [], "s")
    right = lts(["t"], signature(con=["a"]), [], "t")
    with pytest.raises(ValueError):
        greatest(CCSim(), left, right)


@pytest.mark.parametrize(
    "kind,compared",
    [
        (Refinement(), "two MTSs"),
        (CCSim(), "two LTSs"),
        (PartialBisim(frozenset({A})), "two LTSs"),
        (Simulation(), "two LTSs"),
    ],
    ids=["refine", "ccsim", "pbsim", "sim"],
)
def test_wrong_system_type_is_a_type_error(kind, compared):
    systems = {
        "two MTSs": mts(["s"], ["a"], [], [], "s"),
        "two LTSs": lts(["s"], plain_signature(["a"]), [], "s"),
    }
    right = systems[compared]
    wrong = next(system for name, system in systems.items() if name != compared)
    for p_sys, q_sys in ((wrong, wrong), (wrong, right), (right, wrong)):
        calls = [
            lambda: greatest(kind, p_sys, q_sys),
            lambda: decide(kind, p_sys, "s", q_sys, "s"),
            lambda: decide(kind, p_sys, "s", q_sys, "s", whole=True),
            lambda: oracle_greatest(kind, p_sys, q_sys),
        ]
        for call in calls:
            with pytest.raises(TypeError, match=compared):
                call()
    assert greatest(kind, right, right).pairs == {("s", "s")}


@pytest.mark.parametrize("kind", [PartialBisim(frozenset()), Simulation()], ids=["pbsim", "sim"])
def test_mismatched_plain_alphabets_name_both_kinds(kind):
    left = lts(["s"], plain_signature(["a"]), [], "s")
    right = lts(["t"], plain_signature(["b"]), [], "t")
    with pytest.raises(ValueError, match="^partial bisimulation and simulation need both systems"):
        greatest(kind, left, right)


def test_unknown_kind_is_a_type_error():
    system = mts(["s"], ["a"], [], [], "s")
    calls = [
        lambda: greatest(object(), system, system),
        lambda: decide(object(), system, "s", system, "s"),
        lambda: decide(object(), system, "s", system, "s", whole=True),
        lambda: fixpoint_rounds(object(), system, system),
        lambda: oracle_greatest(object(), system, system),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="unknown preorder kind"):
            call()


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_fixpoint_matches_oracle_on_small_refinement_pairs(seed):
    rng = random.Random(seed)
    p, q = random_mts_pair(rng, max_states=3, max_labels=2)
    assert greatest(Refinement(), p, q).pairs == oracle_greatest(Refinement(), p, q).pairs


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_fixpoint_matches_oracle_on_small_ccsim_pairs(seed):
    rng = random.Random(seed)
    p, q = random_lts_pair(rng, max_states=3)
    assert greatest(CCSim(), p, q).pairs == oracle_greatest(CCSim(), p, q).pairs


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_refinement_distinguishing_formulas_separate(seed):
    rng = random.Random(seed)
    p, q = random_mts_pair(rng, max_states=3, max_labels=2)
    rel = greatest(Refinement(), p, q)
    logic = BLLogic(p.actions)
    for pp in sorted(p.states):
        for qq in sorted(q.states):
            phi = distinguishing_formula(Refinement(), p, pp, q, qq)
            if (pp, qq) in rel:
                assert phi is None
            else:
                assert phi is not None
                assert check_wf(phi, logic) == []
                assert mc_mts(p, pp, phi)
                assert not mc_mts(q, qq, phi)
