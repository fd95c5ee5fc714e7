import random

import pytest
from hypothesis import given, settings, strategies as st

from modalsim.formulas import And, Bottom, Box, Diamond, Top, mc_cc, mc_mts
from modalsim.institutions import (
    cc_morphism,
    check_morphism_condition,
    check_satisfaction_condition,
    compose_morphisms,
    final_obstruction_pair,
    identity_morphism,
    initial_obstruction_pair,
    mts_morphism,
    reduct,
    sen_map,
    universal_specification,
    weakly_final_implementation,
)
from modalsim.preorders import CCSim, Refinement, greatest
from modalsim.sampling import random_bl_formula, random_mts
from modalsim.systems import action, actions, cv, ct, lts, mts, signature, universal_mts
from modalsim.translate import decode_formula, lts_of_mts, morphism_signature_map

A = action("a")
B = action("b")
X = action("x")

CCEX = lts(
    states=["p", "q", "r", "s"],
    sig=signature(cov=["a"], con=["b"]),
    transitions=[("p", "a", "s"), ("p", "b", "s"), ("q", "a", "s"), ("r", "b", "s")],
    init="p",
)

COLLAPSE = mts_morphism(["a", "b"], ["x"], {"a": "x", "b": "x"})


def test_morphism_totality_is_checked():
    with pytest.raises(ValueError):
        mts_morphism(["a", "b"], ["x"], {"a": "x"})
    with pytest.raises(ValueError):
        mts_morphism(["a"], ["x"], {"a": "y"})
    with pytest.raises(KeyError):
        COLLAPSE.apply(action("z"))


def test_cc_morphisms_preserve_classes():
    src = signature(cov=["a"], con=["b"])
    tgt = signature(cov=["x"], con=["y"])
    ok = cc_morphism(src, tgt, {"a": "x", "b": "y"})
    assert ok.apply(A) == X
    with pytest.raises(ValueError):
        cc_morphism(src, tgt, {"a": "y", "b": "y"})
    with pytest.raises(ValueError):
        cc_morphism(src, tgt, {"a": "x", "b": "x"})


def test_identity_and_composition_laws():
    ident_src = identity_morphism(["a", "b"])
    ident_tgt = identity_morphism(["x"])
    assert compose_morphisms(COLLAPSE, ident_src) == COLLAPSE
    assert compose_morphisms(ident_tgt, COLLAPSE) == COLLAPSE

    swap = mts_morphism(["x"], ["y"], {"x": "y"})
    once = compose_morphisms(swap, COLLAPSE)
    assert once.apply(A) == action("y")
    assert once.apply(B) == action("y")

    with pytest.raises(ValueError):
        compose_morphisms(COLLAPSE, swap)
    with pytest.raises(TypeError):
        compose_morphisms(COLLAPSE, identity_morphism(signature(cov=["a"])))


def test_sen_map_relabels_modalities():
    phi = And(Diamond(A, Top()), Box(B, Bottom()))
    assert sen_map(COLLAPSE, phi) == And(Diamond(X, Top()), Box(X, Bottom()))

    src = signature(cov=["a"], con=["b"])
    tgt = signature(cov=["x"], con=["y"])
    f = cc_morphism(src, tgt, {"a": "x", "b": "y"})
    assert sen_map(f, Diamond(A, Box(B, Top()))) == Diamond(
        X, Box(action("y"), Top())
    )


def test_sen_map_keeps_a_shared_subformula_shared():
    f = Diamond(A, Box(B, Top()))
    out = sen_map(COLLAPSE, And(f, f))
    assert out == And(Diamond(X, Box(X, Top())), Diamond(X, Box(X, Top())))
    assert out.left is out.right


def test_reduct_pulls_transitions_back():
    model = mts(["s"], ["x"], [("s", "x", "s")], [("s", "x", "s")], "s")
    back = reduct(model, COLLAPSE)
    assert back.actions == actions("a", "b")
    assert back.may == frozenset({("s", A, "s"), ("s", B, "s")})
    assert back.must == back.may

    with pytest.raises(TypeError):
        reduct(model, identity_morphism(signature(cov=["x"])))
    with pytest.raises(ValueError):
        reduct(model, mts_morphism(["a"], ["z"], {"a": "z"}))


def test_satisfaction_condition_by_hand():
    model = mts(["s"], ["x"], [("s", "x", "s")], [("s", "x", "s")], "s")
    phi = Diamond(A, Top())
    assert mc_mts(model, "s", sen_map(COLLAPSE, phi))
    assert mc_mts(reduct(model, COLLAPSE), "s", phi)
    assert check_satisfaction_condition(COLLAPSE, model, "s", phi)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_satisfaction_condition_on_random_models(seed):
    rng = random.Random(seed)
    source = actions("a", "b")
    target = actions("x", "y")
    mapping = {a: rng.choice(sorted(target, key=str)) for a in sorted(source, key=str)}
    f = mts_morphism(source, target, mapping)
    model = random_mts(rng, target, max_states=3)
    phi = random_bl_formula(rng, source, max_depth=3)
    for state in sorted(model.states):
        assert check_satisfaction_condition(f, model, state, phi)


def test_connecting_morphism_pieces():
    sig = morphism_signature_map(["a"])
    assert sig == signature(cov=[cv(A)], con=[ct(A)])

    demanding, silent = final_obstruction_pair()
    phi = And(Diamond(cv(A), Top()), Box(ct(A), Bottom()))
    assert decode_formula(phi) == And(Diamond(A, Top()), Box(A, Bottom()))
    for system in (demanding, silent):
        state = system.init
        assert check_morphism_condition(system, state, phi)
        assert mc_mts(system, state, decode_formula(phi)) == mc_cc(
            lts_of_mts(system), state, phi
        )


def test_weakly_final_implementation_receives_everything():
    witness = weakly_final_implementation(CCEX.signature)
    assert witness.transitions == frozenset({("s", A, "s")})
    rel = greatest(CCSim(), CCEX, witness)
    for state in sorted(CCEX.states):
        assert (state, witness.init) in rel
    with pytest.raises(ValueError):
        weakly_final_implementation(signature(bi=["c"]))


def test_universal_specification_reaches_everything():
    witness = universal_specification(CCEX.signature)
    assert witness.transitions == frozenset({("s", B, "s")})
    rel = greatest(CCSim(), witness, CCEX)
    for state in sorted(CCEX.states):
        assert (witness.init, state) in rel
    with pytest.raises(ValueError):
        universal_specification(signature(bi=["c"]))


def test_weakly_initial_mts_is_below_everything():
    vending = mts(
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
    witness = universal_mts(vending.actions)
    rel = greatest(Refinement(), witness, vending)
    for state in sorted(vending.states):
        assert (witness.init, state) in rel


def test_final_obstruction_pair_pulls_apart():
    demanding, silent = final_obstruction_pair()
    assert (demanding.init, demanding.init) in greatest(Refinement(), demanding, demanding)
    assert (silent.init, silent.init) in greatest(Refinement(), silent, silent)
    # Neither obstruction system reaches the other, and the may-everything
    # system receives neither arrow: its loop is never forced and never
    # absent.
    assert (demanding.init, silent.init) not in greatest(Refinement(), demanding, silent)
    assert (silent.init, demanding.init) not in greatest(Refinement(), silent, demanding)
    loose = universal_mts(demanding.actions)
    assert (demanding.init, loose.init) not in greatest(Refinement(), demanding, loose)
    assert (silent.init, loose.init) not in greatest(Refinement(), silent, loose)


def test_initial_obstruction_pair_pulls_apart():
    looping, silent = initial_obstruction_pair()
    assert looping.signature.bivariant == actions("c")
    assert (looping.init, looping.init) in greatest(CCSim(), looping, looping)
    assert (silent.init, silent.init) in greatest(CCSim(), silent, silent)
    assert (looping.init, silent.init) not in greatest(CCSim(), looping, silent)
    assert (silent.init, looping.init) not in greatest(CCSim(), silent, looping)
