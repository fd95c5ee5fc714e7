import random

from hypothesis import given, settings, strategies as st
import pytest

from modalsim.formulas import BLLogic, Box, CCLogic, check_wf, modal_depth
from modalsim.sampling import (
    LABEL_POOL,
    pool_labels,
    random_alphabet,
    random_bl_formula,
    random_cc_formula,
    random_lts,
    random_lts_pair,
    random_mts,
    random_mts_pair,
    random_plain_lts,
    random_signature,
    random_state,
    random_term,
)
from modalsim.systems import (
    CONTRAVARIANT,
    COVARIANT,
    action,
    validate_cc_lts,
    validate_mts,
)
from modalsim.terms import MustPrefix, Prefix, Sum, Term, lts_term_forms, mts_term_forms


def test_pool_labels():
    assert pool_labels(3) == [action("a"), action("b"), action("c")]
    assert len(LABEL_POOL) == 26
    with pytest.raises(ValueError):
        pool_labels(27)


def test_random_signature_refuses_more_labels_than_the_pool_holds():
    # 8 labels in each of three classes fit the 26 names; 9 do not, whatever
    # the draw, and 13 in each of two classes fit exactly.
    rng = random.Random(3)
    for _ in range(50):
        sig = random_signature(rng, max_per_class=8)
        assert len(sig.actions) <= 24 and not sig.overlaps()
    assert len(random_signature(rng, 13, classes=(COVARIANT, CONTRAVARIANT)).actions) <= 26
    with pytest.raises(ValueError, match="the label pool holds only 26 names"):
        random_signature(rng, max_per_class=9)


def test_seeded_streams_are_reproducible():
    one = random.Random("probe")
    two = random.Random("probe")
    for _ in range(20):
        assert random_mts(one, random_alphabet(one)) == random_mts(
            two, random_alphabet(two)
        )
        assert random_lts_pair(one) == random_lts_pair(two)
        sig = random_signature(one, max_per_class=2)
        assert sig == random_signature(two, max_per_class=2)
        assert random_cc_formula(one, sig) == random_cc_formula(two, sig)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_systems_are_valid(seed):
    rng = random.Random(seed)
    m = random_mts(rng, random_alphabet(rng, 3), max_states=4)
    assert validate_mts(m) == []
    assert m.must <= m.may
    assert len(m.states) <= 4
    assert m.init == "s0"

    p = random_lts(rng, random_signature(rng, 2), max_states=4)
    assert validate_cc_lts(p) == []

    q = random_plain_lts(rng, random_alphabet(rng))
    assert q.signature.contravariant == frozenset()
    assert q.signature.bivariant == frozenset()

    left, right = random_mts_pair(rng, max_states=3)
    assert left.actions == right.actions
    assert left.init == "p0"
    assert right.init == "q0"
    assert random_state(rng, left) in left.states


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_formulas_are_well_formed(seed):
    rng = random.Random(seed)
    acts = random_alphabet(rng, 2)
    phi = random_bl_formula(rng, acts, max_depth=4)
    assert check_wf(phi, BLLogic(acts)) == []
    assert modal_depth(phi) <= 4

    sig = random_signature(rng, max_per_class=1)
    psi = random_cc_formula(rng, sig, max_depth=4)
    assert check_wf(psi, CCLogic(sig)) == []

    nothing_boxed = random_bl_formula(rng, acts, max_depth=4, existential=True)
    assert all(not isinstance(sub, Box) for sub in _subtrees(nothing_boxed))


def _subtrees(phi):
    out = [phi]
    for sub in out:
        for attr in ("left", "right", "body"):
            child = getattr(sub, attr, None)
            if child is not None:
                out.append(child)
    return out


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_terms_respect_forms(seed):
    rng = random.Random(seed)
    acts = random_alphabet(rng, 2)
    forms = mts_term_forms(acts)
    assert len(forms) == 2 * len(acts)
    t = random_term(rng, forms, max_height=3)
    assert _height(t) <= 3
    assert all(isinstance(sub, Term) for sub in _term_subtrees(t))

    sig = random_signature(rng, max_per_class=1)
    plain_forms = lts_term_forms(sig)
    assert all(not is_must for _, is_must in plain_forms)
    u = random_term(rng, plain_forms, max_height=3)
    assert all(not isinstance(sub, MustPrefix) for sub in _term_subtrees(u))


def _term_subtrees(t):
    out = [t]
    for sub in out:
        if isinstance(sub, Sum):
            out.extend((sub.left, sub.right))
        elif isinstance(sub, (Prefix, MustPrefix)):
            out.append(sub.rest)
    return out


def _height(t):
    if isinstance(t, Sum):
        return 1 + max(_height(t.left), _height(t.right))
    if isinstance(t, (Prefix, MustPrefix)):
        return 1 + _height(t.rest)
    return 1
