import random

import pytest
from hypothesis import given, settings, strategies as st

from modalsim.formulas import (
    And,
    Bottom,
    Box,
    Diamond,
    Top,
    mc_cc,
    mc_mts,
)
from modalsim.preorders import CCSim, PartialBisim, Refinement, greatest
from modalsim.sampling import random_lts_pair, random_mts_pair
from modalsim.systems import action, cv, ct, lts, mts, plain_signature, signature
from modalsim.translate import (
    NotInEncodingRange,
    approximate_formula,
    decode_formula,
    decorate_by_class,
    eliminate_bivariant,
    embed_formula,
    embedding_report,
    encode_formula,
    encoding_report,
    fresh_sink_name,
    lts_of_mts,
    mts_of_encoded_lts,
    mts_of_lts,
    mts_of_plain_lts,
    strip_decorations,
)

A = action("a")
B = action("b")

CCEX = lts(
    states=["p", "q", "r", "s"],
    sig=signature(cov=["a"], con=["b"]),
    transitions=[("p", "a", "s"), ("p", "b", "s"), ("q", "a", "s"), ("r", "b", "s")],
    init="p",
)


def test_fresh_sink_name_avoids_collisions():
    assert fresh_sink_name(frozenset({"s"})) == "u"
    assert fresh_sink_name(frozenset({"u"})) == "u_"
    assert fresh_sink_name(frozenset({"u", "u_"})) == "u__"


def test_mts_of_lts_on_the_two_class_example():
    m = mts_of_lts(CCEX)
    assert m.states == CCEX.states | {"u"}
    assert m.init == "p"
    # Every state gets a covariant may edge to the sink, the sink loops on
    # the whole alphabet, and the original transitions stay as may edges.
    sink_edges = {(s, A, "u") for s in ["p", "q", "r", "s", "u"]}
    loops = {("u", A, "u"), ("u", B, "u")}
    originals = set(CCEX.transitions)
    assert m.may == frozenset(sink_edges | loops | originals)
    # Only covariant (and bivariant) transitions are forced.
    assert m.must == frozenset({("p", A, "s"), ("q", A, "s")})


def test_embedding_report_names_the_sink():
    report = embedding_report(CCEX)
    assert report.source_kind == "lts"
    assert report.result_kind == "mts"
    assert report.added_state == "u"
    assert report.label_map == (("a", "a"), ("b", "b"))


def test_lts_of_mts_decorates_the_alphabet():
    m = mts(
        states=["s", "t"],
        acts=["a"],
        may=[("s", "a", "t"), ("t", "a", "t")],
        must=[("s", "a", "t")],
        init="s",
    )
    encoded = lts_of_mts(m)
    assert encoded.signature == signature(cov=[cv(A)], con=[ct(A)])
    assert encoded.transitions == frozenset(
        {("s", cv(A), "t"), ("s", ct(A), "t"), ("t", ct(A), "t")}
    )
    report = encoding_report(m)
    assert report.added_state is None
    assert ("a", "cv(a)") in report.label_map
    assert ("a", "ct(a)") in report.label_map


def test_encoding_round_trips_exactly():
    m = mts(
        states=["x", "y"],
        acts=["a", "b"],
        may=[("x", "a", "y"), ("x", "b", "x"), ("y", "b", "x")],
        must=[("x", "a", "y")],
        init="x",
    )
    assert mts_of_encoded_lts(lts_of_mts(m)) == m


def test_decoding_rejects_systems_outside_the_image():
    plain = lts(["s"], signature(cov=["a"]), [], "s")
    with pytest.raises(NotInEncodingRange):
        mts_of_encoded_lts(plain)

    lopsided = lts(["s"], signature(cov=[cv(A)], con=[ct(B)]), [], "s")
    with pytest.raises(NotInEncodingRange):
        mts_of_encoded_lts(lopsided)

    missing_twin = lts(
        ["s"],
        signature(cov=[cv(A)], con=[ct(A)]),
        [("s", cv(A), "s")],
        "s",
    )
    with pytest.raises(NotInEncodingRange):
        mts_of_encoded_lts(missing_twin)

    with_bivariant = lts(["s"], signature(cov=[cv(A)], con=[ct(A)], bi=["z"]), [], "s")
    with pytest.raises(NotInEncodingRange):
        mts_of_encoded_lts(with_bivariant)


@pytest.mark.parametrize(
    "translate,message",
    [
        (mts_of_lts, "the embedding takes an LTS"),
        (lts_of_mts, "the encoding takes an MTS"),
        (lambda p: mts_of_plain_lts(p, ()), "the modal reading takes an LTS"),
        (mts_of_encoded_lts, "the decoding takes an LTS"),
        (eliminate_bivariant, "the bivariant elimination takes an LTS"),
        (embedding_report, "the embedding report takes an LTS"),
        (encoding_report, "the encoding report takes an MTS"),
        (decorate_by_class, "the decoration by class takes an LTS"),
    ],
    ids=[
        "embedding",
        "encoding",
        "modal-reading",
        "decoding",
        "bivariant-elimination",
        "embedding-report",
        "encoding-report",
        "decoration-by-class",
    ],
)
def test_each_translation_refuses_the_other_kind_of_system(translate, message):
    other = CCEX if translate in (lts_of_mts, encoding_report) else mts_of_lts(CCEX)
    with pytest.raises(TypeError) as info:
        translate(other)
    assert str(info.value) == message


def test_mts_of_plain_lts_marks_the_chosen_labels():
    p = lts(
        ["s", "t"],
        plain_signature(["a", "b"]),
        [("s", "a", "t"), ("s", "b", "t")],
        "s",
    )
    m = mts_of_plain_lts(p, {A})
    assert m.may == p.transitions
    assert m.must == frozenset({("s", A, "t")})
    with pytest.raises(ValueError):
        mts_of_plain_lts(p, {action("z")})


def test_strip_decorations_merges_label_copies():
    encoded = lts_of_mts(
        mts(["s"], ["a"], [("s", "a", "s")], [("s", "a", "s")], "s")
    )
    stripped = strip_decorations(encoded, target=plain_signature(["a"]))
    assert stripped.transitions == frozenset({("s", A, "s")})
    with pytest.raises(ValueError):
        strip_decorations(encoded)


def test_decorate_by_class_covers_the_whole_alphabet():
    p = lts(["s"], signature(cov=["a"], con=["b"]), [("s", "a", "s")], "s")
    decorated = decorate_by_class(p)
    assert decorated.signature == signature(cov=[cv(A), cv(B)], con=[ct(A), ct(B)])
    assert decorated.transitions == frozenset({("s", cv(A), "s")})
    with pytest.raises(ValueError):
        decorate_by_class(lts(["s"], signature(bi=["c"]), [], "s"))


def test_eliminate_bivariant_output_has_no_bivariant_labels():
    p = lts(["s"], signature(bi=["c"]), [("s", "c", "s")], "s")
    flat = eliminate_bivariant(p)
    assert flat.signature.bivariant == frozenset()
    assert flat.signature.actions


def test_formula_codecs():
    phi = Diamond(A, Box(B, Bottom()))
    assert embed_formula(phi) == phi
    encoded = encode_formula(phi)
    assert encoded == Diamond(cv(A), Box(ct(B), Bottom()))
    assert decode_formula(encoded) == phi
    with pytest.raises(NotInEncodingRange):
        decode_formula(Diamond(A, Top()))


def test_formula_codecs_keep_shared_subformulae_shared():
    # 12 levels of And(f, f): 26 distinct nodes, a tree of 2**12 leaves.
    phi = Box(A, Top())
    for _ in range(12):
        phi = Diamond(B, And(phi, phi))
    encoded = encode_formula(phi)
    assert encoded.body.left is encoded.body.right
    decoded = decode_formula(encoded)
    assert decoded.body.left is decoded.body.right
    assert decoded.action == B


def test_approximation_by_class():
    sig = signature(cov=["a"], con=["b"])
    assert approximate_formula(Box(A, Bottom()), sig) == Top()
    assert approximate_formula(Diamond(B, Top()), sig) == Bottom()
    assert approximate_formula(Diamond(A, Top()), sig) == Diamond(A, Top())
    assert approximate_formula(Box(B, Bottom()), sig) == Box(B, Bottom())


def test_approximation_keeps_a_shared_subformula_shared():
    sig = signature(cov=["a"], con=["b"])
    f = Diamond(A, And(Box(B, Bottom()), Box(A, Bottom())))
    out = approximate_formula(And(f, f), sig)
    want = Diamond(A, And(Box(B, Bottom()), Top()))
    assert out == And(want, want)
    assert out.left is out.right


def test_approximation_soundness_hole_is_real():
    """[a]ff holds vacuously at a move-free state, yet its embedding can
    always step to the sink, so the converse direction fails."""
    p = lts(["s0"], signature(cov=["a"]), [], "s0")
    phi = Box(A, Bottom())
    assert approximate_formula(phi, p.signature) == Top()
    assert mc_cc(p, "s0", Top())
    assert not mc_mts(mts_of_lts(p), "s0", phi)


def test_embedding_preserves_formula_truth_at_original_states():
    phi = Diamond(A, Top())
    psi = Box(B, Bottom())
    m = mts_of_lts(CCEX)
    for state in CCEX.states:
        assert mc_cc(CCEX, state, phi) == mc_mts(m, state, embed_formula(phi))
        assert mc_cc(CCEX, state, psi) == mc_mts(m, state, embed_formula(psi))


def test_composition_bound_pins():
    pin_mts = mts(["m"], ["a"], [], [], "m")
    back = strip_decorations(mts_of_lts(lts_of_mts(pin_mts)))
    assert ("m", "m") in greatest(Refinement(), back, pin_mts)
    assert ("m", "m") not in greatest(Refinement(), pin_mts, back)

    pin_lts = lts(["p"], signature(cov=["a"]), [], "p")
    image = strip_decorations(lts_of_mts(mts_of_lts(pin_lts)), target=pin_lts.signature)
    assert ("p", "p") in greatest(CCSim(), pin_lts, image)
    assert ("p", "p") not in greatest(CCSim(), image, pin_lts)


def test_decorated_bridge_converse_fails_on_the_pinned_pair():
    p = lts(["p"], signature(cov=["a"]), [], "p")
    q = mts(["q"], ["a"], [("q", "a", "q")], [], "q")
    assert ("p", "q") in greatest(Refinement(), mts_of_lts(p), q)
    assert ("p", "q") not in greatest(CCSim(), decorate_by_class(p), lts_of_mts(q))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_embedding_corollary_on_random_pairs(seed):
    rng = random.Random(seed)
    p, q = random_lts_pair(rng, max_states=3)
    cc = greatest(CCSim(), p, q)
    ref = greatest(Refinement(), mts_of_lts(p), mts_of_lts(q))
    for pp in p.states:
        for qq in q.states:
            assert ((pp, qq) in cc) == ((pp, qq) in ref)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_encoding_corollary_on_random_pairs(seed):
    rng = random.Random(seed)
    m, n = random_mts_pair(rng, max_states=3, max_labels=2)
    assert (
        greatest(Refinement(), m, n).pairs
        == greatest(CCSim(), lts_of_mts(m), lts_of_mts(n)).pairs
    )


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_plain_reading_matches_partial_bisimulation(seed):
    rng = random.Random(seed)
    labels = frozenset({A, B})
    p, q = random_lts_pair(rng, max_states=3)
    p = lts(sorted(p.states), plain_signature(labels), [], p.init)
    q = lts(sorted(q.states), plain_signature(labels), [], q.init)
    # Rebuild with random plain transitions over a shared alphabet.
    triples_p = {(s, lab, d) for s in p.states for lab in labels for d in p.states}
    triples_q = {(s, lab, d) for s in q.states for lab in labels for d in q.states}
    p = lts(p.states, plain_signature(labels), rng.sample(sorted(triples_p, key=str), rng.randint(0, len(triples_p))), p.init)
    q = lts(q.states, plain_signature(labels), rng.sample(sorted(triples_q, key=str), rng.randint(0, len(triples_q))), q.init)
    bset = frozenset(rng.sample([A, B], rng.randint(0, 2)))
    direct = greatest(PartialBisim(bset), p, q).pairs
    through = greatest(
        Refinement(), mts_of_plain_lts(q, bset), mts_of_plain_lts(p, bset)
    ).inverse().pairs
    assert direct == through
