import random
import time
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from modalsim.charform import encode_term
from modalsim.sampling import random_term
from modalsim.systems import _operands, action, cv, signature
from modalsim.textio import parse_term
from modalsim.terms import (
    MustPrefix,
    Omega,
    Prefix,
    Sum,
    Zero,
    canonical_term,
    enumerate_lts_terms,
    enumerate_mts_terms,
    expand_lts_term,
    expand_mts_term,
    is_lts_term,
    lts_term_forms,
    must_prefix,
    mts_term_forms,
    prefix,
    term_labels,
    term_text,
)

A = action("a")
B = action("b")


def test_term_text_basic_shapes():
    assert term_text(Zero()) == "0"
    assert term_text(Omega()) == "w"
    assert term_text(prefix("a", Zero())) == "a.0"
    assert term_text(must_prefix("a", Omega())) == "a!w"
    assert term_text(Sum(prefix("a", Zero()), prefix("b", Zero()))) == "a.0 + b.0"


def test_term_text_parenthesises_sums_under_prefixes():
    t = prefix("a", Sum(Zero(), Omega()))
    assert term_text(t) == "a.(0 + w)"
    deeper = must_prefix("b", t)
    assert term_text(deeper) == "b!a.(0 + w)"


def test_term_repr_is_its_text_unless_a_subterm_is_shared():
    assert repr(Sum(prefix("a", Zero()), must_prefix("b", Omega()))) == "a.0 + b!w"
    # 40 levels of a.t + b.t: 120 nodes, a text of about 2**41 prefixes.
    t = Zero()
    for _ in range(40):
        t = Sum(prefix("a", t), prefix("b", t))
    assert repr(t) == "<Sum of 120 nodes besides 0 and w>"


def _ladder(levels, first="a", second="b", forced=False):
    # levels of a.t + b.t: three nodes a level, a text of about 2**levels prefixes
    t = Zero()
    for _ in range(levels):
        t = Sum(prefix(first, t), (must_prefix if forced else prefix)(second, t))
    return t


def test_term_walks_cost_the_dag_not_the_tree():
    start = time.perf_counter()
    t = _ladder(40)
    assert canonical_term(t) is t
    assert canonical_term(_ladder(40, first="b", second="a")) is t
    assert term_labels(t) == frozenset({A, B})
    assert is_lts_term(t)
    assert not is_lts_term(_ladder(40, forced=True))
    assert repr(encode_term(t)) == "<Sum of 120 nodes besides 0 and w>"
    assert time.perf_counter() - start < 1.0


def _tree_text(t):
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Omega):
        return "w"
    if isinstance(t, Sum):
        return f"{_tree_text(t.left)} + {_tree_text(t.right)}"
    body = _tree_text(t.rest)
    if isinstance(t.rest, Sum):
        body = f"({body})"
    return f"{t.action}{'.' if isinstance(t, Prefix) else '!'}{body}"


def _tree_canonical(t):
    if isinstance(t, (Zero, Omega)):
        return t
    if isinstance(t, (Prefix, MustPrefix)):
        return type(t)(t.action, _tree_canonical(t.rest))
    return reduce(Sum, sorted((_tree_canonical(s) for s in _operands(t)), key=_tree_text))


# Labels whose texts are prefixes of one another or of the constants, so
# that comparing texts has to look past the first few characters.
TRICKY = [action("a"), action("ab"), action("w"), action("0"), cv("a")]


def _random_dag(rng, levels):
    nodes = [Zero(), Omega()]
    for _ in range(levels):
        kind = rng.randrange(4)
        if kind < 2:
            new = Sum(rng.choice(nodes[-3:]), rng.choice(nodes[-2:]))
        else:
            new = (Prefix, MustPrefix)[kind - 2](rng.choice(TRICKY), rng.choice(nodes[-2:]))
        nodes.append(new)
    return nodes[-1]


def test_term_text_prints_shared_dags_as_trees():
    rng = random.Random(3)
    shared = 0
    for _ in range(200):
        t = _random_dag(rng, 12)
        shared += repr(t).startswith("<")
        assert term_text(t) == _tree_text(t)
    assert shared > 100


def test_canonical_term_orders_summands_by_their_whole_text():
    rng = random.Random(4)
    for _ in range(200):
        t = _random_dag(rng, 9)
        assert canonical_term(t) is _tree_canonical(t), _tree_text(t)
    # w sorts before the label w, and a label before a longer one.
    t = Sum(Prefix(action("w"), Zero()), Sum(Omega(), Sum(prefix("ab", Zero()), prefix("a", Zero()))))
    assert term_text(canonical_term(t)) == "a.0 + ab.0 + w + w.0"


def test_canonical_term_sorts_summands():
    messy = Sum(prefix("b", Zero()), Sum(prefix("a", Zero()), prefix("b", Zero())))
    tidy = canonical_term(messy)
    assert term_text(tidy) == "a.0 + b.0 + b.0"
    assert canonical_term(tidy) == tidy


def test_term_labels_collects_prefix_actions():
    t = Sum(prefix("a", must_prefix("b", Zero())), Omega())
    assert term_labels(t) == frozenset({A, B})


def test_expand_mts_term_merges_duplicate_targets():
    """A may and a must prefix to the same rest share a single may edge."""
    t = Sum(prefix("a", Zero()), must_prefix("a", Zero()))
    expansion = expand_mts_term(t, frozenset({A}))
    init = expansion.init
    assert init == "a!0 + a.0"
    assert expansion.states == frozenset({init, "0"})
    assert expansion.may == frozenset({(init, A, "0")})
    assert expansion.must == frozenset({(init, A, "0")})


def test_expand_mts_term_omega_loops_on_every_action():
    expansion = expand_mts_term(Omega(), frozenset({A, B}))
    assert expansion.states == frozenset({"w"})
    assert expansion.may == frozenset({("w", A, "w"), ("w", B, "w")})
    assert expansion.must == frozenset()


def test_expand_lts_term_omega_loops_on_contravariant_only():
    sig = signature(cov=["a"], con=["b"])
    expansion = expand_lts_term(Omega(), sig)
    assert expansion.transitions == frozenset({("w", B, "w")})


def test_expand_lts_term_rejects_must_prefixes_and_bivariant_labels():
    with pytest.raises(ValueError):
        expand_lts_term(must_prefix("a", Zero()), signature(cov=["a"]))
    with pytest.raises(ValueError):
        expand_lts_term(Zero(), signature(bi=["a"]))


def test_enumerate_mts_terms_height_two_single_label():
    terms = enumerate_mts_terms(frozenset({A}), 2)
    assert [term_text(t) for t in terms] == [
        "0",
        "0 + 0",
        "0 + w",
        "a!0",
        "a!w",
        "a.0",
        "a.w",
        "w",
        "w + w",
    ]


def test_enumerate_lts_terms_have_no_must_prefixes():
    sig = signature(cov=["a"], con=["b"])
    for t in enumerate_lts_terms(sig, 2):
        assert not isinstance(t, MustPrefix)
        for lab in term_labels(t):
            assert lab in sig.actions


def test_enumeration_is_sorted_and_deduplicated():
    terms = enumerate_mts_terms(frozenset({A}), 3)
    texts = [term_text(t) for t in terms]
    assert texts == sorted(texts)
    assert len(texts) == len(set(texts))
    assert all(canonical_term(t) == t for t in terms)


@given(st.integers(min_value=0, max_value=10**6))
def test_random_mts_terms_expand_to_valid_systems(seed):
    rng = random.Random(seed)
    acts = frozenset({A, B})
    t = random_term(rng, mts_term_forms(acts), 4)
    expansion = expand_mts_term(t, acts)
    assert expansion.init == term_text(canonical_term(t))
    for src, lab, dst in expansion.must:
        assert (src, lab, dst) in expansion.may


@given(st.integers(min_value=0, max_value=10**6))
def test_random_lts_terms_expand_inside_their_signature(seed):
    rng = random.Random(seed)
    sig = signature(cov=["a"], con=["b"])
    t = random_term(rng, lts_term_forms(sig), 4)
    expansion = expand_lts_term(t, sig)
    for _, lab, _ in expansion.transitions:
        assert lab in sig.actions


@pytest.mark.parametrize("name", ["0", "w"])
def test_terms_are_not_built_on_a_reserved_atom(name):
    # ``0.0`` or ``w!0`` would print as text the term reader rejects.
    assert term_text(Prefix(action(name), Zero())) == f"{name}.0"
    builders = [
        lambda: prefix(name, Zero()),
        lambda: must_prefix(action(name), Zero()),
        lambda: enumerate_mts_terms([name, "a"], 2),
        # A call builds a prefix or only atoms and sums; some of these do.
        lambda: [random_term(random.Random(seed), [(name, False)], 4) for seed in range(20)],
    ]
    for build in builders:
        with pytest.raises(ValueError, match=f"'{name}' is a reserved atom"):
            build()
    # Decorated copies of the names print with their marks, and read back.
    t = prefix(cv(name), Zero())
    assert parse_term(term_text(t)) == t
