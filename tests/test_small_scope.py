"""Every small system, not a sample: the engine against the oracle on every
pair of pointed 2-state systems over one label, and on every pair of a
1-state and a 2-state LTS over two labels, both ways round: under
cc-simulation for six signatures, three of them with both labels in one
class, and under partial bisimulation for each bisimulation set.

Each system has the states ``s0`` and ``s1`` (or ``s0`` alone), with ``s0``
initial, and each of its edges ``si -a-> sj`` is chosen independently: for
MTSs absent, may or must (81 systems), for LTSs absent or present (16
systems over one label; 4 and 256 over two).  On every pair, ``greatest``
equals ``oracle_greatest``, the single-pair ``decide`` that ``check``
prints as text agrees with it on every pair of the two systems' states,
and every witness holds on the left and fails on the right.
"""

from itertools import product

import pytest

from modalsim.formulas import mc_cc, mc_mts
from modalsim.preorders import CCSim, PartialBisim, Refinement, Simulation, decide, greatest, oracle_greatest
from modalsim.systems import action, lts, mts, signature
from modalsim.translate import lts_of_mts

STATES = ("s0", "s1")
EDGES = [(src, dst) for src in STATES for dst in STATES]


def _all_mtss():
    out = []
    for choice in product(("absent", "may", "must"), repeat=len(EDGES)):
        may = [(src, "a", dst) for (src, dst), c in zip(EDGES, choice) if c != "absent"]
        must = [(src, "a", dst) for (src, dst), c in zip(EDGES, choice) if c == "must"]
        out.append(mts(STATES, ["a"], may, must, "s0"))
    return out


def _all_ltss(sig, labels=("a",), states=STATES):
    steps = [(src, lab, dst) for lab in labels for src in states for dst in states]
    return [
        lts(states, sig, [t for t, present in zip(steps, choice) if present], "s0")
        for choice in product((False, True), repeat=len(steps))
    ]


def _assert_matches_oracle(kind, left, right, check):
    """``greatest`` is the oracle's relation, the single-pair verdict agrees
    with it on every state pair, and each witness separates its pair under
    ``check`` (None for the kinds without witnesses).  Returns the relation."""
    pairs = greatest(kind, left, right).pairs
    assert pairs == oracle_greatest(kind, left, right).pairs
    for p in sorted(left.states):
        for q in sorted(right.states):
            related, _, witness = decide(kind, left, p, right, q)
            assert related == ((p, q) in pairs), (p, q)
            if check is not None and not related:
                assert check(left, p, witness) and not check(right, q, witness), (p, q)
    return pairs


def test_every_pair_of_two_state_mtss():
    systems = _all_mtss()
    assert len(systems) == 81
    encoded = [lts_of_mts(m) for m in systems]
    for (m, m_lts), (n, n_lts) in product(zip(systems, encoded), repeat=2):
        pairs = _assert_matches_oracle(Refinement(), m, n, mc_mts)
        # The encoding of the paper: refinement is cc-simulation of the encodings.
        assert pairs == greatest(CCSim(), m_lts, n_lts).pairs


@pytest.mark.parametrize("sig", [signature(cov=["a"]), signature(con=["a"]), signature(bi=["a"])],
                         ids=["cov", "con", "bi"])
def test_every_pair_of_two_state_ltss_under_each_signature_class(sig):
    systems = _all_ltss(sig)
    assert len(systems) == 16
    for left, right in product(systems, repeat=2):
        _assert_matches_oracle(CCSim(), left, right, mc_cc)


@pytest.mark.parametrize("kind", [Simulation(), PartialBisim(frozenset({action("a")}))], ids=["sim", "pbsim"])
def test_left_moves_outside_the_alphabet(kind):
    # The left may also move on ``b``, outside the alphabet {a}: each of its
    # moves must be matched, whatever its label.
    sig = signature(cov=["a"])
    lefts = _all_ltss(sig, ("a", "b"))
    rights = _all_ltss(sig)
    assert len(lefts) == 256
    for left, right in product(lefts, rights):
        _assert_matches_oracle(kind, left, right, None)


@pytest.mark.parametrize(
    "sig",
    [
        signature(cov=["a"], con=["b"]),
        signature(cov=["a"], bi=["b"]),
        signature(con=["a"], bi=["b"]),
        signature(cov=["a", "b"]),
        signature(con=["a", "b"]),
        signature(bi=["a", "b"]),
    ],
    ids=["a-cov-b-con", "a-cov-b-bi", "a-con-b-bi", "ab-cov", "ab-con", "ab-bi"],
)
def test_every_one_state_against_two_state_lts_over_two_labels(sig):
    ones = _all_ltss(sig, ("a", "b"), ("s0",))
    twos = _all_ltss(sig, ("a", "b"))
    assert (len(ones), len(twos)) == (4, 256)
    for one, two in product(ones, twos):
        _assert_matches_oracle(CCSim(), one, two, mc_cc)
        _assert_matches_oracle(CCSim(), two, one, mc_cc)


@pytest.mark.parametrize("bset", [(), ("a",), ("b",), ("a", "b")], ids=["none", "a", "b", "ab"])
def test_every_one_state_against_two_state_plain_lts_over_two_labels(bset):
    sig = signature(cov=["a", "b"])
    kind = PartialBisim(frozenset(map(action, bset)))
    ones = _all_ltss(sig, ("a", "b"), ("s0",))
    twos = _all_ltss(sig, ("a", "b"))
    for one, two in product(ones, twos):
        _assert_matches_oracle(kind, one, two, None)
        _assert_matches_oracle(kind, two, one, None)
