"""The round-by-round removal loop, kept as a test-only reference for the
bit-row solver and the rooted counter game in :mod:`modalsim.preorders`.

Each round of the loop evaluates every pair still in the relation against
the relation at the start of the round and removes the violators together,
so the round that removes a pair is its rank.  The engine must reproduce the
greatest relation, the chain of relations round by round and, for refinement
and cc-simulation, the distinguishing formula text byte for byte, where both
drop a repeated operand of ``&`` and ``|``.  The cases here go far beyond
the brute-force oracle's 12-pair cap: chains up to 30 steps, width-2 ladders
up to 12 levels, random 40-state sparse pairs and 80-state ones, whose bit
rows span two machine words, and a pair on the edge of the rule by which each
round of the bit rows picks the side of a row to walk.  A traced run shows
that every side of those choices runs on these cases.  A last pair has a
left move outside the alphabet, which simulation and partial bisimulation
match like any other.
"""

import inspect
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from modalsim import preorders
from modalsim.formulas import Box, Diamond, conj, disj, formula_text, mc_cc, mc_mts
from modalsim.preorders import (
    CCSim,
    PartialBisim,
    Refinement,
    Simulation,
    decide,
    distinguishing_formula,
    fixpoint_rounds,
    greatest,
)
from modalsim.systems import (
    CCSignature,
    action,
    lts,
    mts,
    signature,
    sorted_actions,
    successor_index,
)

# ---------------------------------------------------------------- reference


def _refinement_finder(p_sys, q_sys):
    p_must = successor_index(p_sys.states, p_sys.must)
    p_may = successor_index(p_sys.states, p_sys.may)
    q_must = successor_index(q_sys.states, q_sys.must)
    q_may = successor_index(q_sys.states, q_sys.may)

    def find(p, q, rel):
        for a in sorted_actions(set(p_must[p]) | set(q_may[q])):
            for p2 in p_must[p].get(a, ()):
                if not any((p2, q2) in rel for q2 in q_must[q].get(a, ())):
                    return (a, 1, p2)
            for q2 in q_may[q].get(a, ()):
                if not any((p2, q2) in rel for p2 in p_may[p].get(a, ())):
                    return (a, 2, q2)
        return None

    return find, q_must, p_may


def _ccsim_finder(p_sys, q_sys):
    sig = p_sys.signature
    forward = sig.covariant | sig.bivariant
    backward = sig.contravariant | sig.bivariant
    p_succ = successor_index(p_sys.states, p_sys.transitions)
    q_succ = successor_index(q_sys.states, q_sys.transitions)

    def find(p, q, rel):
        labels = sorted_actions((set(p_succ[p]) & forward) | (set(q_succ[q]) & backward))
        for a in labels:
            if a in forward:
                for p2 in p_succ[p].get(a, ()):
                    if not any((p2, q2) in rel for q2 in q_succ[q].get(a, ())):
                        return (a, 1, p2)
            if a in backward:
                for q2 in q_succ[q].get(a, ()):
                    if not any((p2, q2) in rel for p2 in p_succ[p].get(a, ())):
                        return (a, 2, q2)
        return None

    return find, q_succ, p_succ


def reference_finder(kind, p_sys, q_sys):
    """(find, left-clause answers of the right system, right-clause answers
    of the left system) for ``kind``."""
    if isinstance(kind, Refinement):
        return _refinement_finder(p_sys, q_sys)
    if isinstance(kind, CCSim):
        return _ccsim_finder(p_sys, q_sys)
    # Every move of the left is matched, whatever its label.
    universe = p_sys.signature.actions | {a for _, a, _ in p_sys.transitions}
    sig = CCSignature(covariant=universe - kind.bset, contravariant=frozenset(), bivariant=kind.bset)
    return _ccsim_finder(p_sys._replace(signature=sig), q_sys._replace(signature=sig))


def reference_fixpoint(left_states, right_states, find):
    """(greatest relation, relation at the start of each round, pair ->
    (round that removed it, its violation))."""
    rel = {(p, q) for p in left_states for q in right_states}
    rounds = [frozenset(rel)]
    records = {}
    round_no = 0
    while True:
        bad = []
        for pair in sorted(rel):
            violation = find(pair[0], pair[1], rel)
            if violation is not None:
                bad.append((pair, violation))
        if not bad:
            return frozenset(rel), rounds, records
        round_no += 1
        for pair, violation in bad:
            rel.discard(pair)
            records[pair] = (round_no, violation)
        rounds.append(frozenset(rel))


def cited_pairs(pair, violation, q_answers, p_answers):
    """The pairs whose absence makes ``violation`` a violation."""
    p, q = pair
    a, clause, witness = violation
    if clause == 1:
        return [(witness, q2) for q2 in q_answers[q].get(a, ())]
    return [(p2, witness) for p2 in p_answers[p].get(a, ())]


def reference_formula(records, q_answers, p_answers, pair):
    """The witness of ``pair`` with every operand equal to an earlier one
    dropped, first occurrences kept in order."""
    memo = {}

    def build(pair):
        if pair not in memo:
            _, violation = records[pair]
            cited = []
            for c in cited_pairs(pair, violation, q_answers, p_answers):
                sub = build(c)
                if sub not in cited:
                    cited.append(sub)
            a, clause, _ = violation
            memo[pair] = Diamond(a, conj(cited)) if clause == 1 else Box(a, disj(cited))
        return memo[pair]

    return build(pair)


# ---------------------------------------------------------------- cases

A = action("a")


def _names(rng, n):
    # Sorted name order differs from path order, so tie-breaks by name matter.
    return [f"s{i}" for i in rng.sample(range(10 * n), n)]


def _chain(rng, n):
    names = _names(rng, n + 1)
    return names, [(names[i], "a", names[i + 1]) for i in range(n)]


def _ladder(rng, levels):
    names = _names(rng, 2 * levels + 1)
    rungs = [names[1 + 2 * i : 3 + 2 * i] for i in range(levels)]
    steps = [(names[0], "a", dst) for dst in rungs[0]]
    for upper, lower in zip(rungs, rungs[1:]):
        steps += [(src, "a", dst) for src in upper for dst in lower]
    return names, steps


def _one_label_pair(kind, left, right, cls):
    if isinstance(kind, Refinement):
        return tuple(mts(names, ["a"], steps, steps, names[0]) for names, steps in (left, right))
    sig = signature(**{cls: ["a"]})
    return tuple(lts(names, sig, steps, names[0]) for names, steps in (left, right))


LINE_KINDS = [
    ("refine", Refinement(), "cov"),
    ("ccsim-cov", CCSim(), "cov"),
    ("ccsim-con", CCSim(), "con"),
    ("ccsim-bi", CCSim(), "bi"),
    ("pbsim", PartialBisim(frozenset({A})), "cov"),
    ("sim", Simulation(), "cov"),
]


def _line_cases():
    rng = random.Random(2024)
    for n in (1, 2, 5, 10, 20, 30):
        for tag, kind, cls in LINE_KINDS:
            long_, short = _chain(rng, n + 1), _chain(rng, n)
            yield f"chain{n}-{tag}-down", kind, _one_label_pair(kind, long_, short, cls)
            yield f"chain{n}-{tag}-up", kind, _one_label_pair(kind, short, long_, cls)
    for levels in (1, 2, 4, 8, 12):
        for tag, kind, cls in LINE_KINDS:
            line, lad = _chain(rng, levels + 1), _ladder(rng, levels)
            yield f"ladder{levels}-{tag}-in", kind, _one_label_pair(kind, line, lad, cls)
            yield f"ladder{levels}-{tag}-out", kind, _one_label_pair(kind, lad, line, cls)


def _sparse_steps(rng, names, labels, degree):
    return {(s, rng.choice(labels), rng.choice(names)) for s in names for _ in range(degree)}


def _perturbed(rng, steps, names, labels):
    """A renamed copy of ``steps`` with some moves dropped and a few added, so
    that the relation between the two is neither empty nor full."""
    kept = {t for t in sorted(steps) if rng.random() < 0.85}
    kept |= {(rng.choice(names), rng.choice(labels), rng.choice(names)) for _ in range(3)}
    fresh = dict(zip(names, _names(rng, len(names))))
    return [fresh[s] for s in names], {(fresh[s], a, fresh[d]) for s, a, d in kept}


def _sparse_cases(n=40, seeds=(1, 2, 3), tag="sparse"):
    labels = ["a", "b", "c"]
    for seed in seeds:
        rng = random.Random(seed)
        names = _names(rng, n)
        may = _sparse_steps(rng, names, labels, 2)
        must = {t for t in sorted(may) if rng.random() < 0.5}
        left_names, left_may = _perturbed(rng, may, names, labels)
        rename = dict(zip(names, left_names))
        left_must = {(rename[s], a, rename[d]) for s, a, d in sorted(must) if rng.random() < 0.8}
        left = mts(left_names, labels, left_may | left_must, left_must, left_names[0])
        right = mts(names, labels, may, must, names[0])
        yield f"{tag}{seed}-refine", Refinement(), (left, right)
        trans = _sparse_steps(rng, names, labels, 2)
        left_names, left_trans = _perturbed(rng, trans, names, labels)
        sig = signature(cov=["a"], con=["b"], bi=["c"])
        left, right = lts(left_names, sig, left_trans, left_names[0]), lts(names, sig, trans, names[0])
        for kind in (CCSim(), PartialBisim(frozenset({action("b")})), Simulation()):
            yield f"{tag}{seed}-{type(kind).__name__}", kind, (left, right)


def planted_refinement(n, seed):
    """A sparse MTS of ``n`` states and, left of it, a looser copy under
    fresh names, with extra may steps and some must steps dropped, so that
    refinement relates their initial states."""
    rng = random.Random(seed)
    labels = ["a", "b", "c"]
    names = _names(rng, n)
    may = _sparse_steps(rng, names, labels, 3)
    must = {t for t in sorted(may) if rng.random() < 0.5}
    left_may = may | {(rng.choice(names), rng.choice(labels), rng.choice(names)) for _ in range(n // 4)}
    left_must = {t for t in sorted(must) if rng.random() < 0.8}
    fresh = dict(zip(names, _names(rng, n)))
    left_names = [fresh[s] for s in names]
    left_may, left_must = ({(fresh[s], a, fresh[d]) for s, a, d in steps} for steps in (left_may, left_must))
    return mts(left_names, labels, left_may, left_must, left_names[0]), mts(names, labels, may, must, names[0])


def planted_simulation(n, seed):
    """A sparse LTS of ``n`` states, all labels covariant, and, left of it,
    a copy under fresh names that keeps each step with probability 0.8, so
    that simulation relates their initial states."""
    rng = random.Random(seed)
    names = _names(rng, n)
    steps = _sparse_steps(rng, names, ["a", "b", "c"], 3)
    fresh = dict(zip(names, _names(rng, n)))
    left_steps = {(fresh[s], a, fresh[d]) for s, a, d in sorted(steps) if rng.random() < 0.8}
    left_names = [fresh[s] for s in names]
    sig = signature(cov=["a", "b", "c"])
    return lts(left_names, sig, left_steps, left_names[0]), lts(names, sig, steps, names[0])


def _edge_case():
    """A refinement pair on the edge of both side choices.  Round 1 leaves
    p2's row the 4 right states with a b-step and takes r from it: 4 kept
    bits against 1 lost.  In round 2, p's only may step goes to p2, so the
    union of its answers' rows has just lost one bit, r, and p's row holds
    one state with an a-step, r: one bit to scan against one to image.
    (p, r) falls, since r may step to itself."""
    left_steps = [("p", "a", "p2"), ("p2", "b", "p2")]
    right_steps = [(f"q{i}", "b", f"q{i}") for i in range(4)] + [("r", "a", "r"), ("r", "a", "q0")]
    left = mts(["p", "p2"], ["a", "b"], left_steps, left_steps, "p")
    right = mts(["q0", "q1", "q2", "q3", "r"], ["a", "b"], right_steps, right_steps, "r")
    return "edge-refine", Refinement(), (left, right)


def _stray_cases():
    """The left steps on ``b``, outside the alphabet ``{a}``, and the right
    has no moves: no kind relates the initial states."""
    sig = signature(cov=["a"])
    pair = lts(["p0", "p1"], sig, [("p0", "b", "p1")], "p0"), lts(["q0"], sig, [], "q0")
    return [("stray-sim", Simulation(), pair), ("stray-pbsim", PartialBisim(frozenset({action("a")})), pair)]


CASES = list(_line_cases()) + list(_sparse_cases())
# Right systems of more than 64 states, so each bit row spans several words.
WIDE_CASES = list(_sparse_cases(n=80, seeds=(4,), tag="wide"))
EDGE_CASES = [_edge_case()]
STRAY_CASES = _stray_cases()


# ---------------------------------------------------------------- tests


ENGINE_CASES = CASES + WIDE_CASES + EDGE_CASES + STRAY_CASES


@pytest.mark.parametrize("name,kind,systems", ENGINE_CASES, ids=[c[0] for c in ENGINE_CASES])
def test_engine_reproduces_the_removal_loop(name, kind, systems):
    p_sys, q_sys = systems
    find, q_answers, p_answers = reference_finder(kind, p_sys, q_sys)
    rel, rounds, records = reference_fixpoint(p_sys.states, q_sys.states, find)
    assert greatest(kind, p_sys, q_sys).pairs == rel
    chain = fixpoint_rounds(kind, p_sys, q_sys)
    assert chain == rounds
    # Every pair a violation cites was removed strictly before the pair
    # citing it, by the engine's ranks (the first round without the pair).
    rank = {pair: k for k in range(1, len(chain)) for pair in chain[k - 1] - chain[k]}
    for pair, (round_no, violation) in records.items():
        for cited in cited_pairs(pair, violation, q_answers, p_answers):
            assert rank[cited] < round_no
    if not isinstance(kind, (Refinement, CCSim)):
        return
    removed = sorted(records)
    picks = random.Random(name).sample(removed, min(6, len(removed)))
    if (p_sys.init, q_sys.init) in records:
        picks.append((p_sys.init, q_sys.init))
    for p, q in picks:
        expected = formula_text(reference_formula(records, q_answers, p_answers, (p, q)))
        assert formula_text(distinguishing_formula(kind, p_sys, p, q_sys, q)) == expected
        # The whole path gets its witness from the game solved around the pair.
        assert formula_text(decide(kind, p_sys, p, q_sys, q, whole=True)[2]) == expected


def test_wide_cases_span_several_words_and_deep_fixpoints():
    assert all(len(q_sys.states) >= 70 for _, _, (_, q_sys) in WIDE_CASES)
    depth = {name: len(fixpoint_rounds(kind, *systems)) - 1 for name, kind, systems in WIDE_CASES}
    assert all(d >= 2 for d in depth.values()), depth


def test_cases_reach_deep_fixpoints_beyond_the_oracle_cap():
    depth = {name: len(fixpoint_rounds(kind, *systems)) - 1 for name, kind, systems in CASES}
    assert depth["chain30-refine-down"] == 31
    assert max(v for k, v in depth.items() if k.startswith("ladder12")) >= 12
    assert all(depth[f"sparse{seed}-refine"] >= 1 for seed in (1, 2, 3))


@pytest.mark.parametrize(
    "kind,cls,chain_left",
    [
        (Refinement(), "cov", True),
        (Refinement(), "cov", False),
        # The longer chain escapes the ladder forwards on a covariant label
        # and backwards on a contravariant one.
        (CCSim(), "cov", True),
        (CCSim(), "con", False),
    ],
    ids=["refine-chain-ladder", "refine-ladder-chain", "ccsim-chain-ladder", "ccsim-ladder-chain"],
)
def test_ladder_witness_prints_in_linear_size(kind, cls, chain_left):
    # The two rungs of a level give equal sub-witnesses; printed as a tree
    # without sharing they double the text per level.
    n = 16
    rng = random.Random(n)
    sides = [_chain(rng, n + 1), _ladder(rng, n)]
    p_sys, q_sys = _one_label_pair(kind, *(sides if chain_left else sides[::-1]), cls)
    phi = distinguishing_formula(kind, p_sys, p_sys.init, q_sys, q_sys.init)
    assert len(formula_text(phi)) <= 4 * n + 8
    holds = mc_mts if isinstance(kind, Refinement) else mc_cc
    assert holds(p_sys, p_sys.init, phi)
    assert not holds(q_sys, q_sys.init, phi)


def test_whole_relation_without_a_table_the_size_of_the_product():
    left, right = planted_refinement(150, seed=7)
    tracemalloc.start()
    try:
        related, relation, witness = decide(Refinement(), left, left.init, right, right.init, whole=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert related and witness is None
    assert (left.init, right.init) in relation and len(relation.pairs) >= 150
    # A rank and support counters per pair of the 22,500-pair product take
    # about 4.3 MB; the bit rows about 0.2 MB.
    assert peak < 2**20, peak


def test_whole_relation_keeps_no_record_of_its_rounds():
    # 151 rounds each remove one pair per row; kept as full-width removal
    # bits they take about 1.1 MB, while the rows and the ball the witness
    # is ranked on take about 0.5 MB.
    rng = random.Random(151)
    longer, shorter = _one_label_pair(Refinement(), _chain(rng, 151), _chain(rng, 150), "cov")
    tracemalloc.start()
    try:
        related, relation, witness = decide(
            Refinement(), longer, longer.init, shorter, shorter.init, whole=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not related and len(relation.pairs) == 151
    assert formula_text(witness) == "<a>" * 151 + "tt"
    assert peak < 0.8 * 2**20, peak


# Each side of each choice in the rounds of ``preorders._fixpoint``, by the
# text of the line that only that side runs.
SIDES = {
    "leftward kept": "alive = _image(row2, answering[a])",
    "leftward lost": "pre, found = _image(lost, answering[a]), answers[a]",
    "rightward scan": "hit = _meeting(scan, steps[a], fresh)",
    "rightward image": "hit = _image(fresh, stepping[a]) & row",
}


def _sides_taken(cases):
    """How often each side of ``SIDES`` runs over ``cases``, and how often
    the lost and image sides run on the edge of their rule."""
    source, first = inspect.getsourcelines(preorders._fixpoint)
    line_of = {}
    for side, text in SIDES.items():
        found = [first + i for i, line in enumerate(source) if line.strip() == text]
        assert len(found) == 1, f"{side}: {text!r} is not one line of _fixpoint"
        line_of[found[0]] = side
    code, taken = preorders._fixpoint.__code__, Counter()

    def on_line(frame, event, arg):
        side = line_of.get(frame.f_lineno) if event == "line" else None
        if side:
            taken[side] += 1
            local = frame.f_locals
            if side == "leftward lost" and local["row2"].bit_count() == 4 * local["lost"].bit_count():
                taken["leftward edge"] += 1
            if side == "rightward image" and local["scan"].bit_count() == local["fresh"].bit_count():
                taken["rightward edge"] += 1
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        for _, kind, (p_sys, q_sys) in cases:
            greatest(kind, p_sys, q_sys)
    finally:
        sys.settrace(previous)
    return taken


def test_every_side_of_the_rounds_is_checked_against_the_removal_loop():
    # Each side runs often on the cases the removal loop checks, so neither
    # side of a choice stands unchecked.
    taken = _sides_taken(CASES + WIDE_CASES)
    assert all(taken[side] >= 100 for side in SIDES), taken
    # On the edge of its rule, each choice takes the lost or the image side.
    taken = _sides_taken(EDGE_CASES)
    assert taken["leftward edge"] and taken["rightward edge"], taken
    _, kind, (left, right) = EDGE_CASES[0]
    assert greatest(kind, left, right).pairs == {("p2", f"q{i}") for i in range(4)}


def test_rounds_walk_the_smaller_side(monkeypatch):
    # The bits each round walks: those fed to an image and those tested one
    # by one.  The removal sets taken on the lost side only, imaging what
    # each row lost and testing each right state answering into it, walked
    # 1,188,886 image bits and 62,167 tested bits here.
    walked = Counter()
    image, meeting = preorders._image, preorders._meeting

    def counted_image(bits, into):
        walked["image"] += bits.bit_count()
        return image(bits, into)

    def counted_meeting(bits, masks, target):
        walked["tested"] += bits.bit_count()
        return meeting(bits, masks, target)

    monkeypatch.setattr(preorders, "_image", counted_image)
    monkeypatch.setattr(preorders, "_meeting", counted_meeting)
    for seed in (7, 8):
        left, right = planted_refinement(300, seed)
        assert (left.init, right.init) in greatest(Refinement(), left, right)
        assert len(greatest(Refinement(), right, right).pairs) >= 300
    assert walked["image"] + walked["tested"] <= 240_000, walked
