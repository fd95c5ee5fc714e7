"""Seeded random generators for systems, formulae and terms.

Every generator takes an explicit :class:`random.Random` and draws from
sorted pools only, so a given seed yields the same values on every platform
and run.  Alphabets come from a fixed pool ``a, b, c, ...``; states are
numbered ``s0, s1, ...`` under a caller-chosen prefix, with ``s0`` always
initial.
"""

from __future__ import annotations

import random
import string
from typing import Sequence, Union

from .formulas import And, Bottom, Box, Diamond, Formula, Or, Top
from .systems import (
    BIVARIANT,
    CONTRAVARIANT,
    COVARIANT,
    Action,
    CCSignature,
    PointedLTS,
    PointedMTS,
    System,
    Transition,
    _triple_key,
    action,
    plain_signature,
    signature,
    sorted_actions,
)
from .terms import (
    MustPrefix,
    Omega,
    Prefix,
    Sum,
    Term,
    Zero,
    prefix_label,
)

LABEL_POOL = tuple(string.ascii_lowercase)

ALL_CLASSES = (COVARIANT, CONTRAVARIANT, BIVARIANT)


def pool_labels(count: int) -> list[Action]:
    """The first ``count`` labels of the fixed pool."""
    if count > len(LABEL_POOL):
        raise ValueError(f"the label pool holds only {len(LABEL_POOL)} names")
    return [action(name) for name in LABEL_POOL[:count]]


def random_alphabet(rng: random.Random, max_labels: int = 2) -> frozenset[Action]:
    return frozenset(pool_labels(rng.randint(1, max_labels)))


def random_signature(
    rng: random.Random,
    max_per_class: int = 1,
    classes: Sequence[str] = ALL_CLASSES,
) -> CCSignature:
    """A signature with up to ``max_per_class`` labels in each allowed class
    (never empty overall); labels are drawn from the pool in order."""
    counts = [rng.randint(0, max_per_class) for _ in classes]
    if not any(counts):
        counts[rng.randrange(len(classes))] = 1
    pool = iter(LABEL_POOL)
    buckets: dict[str, list[str]] = {cls: [] for cls in ALL_CLASSES}
    for cls, count in zip(classes, counts):
        for _ in range(count):
            buckets[cls].append(next(pool))
    return signature(
        cov=buckets[COVARIANT], con=buckets[CONTRAVARIANT], bi=buckets[BIVARIANT]
    )


def _random_triples(
    rng: random.Random, states: list[str], labels: list[Action]
) -> frozenset[Transition]:
    triples = [(s, a, d) for s in states for a in labels for d in states]
    count = rng.randint(0, len(triples))
    return frozenset(rng.sample(triples, count))


def random_mts(
    rng: random.Random,
    acts: frozenset[Action],
    max_states: int = 4,
    prefix: str = "s",
) -> PointedMTS:
    """A random MTS over ``acts``; the must relation is a subset of may."""
    n = rng.randint(1, max_states)
    states = [f"{prefix}{i}" for i in range(n)]
    labels = sorted_actions(acts)
    may = _random_triples(rng, states, labels)
    may_list = sorted(may, key=_triple_key)
    must = frozenset(rng.sample(may_list, rng.randint(0, len(may_list))))
    return PointedMTS(frozenset(states), acts, may, must, f"{prefix}0")


def random_lts(
    rng: random.Random,
    sig: CCSignature,
    max_states: int = 4,
    prefix: str = "s",
) -> PointedLTS:
    n = rng.randint(1, max_states)
    states = [f"{prefix}{i}" for i in range(n)]
    trans = _random_triples(rng, states, sorted_actions(sig.actions))
    return PointedLTS(frozenset(states), sig, trans, f"{prefix}0")


def random_plain_lts(
    rng: random.Random,
    acts: frozenset[Action],
    max_states: int = 4,
    prefix: str = "s",
) -> PointedLTS:
    """A random LTS read as a plain one: every label covariant."""
    return random_lts(rng, plain_signature(acts), max_states, prefix)


def random_mts_pair(
    rng: random.Random,
    max_states: int = 4,
    max_labels: int = 2,
) -> tuple[PointedMTS, PointedMTS]:
    """Two MTSs over one shared alphabet (states prefixed ``p``/``q``)."""
    acts = random_alphabet(rng, max_labels)
    return (
        random_mts(rng, acts, max_states, prefix="p"),
        random_mts(rng, acts, max_states, prefix="q"),
    )


def random_lts_pair(rng: random.Random, max_states: int = 4) -> tuple[PointedLTS, PointedLTS]:
    """Two LTSs over one shared signature of at most one label per class
    (states prefixed ``p``/``q``)."""
    sig = random_signature(rng)
    return (
        random_lts(rng, sig, max_states, prefix="p"),
        random_lts(rng, sig, max_states, prefix="q"),
    )


def random_state(rng: random.Random, system: System) -> str:
    return rng.choice(sorted(system.states))


def _random_formula(
    rng: random.Random,
    dia_labels: Sequence[Action],
    box_labels: Sequence[Action],
    depth: int,
) -> Formula:
    options = ["tt", "ff"]
    if depth > 0:
        options += ["and", "and", "or", "or"]
        if dia_labels:
            options += ["dia"] * 3
        if box_labels:
            options += ["box"] * 3
    pick = rng.choice(options)
    if pick == "tt":
        return Top()
    if pick == "ff":
        return Bottom()
    if pick == "and":
        return And(
            _random_formula(rng, dia_labels, box_labels, depth - 1),
            _random_formula(rng, dia_labels, box_labels, depth - 1),
        )
    if pick == "or":
        return Or(
            _random_formula(rng, dia_labels, box_labels, depth - 1),
            _random_formula(rng, dia_labels, box_labels, depth - 1),
        )
    if pick == "dia":
        lab = dia_labels[rng.randrange(len(dia_labels))]
        return Diamond(lab, _random_formula(rng, dia_labels, box_labels, depth - 1))
    lab = box_labels[rng.randrange(len(box_labels))]
    return Box(lab, _random_formula(rng, dia_labels, box_labels, depth - 1))


def random_bl_formula(
    rng: random.Random,
    acts: frozenset[Action],
    max_depth: int = 4,
    existential: bool = False,
) -> Formula:
    """A random formula over alphabet ``acts``; with ``existential`` no box
    modalities appear.  ``max_depth`` bounds the syntax-tree height."""
    labels = sorted_actions(acts)
    boxes: Sequence[Action] = () if existential else labels
    return _random_formula(rng, labels, boxes, max_depth)


def random_cc_formula(
    rng: random.Random,
    sig: CCSignature,
    max_depth: int = 4,
) -> Formula:
    """A random formula that is well formed over ``sig``."""
    dia = sorted_actions(sig.covariant | sig.bivariant)
    box = sorted_actions(sig.contravariant | sig.bivariant)
    return _random_formula(rng, dia, box, max_depth)


def random_term(
    rng: random.Random,
    forms: Sequence[tuple[Union[str, Action], bool]],
    max_height: int = 3,
) -> Term:
    """A random term of syntax-tree height at most ``max_height`` built from
    the given prefix forms."""
    options = ["0", "w"]
    if max_height > 1:
        options += ["sum", "sum"]
        if forms:
            options += ["prefix"] * 3
    pick = rng.choice(options)
    if pick == "0":
        return Zero()
    if pick == "w":
        return Omega()
    if pick == "sum":
        return Sum(
            random_term(rng, forms, max_height - 1),
            random_term(rng, forms, max_height - 1),
        )
    lab, is_must = forms[rng.randrange(len(forms))]
    rest = random_term(rng, forms, max_height - 1)
    lab = prefix_label(lab)
    return MustPrefix(lab, rest) if is_must else Prefix(lab, rest)
