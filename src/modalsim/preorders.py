"""Greatest behavioural preorders between pointed systems.

Four preorder kinds are supported:

* :class:`Refinement` between MTSs: required (must) behaviour of the left
  system is matched by the right, allowed (may) behaviour of the right is
  matched by the left;
* :class:`CCSim` between LTSs over one signature: covariant and bivariant
  moves of the left are matched rightwards, contravariant and bivariant
  moves of the right are matched leftwards;
* :class:`PartialBisim` between LTSs read as plain systems: every move of
  the left is matched rightwards, moves of the right on actions in the
  bisimulation set are matched leftwards.  This is covariant-contravariant
  simulation with the actions outside the set covariant and those inside it
  bivariant;
* :class:`Simulation`: partial bisimulation with the empty bisimulation set,
  and a subclass of :class:`PartialBisim`, so the engine reads every kind of
  the two through its ``bset``.

:func:`greatest` returns the greatest relation of a kind; :func:`decide`
answers one pair, with a distinguishing formula when it is unrelated, from
a local solver and the engine run near the pair, or from the whole relation
when that is asked for too.

All four run through one engine over interned states and labels.  Each round
removes, together, every pair that violates the relation at the start of the
round, so a pair's rank is the round that removes it and every pair its
violation cites has a smaller rank.  The whole relation is solved as bit
rows, one int per left state over the right states, with the removal sets of
Henzinger, Henzinger and Kopke (FOCS 1995) as bit operations (Ranzato and
Tapparo, LICS 2007, give the partition-relation form).  Round 1 is a
label-mask test per row; a later round tests only the pairs that the
removals of the round before can break.  It tests each clause from the
smaller side of the rows it reads (after Paige and Tarjan, SIAM J. Comput.
1987): what a row kept or what it just lost.  Both sides remove the same
pairs, because every pair still standing met its clauses against the rows of
the round before, which are the kept and the lost bits together.  Near one
pair the engine is a local solver for the verdict.  It tests each pair
against round 2 before exploring it: a pair with an obligation that no
candidate passing round 1 can meet falls at once and pushes no candidate,
and a pair that nothing standing rests on any more is dropped unexplored.
The indexes list labels in label order, so the solver's work does not move
with the hash seed that orders the transition sets.  Ranks come from one
place, a support-counter worklist (after Bloom and Paige, SCP 1995) with
one counter per obligation of each pair it is given: a witness's ranks
from the obligations of a ball of pairs around the unrelated pair, and
:func:`fixpoint_rounds` from those of every pair of the product.
:func:`oracle_greatest` recomputes the relation by brute force (enumerating
every subset of the product) and exists purely so the fixpoint can be
tested against an independent path; it is capped at products of 12 pairs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import reduce
from itertools import compress
from operator import attrgetter, invert, or_
from typing import Iterable, Optional, Sequence, Union

from .formulas import Box, Diamond, Formula, conj, disj
from .systems import (
    Action,
    PointedLTS,
    PointedMTS,
    Transition,
    actions_text,
    fold,
    sorted_actions,
    successor_index,
)


class _Value:
    """Base of the preorder kinds and :class:`Relation`: a subclass names
    its fields in ``__slots__``, and its values are read-only and equal and
    hash by class and fields.  Tuples would not do: an empty one is false,
    ``Refinement() == CCSim()`` would hold and a relation would have a
    length."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            cls._key = staticmethod(attrgetter(*cls.__slots__))

    @staticmethod
    def _key(value: "_Value") -> object:
        """What ``==`` and ``hash`` read of a value: its fields, none here."""
        return ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash((type(self), self._key(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Refinement(_Value):
    """Modal refinement between MTSs."""

    __slots__ = ()


class CCSim(_Value):
    """Covariant-contravariant simulation between same-signature LTSs."""

    __slots__ = ()


class PartialBisim(_Value):
    """Partial bisimulation with bisimulation set ``bset``."""

    __slots__ = ("bset",)

    def __init__(self, bset: frozenset[Action]) -> None:
        object.__setattr__(self, "bset", bset)


class Simulation(PartialBisim):
    """Plain simulation between LTSs: partial bisimulation with the empty
    bisimulation set.  It keeps its own name, so it neither prints nor
    compares as ``PartialBisim(frozenset())``."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(frozenset())


PreorderKind = Union[Refinement, CCSim, PartialBisim]
# The kinds whose unrelated pairs have a distinguishing formula.
_WITNESSED = (Refinement, CCSim)

ORACLE_PRODUCT_CAP = 12

Pair = tuple[str, str]


class Relation(_Value):
    """A relation between the state sets of two systems."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: frozenset[Pair]) -> None:
        object.__setattr__(self, "pairs", pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def inverse(self) -> "Relation":
        return Relation(frozenset((q, p) for p, q in self.pairs))


def compose_relations(r1: Relation, r2: Relation) -> Relation:
    by_left: dict[str, set[str]] = {}
    for a, b in r1.pairs:
        by_left.setdefault(b, set()).add(a)
    pairs = set()
    for b, c in r2.pairs:
        for a in by_left.get(b, ()):
            pairs.add((a, c))
    return Relation(frozenset(pairs))


Clauses = tuple[Iterable[Transition], Iterable[Transition], Iterable[Transition], Iterable[Transition]]


def _prepare(
    kind: PreorderKind,
    p_sys: Union[PointedMTS, PointedLTS],
    q_sys: Union[PointedMTS, PointedLTS],
) -> Clauses:
    """Check that the systems fit ``kind`` and return the transitions each
    clause reads: ``(p_steps, q_answers, q_steps, p_answers)``.

    The leftward clause asks every ``p_steps`` move of the left state to be
    answered by a ``q_answers`` move of the right state on the same label
    with related targets; the rightward clause asks the same of ``q_steps``
    moves, answered by ``p_answers`` moves.  Partial bisimulation steps
    with every move of the left and with the ``bset`` moves of the right;
    simulation is the case of the empty ``bset``.
    """
    if isinstance(kind, Refinement):
        if not (isinstance(p_sys, PointedMTS) and isinstance(q_sys, PointedMTS)):
            raise TypeError("refinement compares two MTSs")
        if p_sys.actions != q_sys.actions:
            raise ValueError("refinement needs both systems over the same action set")
        return p_sys.must, q_sys.must, q_sys.may, p_sys.may
    if isinstance(kind, CCSim):
        if not (isinstance(p_sys, PointedLTS) and isinstance(q_sys, PointedLTS)):
            raise TypeError("covariant-contravariant simulation compares two LTSs")
        if p_sys.signature != q_sys.signature:
            raise ValueError("covariant-contravariant simulation needs identical signatures")
        sig = p_sys.signature
        forward = sig.covariant | sig.bivariant
        backward = sig.contravariant | sig.bivariant
        p_steps = [t for t in p_sys.transitions if t[1] in forward]
    elif isinstance(kind, PartialBisim):
        if not (isinstance(p_sys, PointedLTS) and isinstance(q_sys, PointedLTS)):
            raise TypeError("partial bisimulation and simulation compare two LTSs")
        if p_sys.signature.actions != q_sys.signature.actions:
            raise ValueError("partial bisimulation and simulation need both systems over the same alphabet")
        backward = kind.bset
        stray = backward - p_sys.signature.actions
        if stray:
            raise ValueError(f"bisimulation set labels {actions_text(stray)} are outside the alphabet")
        p_steps = p_sys.transitions
    else:
        raise TypeError(f"unknown preorder kind: {kind!r}")
    return p_steps, q_sys.transitions, [t for t in q_sys.transitions if t[1] in backward], p_sys.transitions


# Per state, its targets by label; states and labels are interned ints.
Index = list[dict[int, list[int]]]


def _index(
    transitions: Iterable[Transition], state_id: dict[str, int], label_id: dict[Action, int]
) -> Index:
    """Successors of each state, labels and targets ascending, so that the
    order of ``transitions`` (a set's, which moves with the hash seed) never
    reaches the solvers."""
    by_label: list[dict[int, list[int]]] = [{} for _ in label_id]
    for src, lab, dst in transitions:
        by_label[label_id[lab]].setdefault(state_id[src], []).append(state_id[dst])
    succ: Index = [{} for _ in state_id]
    for a, rows in enumerate(by_label):
        for s, targets in rows.items():
            targets.sort()
            succ[s][a] = targets
    return succ


def _masks(index: Index) -> list[int]:
    """Per state, the labels of its row as bits."""
    bit = (1).__lshift__
    return [sum(map(bit, row)) for row in index]


_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(row: int, items: Sequence) -> Iterable:
    """The items at the set bits of ``row``, in ascending bit order."""
    # Peeling off the lowest bit takes a few interpreted steps per set bit;
    # the binary text is scanned in C, one step per bit of the row.
    if row.bit_count() * 8 < len(items):
        found = []
        while row:
            low = row & -row
            found.append(items[low.bit_length() - 1])
            row ^= low
        return found
    return compress(items, bin(row)[:1:-1].encode().translate(_BITS))


def _image(bits: int, into: list[int]) -> int:
    """The union of ``into[i]`` over the set bits ``i`` of ``bits``."""
    if bits.bit_count() > 8:
        return reduce(or_, _members(bits, into), 0)
    image = 0
    while bits:
        low = bits & -bits
        image |= into[low.bit_length() - 1]
        bits ^= low
    return image


def _meeting(bits: int, masks: list[int], target: int) -> int:
    """The set bits ``i`` of ``bits`` whose ``masks[i]`` meets ``target``."""
    met = 0
    while bits:
        low = bits & -bits
        if masks[low.bit_length() - 1] & target:
            met |= low
        bits ^= low
    return met


class _Game:
    """One preorder check.

    States are numbered in name order on each side and labels in
    :func:`sorted_actions` order, so ascending numbers are the printed order
    and the hot loop never hashes an :class:`Action`.  The pair ``(p, q)``
    is the number ``p * len(right) + q``.  :meth:`holds` answers one pair
    from the successor indexes alone.  :meth:`solve_around` ranks the pairs
    near one pair from their obligations by the support-counter worklist;
    ``rank[pair]`` is then the round in which the pair leaves the relation
    (0 if it never does).
    """

    def __init__(self, left_states: Iterable[str], right_states: Iterable[str], clauses: Clauses):
        self.left, self.right = sorted(left_states), sorted(right_states)
        self.left_id = {s: i for i, s in enumerate(self.left)}
        self.right_id = {s: i for i, s in enumerate(self.right)}
        p_steps, q_answers, q_steps, p_answers = clauses
        self.labels = sorted_actions({t[1] for rel in clauses for t in rel})
        label_id = {a: i for i, a in enumerate(self.labels)}
        # Partial bisimulation steps with every move of the left, the very
        # transitions it answers with, so they are indexed once.
        self.p_answers = _index(p_answers, self.left_id, label_id)
        self.p_steps = self.p_answers if p_steps is p_answers else _index(p_steps, self.left_id, label_id)
        self.q_answers = _index(q_answers, self.right_id, label_id)
        self.q_steps = _index(q_steps, self.right_id, label_id)
        # Round 1 removes (p, q) when p steps on a label that q has no answer
        # on, or q steps on one that p has none on: per state, as label bits,
        # the labels it steps on and those it has no answer on.
        self.masks = (
            _masks(self.p_steps),
            list(map(invert, _masks(self.q_answers))),
            _masks(self.q_steps),
            list(map(invert, _masks(self.p_answers))),
        )

    def _pair(self, p: str, q: str) -> int:
        return self.left_id[p] * len(self.right) + self.right_id[q]

    def _candidates(self, pair: int, standing: bool = False):
        """Per obligation of ``pair``, the pairs that would meet it: each
        ``p_steps`` move needs a related pair with a ``q_answers`` move on
        its label, each ``q_steps`` move one with a ``p_answers`` move.
        With ``standing``, only the pairs that pass round 1's label-mask
        test: the others fall in round 1."""
        m = len(self.right)
        p, q = divmod(pair, m)
        if standing:
            p_step_masks, q_unanswered, q_step_masks, p_unanswered = self.masks
        answers = self.q_answers[q]
        for a, targets in self.p_steps[p].items():
            q2s = answers.get(a, ())
            for p2 in targets:
                if standing:
                    steps, unanswered = p_step_masks[p2], p_unanswered[p2]
                    yield [p2 * m + q2 for q2 in q2s
                           if not (steps & q_unanswered[q2] or q_step_masks[q2] & unanswered)]
                else:
                    yield [p2 * m + q2 for q2 in q2s]
        answers = self.p_answers[p]
        for a, targets in self.q_steps[q].items():
            p2s = answers.get(a, ())
            for q2 in targets:
                if standing:
                    steps, unanswered = q_step_masks[q2], q_unanswered[q2]
                    yield [p2 * m + q2 for p2 in p2s
                           if not (p_step_masks[p2] & unanswered or steps & p_unanswered[p2])]
                else:
                    yield [p2 * m + q2 for p2 in p2s]

    def holds(self, p: str, q: str) -> bool:
        """Whether the greatest relation relates ``p`` to ``q``, by a local
        solver (after Fernandez and Mounier, CAV 1991, and Liu and Smolka,
        ICALP 1998).  An explored pair is assumed related, and each of its
        obligations rests on one candidate, moving to the next when that one
        falls; a pair whose obligation runs out falls.  At the end the
        explored pairs still standing meet every obligation among themselves.

        Each pair is tested against round 2 before it is explored: its
        obligations keep only the candidates that pass round 1's label-mask
        test, and a pair with an obligation left empty falls at once, before
        any of its obligations rests on a candidate or pushes a new pair.
        A pair that fails round 1 has an obligation with no candidate at all,
        so the test covers round 1 too, and the root meets it first.  A pair
        taken off the worklist when every pair with an obligation resting on
        it has fallen is dropped unexplored."""
        root = self._pair(p, q)
        resting: dict[int, list] = {root: []}  # pair -> obligations resting on it
        fallen: set[int] = set()
        todo = [root]
        # Only an explored pair falls, so every pair on ``todo`` is standing.
        while todo and root not in fallen:
            pair = todo.pop()
            waiting = resting[pair]
            if waiting and waiting[-1][0] in fallen and all(owner in fallen for owner, _ in waiting):
                # Nothing standing rests on the pair.  Forgotten, it is
                # pushed again if an obligation moves on to it, so every
                # standing obligation still rests on a pair to explore.
                del resting[pair]
                continue
            moves = []
            for kept in self._candidates(pair, standing=True):
                if not kept:
                    fallen.add(pair)
                    moves = list(resting[pair])
                    break
                moves.append((pair, iter(kept)))
            while moves:
                owner, candidates = moves.pop()
                if owner in fallen:
                    continue
                for c in candidates:
                    if c in fallen:
                        continue
                    if c not in resting:
                        resting[c] = []
                        todo.append(c)
                    resting[c].append((owner, candidates))
                    break
                else:
                    fallen.add(owner)
                    moves += resting[owner]
        return root not in fallen

    def _solve(self, ball: dict[int, list[list[int]]]) -> None:
        """Rank the pairs of ``ball``, given as each pair's obligations, by
        the support-counter worklist; a pair outside the ball never falls.
        Each obligation counts its candidates still standing, inside the
        ball or not.  A pair with an obligation that has no candidate falls
        in round 1, and a pair falls in round ``k`` when one of its counters
        reaches 0 while the pairs of round ``k - 1`` are processed."""
        rank = defaultdict(lambda: math.inf, dict.fromkeys(ball, 0))
        counts, owners = [], []
        counting = defaultdict(list)  # pair of the ball -> obligations it counts in
        frontier = []
        for pair, obligations in ball.items():
            if not all(obligations):
                rank[pair] = 1
                frontier.append(pair)
                continue
            for candidates in obligations:
                for c in candidates:
                    if c in ball:
                        counting[c].append(len(counts))
                counts.append(len(candidates))
                owners.append(pair)
        k = 1
        while frontier:
            k += 1
            fallen = []
            for c in frontier:
                for i in counting[c]:
                    counts[i] -= 1
                    if not counts[i] and not rank[owners[i]]:
                        rank[owners[i]] = k
                        fallen.append(owners[i])
            frontier = fallen
        self.rank = rank

    def solve_around(self, p: str, q: str) -> None:
        """Rank the pairs that :meth:`formula` reads for the unrelated pair
        ``(p, q)``, without touching the rest of the product.

        A pair's rank depends only on the pairs it can reach through
        candidates.  Solved on the ball of pairs within ``radius`` candidate
        steps of the root, no rank goes down, and a pair at distance ``d``
        whose rank is ``j <= radius - d + 1`` gets rank ``j``.  So once the
        root falls by round ``radius + 1`` (or the ball holds every pair it
        can reach) the root and every pair its witness cites have their
        true ranks.  The radius starts at 1 and doubles.  A pair's
        obligations are listed once, when it joins the ball, and the next
        layer is read off them."""
        root = self._pair(p, q)
        ball = {root: list(self._candidates(root))}
        layer, depth, radius = [root], 0, 1
        while True:
            while layer and depth < radius:
                layer = {c for pair in layer for cs in ball[pair] for c in cs if c not in ball}
                for pair in layer:
                    ball[pair] = list(self._candidates(pair))
                depth += 1
            self._solve(ball)
            if not layer or 0 < self.rank[root] <= radius + 1:
                return
            radius *= 2

    def _violation(self, pair: int) -> tuple[int, int, list[int]]:
        """(label, clause, cited pairs) of the first violation, in label,
        clause and name order, of a removed pair against the relation at the
        start of its round; clause 1 is the leftward one."""
        rank, m = self.rank, len(self.right)
        k = rank[pair]
        p, q = divmod(pair, m)
        steps, answers = self.p_steps[p], self.q_answers[q]
        back, back_answers = self.q_steps[q], self.p_answers[p]
        for a in sorted(steps.keys() | back.keys()):
            for p2 in steps.get(a, ()):
                cited = [p2 * m + q2 for q2 in answers.get(a, ())]
                if all(0 < rank[c] < k for c in cited):
                    return a, 1, cited
            for q2 in back.get(a, ()):
                cited = [p2 * m + q2 for p2 in back_answers.get(a, ())]
                if all(0 < rank[c] < k for c in cited):
                    return a, 2, cited

    def formula(self, p: str, q: str) -> Formula:
        """A distinguishing formula for a removed pair, built from its
        violation.  The pairs it cites fell in earlier rounds, so the walk
        over them ends.

        Formulae are interned, so structurally equal sub-witnesses are one
        object; a repeated operand is dropped, keeping first occurrences."""

        def step(pair: int):
            a, clause, cited = self._violation(pair)
            operands = []
            for sub in cited:
                operands.append((yield sub))
            operands = list(dict.fromkeys(operands))
            if clause == 1:
                return Diamond(self.labels[a], conj(operands))
            return Box(self.labels[a], disj(operands))

        return fold(self._pair(p, q), step)


def _fixpoint(
    left_states: frozenset[str], right_states: frozenset[str], clauses: Clauses
) -> tuple[frozenset[Pair], int]:
    """The greatest relation satisfying ``clauses`` (see :func:`_prepare`)
    and the number of rounds that removed pairs."""
    left, right = sorted(left_states), sorted(right_states)
    left_id = {s: i for i, s in enumerate(left)}
    right_id = {s: i for i, s in enumerate(right)}
    m = len(right)
    p_steps, q_answers, q_steps, p_answers = clauses
    # Round 1 removes the pairs with a move that has no answer on its label:
    # per label, the right states with an answer and those with a step.
    has_answer, has_step = defaultdict(int), defaultdict(int)
    for src, a, _ in q_answers:
        has_answer[a] |= 1 << right_id[src]
    for src, a, _ in q_steps:
        has_step[a] |= 1 << right_id[src]
    full = (1 << m) - 1
    rows = [full] * len(left)
    for src, a, _ in p_steps:
        rows[left_id[src]] &= has_answer[a]
    # Per left state and label that a right state steps on, its answers.
    targets = [{} for _ in left]
    for src, a, dst in p_answers:
        if a in has_step:
            targets[left_id[src]].setdefault(a, []).append(left_id[dst])
    for p, answered in enumerate(targets):
        for a, bits in has_step.items():
            if a not in answered:
                rows[p] &= ~bits
    gone = {p: full & ~row for p, row in enumerate(rows) if row != full}
    # Indexes of the later rounds.  Leftward: per p2 and label, the left
    # states stepping to it; per label, each right state's answers and the
    # right states answering into each.  Rightward: per p2, the (p, label)
    # whose answers include it; per label, each right state's steps and the
    # right states stepping into each.
    stepped, users = defaultdict(dict), defaultdict(list)
    if gone:
        for src, a, dst in p_steps:
            stepped[left_id[dst]].setdefault(a, []).append(left_id[src])
        answers, answering = defaultdict(lambda: [0] * m), defaultdict(lambda: [0] * m)
        if stepped:
            for src, a, dst in q_answers:
                q, q2 = right_id[src], right_id[dst]
                answers[a][q] |= 1 << q2
                answering[a][q2] |= 1 << q
        for p, answered in enumerate(targets):
            for a, p2s in answered.items():
                for p2 in p2s:
                    users[p2].append((p, a))
        steps, stepping = defaultdict(lambda: [0] * m), defaultdict(lambda: [0] * m)
        if users:
            for src, a, dst in q_steps:
                q, q2 = right_id[src], right_id[dst]
                steps[a][q] |= 1 << q2
                stepping[a][q2] |= 1 << q
    # Round k + 1 tests only the pairs that the removals ``gone`` of round k
    # can break, and applies its own removals together.  Every pair still
    # standing met each of its obligations against the rows of round k, and
    # those are the rows now plus ``gone``.  So each clause below can be
    # tested from either side of a row, what it kept or what it just lost,
    # and both remove the same pairs; each test takes the side with fewer
    # bits to walk.
    rounds = 0
    while gone:
        rounds += 1
        fall = defaultdict(int)
        # (p, q) with a step of p to p2 on a falls when q has no a-answer
        # left in p2's row.  Kept side: every q outside the image of the
        # row falls at once.  Lost side: only a q with an a-answer in what
        # the row lost can fall, since one into the row before met the step,
        # so each such q is tested on its own.  A lost bit is weighed as
        # four kept ones: besides its own image bit, each right state that
        # answers into it is tested once per mover.
        for p2, lost in gone.items():
            row2 = rows[p2]
            kept_side = row2.bit_count() < 4 * lost.bit_count()
            for a, movers in stepped.get(p2, {}).items():
                if kept_side:
                    alive = _image(row2, answering[a])
                    for p in movers:
                        hit = rows[p] & ~alive
                        if hit:
                            fall[p] |= hit
                    continue
                pre, found = _image(lost, answering[a]), answers[a]
                for p in movers:
                    rest = pre & rows[p]
                    if rest:
                        hit = rest & ~_meeting(rest, found, row2)
                        if hit:
                            fall[p] |= hit
        # (p, q) falls when q steps on a to a right state outside the union
        # of the rows of p's a-answers; that union held every such step in
        # round k, so the step goes into ``fresh``, what just left it.
        # Either the right states stepping into ``fresh``, or each q of the
        # row with an a-step, tested on its own, whichever is fewer.
        for p, a in {use for p2 in gone for use in users.get(p2, ())}:
            union = lost = 0
            for p2 in targets[p][a]:
                union |= rows[p2]
                lost |= gone.get(p2, 0)
            fresh, row = lost & ~union, rows[p]
            scan = row & has_step[a]
            if scan.bit_count() < fresh.bit_count():
                hit = _meeting(scan, steps[a], fresh)
            else:
                hit = _image(fresh, stepping[a]) & row
            if hit:
                fall[p] |= hit
        for p, bits in fall.items():
            rows[p] &= ~bits
        gone = fall
    related = frozenset((left[p], q) for p, row in enumerate(rows) for q in _members(row, right))
    return related, rounds


def greatest(
    kind: PreorderKind,
    p_sys: Union[PointedMTS, PointedLTS],
    q_sys: Union[PointedMTS, PointedLTS],
) -> Relation:
    """The greatest relation of ``kind`` between the two state sets.

    Refinement needs two MTSs over one action set, cc-simulation two LTSs
    over one signature, and partial bisimulation and simulation two LTSs
    over one alphabet (their signature classes are ignored)."""
    return Relation(_fixpoint(p_sys.states, q_sys.states, _prepare(kind, p_sys, q_sys))[0])


def fixpoint_rounds(
    kind: PreorderKind,
    p_sys: Union[PointedMTS, PointedLTS],
    q_sys: Union[PointedMTS, PointedLTS],
) -> list[frozenset[Pair]]:
    """The relation at the start of each removal round, starting at the full
    product and ending at the greatest relation, read off the ranks of the
    support-counter worklist run on every pair; mainly for inspection and
    property tests."""
    game = _Game(p_sys.states, q_sys.states, _prepare(kind, p_sys, q_sys))
    m = len(game.right)
    game._solve({pair: list(game._candidates(pair)) for pair in range(len(game.left) * m)})
    rank = {(game.left[pair // m], game.right[pair % m]): k for pair, k in game.rank.items()}
    return [frozenset(pair for pair, k in rank.items() if not 0 < k <= j)
            for j in range(max(rank.values(), default=0) + 1)]


def _oracle_obligations(
    kind: PreorderKind,
    p_sys: Union[PointedMTS, PointedLTS],
    q_sys: Union[PointedMTS, PointedLTS],
    pairs: list[Pair],
    index: dict[Pair, int],
) -> list[list[int]]:
    # Literal transcription of each definition's clauses into bitmasks of
    # supporting pairs; kept separate from the fixpoint code on purpose.
    obligations: list[list[int]] = [[] for _ in pairs]

    def mask(cands: list[Pair]) -> int:
        out = 0
        for cand in cands:
            out |= 1 << index[cand]
        return out

    if isinstance(kind, Refinement):
        p_must = successor_index(p_sys.states, p_sys.must)
        p_may = successor_index(p_sys.states, p_sys.may)
        q_must = successor_index(q_sys.states, q_sys.must)
        q_may = successor_index(q_sys.states, q_sys.may)
        for i, (p, q) in enumerate(pairs):
            for a, targets in p_must[p].items():
                for p2 in targets:
                    obligations[i].append(mask([(p2, q2) for q2 in q_must[q].get(a, ())]))
            for a, targets in q_may[q].items():
                for q2 in targets:
                    obligations[i].append(mask([(p2, q2) for p2 in p_may[p].get(a, ())]))
        return obligations

    if isinstance(kind, CCSim):
        sig = p_sys.signature
        forward = sig.covariant | sig.bivariant
        backward = sig.contravariant | sig.bivariant
        p_succ = successor_index(p_sys.states, p_sys.transitions)
        q_succ = successor_index(q_sys.states, q_sys.transitions)
        for i, (p, q) in enumerate(pairs):
            for a, targets in p_succ[p].items():
                if a in forward:
                    for p2 in targets:
                        obligations[i].append(mask([(p2, q2) for q2 in q_succ[q].get(a, ())]))
            for a, targets in q_succ[q].items():
                if a in backward:
                    for q2 in targets:
                        obligations[i].append(mask([(p2, q2) for p2 in p_succ[p].get(a, ())]))
        return obligations

    if isinstance(kind, PartialBisim):
        p_succ = successor_index(p_sys.states, p_sys.transitions)
        q_succ = successor_index(q_sys.states, q_sys.transitions)
        for i, (p, q) in enumerate(pairs):
            for a, targets in p_succ[p].items():
                for p2 in targets:
                    obligations[i].append(mask([(p2, q2) for q2 in q_succ[q].get(a, ())]))
            for a, targets in q_succ[q].items():
                if a in kind.bset:
                    for q2 in targets:
                        obligations[i].append(mask([(p2, q2) for p2 in p_succ[p].get(a, ())]))
        return obligations

    raise TypeError(f"unknown preorder kind: {kind!r}")


def oracle_greatest(
    kind: PreorderKind,
    p_sys: Union[PointedMTS, PointedLTS],
    q_sys: Union[PointedMTS, PointedLTS],
) -> Relation:
    """Brute-force greatest relation of ``kind``: enumerate every subset of
    the state product, keep the ones satisfying the defining clauses
    pointwise and return the union of the keepers.

    Unions of satisfying relations satisfy the clauses again, so the union
    is the greatest one.  Only usable when the product has at most
    ``ORACLE_PRODUCT_CAP`` pairs.
    """
    # Only for its checks: the oracle transcribes the clauses itself.
    _prepare(kind, p_sys, q_sys)
    pairs = sorted((p, q) for p in p_sys.states for q in q_sys.states)
    n = len(pairs)
    if n > ORACLE_PRODUCT_CAP:
        raise ValueError(
            f"state product has {n} pairs; the brute-force oracle is capped at {ORACLE_PRODUCT_CAP}"
        )
    index = {pair: i for i, pair in enumerate(pairs)}
    obligations = _oracle_obligations(kind, p_sys, q_sys, pairs, index)
    union = 0
    full = (1 << n) - 1
    for subset in range(1 << n):
        if subset & ~union == 0:
            continue  # cannot grow the union
        ok = True
        rest = subset
        while rest and ok:
            low = rest & (-rest)
            rest ^= low
            for need in obligations[low.bit_length() - 1]:
                if not subset & need:
                    ok = False
                    break
        if ok:
            union |= subset
            if union == full:
                break
    return Relation(frozenset(pairs[i] for i in range(n) if union >> i & 1))


def decide(
    kind: PreorderKind,
    p_sys: Union[PointedMTS, PointedLTS],
    p: str,
    q_sys: Union[PointedMTS, PointedLTS],
    q: str,
    whole: bool = False,
) -> tuple[bool, Optional[Relation], Optional[Formula]]:
    """Whether ``kind`` relates ``p`` to ``q``; the greatest relation of
    ``kind`` if ``whole``, else ``None``; and for an unrelated pair, when
    ``kind`` is :class:`Refinement` or :class:`CCSim`, its distinguishing
    formula.  With ``whole``, the verdict is read off the bit rows of the
    whole relation; without it, nothing is built at the size of the state
    product.  Either way the witness comes from the game solved around the
    pair."""
    clauses = _prepare(kind, p_sys, q_sys)
    if p not in p_sys.states:
        raise ValueError(f"{p!r} is not a state of the left system")
    if q not in q_sys.states:
        raise ValueError(f"{q!r} is not a state of the right system")
    relation = game = None
    if whole:
        relation = Relation(_fixpoint(p_sys.states, q_sys.states, clauses)[0])
        related = (p, q) in relation
    else:
        game = _Game(p_sys.states, q_sys.states, clauses)
        related = game.holds(p, q)
    witness = None
    if not related and isinstance(kind, _WITNESSED):
        game = game or _Game(p_sys.states, q_sys.states, clauses)
        game.solve_around(p, q)
        witness = game.formula(p, q)
    return related, relation, witness


def distinguishing_formula(
    kind: PreorderKind,
    p_sys: Union[PointedMTS, PointedLTS],
    p: str,
    q_sys: Union[PointedMTS, PointedLTS],
    q: str,
) -> Optional[Formula]:
    """A formula satisfied by ``(p_sys, p)`` but not by ``(q_sys, q)``, or
    ``None`` when the pair lies in the greatest relation of ``kind``.

    Built from the violation that removed the pair in its round: a failed
    leftward obligation on ``a`` becomes ``<a>(...)`` over the opposing
    successors, a failed rightward obligation becomes ``[a](...)``.  Equal
    sub-witnesses are one shared object, and a repeated operand of ``&`` or
    ``|`` is dropped; the witness of a chain against a ladder of width 2
    then prints in size linear in the levels, not doubling per level.
    Printing still expands other shared subformulae.  No minimality is
    promised, only that it witnesses the failure.  Supported for
    :class:`Refinement` and :class:`CCSim`.
    """
    if not isinstance(kind, _WITNESSED):
        raise TypeError("distinguishing formulae exist for refinement and cc-simulation")
    return decide(kind, p_sys, p, q_sys, q)[2]
