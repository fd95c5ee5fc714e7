"""Finite pointed transition systems and their action labels.

Two system kinds live here:

* :class:`PointedMTS`, a modal transition system with separate ``may`` and
  ``must`` transition relations (every must transition needs a may twin);
* :class:`PointedLTS`, a labelled transition system whose actions are split
  by a :class:`CCSignature` into covariant, contravariant and bivariant
  classes.

States are plain strings.  Labels are :class:`Action` values; a label is
either a plain name or a structural ``cv``/``ct`` copy of another label, so
translations that decorate or strip labels never have to parse strings.
Systems and signatures are named tuples: read-only, equal and hashed by
their fields, and copied with some fields changed by ``_replace``.
"""

from __future__ import annotations

import re
import weakref
from typing import Callable, Generator, Hashable, Iterable, Mapping, NamedTuple, Union

# A bare name token: every label name, and the state names printed unquoted.
NAME_TOKEN = r"[A-Za-z0-9_]+"
_NAME_RE = re.compile(rf"{NAME_TOKEN}\Z")

PLAIN = "plain"
CV = "cv"
CT = "ct"


_NODES: dict[tuple, "_Entry"] = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _forget(entry: _Entry, nodes: dict = _NODES) -> None:
    # Runs when the node dies; a live node under the same key stays.
    if nodes.get(entry.key) is entry:
        del nodes[entry.key]


def _keep(key: tuple, node: Interned) -> Interned:
    entry = _NODES[key] = _Entry(node, _forget)
    entry.key = key
    return node


class Interned:
    """Base of the hash-consed labels, formulae and terms (Filliâtre and
    Conchon, "Type-safe modular hash-consing", 2006).

    A subclass names its fields in ``__slots__``; they are positional and
    read-only.  Building a node equal to a live one returns that node, so
    ``==`` and ``hash`` are identity and cost O(1) on any DAG.  The table
    holds nodes weakly, so a node lives only as long as its users.

    Each class records once, when it is made, a constructor of its arity
    (0, 2 or 3 fields) that sets the slots of a new node directly, and in
    ``_subnodes`` the slots that hold subnodes: every slot but ``action``,
    unless the class passes ``subnodes=``.  A class with its own
    ``__new__``, such as :class:`Action`, builds a node through ``_build``.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, subnodes: tuple[str, ...] | None = None) -> None:
        cls._subnodes = tuple(f for f in cls.__slots__ if f != "action") if subnodes is None else subnodes
        cls._build = _constructor(cls)
        if "__new__" not in vars(cls):
            cls.__new__ = cls._build

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _constructor(cls: type) -> staticmethod:
    """The ``__new__`` of node class ``cls``, by the number of its slots."""
    fields = cls.__slots__
    new = object.__new__
    setters = [getattr(cls, name).__set__ for name in fields]  # past __setattr__
    if not fields:
        def __new__(cls, /):
            entry = _NODES.get((cls,))
            node = None if entry is None else entry()
            return _keep((cls,), new(cls)) if node is None else node
    elif len(fields) == 2:
        set_first, set_second = setters

        def __new__(cls, first, second, /):
            key = (cls, first, second)
            entry = _NODES.get(key)
            node = None if entry is None else entry()
            if node is None:
                node = new(cls)
                set_first(node, first)
                set_second(node, second)
                _keep(key, node)
            return node
    elif len(fields) == 3:
        set_first, set_second, set_third = setters

        def __new__(cls, first, second, third, /):
            key = (cls, first, second, third)
            entry = _NODES.get(key)
            node = None if entry is None else entry()
            if node is None:
                node = new(cls)
                set_first(node, first)
                set_second(node, second)
                set_third(node, third)
                _keep(key, node)
            return node
    else:
        raise TypeError(f"{cls.__name__} nodes take 0, 2 or 3 fields, not {len(fields)}")
    __new__.__qualname__ = f"{cls.__qualname__}.__new__"
    return staticmethod(__new__)


class Action(Interned, subnodes=()):
    """A transition label.

    ``mark`` is ``"plain"`` for ordinary named labels, ``"cv"`` or ``"ct"``
    for the covariant / contravariant copy of ``base``.  Decorations nest.
    """

    __slots__ = ("name", "mark", "base")

    def __new__(cls, name: str = "", mark: str = PLAIN, base: "Action | None" = None) -> "Action":
        # An invalid label never enters the table, so a hit needs no check.
        entry = _NODES.get((cls, name, mark, base))
        label = None if entry is None else entry()
        if label is not None:
            return label
        if mark == PLAIN:
            if base is not None:
                raise ValueError("plain labels carry no base label")
            if not _NAME_RE.match(name):
                raise ValueError(f"bad label name: {name!r}")
        elif mark in (CV, CT):
            if base is None:
                raise ValueError(f"{mark} labels need a base label")
            if name:
                raise ValueError(f"{mark} labels carry no name of their own")
        else:
            raise ValueError(f"unknown label mark: {mark!r}")
        return cls._build(cls, name, mark, base)

    def __str__(self) -> str:
        if self.mark == PLAIN:
            return self.name
        marks, label = [], self
        while label.mark != PLAIN:
            marks.append(label.mark)
            label = label.base
        return "(".join(marks) + f"({label.name}" + ")" * len(marks)

    def __repr__(self) -> str:
        return f"Action({str(self)!r})"


def shared_nodes(root: Interned) -> tuple[set[Interned], set[Interned]]:
    """The nodes of ``root`` other than the field-less constants, and those
    of them with more than one parent.  A node's subnodes are the fields its
    class records in ``_subnodes``, so labels are not subnodes.  The
    constants are singletons, so they would be shared in almost every DAG;
    they print in O(1) anyway."""
    seen: set[Interned] = set()
    shared: set[Interned] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            shared.add(node)
        elif node.__slots__:
            seen.add(node)
            for name in node._subnodes:
                stack.append(getattr(node, name))
    return seen, shared


def fold(root: Hashable, step: Callable[[Hashable], Generator], memo: dict | None = None):
    """The walk that builds a value per node of a formula, term or other
    acyclic structure: the value of ``root`` under ``step``.  Walks that
    only emit text or test labels (``formula_text``, ``check_wf``) loop on
    their own stack instead, without a generator per node.

    ``step(key)`` is a generator that yields each key whose value it needs,
    is sent that value back, and returns the value of ``key``; a recursive
    walk becomes a step by writing ``(yield x)`` for each call on ``x``.
    Values are memoised by key in ``memo``, so a node shared in ``root`` is
    stepped once and the walk costs the size of the DAG, not of the tree.
    Open steps wait on a list instead of the call stack, so nesting depth is
    bounded by memory alone.  No key may need itself, directly or not.
    """
    if memo is None:
        memo = {}
    if root in memo:
        return memo[root]
    keys = [root]
    steps = [step(root)]
    value = None
    while steps:
        try:
            key = steps[-1].send(value)
        except StopIteration as done:
            value = memo[keys.pop()] = done.value
            steps.pop()
        else:
            if key in memo:
                value = memo[key]
            else:
                keys.append(key)
                steps.append(step(key))
                value = None
    return value


def is_name_token(text: str) -> bool:
    """True when ``text`` is a bare name token (letters, digits, underscores).

    Label names must be tokens; state names may be anything but are quoted
    in text form when they are not tokens.
    """
    return bool(_NAME_RE.match(text))


def action(name: Union[str, Action]) -> Action:
    """Coerce a string to a plain :class:`Action` (identity on actions)."""
    if isinstance(name, Action):
        return name
    return Action(name=name)


def cv(a: Union[str, Action]) -> Action:
    """The covariant copy of label ``a``."""
    return Action(mark=CV, base=action(a))


def ct(a: Union[str, Action]) -> Action:
    """The contravariant copy of label ``a``."""
    return Action(mark=CT, base=action(a))


def actions(*names: Union[str, Action]) -> frozenset[Action]:
    return frozenset(action(n) for n in names)


def sorted_actions(labels: Iterable[Action]) -> list[Action]:
    """Labels in canonical (printed) order; used wherever determinism matters."""
    return sorted(labels, key=str)


def actions_text(labels: Iterable[Action]) -> str:
    """Labels as printed in messages: their text in canonical order, comma separated."""
    return ", ".join(str(a) for a in sorted_actions(labels))


COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"
BIVARIANT = "bivariant"


class CCSignature(NamedTuple):
    """A partition of an action alphabet into covariant, contravariant and
    bivariant classes.

    Construction does not enforce disjointness so that
    :func:`validate_cc_lts` can report overlaps; well-formed signatures keep
    the three classes pairwise disjoint.
    """

    covariant: frozenset[Action]
    contravariant: frozenset[Action]
    bivariant: frozenset[Action]

    @property
    def actions(self) -> frozenset[Action]:
        return self.covariant | self.contravariant | self.bivariant

    def overlaps(self) -> list[Action]:
        doubled = (
            (self.covariant & self.contravariant)
            | (self.covariant & self.bivariant)
            | (self.contravariant & self.bivariant)
        )
        return sorted_actions(doubled)

    def class_of(self, a: Action) -> str:
        if a in self.bivariant:
            return BIVARIANT
        if a in self.covariant:
            return COVARIANT
        if a in self.contravariant:
            return CONTRAVARIANT
        raise KeyError(f"label {a} not in signature")


def signature(
    cov: Iterable[Union[str, Action]] = (),
    con: Iterable[Union[str, Action]] = (),
    bi: Iterable[Union[str, Action]] = (),
) -> CCSignature:
    return CCSignature(actions(*cov), actions(*con), actions(*bi))


def plain_signature(labels: Iterable[Union[str, Action]]) -> CCSignature:
    """All-covariant signature; the reading used for plain LTSs."""
    return signature(cov=labels)


Transition = tuple[str, Action, str]


def _transitions(triples: Iterable[tuple]) -> frozenset[Transition]:
    out = set()
    for src, lab, dst in triples:
        out.add((str(src), action(lab), str(dst)))
    return frozenset(out)


class PointedMTS(NamedTuple):
    """A finite modal transition system with a distinguished initial state."""

    states: frozenset[str]
    actions: frozenset[Action]
    may: frozenset[Transition]
    must: frozenset[Transition]
    init: str


class PointedLTS(NamedTuple):
    """A finite labelled transition system over a covariant-contravariant
    signature, with a distinguished initial state."""

    states: frozenset[str]
    signature: CCSignature
    transitions: frozenset[Transition]
    init: str


System = Union[PointedMTS, PointedLTS]


def mts(
    states: Iterable[str],
    acts: Iterable[Union[str, Action]],
    may: Iterable[tuple],
    must: Iterable[tuple],
    init: str,
) -> PointedMTS:
    """Convenience constructor coercing strings to labels."""
    return PointedMTS(
        states=frozenset(str(s) for s in states),
        actions=actions(*acts),
        may=_transitions(may),
        must=_transitions(must),
        init=str(init),
    )


def lts(
    states: Iterable[str],
    sig: CCSignature,
    transitions: Iterable[tuple],
    init: str,
) -> PointedLTS:
    return PointedLTS(
        states=frozenset(str(s) for s in states),
        signature=sig,
        transitions=_transitions(transitions),
        init=str(init),
    )


def universal_mts(acts: Iterable[Union[str, Action]]) -> PointedMTS:
    """The one-state MTS ``u`` that may loop on every action and requires nothing.

    Every MTS over the same alphabet refines it from its single state, which
    also makes it the weakly initial model among MTSs over that alphabet.
    """
    labels = actions(*acts)
    return PointedMTS(
        states=frozenset({"u"}),
        actions=labels,
        may=frozenset(("u", a, "u") for a in labels),
        must=frozenset(),
        init="u",
    )


def validate_mts(m: PointedMTS) -> list[str]:
    """All well-formedness violations of ``m``, deterministically ordered.

    Checks: init is a state, transition endpoints are states, transition
    labels are declared, and every must transition has a may twin.
    """
    problems: list[str] = []
    if m.init not in m.states:
        problems.append(f"initial state {m.init!r} is not a declared state")
    for rel_name, rel in (("may", m.may), ("must", m.must)):
        for src, lab, dst in sorted(rel, key=_triple_key):
            if src not in m.states:
                problems.append(f"{rel_name} transition source {src!r} is not a declared state")
            if dst not in m.states:
                problems.append(f"{rel_name} transition target {dst!r} is not a declared state")
            if lab not in m.actions:
                problems.append(f"{rel_name} transition label {lab} is not a declared action")
    for triple in sorted(m.must - m.may, key=_triple_key):
        src, lab, dst = triple
        problems.append(f"must transition ({src}, {lab}, {dst}) has no may twin")
    return problems


def validate_cc_lts(p: PointedLTS) -> list[str]:
    """All well-formedness violations of ``p``, deterministically ordered.

    Checks: the signature classes are pairwise disjoint, init is a state,
    endpoints are states, and transition labels belong to the signature.
    """
    problems: list[str] = []
    for lab in p.signature.overlaps():
        problems.append(f"label {lab} appears in more than one signature class")
    if p.init not in p.states:
        problems.append(f"initial state {p.init!r} is not a declared state")
    universe = p.signature.actions
    for src, lab, dst in sorted(p.transitions, key=_triple_key):
        if src not in p.states:
            problems.append(f"transition source {src!r} is not a declared state")
        if dst not in p.states:
            problems.append(f"transition target {dst!r} is not a declared state")
        if lab not in universe:
            problems.append(f"transition label {lab} is not in the signature")
    return problems


def _triple_key(t: Transition) -> tuple[str, str, str]:
    return (t[0], str(t[1]), t[2])


SuccIndex = dict[str, dict[Action, list[str]]]


def successor_index(states: Iterable[str], transitions: Iterable[Transition]) -> SuccIndex:
    """Map each state to its successors grouped by label (targets sorted).
    A relation is a set of transitions, so no target repeats."""
    index: SuccIndex = {s: {} for s in states}
    for src, lab, dst in transitions:
        index.setdefault(src, {}).setdefault(lab, []).append(dst)
    for labmap in index.values():
        for dsts in labmap.values():
            dsts.sort()
    return index


def rename_actions(
    system: System,
    mapping: Mapping[Action, Action],
    target: Union[frozenset[Action], CCSignature],
) -> System:
    """Relabel every transition of ``system`` through ``mapping``.

    ``mapping`` must be total on the system's declared labels.  For an MTS,
    ``target`` is the new action set; for an LTS it is the new signature.  In
    both cases every renamed label must land inside the target.  Renaming is
    on sets of transitions, so non-injective maps merge transitions.
    """
    if isinstance(system, PointedMTS):
        labels = system.actions
    else:
        labels = system.signature.actions
    missing = [lab for lab in labels if lab not in mapping]
    if missing:
        raise ValueError(f"rename map is not total; missing {actions_text(missing)}")
    if isinstance(system, PointedMTS):
        if not isinstance(target, frozenset):
            target = frozenset(target)
        image = frozenset(mapping[lab] for lab in labels)
        stray = image - target
        if stray:
            raise ValueError(
                f"renamed labels {actions_text(stray)} are outside the target action set"
            )
        remap = lambda rel: frozenset((s, mapping[a], d) for s, a, d in rel)
        return PointedMTS(system.states, target, remap(system.may), remap(system.must), system.init)
    if not isinstance(target, CCSignature):
        raise TypeError("renaming an LTS needs a target signature")
    universe = target.actions
    image = frozenset(mapping[lab] for lab in labels)
    stray = image - universe
    if stray:
        raise ValueError(f"renamed labels {actions_text(stray)} are outside the target signature")
    moved = frozenset((s, mapping[a], d) for s, a, d in system.transitions)
    return PointedLTS(system.states, target, moved, system.init)
