"""Finite loop-free process terms and their transition-system expansions.

One AST covers both system kinds:

* read as an MTS term, ``Prefix`` is a may prefix (``a.t``) and
  ``MustPrefix`` a must prefix (``a!t``);
* read as an LTS term, ``Prefix`` is an ordinary prefix and ``MustPrefix``
  is rejected.

``Omega`` is the loosest process: expanded as an MTS it may loop on every
ambient action, expanded as an LTS it loops exactly on the contravariant
actions.  Expansion states are the canonically printed subterms reachable
from the root, so expanding equal terms always yields identical systems.
"""

from __future__ import annotations

from functools import cmp_to_key, reduce
from itertools import chain, zip_longest
from typing import Container, Iterable, Iterator, Union

from .systems import (
    Action,
    CCSignature,
    Interned,
    PointedLTS,
    PointedMTS,
    Transition,
    _operands,
    action,
    actions_text,
    fold,
    shared_nodes,
    sorted_actions,
)


class Term(Interned):
    """Base class for process terms."""

    __slots__ = ()

    def __repr__(self) -> str:
        # As for formulae, a term with shared subterms shows only its size,
        # since its text can be exponentially longer.
        nodes, shared = shared_nodes(self)
        if shared:
            return f"<{type(self).__name__} of {len(nodes)} nodes besides 0 and w>"
        return term_text(self)


class Zero(Term):
    """The stopped process ``0``: no transitions at all."""

    __slots__ = ()


class Omega(Term):
    """The loosest process ``w``."""

    __slots__ = ()


class Prefix(Term):
    """``a.t``: a may prefix (MTS reading) or plain prefix (LTS reading)."""

    __slots__ = ("action", "rest")


class MustPrefix(Term):
    """``a!t``: a must prefix; only meaningful for MTS terms."""

    __slots__ = ("action", "rest")


class Sum(Term):
    """Binary choice ``t + t``."""

    __slots__ = ("left", "right")


def prefix_label(a: Union[str, Action]) -> Action:
    """``a`` as the label of a prefix.  The reserved atoms ``0`` and ``w``
    are refused: ``0.t`` would print as text that no term reader accepts."""
    lab = action(a)
    if lab.name in ("0", "w"):
        raise ValueError(f"{lab.name!r} is a reserved atom, not a label")
    return lab


def prefix(a: Union[str, Action], rest: Term) -> Prefix:
    return Prefix(prefix_label(a), rest)


def must_prefix(a: Union[str, Action], rest: Term) -> MustPrefix:
    return MustPrefix(prefix_label(a), rest)


def term_text(t: Term) -> str:
    """Canonical concrete syntax; prefixes bind tighter than ``+``.  As in
    :func:`~modalsim.formulas.formula_text`, a subterm with more than one
    parent is printed once and its text copied, and only those texts are
    kept, so memory is linear in the length of the text."""
    return "".join(_text_pieces(t, _printed_nodes(t)[1], {}))


def _printed_nodes(t: Term) -> tuple[set[Term], set[Term]]:
    """The prefixes and sum chains of ``t``, and those of them with more
    than one parent.  The sums inside a chain are left out, so a long chain
    of ``+`` costs no table of its nodes."""
    seen: set[Term] = set()
    shared: set[Term] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if node in seen:
            shared.add(node)
        elif isinstance(node, (Sum, Prefix, MustPrefix)):
            seen.add(node)
            stack += _operands(node) if isinstance(node, Sum) else (node.rest,)
    return seen, shared


def _text_pieces(t: Term, keep: Container[Term], texts: dict[Term, str]) -> Iterator[str]:
    """The text of ``t`` in pieces, built only as far as it is read: a
    label, ``.`` or ``!``, an atom, a parenthesis and `` + `` each.
    The text of a node in ``keep`` is joined when it is first printed,
    stored in ``texts`` and comes as one piece."""
    opened: list[tuple[Term, list[str]]] = []  # nodes of keep being printed, with their pieces
    stack: list = [t]  # terms, pieces, and None, the end of the innermost opened node
    while stack:
        t = stack.pop()
        kind = t.__class__
        if kind is str:
            pass
        elif t is None:
            node, pieces = opened.pop()
            t = texts[node] = "".join(pieces)
        elif t in texts:
            t = texts[t]
        else:
            if t in keep:
                opened.append((t, []))
                stack.append(None)
            if kind is Sum:
                stack += (t.right, " + ", t.left)
                continue
            if kind is Prefix or kind is MustPrefix:
                stack += (")", t.rest, "(") if t.rest.__class__ is Sum else (t.rest,)
                stack.append("." if kind is Prefix else "!")
                t = str(t.action)
            elif kind is Zero or kind is Omega:
                t = "0" if kind is Zero else "w"
            else:
                raise TypeError(f"not a term: {kind.__name__}")
        if opened:
            opened[-1][1].append(t)
        else:
            yield t


def _text_order(x: Term, y: Term) -> int:
    """Compare two terms as their texts compare, reading the texts only up
    to their first difference, so that terms whose texts differ early
    compare in O(1) however long the texts are."""
    if x is y:
        return 0
    x_chars, y_chars = (chain.from_iterable(_text_pieces(t, (), {})) for t in (x, y))
    pairs = zip_longest(x_chars, y_chars, fillvalue="")
    return next(((a > b) - (a < b) for a, b in pairs if a != b), 0)


def term_labels(t: Term) -> frozenset[Action]:
    return frozenset(
        node.action for node in shared_nodes(t)[0] if isinstance(node, (Prefix, MustPrefix))
    )


def is_lts_term(t: Term) -> bool:
    """True when ``t`` contains no must prefix."""
    return not any(isinstance(node, MustPrefix) for node in shared_nodes(t)[0])


def canonical_term(t: Term) -> Term:
    """A canonical representative of ``t`` modulo associativity and
    commutativity of ``+``: summands canonicalised recursively, sorted by
    their printed form and rebuilt as a left-nested chain.  A subterm shared
    in ``t`` is canonicalised once and stays shared."""
    return fold(t, _canonical_node)


def _canonical_node(t: Term):
    if isinstance(t, (Zero, Omega)):
        return t
    if isinstance(t, Prefix):
        return Prefix(t.action, (yield t.rest))
    if isinstance(t, MustPrefix):
        return MustPrefix(t.action, (yield t.rest))
    if isinstance(t, Sum):
        parts = []
        for s in _operands(t):
            parts.append((yield s))
        return reduce(Sum, sorted(parts, key=cmp_to_key(_text_order)))
    raise TypeError(f"not a term: {t!r}")


def _expand(
    t: Term, loop_labels: list[Action]
) -> tuple[str, frozenset[str], set[Transition], set[Transition]]:
    """The one expansion loop: the canonical name of ``t``, the name of
    every reachable canonical subterm, and the may and must moves between
    them (``w`` may loop on ``loop_labels``).  Each state is named once."""
    root = canonical_term(t)
    # Every name is stored anyway, so the printer keeps the text of every
    # prefix and sum chain, and each is printed once.
    keep = _printed_nodes(root)[0]
    names: dict[Term, str] = {}
    texts: dict[Term, str] = {}
    moves: list[tuple[Term, Action, Term, bool]] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node in names:
            continue
        names[node] = "".join(_text_pieces(node, keep, texts))
        start = len(moves)
        for s in _operands(node):
            if isinstance(s, Omega):
                moves += ((node, a, s, False) for a in loop_labels)
            elif isinstance(s, (Prefix, MustPrefix)):
                moves.append((node, s.action, s.rest, isinstance(s, MustPrefix)))
        stack += (nxt for _, _, nxt, _ in moves[start:])
    may = {(names[p], a, names[q]) for p, a, q, _ in moves}
    must = {(names[p], a, names[q]) for p, a, q, forced in moves if forced}
    return names[root], frozenset(names.values()), may, must


def _ambient(t: Term, acts: Iterable[Union[str, Action]]) -> frozenset[Action]:
    """The alphabet ``acts``, which must hold every label of ``t``."""
    ambient = frozenset(action(a) for a in acts)
    stray = term_labels(t) - ambient
    if stray:
        raise ValueError(f"term labels {actions_text(stray)} are outside the ambient action set")
    return ambient


def expand_mts_term(t: Term, acts: Iterable[Union[str, Action]]) -> PointedMTS:
    """The sub-MTS of the universal MTS over ``acts`` reachable from ``t``.

    States are the canonically printed reachable subterms, so syntactically
    duplicate subterms share one state and ``w`` is a single shared state.
    """
    ambient = _ambient(t, acts)
    root, states, may, must = _expand(t, sorted_actions(ambient))
    return PointedMTS(
        states=states,
        actions=ambient,
        may=frozenset(may),
        must=frozenset(must),
        init=root,
    )


def expand_lts_term(t: Term, sig: CCSignature) -> PointedLTS:
    """The sub-LTS of the universal LTS over ``sig`` reachable from ``t``.

    ``sig`` must have no bivariant actions; ``w`` loops exactly on the
    contravariant class.  Must prefixes are rejected.
    """
    if sig.bivariant:
        raise ValueError("LTS terms live over signatures without bivariant actions")
    if not is_lts_term(t):
        raise ValueError("must prefixes are not LTS term syntax")
    stray = term_labels(t) - sig.actions
    if stray:
        raise ValueError(f"term labels {actions_text(stray)} are outside the signature")
    root, states, trans, _ = _expand(t, sorted_actions(sig.contravariant))
    return PointedLTS(
        states=states,
        signature=sig,
        transitions=frozenset(trans),
        init=root,
    )


def enumerate_terms(
    prefix_forms: Iterable[tuple[Union[str, Action], bool]],
    max_height: int,
) -> list[Term]:
    """Canonical representatives of every term of syntax-tree height at most
    ``max_height``, deduplicated modulo associativity and commutativity of
    ``+``.

    ``prefix_forms`` lists the available prefixes as (label, is_must) pairs;
    atoms (``0`` and ``w``) have height 1, prefixes and sums add one level.
    The raw tree count grows quadratically with each level, so this is meant
    for small bounds (height up to 3 or so).
    """
    forms = [(prefix_label(a), m) for a, m in prefix_forms]
    atoms: list[Term] = [Zero(), Omega()]
    level: list[Term] = list(atoms)
    for _ in range(max_height - 1):
        nxt: list[Term] = list(atoms)
        nxt.extend(
            MustPrefix(a, t) if m else Prefix(a, t) for a, m in forms for t in level
        )
        nxt.extend(Sum(x, y) for x in level for y in level)
        level = nxt
    return sorted(dict.fromkeys(canonical_term(t) for t in level), key=term_text)


def mts_term_forms(acts: Iterable[Union[str, Action]]) -> list[tuple[Action, bool]]:
    """Every (label, is_must) prefix form available to MTS terms."""
    labels = sorted_actions(action(a) for a in acts)
    return [(a, False) for a in labels] + [(a, True) for a in labels]


def lts_term_forms(sig: CCSignature) -> list[tuple[Action, bool]]:
    return [(a, False) for a in sorted_actions(sig.actions)]


def enumerate_mts_terms(acts: Iterable[Union[str, Action]], max_height: int) -> list[Term]:
    return enumerate_terms(mts_term_forms(acts), max_height)


def enumerate_lts_terms(sig: CCSignature, max_height: int) -> list[Term]:
    if sig.bivariant:
        raise ValueError("LTS terms live over signatures without bivariant actions")
    return enumerate_terms(lts_term_forms(sig), max_height)
