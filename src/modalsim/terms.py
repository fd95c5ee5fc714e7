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

from typing import Iterable, Union

from .systems import (
    Action,
    CCSignature,
    Interned,
    PointedLTS,
    PointedMTS,
    Transition,
    action,
    sorted_actions,
)


class Term(Interned):
    """Base class for process terms."""

    __slots__ = ()

    def __repr__(self) -> str:
        # As for formulae, a term with shared subterms shows only its size,
        # since its text can be exponentially longer.
        seen: set[Term] = set()
        stack: list[Term] = [self]
        shared = False
        while stack:
            t = stack.pop()
            if t in seen:
                shared = True
            elif not isinstance(t, (Zero, Omega)):
                seen.add(t)
                stack += (t.left, t.right) if isinstance(t, Sum) else (t.rest,)
        if shared:
            return f"<{type(self).__name__} of {len(seen)} nodes besides 0 and w>"
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


def prefix(a: Union[str, Action], rest: Term) -> Prefix:
    return Prefix(action(a), rest)


def must_prefix(a: Union[str, Action], rest: Term) -> MustPrefix:
    return MustPrefix(action(a), rest)


def term_text(t: Term) -> str:
    """Canonical concrete syntax; prefixes bind tighter than ``+``."""
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Omega):
        return "w"
    if isinstance(t, Prefix):
        return f"{t.action}.{_prefix_body(t.rest)}"
    if isinstance(t, MustPrefix):
        return f"{t.action}!{_prefix_body(t.rest)}"
    if isinstance(t, Sum):
        return f"{term_text(t.left)} + {term_text(t.right)}"
    raise TypeError(f"not a term: {type(t).__name__}")


def _prefix_body(t: Term) -> str:
    body = term_text(t)
    return f"({body})" if isinstance(t, Sum) else body


def term_labels(t: Term) -> frozenset[Action]:
    if isinstance(t, (Zero, Omega)):
        return frozenset()
    if isinstance(t, (Prefix, MustPrefix)):
        return frozenset({t.action}) | term_labels(t.rest)
    if isinstance(t, Sum):
        return term_labels(t.left) | term_labels(t.right)
    raise TypeError(f"not a term: {t!r}")


def is_lts_term(t: Term) -> bool:
    """True when ``t`` contains no must prefix."""
    if isinstance(t, (Zero, Omega)):
        return True
    if isinstance(t, Prefix):
        return is_lts_term(t.rest)
    if isinstance(t, MustPrefix):
        return False
    if isinstance(t, Sum):
        return is_lts_term(t.left) and is_lts_term(t.right)
    raise TypeError(f"not a term: {t!r}")


def summands(t: Term) -> list[Term]:
    """Flatten nested sums into their non-sum summands."""
    if isinstance(t, Sum):
        return summands(t.left) + summands(t.right)
    return [t]


def canonical_term(t: Term) -> Term:
    """A canonical representative of ``t`` modulo associativity and
    commutativity of ``+``: summands canonicalised recursively, sorted by
    their printed form and rebuilt as a left-nested chain."""
    if isinstance(t, (Zero, Omega)):
        return t
    if isinstance(t, Prefix):
        return Prefix(t.action, canonical_term(t.rest))
    if isinstance(t, MustPrefix):
        return MustPrefix(t.action, canonical_term(t.rest))
    if isinstance(t, Sum):
        parts = sorted((canonical_term(s) for s in summands(t)), key=term_text)
        out = parts[0]
        for part in parts[1:]:
            out = Sum(out, part)
        return out
    raise TypeError(f"not a term: {t!r}")


def _may_moves(t: Term, acts: list[Action]) -> list[tuple[Action, Term]]:
    if isinstance(t, Zero):
        return []
    if isinstance(t, Omega):
        return [(a, t) for a in acts]
    if isinstance(t, (Prefix, MustPrefix)):
        return [(t.action, t.rest)]
    if isinstance(t, Sum):
        return _may_moves(t.left, acts) + _may_moves(t.right, acts)
    raise TypeError(f"not a term: {t!r}")


def _must_moves(t: Term) -> list[tuple[Action, Term]]:
    if isinstance(t, (Zero, Omega, Prefix)):
        return []
    if isinstance(t, MustPrefix):
        return [(t.action, t.rest)]
    if isinstance(t, Sum):
        return _must_moves(t.left) + _must_moves(t.right)
    raise TypeError(f"not a term: {t!r}")


def _expand(t: Term, loop_labels: list[Action]) -> tuple[str, dict[str, Term], set[Transition]]:
    """The one expansion loop: the canonical name of ``t``, every reachable
    canonical subterm by name, and the may moves between them (``w`` looping
    on ``loop_labels``)."""
    root = canonical_term(t)
    states: dict[str, Term] = {}
    moves: set[Transition] = set()
    queue = [root]
    while queue:
        node = queue.pop()
        name = term_text(node)
        if name in states:
            continue
        states[name] = node
        for a, nxt in _may_moves(node, loop_labels):
            moves.add((name, a, term_text(nxt)))
            queue.append(nxt)
    return term_text(root), states, moves


def expand_mts_term(t: Term, acts: Iterable[Union[str, Action]]) -> PointedMTS:
    """The sub-MTS of the universal MTS over ``acts`` reachable from ``t``.

    States are the canonically printed reachable subterms, so syntactically
    duplicate subterms share one state and ``w`` is a single shared state.
    """
    ambient = frozenset(action(a) for a in acts)
    stray = sorted_actions(term_labels(t) - ambient)
    if stray:
        raise ValueError(f"term labels {stray} are outside the ambient action set")
    root, states, may = _expand(t, sorted_actions(ambient))
    must = {
        (name, a, term_text(nxt))
        for name, node in states.items()
        for a, nxt in _must_moves(node)
    }
    return PointedMTS(
        states=frozenset(states),
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
    stray = sorted_actions(term_labels(t) - sig.actions)
    if stray:
        raise ValueError(f"term labels {stray} are outside the signature")
    root, states, trans = _expand(t, sorted_actions(sig.contravariant))
    return PointedLTS(
        states=frozenset(states),
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
    forms = [(action(a), m) for a, m in prefix_forms]
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


def enumerate_mts_terms(acts: Iterable[Union[str, Action]], max_height: int) -> list[Term]:
    labels = sorted_actions(action(a) for a in acts)
    forms = [(a, False) for a in labels] + [(a, True) for a in labels]
    return enumerate_terms(forms, max_height)


def enumerate_lts_terms(sig: CCSignature, max_height: int) -> list[Term]:
    if sig.bivariant:
        raise ValueError("LTS terms live over signatures without bivariant actions")
    forms = [(a, False) for a in sorted_actions(sig.actions)]
    return enumerate_terms(forms, max_height)
