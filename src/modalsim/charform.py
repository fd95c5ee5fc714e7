"""Characteristic formulae for finite loop-free process terms.

For an MTS term ``t`` over an ambient alphabet ``A``, the characteristic
formula ``chi(t)`` pins ``t`` down up to refinement: ``t`` refines ``t2``
exactly when the expansion of ``t2`` satisfies ``chi(t)``.  The construction
recurses over two helpers, a set ``delta(t)`` of diamond obligations (one
``<a>chi(t')`` per must prefix reachable through sums) and a per-action
formula ``gamma_a(t)`` bounding what may happen after ``a``:

* ``delta(0) = {}``, ``gamma_a(0) = ff``
* ``delta(w) = {}``, ``gamma_a(w) = tt``
* ``delta(a.t) = {}``, ``gamma_a(a.t) = chi(t)`` and ``gamma_b(a.t) = ff``
  for ``b != a``
* ``delta(a!t) = {<a>chi(t)}``, ``gamma`` as for ``a.t``
* ``delta(t1+t2) = delta(t1) | delta(t2)``,
  ``gamma_a(t1+t2) = gamma_a(t1) | gamma_a(t2)``

and ``chi(t)`` conjoins ``delta(t)`` with ``[a]gamma_a(t)`` for every
ambient ``a``.  The prefix clause is sometimes stated as
``gamma_a(a.t) = gamma_a(t)``, which propagates the helper through the
prefix instead of switching to the characteristic formula of the
continuation; that variant breaks the characterisation already for ``a.0``
and is kept behind ``literal_prefix_clause`` purely to demonstrate the
failure.

A leaner equivalent shape is read off the canonical subterms of the term,
which are the states of its expansion: one diamond per must move, and one
box per ambient action over the may moves, ``w`` moving to itself on every
action.  A subterm as loose as ``w`` is exactly one whose lean form
simplifies to ``tt``, so a box over such a successor simplifies away with
no refinement check.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, NamedTuple, Union

from .formulas import (
    Bottom,
    Box,
    Diamond,
    Formula,
    Or,
    Top,
    _simplify_node,
    conj,
    disj,
    formula_text,
)
from .systems import Action, action, actions_text, ct, cv, fold, sorted_actions
from .terms import (
    MustPrefix,
    Omega,
    Prefix,
    Sum,
    Term,
    Zero,
    _text_order,
    canonical_term,
    summands,
    term_labels,
)
from .translate import encode_formula


class CharFormResult(NamedTuple):
    """A term, its ambient alphabet, the characteristic formula as defined
    by the recursion, and the leaner equivalent form."""

    term: Term
    actions: frozenset[Action]
    formula: Formula
    simplified: Formula


def is_omega_equivalent(t: Term, acts: Iterable[Union[str, Action]]) -> bool:
    """Is ``t`` refinement-equivalent to the loosest process ``w`` over the
    given alphabet?"""
    return isinstance(_lean(canonical_term(t), sorted_actions(_ambient(t, acts))), Top)


def _ambient(t: Term, acts: Iterable[Union[str, Action]]) -> frozenset[Action]:
    """The alphabet ``acts``, which must hold every label of ``t``."""
    ambient = frozenset(action(a) for a in acts)
    stray = term_labels(t) - ambient
    if stray:
        raise ValueError(f"term labels {actions_text(stray)} are outside the ambient action set")
    return ambient


def _characteristic_step(ambient: list[Action], literal_prefix_clause: bool):
    """The step of the paper's recursion: a term ``t`` gives ``chi(t)`` and
    a pair ``(t, a)`` gives ``gamma_a(t)``; ``delta(t)`` is read off the
    summands of ``t``."""

    def step(key):
        if isinstance(key, Term):
            diamonds = []
            for s in summands(key):
                if isinstance(s, MustPrefix):
                    diamonds.append(Diamond(s.action, (yield s.rest)))
            parts = list(dict.fromkeys(diamonds))
            if len(parts) > 1:
                # Each key prints its whole subformula.
                parts.sort(key=formula_text)
            for a in ambient:
                parts.append(Box(a, (yield (key, a))))
            return conj(parts)
        t, a = key
        if isinstance(t, Zero):
            return Bottom()
        if isinstance(t, Omega):
            return Top()
        if isinstance(t, (Prefix, MustPrefix)):
            if t.action != a:
                return Bottom()
            return (yield (t.rest, a) if literal_prefix_clause else t.rest)
        if isinstance(t, Sum):
            return Or((yield (t.left, a)), (yield (t.right, a)))
        raise TypeError(f"not a term: {t!r}")

    return step


def characteristic_formula(
    t: Term,
    acts: Iterable[Union[str, Action]],
    literal_prefix_clause: bool = False,
) -> CharFormResult:
    """The characteristic formula of ``t`` over alphabet ``acts``.

    ``literal_prefix_clause`` switches the prefix case of ``gamma`` to the
    variant that does not characterise (see the module docstring); it only
    affects ``formula``, never ``simplified``.
    """
    ambient = _ambient(t, acts)
    ordered = sorted_actions(ambient)
    root = canonical_term(t)
    formula = fold(root, _characteristic_step(ordered, literal_prefix_clause))
    return CharFormResult(term=root, actions=ambient, formula=formula, simplified=_lean(root, ordered))


def _lean(root: Term, ordered: list[Action]) -> Formula:
    """The lean form of the canonical term ``root``, one step per subterm."""
    # Each subterm's conjunction is simplified against one memo, so that the
    # simplified formulae of its successors are not walked again.
    simplified: dict[Formula, Formula] = {}

    def targets(terms: list[Term]) -> list[Term]:
        return sorted(set(terms), key=cmp_to_key(_text_order))

    def lean(node: Term):
        if isinstance(node, Omega):
            return Top()
        moves: dict[Action, tuple[list[Term], list[Term]]] = {a: ([], []) for a in ordered}
        for s in summands(node):
            if isinstance(s, Omega):
                for _, may in moves.values():
                    may.append(s)
            elif isinstance(s, (Prefix, MustPrefix)):
                must, may = moves[s.action]
                may.append(s.rest)
                if isinstance(s, MustPrefix):
                    must.append(s.rest)
        parts = []
        for a in ordered:
            for nxt in targets(moves[a][0]):
                parts.append(Diamond(a, (yield nxt)))
        for a in ordered:
            # A successor as loose as w gives tt, which makes the box tt and
            # drops it.  No a-successors gives [a]ff.
            bounds = []
            for nxt in targets(moves[a][1]):
                bounds.append((yield nxt))
            parts.append(Box(a, disj(bounds)))
        return fold(conj(parts), _simplify_node, simplified)

    return fold(root, lean)


def encode_term(t: Term) -> Term:
    """Term companion of the MTS-to-LTS encoding: may prefixes become
    contravariant copies, must prefixes split into a covariant and a
    contravariant branch."""

    def step(t: Term):
        if isinstance(t, (Zero, Omega)):
            return t
        if isinstance(t, Prefix):
            return Prefix(ct(t.action), (yield t.rest))
        if isinstance(t, MustPrefix):
            rest = yield t.rest
            return Sum(Prefix(cv(t.action), rest), Prefix(ct(t.action), rest))
        if isinstance(t, Sum):
            return Sum((yield t.left), (yield t.right))
        raise TypeError(f"not a term: {t!r}")

    return fold(t, step)


def characteristic_formula_cc(t: Term, acts: Iterable[Union[str, Action]]) -> Formula:
    """The encoded characteristic formula: characteristic for the encoded
    term among all LTS terms over the decorated signature."""
    return encode_formula(characteristic_formula(t, acts).formula)
