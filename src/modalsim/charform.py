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

One walk over the canonical subterm nodes of the term, which are the
states of its expansion, reads each node's summands once and builds
``chi``, ``gamma_a`` and a leaner equivalent form together.  Both forms
take their diamonds from the must moves, one per target, ordered by action
and then by the text of the target.  The lean form has one box per ambient
action over the may moves, ``w`` moving to itself on every action.  A
subterm as loose as ``w`` is exactly one whose lean form simplifies to
``tt``, so a box over such a successor simplifies away with no refinement
check.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, NamedTuple, Union

from .formulas import (
    Bottom,
    Box,
    Diamond,
    Formula,
    Top,
    _simplify_node,
    conj,
    disj,
)
from .systems import Action, ct, cv, fold, sorted_actions
from .terms import (
    MustPrefix,
    Omega,
    Prefix,
    Sum,
    Term,
    Zero,
    _ambient,
    _text_order,
    canonical_term,
    summands,
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
    return isinstance(characteristic_formula(t, acts).simplified, Top)


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
    root = canonical_term(t)
    forms = fold(root, _forms_step(sorted_actions(ambient), literal_prefix_clause))
    return CharFormResult(term=root, actions=ambient, formula=forms.chi, simplified=forms.lean)


class _Forms(NamedTuple):
    """The walk's value of a canonical subterm."""

    chi: Formula
    gamma: dict[Action, Formula]
    lean: Formula


def _forms_step(ordered: list[Action], literal_prefix_clause: bool):
    """The step of the one walk: a canonical subterm gives its ``_Forms``,
    read off its summands."""
    # Each subterm's lean conjunction is simplified against one memo, so that
    # the simplified formulae of its successors are not walked again.
    simplified: dict[Formula, Formula] = {}

    def step(node: Term):
        parts = summands(node)
        rests: dict[Term, _Forms] = {}
        for s in parts:
            if isinstance(s, (Prefix, MustPrefix)) and s.rest not in rests:
                rests[s.rest] = yield s.rest

        def targets(a: Action, kinds) -> list[Term]:
            """Each ``a``-successor through a prefix of ``kinds`` once, in
            the order of their texts."""
            nxt = {s.rest for s in parts if isinstance(s, kinds) and s.action == a}
            return sorted(nxt, key=cmp_to_key(_text_order))

        def disjunct(s: Term, a: Action) -> Formula:
            """The summand ``s``'s part of ``gamma_a``."""
            if isinstance(s, Omega):
                return Top()
            if isinstance(s, Zero) or s.action != a:
                return Bottom()
            return rests[s.rest].gamma[a] if literal_prefix_clause else rests[s.rest].chi

        chi, lean = [], []
        for a in ordered:
            for nxt in targets(a, MustPrefix):
                chi.append(Diamond(a, rests[nxt].chi))
                lean.append(Diamond(a, rests[nxt].lean))
        gamma = {a: disj([disjunct(s, a) for s in parts]) for a in ordered}
        chi = list(dict.fromkeys(chi)) + [Box(a, gamma[a]) for a in ordered]
        # A w summand, or a successor as loose as w, gives tt, which makes
        # the box tt and drops it.  No a-successors gives [a]ff.
        if not any(isinstance(s, Omega) for s in parts):
            for a in ordered:
                bounds = [rests[nxt].lean for nxt in targets(a, (Prefix, MustPrefix))]
                lean.append(Box(a, disj(bounds)))
        return _Forms(conj(chi), gamma, fold(conj(lean), _simplify_node, simplified))

    return step


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
