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

A leaner equivalent shape is read off one expansion of the term: one
diamond per must transition, and one box per action whose may successors
are all distinguishable from ``w`` (for the others the box is a tautology
and is dropped), with one refinement fixpoint each way against the
universal MTS telling which states are as loose as ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .formulas import (
    Bottom,
    Box,
    Diamond,
    Formula,
    Or,
    Top,
    conj,
    disj,
    formula_text,
    simplify,
)
from .preorders import Refinement, greatest
from .systems import (
    Action,
    PointedMTS,
    action,
    ct,
    cv,
    rebuild,
    sorted_actions,
    successor_index,
    universal_mts,
)
from .terms import (
    MustPrefix,
    Omega,
    Prefix,
    Sum,
    Term,
    Zero,
    canonical_term,
    expand_mts_term,
)
from .translate import encode_formula


@dataclass(frozen=True)
class CharFormResult:
    """A term, its ambient alphabet, the characteristic formula as defined
    by the recursion, and the leaner equivalent form."""

    term: Term
    actions: frozenset[Action]
    formula: Formula
    simplified: Formula


def is_omega_equivalent(t: Term, acts: Iterable[Union[str, Action]]) -> bool:
    """Is ``t`` refinement-equivalent to the loosest process ``w`` over the
    given alphabet?"""
    expansion = expand_mts_term(t, acts)
    return expansion.init in _omega_states(expansion)


def _omega_states(m: PointedMTS) -> frozenset[str]:
    """The states of ``m`` that are refinement-equivalent to ``w``, from one
    refinement fixpoint each way against the universal MTS."""
    u = universal_mts(m.actions)
    forward = greatest(Refinement(), m, u)
    backward = greatest(Refinement(), u, m)
    return frozenset(s for s in m.states if (s, u.init) in forward and (u.init, s) in backward)


class _Builder:
    def __init__(self, ambient: list[Action], literal_prefix_clause: bool):
        self.ambient = ambient
        self.literal = literal_prefix_clause
        self._chi: dict[Term, Formula] = {}
        self._gamma: dict[tuple[Term, Action], Formula] = {}

    def chi(self, t: Term) -> Formula:
        if t not in self._chi:
            parts = list(self.delta(t))
            parts.extend(Box(a, self.gamma(t, a)) for a in self.ambient)
            self._chi[t] = conj(parts)
        return self._chi[t]

    def delta(self, t: Term) -> list[Formula]:
        if isinstance(t, (Zero, Omega, Prefix)):
            return []
        if isinstance(t, MustPrefix):
            return [Diamond(t.action, self.chi(t.rest))]
        if isinstance(t, Sum):
            return sorted(dict.fromkeys(self.delta(t.left) + self.delta(t.right)), key=formula_text)
        raise TypeError(f"not a term: {t!r}")

    def gamma(self, t: Term, a: Action) -> Formula:
        key = (t, a)
        if key in self._gamma:
            return self._gamma[key]
        if isinstance(t, Zero):
            out: Formula = Bottom()
        elif isinstance(t, Omega):
            out = Top()
        elif isinstance(t, (Prefix, MustPrefix)):
            if t.action != a:
                out = Bottom()
            elif self.literal:
                out = self.gamma(t.rest, a)
            else:
                out = self.chi(t.rest)
        elif isinstance(t, Sum):
            out = Or(self.gamma(t.left, a), self.gamma(t.right, a))
        else:
            raise TypeError(f"not a term: {t!r}")
        self._gamma[key] = out
        return out


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
    ambient = frozenset(action(a) for a in acts)
    ordered = sorted_actions(ambient)
    root = canonical_term(t)
    simplified = _simplified(expand_mts_term(root, ambient), ordered)
    formula = _Builder(ordered, literal_prefix_clause).chi(root)
    return CharFormResult(term=root, actions=ambient, formula=formula, simplified=simplified)


def _simplified(m: PointedMTS, ordered: list[Action]) -> Formula:
    """The lean form, read off the expansion ``m`` of the term."""
    must = successor_index(m.states, m.must)
    may = successor_index(m.states, m.may)
    loose = _omega_states(m)
    memo: dict[str, Formula] = {}

    def lean(state: str) -> Formula:
        if state not in memo:
            parts = [Diamond(a, lean(nxt)) for a in ordered for nxt in must[state].get(a, ())]
            for a in ordered:
                targets = may[state].get(a, ())
                # Drop the box when some may successor is as loose as w: the
                # bound it would state is vacuous.  No a-successors gives [a]ff.
                if loose.isdisjoint(targets):
                    parts.append(Box(a, disj([lean(nxt) for nxt in targets])))
            memo[state] = simplify(conj(parts))
        return memo[state]

    return lean(m.init)


def encode_term(t: Term) -> Term:
    """Term companion of the MTS-to-LTS encoding: may prefixes become
    contravariant copies, must prefixes split into a covariant and a
    contravariant branch."""

    def node(t: Term, recur: Callable[[Term], Term]) -> Term:
        if isinstance(t, (Zero, Omega)):
            return t
        if isinstance(t, Prefix):
            return Prefix(ct(t.action), recur(t.rest))
        if isinstance(t, MustPrefix):
            rest = recur(t.rest)
            return Sum(Prefix(cv(t.action), rest), Prefix(ct(t.action), rest))
        if isinstance(t, Sum):
            return Sum(recur(t.left), recur(t.right))
        raise TypeError(f"not a term: {t!r}")

    return rebuild(t, node)


def characteristic_formula_cc(t: Term, acts: Iterable[Union[str, Action]]) -> Formula:
    """The encoded characteristic formula: characteristic for the encoded
    term among all LTS terms over the decorated signature."""
    return encode_formula(characteristic_formula(t, acts).formula)
