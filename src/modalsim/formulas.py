"""The negation-free modal logic shared by both system kinds.

Formulae are built from ``tt``, ``ff``, binary conjunction and disjunction,
and the modalities ``<a>`` (diamond) and ``[a]`` (box).  The same syntax is
read two ways:

* over a :class:`~modalsim.systems.PointedMTS`, ``<a>f`` quantifies
  existentially over must transitions and ``[a]f`` universally over may
  transitions;
* over a :class:`~modalsim.systems.PointedLTS`, both modalities range over
  the single transition relation, but ``<a>`` is only well formed for
  covariant or bivariant ``a`` and ``[a]`` only for contravariant or
  bivariant ``a``.

Satisfaction is monotone under replacing subformulae by weaker ones, which
several property suites exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

from .systems import (
    Action,
    CCSignature,
    PointedLTS,
    PointedMTS,
    SuccIndex,
    successor_index,
)


class Formula:
    """Base class for modal formulae."""

    __slots__ = ()


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    action: Action
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    action: Action
    body: Formula


@dataclass(frozen=True)
class BLLogic:
    """The logic interpreted over MTSs; labels range over ``actions``."""

    actions: frozenset[Action]


@dataclass(frozen=True)
class CCLogic:
    """The logic interpreted over LTSs with signature ``signature``."""

    signature: CCSignature


LogicKind = Union[BLLogic, CCLogic]


def formula_text(phi: Formula) -> str:
    """Canonical concrete syntax with minimal parentheses.

    Modalities bind tightest, then ``&``, then ``|``; both binary
    connectives print flat (left associated when re-parsed).
    """
    return _text(phi, 0)


def _text(phi: Formula, level: int) -> str:
    # level: 0 = or-context, 1 = and-context, 2 = modality body
    if isinstance(phi, Bottom):
        return "ff"
    if isinstance(phi, Top):
        return "tt"
    if isinstance(phi, Diamond):
        return f"<{phi.action}>{_text(phi.body, 2)}"
    if isinstance(phi, Box):
        return f"[{phi.action}]{_text(phi.body, 2)}"
    if isinstance(phi, And):
        body = f"{_text(phi.left, 1)} & {_text(phi.right, 1)}"
        return f"({body})" if level >= 2 else body
    if isinstance(phi, Or):
        body = f"{_text(phi.left, 0)} | {_text(phi.right, 0)}"
        return f"({body})" if level >= 1 else body
    raise TypeError(f"not a formula: {phi!r}")


def modal_depth(phi: Formula) -> int:
    if isinstance(phi, (Bottom, Top)):
        return 0
    if isinstance(phi, (And, Or)):
        return max(modal_depth(phi.left), modal_depth(phi.right))
    if isinstance(phi, (Diamond, Box)):
        return 1 + modal_depth(phi.body)
    raise TypeError(f"not a formula: {phi!r}")


def is_existential(phi: Formula) -> bool:
    """True when ``phi`` contains no box modality."""
    if isinstance(phi, (Bottom, Top)):
        return True
    if isinstance(phi, (And, Or)):
        return is_existential(phi.left) and is_existential(phi.right)
    if isinstance(phi, Diamond):
        return is_existential(phi.body)
    if isinstance(phi, Box):
        return False
    raise TypeError(f"not a formula: {phi!r}")


def check_wf(phi: Formula, logic: LogicKind) -> list[str]:
    """Well-formedness violations of ``phi`` under ``logic``, in
    deterministic (discovery) order."""
    problems: list[str] = []
    _wf(phi, logic, problems)
    return problems


def _wf(phi: Formula, logic: LogicKind, problems: list[str]) -> None:
    if isinstance(phi, (Bottom, Top)):
        return
    if isinstance(phi, (And, Or)):
        _wf(phi.left, logic, problems)
        _wf(phi.right, logic, problems)
        return
    if isinstance(phi, Diamond):
        if isinstance(logic, BLLogic):
            if phi.action not in logic.actions:
                problems.append(f"label {phi.action} is not in the alphabet")
        else:
            sig = logic.signature
            if phi.action not in sig.actions:
                problems.append(f"label {phi.action} is not in the signature")
            elif phi.action not in sig.covariant | sig.bivariant:
                problems.append(
                    f"diamond modality needs a covariant or bivariant label: {phi.action}"
                )
        _wf(phi.body, logic, problems)
        return
    if isinstance(phi, Box):
        if isinstance(logic, BLLogic):
            if phi.action not in logic.actions:
                problems.append(f"label {phi.action} is not in the alphabet")
        else:
            sig = logic.signature
            if phi.action not in sig.actions:
                problems.append(f"label {phi.action} is not in the signature")
            elif phi.action not in sig.contravariant | sig.bivariant:
                problems.append(
                    f"box modality needs a contravariant or bivariant label: {phi.action}"
                )
        _wf(phi.body, logic, problems)
        return
    raise TypeError(f"not a formula: {phi!r}")


def _require_wf(phi: Formula, logic: LogicKind) -> None:
    problems = check_wf(phi, logic)
    if problems:
        raise ValueError("; ".join(problems))


def _eval(
    phi: Formula,
    state: str,
    box_succ: SuccIndex,
    dia_succ: SuccIndex,
    memo: dict[tuple[int, str], bool],
) -> bool:
    key = (id(phi), state)
    if key in memo:
        return memo[key]
    if isinstance(phi, Bottom):
        out = False
    elif isinstance(phi, Top):
        out = True
    elif isinstance(phi, And):
        out = _eval(phi.left, state, box_succ, dia_succ, memo) and _eval(
            phi.right, state, box_succ, dia_succ, memo
        )
    elif isinstance(phi, Or):
        out = _eval(phi.left, state, box_succ, dia_succ, memo) or _eval(
            phi.right, state, box_succ, dia_succ, memo
        )
    elif isinstance(phi, Diamond):
        targets = dia_succ.get(state, {}).get(phi.action, ())
        out = any(_eval(phi.body, s, box_succ, dia_succ, memo) for s in targets)
    elif isinstance(phi, Box):
        targets = box_succ.get(state, {}).get(phi.action, ())
        out = all(_eval(phi.body, s, box_succ, dia_succ, memo) for s in targets)
    else:
        raise TypeError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def mc_mts(m: PointedMTS, state: str, phi: Formula) -> bool:
    """Does ``state`` of ``m`` satisfy ``phi``?

    ``[a]`` ranges over may transitions, ``<a>`` over must transitions.
    """
    _require_wf(phi, BLLogic(m.actions))
    if state not in m.states:
        raise ValueError(f"{state!r} is not a state of the system")
    box_succ = successor_index(m.states, m.may)
    dia_succ = successor_index(m.states, m.must)
    return _eval(phi, state, box_succ, dia_succ, {})


def mc_cc(p: PointedLTS, state: str, phi: Formula) -> bool:
    """Does ``state`` of ``p`` satisfy ``phi``?  Both modalities range over
    the single transition relation."""
    _require_wf(phi, CCLogic(p.signature))
    if state not in p.states:
        raise ValueError(f"{state!r} is not a state of the system")
    succ = successor_index(p.states, p.transitions)
    return _eval(phi, state, succ, succ, {})


def _sat_sets(
    phi: Formula,
    states: frozenset[str],
    box_succ: SuccIndex,
    dia_succ: SuccIndex,
    memo: dict[int, frozenset[str]],
) -> frozenset[str]:
    key = id(phi)
    if key in memo:
        return memo[key]
    if isinstance(phi, Bottom):
        out: frozenset[str] = frozenset()
    elif isinstance(phi, Top):
        out = states
    elif isinstance(phi, And):
        out = _sat_sets(phi.left, states, box_succ, dia_succ, memo) & _sat_sets(
            phi.right, states, box_succ, dia_succ, memo
        )
    elif isinstance(phi, Or):
        out = _sat_sets(phi.left, states, box_succ, dia_succ, memo) | _sat_sets(
            phi.right, states, box_succ, dia_succ, memo
        )
    elif isinstance(phi, Diamond):
        body = _sat_sets(phi.body, states, box_succ, dia_succ, memo)
        out = frozenset(
            s
            for s in states
            if any(t in body for t in dia_succ.get(s, {}).get(phi.action, ()))
        )
    elif isinstance(phi, Box):
        body = _sat_sets(phi.body, states, box_succ, dia_succ, memo)
        out = frozenset(
            s
            for s in states
            if all(t in body for t in box_succ.get(s, {}).get(phi.action, ()))
        )
    else:
        raise TypeError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def satisfying_states_mts(m: PointedMTS, phi: Formula) -> frozenset[str]:
    """All states of ``m`` satisfying ``phi``; one bottom-up pass, so much
    cheaper than calling :func:`mc_mts` per state."""
    _require_wf(phi, BLLogic(m.actions))
    box_succ = successor_index(m.states, m.may)
    dia_succ = successor_index(m.states, m.must)
    return _sat_sets(phi, m.states, box_succ, dia_succ, {})


def satisfying_states_cc(p: PointedLTS, phi: Formula) -> frozenset[str]:
    """All states of ``p`` satisfying ``phi``."""
    _require_wf(phi, CCLogic(p.signature))
    succ = successor_index(p.states, p.transitions)
    return _sat_sets(phi, p.states, succ, succ, {})


def conj(parts: Sequence[Formula]) -> Formula:
    """Left-nested conjunction; the empty conjunction is ``tt``."""
    if not parts:
        return Top()
    out = parts[0]
    for part in parts[1:]:
        out = And(out, part)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    """Left-nested disjunction; the empty disjunction is ``ff``."""
    if not parts:
        return Bottom()
    out = parts[0]
    for part in parts[1:]:
        out = Or(out, part)
    return out


def simplify(phi: Formula) -> Formula:
    """Constant propagation only: ``tt``/``ff`` units and absorbers for the
    binary connectives plus ``[a]tt = tt``.  Nothing stronger, so outputs
    stay predictable.  A subformula shared in ``phi`` is simplified once
    and stays shared in the result."""
    memo: dict[int, Formula] = {}

    def go(phi: Formula) -> Formula:
        if id(phi) not in memo:
            memo[id(phi)] = _simplify_node(phi, go)
        return memo[id(phi)]

    return go(phi)


def _simplify_node(phi: Formula, recur: Callable[[Formula], Formula]) -> Formula:
    if isinstance(phi, (Bottom, Top)):
        return phi
    if isinstance(phi, And):
        left, right = recur(phi.left), recur(phi.right)
        if isinstance(left, Bottom) or isinstance(right, Bottom):
            return Bottom()
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        return And(left, right)
    if isinstance(phi, Or):
        left, right = recur(phi.left), recur(phi.right)
        if isinstance(left, Top) or isinstance(right, Top):
            return Top()
        if isinstance(left, Bottom):
            return right
        if isinstance(right, Bottom):
            return left
        return Or(left, right)
    if isinstance(phi, Diamond):
        return Diamond(phi.action, recur(phi.body))
    if isinstance(phi, Box):
        body = recur(phi.body)
        if isinstance(body, Top):
            return Top()
        return Box(phi.action, body)
    raise TypeError(f"not a formula: {phi!r}")


def replace_subformula(phi: Formula, old: Formula, new: Formula) -> Formula:
    """Replace every occurrence of ``old`` (by structural equality)."""
    if phi == old:
        return new
    if isinstance(phi, (Bottom, Top)):
        return phi
    if isinstance(phi, And):
        return And(replace_subformula(phi.left, old, new), replace_subformula(phi.right, old, new))
    if isinstance(phi, Or):
        return Or(replace_subformula(phi.left, old, new), replace_subformula(phi.right, old, new))
    if isinstance(phi, Diamond):
        return Diamond(phi.action, replace_subformula(phi.body, old, new))
    if isinstance(phi, Box):
        return Box(phi.action, replace_subformula(phi.body, old, new))
    raise TypeError(f"not a formula: {phi!r}")


def subformulas(phi: Formula) -> Iterable[Formula]:
    """Postorder traversal (with repeats for shared structure)."""
    if isinstance(phi, (And, Or)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, (Diamond, Box)):
        yield from subformulas(phi.body)
    yield phi
