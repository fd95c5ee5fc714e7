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
    Interned,
    PointedLTS,
    PointedMTS,
    SuccIndex,
    Transition,
    rebuild,
    shared_nodes,
    successor_index,
)


class Formula(Interned):
    """Base class for modal formulae."""

    __slots__ = ()

    def __repr__(self) -> str:
        # The text of a formula with shared subformulae can be exponentially
        # longer than the formula, so such a formula shows only its size.
        nodes, shared = shared_nodes(self)
        if shared:
            return f"<{type(self).__name__} of {len(nodes)} nodes besides tt and ff>"
        return formula_text(self)


class Bottom(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Diamond(Formula):
    __slots__ = ("action", "body")


class Box(Formula):
    __slots__ = ("action", "body")


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
    connectives print flat (left associated when re-parsed).  A subformula
    with more than one parent is printed once per context and its text
    copied, so the work is the size of the DAG plus the length of the
    (tree) text, and only the texts of shared subformulae are held until
    the call returns.
    """
    shared = shared_nodes(phi)[1]
    memo: dict[tuple[Formula, int], str] = {}

    def text(phi: Formula, level: int) -> str:
        # level: 0 = or-context, 1 = and-context, 2 = modality body
        if isinstance(phi, Bottom):
            return "ff"
        if isinstance(phi, Top):
            return "tt"
        key = (phi, level) if phi in shared else None
        if key in memo:
            return memo[key]
        if isinstance(phi, Diamond):
            out = f"<{phi.action}>{text(phi.body, 2)}"
        elif isinstance(phi, Box):
            out = f"[{phi.action}]{text(phi.body, 2)}"
        elif isinstance(phi, And):
            out = f"{text(phi.left, 1)} & {text(phi.right, 1)}"
            if level >= 2:
                out = f"({out})"
        elif isinstance(phi, Or):
            out = f"{text(phi.left, 0)} | {text(phi.right, 0)}"
            if level >= 1:
                out = f"({out})"
        else:
            raise TypeError(f"not a formula: {type(phi).__name__}")
        if key is not None:
            memo[key] = out
        return out

    return text(phi, 0)


def modal_depth(phi: Formula) -> int:
    memo: dict[Formula, int] = {}

    def depth(phi: Formula) -> int:
        out = memo.get(phi)
        if out is not None:
            return out
        if isinstance(phi, (Bottom, Top)):
            out = 0
        elif isinstance(phi, (And, Or)):
            out = max(depth(phi.left), depth(phi.right))
        elif isinstance(phi, (Diamond, Box)):
            out = 1 + depth(phi.body)
        else:
            raise TypeError(f"not a formula: {phi!r}")
        memo[phi] = out
        return out

    return depth(phi)


def is_existential(phi: Formula) -> bool:
    """True when ``phi`` contains no box modality."""
    return not any(isinstance(node, Box) for node in shared_nodes(phi)[0])


def check_wf(phi: Formula, logic: LogicKind) -> list[str]:
    """Well-formedness violations of ``phi`` under ``logic``, in
    deterministic (discovery) order, with a shared subformula's violations
    repeated at each of its occurrences."""
    problems: list[str] = []
    _wf(phi, logic, problems, {})
    return problems


def _wf(
    phi: Formula, logic: LogicKind, problems: list[str], seen: dict[Formula, list[str]]
) -> None:
    # ``seen`` maps each visited node to the problems found below it, which
    # a second visit replays instead of walking the subformula again.
    if isinstance(phi, (Bottom, Top)):
        return
    found = seen.get(phi)
    if found is not None:
        problems.extend(found)
        return
    start = len(problems)
    if isinstance(phi, (And, Or)):
        _wf(phi.left, logic, problems, seen)
        _wf(phi.right, logic, problems, seen)
    elif isinstance(phi, (Diamond, Box)):
        if isinstance(logic, BLLogic):
            if phi.action not in logic.actions:
                problems.append(f"label {phi.action} is not in the alphabet")
        else:
            sig = logic.signature
            modality, side, allowed = (
                ("diamond", "covariant", sig.covariant)
                if isinstance(phi, Diamond)
                else ("box", "contravariant", sig.contravariant)
            )
            if phi.action not in sig.actions:
                problems.append(f"label {phi.action} is not in the signature")
            elif phi.action not in allowed | sig.bivariant:
                problems.append(
                    f"{modality} modality needs a {side} or bivariant label: {phi.action}"
                )
        _wf(phi.body, logic, problems, seen)
    else:
        raise TypeError(f"not a formula: {phi!r}")
    seen[phi] = problems[start:]


def _require_wf(phi: Formula, logic: LogicKind) -> None:
    problems = check_wf(phi, logic)
    if problems:
        raise ValueError("; ".join(problems))


def _eval(
    phi: Formula,
    state: str,
    box_succ: SuccIndex,
    dia_succ: SuccIndex,
    memo: dict[tuple[Formula, str], bool],
) -> bool:
    key = (phi, state)
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


def _state_test(
    logic: LogicKind,
    states: frozenset[str],
    box_rel: frozenset[Transition],
    dia_rel: frozenset[Transition],
    phi: Formula,
) -> Callable[[str], bool]:
    """The one model-checking prologue: require ``phi`` to be well formed
    under ``logic``, index the successors ``[a]`` ranges over (``box_rel``)
    and those ``<a>`` ranges over (``dia_rel``), and return the test of
    ``phi`` at a state.  All states share one memo."""
    _require_wf(phi, logic)
    box_succ = successor_index(states, box_rel)
    dia_succ = box_succ if dia_rel is box_rel else successor_index(states, dia_rel)
    memo: dict[tuple[Formula, str], bool] = {}

    def holds(state: str) -> bool:
        if state not in states:
            raise ValueError(f"{state!r} is not a state of the system")
        return _eval(phi, state, box_succ, dia_succ, memo)

    return holds


def mc_mts(m: PointedMTS, state: str, phi: Formula) -> bool:
    """Does ``state`` of ``m`` satisfy ``phi``?

    ``[a]`` ranges over may transitions, ``<a>`` over must transitions.
    """
    return _state_test(BLLogic(m.actions), m.states, m.may, m.must, phi)(state)


def mc_cc(p: PointedLTS, state: str, phi: Formula) -> bool:
    """Does ``state`` of ``p`` satisfy ``phi``?  Both modalities range over
    the single transition relation."""
    return _state_test(CCLogic(p.signature), p.states, p.transitions, p.transitions, phi)(state)


def satisfying_states_mts(m: PointedMTS, phi: Formula) -> frozenset[str]:
    """All states of ``m`` satisfying ``phi``."""
    holds = _state_test(BLLogic(m.actions), m.states, m.may, m.must, phi)
    return frozenset(s for s in m.states if holds(s))


def satisfying_states_cc(p: PointedLTS, phi: Formula) -> frozenset[str]:
    """All states of ``p`` satisfying ``phi``."""
    holds = _state_test(CCLogic(p.signature), p.states, p.transitions, p.transitions, phi)
    return frozenset(s for s in p.states if holds(s))


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


def _same_connective(phi: Formula, recur: Callable[[Formula], Formula]) -> Formula:
    """``phi``'s own connective or constant over the images of its
    subformulae under ``recur``."""
    if isinstance(phi, (Bottom, Top)):
        return phi
    if isinstance(phi, And):
        return And(recur(phi.left), recur(phi.right))
    if isinstance(phi, Or):
        return Or(recur(phi.left), recur(phi.right))
    if isinstance(phi, Diamond):
        return Diamond(phi.action, recur(phi.body))
    if isinstance(phi, Box):
        return Box(phi.action, recur(phi.body))
    raise TypeError(f"not a formula: {phi!r}")


def simplify(phi: Formula) -> Formula:
    """Constant propagation only: ``tt``/``ff`` units and absorbers for the
    binary connectives plus ``[a]tt = tt``.  Nothing stronger, so outputs
    stay predictable.  A subformula shared in ``phi`` is simplified once
    and stays shared in the result."""
    return rebuild(phi, _simplify_node)


def _simplify_node(phi: Formula, recur: Callable[[Formula], Formula]) -> Formula:
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
    if isinstance(phi, Box):
        body = recur(phi.body)
        if isinstance(body, Top):
            return Top()
        return Box(phi.action, body)
    return _same_connective(phi, recur)


def replace_subformula(phi: Formula, old: Formula, new: Formula) -> Formula:
    """Replace every occurrence of ``old``.  A subformula shared in ``phi``
    is visited once and stays shared."""
    return rebuild(phi, lambda psi, recur: new if psi is old else _same_connective(psi, recur))


def subformulas(phi: Formula) -> Iterable[Formula]:
    """Postorder traversal (with repeats for shared structure)."""
    if isinstance(phi, (And, Or)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, (Diamond, Box)):
        yield from subformulas(phi.body)
    yield phi
