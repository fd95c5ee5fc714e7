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

from typing import Callable, NamedTuple, Sequence, Union

from .systems import (
    Action,
    CCSignature,
    Interned,
    PointedLTS,
    PointedMTS,
    Transition,
    fold,
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
        return _formula_text(self, shared)


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


class BLLogic(NamedTuple):
    """The logic interpreted over MTSs; labels range over ``actions``."""

    actions: frozenset[Action]


class CCLogic(NamedTuple):
    """The logic interpreted over LTSs with signature ``signature``."""

    signature: CCSignature


LogicKind = Union[BLLogic, CCLogic]


def formula_text(phi: Formula) -> str:
    """Canonical concrete syntax with minimal parentheses.

    Modalities bind tightest, then ``&``, then ``|``; both binary
    connectives print flat (left associated when re-parsed).  One loop pops
    subformulae and literal pieces off a stack and appends to one list of
    pieces; a chain of one connective and a run of modalities are printed
    in one step each.  A subformula with more than one parent is printed
    once per context, its text joined when its end marker is popped and
    copied at its later occurrences, so work and memory are linear in the
    length of the (tree) text plus the size of the DAG.
    """
    return _formula_text(phi, shared_nodes(phi)[1])


def _formula_text(phi: Formula, shared: set[Formula]) -> str:
    # formula_text, for a caller that already has phi's shared nodes.
    texts: dict[tuple[Formula, int], str] = {}
    opened: list[tuple[tuple[Formula, int], int]] = []  # (key, its first piece)
    out: list[str] = []
    # Items: (subformula, level), a literal piece, or None, the end of the
    # innermost opened shared text.  level: 0 = or-context, 1 = and-context,
    # 2 = modality body.
    stack: list = [(phi, 0)]
    while stack:
        item = stack.pop()
        if item is None:
            key, first = opened.pop()
            text = texts[key] = "".join(out[first:])
            out[first:] = (text,)
            continue
        if item.__class__ is str:
            out.append(item)
            continue
        phi, level = item
        if phi in shared:
            text = texts.get(item)
            if text is not None:
                out.append(text)
                continue
            opened.append((item, len(out)))
            stack.append(None)
        kind = type(phi)
        if kind is Top:
            out.append("tt")
        elif kind is Bottom:
            out.append("ff")
        elif kind is Diamond or kind is Box:
            while kind is Diamond or kind is Box:
                out.append(f"<{phi.action}>" if kind is Diamond else f"[{phi.action}]")
                phi = phi.body
                kind = type(phi)
            stack.append((phi, 2))
        elif kind is And or kind is Or:
            inner = 1 if kind is And else 0
            if level > inner:
                out.append("(")
                stack.append(")")
            separator = " & " if inner else " | "
            parts = operands(phi)
            stack.append((parts.pop(), inner))
            while parts:
                stack += (separator, (parts.pop(), inner))
        else:
            raise TypeError(f"not a formula: {type(phi).__name__}")
    return "".join(out)


def operands(phi: Formula) -> list[Formula]:
    """Flatten a chain of ``phi``'s binary connective into the operands
    that are not that connective, left to right; ``[phi]`` for any other
    formula."""
    out: list[Formula] = []
    stack = [phi]
    while stack:
        sub = stack.pop()
        if type(sub) is type(phi) and isinstance(sub, (And, Or)):
            stack += (sub.right, sub.left)
        else:
            out.append(sub)
    return out


def modal_depth(phi: Formula) -> int:
    def step(phi: Formula):
        if isinstance(phi, (Bottom, Top)):
            return 0
        if isinstance(phi, (And, Or)):
            return max((yield phi.left), (yield phi.right))
        if isinstance(phi, (Diamond, Box)):
            return 1 + (yield phi.body)
        raise TypeError(f"not a formula: {phi!r}")

    return fold(phi, step)


def is_existential(phi: Formula) -> bool:
    """True when ``phi`` contains no box modality."""
    return not any(isinstance(node, Box) for node in shared_nodes(phi)[0])


def check_wf(phi: Formula, logic: LogicKind) -> list[str]:
    """Well-formedness violations of ``phi`` under ``logic``: one per
    modality node whose label ``logic`` does not allow there, in the order
    of first occurrence, reading left to right.

    One loop pops the nodes off a stack and skips a node it has seen, so a
    shared subformula is tested once and the list is bounded by the DAG."""
    if isinstance(logic, BLLogic):
        allowed = {Diamond: logic.actions, Box: logic.actions}
    else:
        sig = logic.signature
        allowed = {Diamond: sig.covariant | sig.bivariant, Box: sig.contravariant | sig.bivariant}
    problems: list[str] = []
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Top or kind is Bottom or node in seen:
            continue
        seen.add(node)
        if kind is And or kind is Or:
            stack += (node.right, node.left)
        elif kind is Diamond or kind is Box:
            if node.action not in allowed[kind]:
                problems.append(_wf_problem(node, logic))
            stack.append(node.body)
        else:
            raise TypeError(f"not a formula: {node!r}")
    return problems


def _wf_problem(node: Union[Diamond, Box], logic: LogicKind) -> str:
    # The wording of check_wf's one problem at ``node``.
    a = node.action
    if isinstance(logic, BLLogic):
        return f"label {a} is not in the alphabet"
    if a not in logic.signature.actions:
        return f"label {a} is not in the signature"
    if type(node) is Diamond:
        return f"diamond modality needs a covariant or bivariant label: {a}"
    return f"box modality needs a contravariant or bivariant label: {a}"


def _require_wf(phi: Formula, logic: LogicKind) -> None:
    problems = check_wf(phi, logic)
    if problems:
        raise ValueError("; ".join(problems))


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

    def step(key: tuple[Formula, str]):
        phi, state = key
        if isinstance(phi, Bottom):
            return False
        if isinstance(phi, Top):
            return True
        if isinstance(phi, And):
            return (yield (phi.left, state)) and (yield (phi.right, state))
        if isinstance(phi, Or):
            return (yield (phi.left, state)) or (yield (phi.right, state))
        if isinstance(phi, Diamond):
            for nxt in dia_succ.get(state, {}).get(phi.action, ()):
                if (yield (phi.body, nxt)):
                    return True
            return False
        if isinstance(phi, Box):
            for nxt in box_succ.get(state, {}).get(phi.action, ()):
                if not (yield (phi.body, nxt)):
                    return False
            return True
        raise TypeError(f"not a formula: {phi!r}")

    def holds(state: str) -> bool:
        if state not in states:
            raise ValueError(f"{state!r} is not a state of the system")
        return fold((phi, state), step, memo)

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


def _same_connective(phi: Formula):
    """Step giving ``phi``'s own connective or constant over the images of
    its subformulae."""
    if isinstance(phi, (Bottom, Top)):
        return phi
    if isinstance(phi, And):
        return And((yield phi.left), (yield phi.right))
    if isinstance(phi, Or):
        return Or((yield phi.left), (yield phi.right))
    if isinstance(phi, Diamond):
        return Diamond(phi.action, (yield phi.body))
    if isinstance(phi, Box):
        return Box(phi.action, (yield phi.body))
    raise TypeError(f"not a formula: {phi!r}")


def simplify(phi: Formula) -> Formula:
    """Constant propagation only: ``tt``/``ff`` units and absorbers for the
    binary connectives plus ``[a]tt = tt``.  Nothing stronger, so outputs
    stay predictable.  A subformula shared in ``phi`` is simplified once
    and stays shared in the result."""
    return fold(phi, _simplify_node)


def _simplify_node(phi: Formula):
    if isinstance(phi, And):
        left, right = (yield phi.left), (yield phi.right)
        if isinstance(left, Bottom) or isinstance(right, Bottom):
            return Bottom()
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        return And(left, right)
    if isinstance(phi, Or):
        left, right = (yield phi.left), (yield phi.right)
        if isinstance(left, Top) or isinstance(right, Top):
            return Top()
        if isinstance(left, Bottom):
            return right
        if isinstance(right, Bottom):
            return left
        return Or(left, right)
    if isinstance(phi, Box):
        body = yield phi.body
        if isinstance(body, Top):
            return Top()
        return Box(phi.action, body)
    return (yield from _same_connective(phi))


def replace_subformula(phi: Formula, old: Formula, new: Formula) -> Formula:
    """Replace every occurrence of ``old``.  A subformula shared in ``phi``
    is visited once and stays shared."""

    def step(psi: Formula):
        if psi is old:
            return new
        return (yield from _same_connective(psi))

    return fold(phi, step)


def subformulas(phi: Formula) -> list[Formula]:
    """Postorder traversal (with repeats for shared structure)."""
    # Node, right, left is the postorder reversed.
    out: list[Formula] = []
    stack = [phi]
    while stack:
        phi = stack.pop()
        out.append(phi)
        if isinstance(phi, (And, Or)):
            stack += (phi.left, phi.right)
        elif isinstance(phi, (Diamond, Box)):
            stack.append(phi.body)
    return out[::-1]
