"""Seeded input generators for the benchmark, independent of the package.

Systems, formulae and terms are plain Python values here, so the reference
code in :mod:`ref` can judge the program's answers without importing it:

* a system is a :class:`Sys`; labels are strings (``"a"``, ``"cv(a)"``);
* a formula is a tuple ``("tt",)``, ``("ff",)``, ``("and", l, r)``,
  ``("or", l, r)``, ``("dia", label, body)`` or ``("box", label, body)``;
* a term is a tuple ``("0",)``, ``("w",)``, ``("pre", label, rest)``,
  ``("must", label, rest)`` or ``("sum", l, r)``.

``sampling.py`` in the package only suits systems of at most four states and
its terms mostly have 1 to 30 symbols, so the sizes here are set explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# One letter each, so the seed changes names but not the length of any
# printed output.
LABEL_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")
STATE_PREFIXES = ("s", "p", "q", "n", "x", "k", "v", "z")


@dataclass
class Sys:
    """A finite pointed system: ``kind`` is ``"mts"`` or ``"lts"``.

    MTSs use ``actions``, ``may`` and ``must``; LTSs use ``cov``, ``con``,
    ``bi`` and ``trans``.  Transitions are ``(source, label, target)``.
    """

    kind: str
    states: list
    init: str
    actions: frozenset = frozenset()
    may: frozenset = frozenset()
    must: frozenset = frozenset()
    cov: frozenset = frozenset()
    con: frozenset = frozenset()
    bi: frozenset = frozenset()
    trans: frozenset = frozenset()

    @property
    def labels(self) -> frozenset:
        return self.actions if self.kind == "mts" else self.cov | self.con | self.bi


def system_text(s: Sys) -> str:
    """The system in the package's line format."""
    lines = [s.kind]
    if s.kind == "mts":
        lines.append("actions: " + " ".join(sorted(s.actions)))
    else:
        for name, cls in (("cov", s.cov), ("con", s.con), ("bi", s.bi)):
            if cls:
                lines.append(f"{name}: " + " ".join(sorted(cls)))
    lines.append("states: " + " ".join(s.states))
    lines.append(f"init: {s.init}")
    rels = (("may", s.may), ("must", s.must)) if s.kind == "mts" else (("trans", s.trans),)
    for name, rel in rels:
        for src, lab, dst in sorted(rel):
            lines.append(f"{name}: {src} {lab} {dst}")
    return "\n".join(lines) + "\n"


def _names(rng: random.Random, n: int) -> list:
    prefix = rng.choice(STATE_PREFIXES)
    order = list(range(n))
    rng.shuffle(order)
    return [f"{prefix}{i}" for i in order]


def pick_labels(rng: random.Random, k: int) -> list:
    return sorted(rng.sample(LABEL_POOL, k))


# ---------------------------------------------------------------- chains


def chain(rng: random.Random, kind: str, n: int, label: str, cls: str = "cov") -> Sys:
    """``n`` steps on ``label``: n+1 states in a line.  As an MTS every step
    is may and must; as an LTS the label sits in signature class ``cls``."""
    names = _names(rng, n + 1)
    steps = frozenset((names[i], label, names[i + 1]) for i in range(n))
    return _with_steps(kind, names, names[0], steps, label, cls)


def ladder(rng: random.Random, kind: str, n: int, label: str, cls: str = "cov") -> Sys:
    """A width-2 ladder of ``n`` levels: a root, then two states per level,
    each stepping on ``label`` to both states of the next level."""
    names = _names(rng, 2 * n + 1)
    root, rungs = names[0], [names[1 + 2 * i : 3 + 2 * i] for i in range(n)]
    steps = {(root, label, dst) for dst in rungs[0]}
    for i in range(n - 1):
        steps |= {(src, label, dst) for src in rungs[i] for dst in rungs[i + 1]}
    return _with_steps(kind, names, root, frozenset(steps), label, cls)


def _with_steps(kind, names, init, steps, label, cls) -> Sys:
    if kind == "mts":
        return Sys("mts", names, init, actions=frozenset({label}), may=steps, must=steps)
    classes = {"cov": frozenset(), "con": frozenset(), "bi": frozenset()}
    classes[cls] = frozenset({label})
    return Sys("lts", names, init, trans=steps, **classes)


# ---------------------------------------------------------------- sparse


def sparse_signature(rng: random.Random, labels: list) -> dict:
    """Every class non-empty when there are at least three labels."""
    shuffled = list(labels)
    rng.shuffle(shuffled)
    out = {"cov": {shuffled[0]}, "con": {shuffled[1]}, "bi": {shuffled[2]}}
    for lab in shuffled[3:]:
        out[rng.choice(("cov", "con", "bi"))].add(lab)
    return {k: frozenset(v) for k, v in out.items()}


def _random_edges(rng, names, labels, degree) -> set:
    if degree > len(names) * len(labels):
        raise ValueError("out-degree exceeds the distinct steps available")
    edges: set = set()
    for src in names:
        out: set = set()
        while len(out) < degree:
            out.add((src, rng.choice(labels), rng.choice(names)))
        edges |= out
    return edges


def sparse_mts(rng: random.Random, n: int, labels: list, degree: int) -> Sys:
    names = _names(rng, n)
    may = _random_edges(rng, names, labels, degree)
    must = {e for e in sorted(may) if rng.random() < 0.5}
    return Sys("mts", names, names[0], actions=frozenset(labels),
               may=frozenset(may), must=frozenset(must))


def sparse_lts(rng: random.Random, n: int, labels: list, degree: int, sig: dict) -> Sys:
    names = _names(rng, n)
    trans = _random_edges(rng, names, labels, degree)
    return Sys("lts", names, names[0], trans=frozenset(trans), **sig)


def _rename(rng: random.Random, s: Sys) -> dict:
    return dict(zip(s.states, _names(rng, len(s.states))))


def _moved(rel, names) -> frozenset:
    return frozenset((names[a], lab, names[b]) for a, lab, b in rel)


def planted_mts(rng: random.Random, base: Sys) -> Sys:
    """A looser copy of ``base`` under fresh state names: extra may
    transitions, some must transitions dropped.  It stands left of ``base``
    in the refinement check, so the pair is related."""
    labels = sorted(base.actions)
    may = set(base.may)
    for _ in range(max(1, len(base.states) // 4)):
        may.add((rng.choice(base.states), rng.choice(labels), rng.choice(base.states)))
    must = {e for e in sorted(base.must) if rng.random() < 0.8}
    names = _rename(rng, base)
    return Sys("mts", [names[s] for s in base.states], names[base.init],
               actions=base.actions, may=_moved(may, names), must=_moved(must, names))


def planted_lts(rng: random.Random, base: Sys, kind: str, bset: frozenset = frozenset()) -> Sys:
    """A copy of ``base`` under fresh state names that ``kind`` relates to
    ``base`` (it stands on the left): for ``ccsim`` some covariant moves are
    dropped and contravariant ones added; for ``sim``/``pbsim`` some moves
    outside the bisimulation set are dropped."""
    trans = set(base.trans)
    if kind == "ccsim":
        trans = {e for e in sorted(trans) if e[1] not in base.cov or rng.random() < 0.8}
        for _ in range(max(1, len(base.states) // 4)):
            trans.add((rng.choice(base.states), rng.choice(sorted(base.con)),
                       rng.choice(base.states)))
    else:
        trans = {e for e in sorted(trans) if e[1] in bset or rng.random() < 0.8}
    names = _rename(rng, base)
    return Sys("lts", [names[s] for s in base.states], names[base.init],
               cov=base.cov, con=base.con, bi=base.bi, trans=_moved(trans, names))


# ---------------------------------------------------------------- formulae


def formula_text(phi: tuple) -> str:
    """Concrete syntax with the package's precedences: modalities bind
    tightest, then ``&``, then ``|``.  Iterative, so any depth prints."""
    out: list = []
    stack: list = [(phi, 0)]
    while stack:
        item, level = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        op = item[0]
        if op in ("tt", "ff"):
            out.append(op)
        elif op in ("dia", "box"):
            open_, close = ("<", ">") if op == "dia" else ("[", "]")
            out.append(f"{open_}{item[1]}{close}")
            stack.append((item[2], 2))
        else:
            inner = 1 if op == "and" else 0
            need = level > inner
            sep = " & " if op == "and" else " | "
            if need:
                stack.append((")", None))
            stack += [(item[2], inner), (sep, None), (item[1], inner)]
            if need:
                stack.append(("(", None))
    return "".join(out)


def random_formula(rng: random.Random, nodes: int, depth: int, dia: list, box: list) -> tuple:
    """A formula of exactly ``nodes`` connective/modality nodes whose
    longest path holds ``depth`` of them: a spine of ``depth`` nodes, with
    the other ``nodes - depth`` spread over subtrees hanging off its binary
    nodes.  The spine is built in a loop, so any depth builds."""
    if not 1 <= depth <= nodes:
        raise ValueError("need 1 <= depth <= nodes")
    modal = [("dia", lab) for lab in dia] + [("box", lab) for lab in box]

    def cap(d: int) -> int:
        return (1 << min(d, 20)) - 1

    def atom() -> tuple:
        return ("tt",) if rng.random() < 0.6 else ("ff",)

    def subtree(budget: int, max_depth: int) -> tuple:
        if budget == 0:
            return atom()
        if modal and budget - 1 <= cap(max_depth - 1) and rng.random() < 0.4:
            op, lab = rng.choice(modal)
            return (op, lab, subtree(budget - 1, max_depth - 1))
        rest = budget - 1
        low = max(0, rest - cap(max_depth - 1))
        left = rng.randint(low, min(rest, cap(max_depth - 1)))
        return (rng.choice(("and", "or")), subtree(left, max_depth - 1),
                subtree(rest - left, max_depth - 1))

    spare = nodes - depth
    ops = [None if not modal or rng.random() < 0.5 else rng.choice(modal) for _ in range(depth)]
    for level in reversed(range(depth)):
        if sum(cap(i) for i, o in enumerate(ops) if o is None) >= spare:
            break
        ops[level] = None
    if sum(cap(i) for i, o in enumerate(ops) if o is None) < spare:
        raise ValueError(f"{nodes} nodes do not fit under depth {depth}")
    shares = [0] * depth
    binaries = [i for i, o in enumerate(ops) if o is None]
    while spare:
        i = rng.choice(binaries)
        if shares[i] < cap(i):
            shares[i] += 1
            spare -= 1
    phi = atom()
    for level in range(depth):
        if ops[level] is None:
            extra = subtree(shares[level], level)
            pair = (phi, extra) if rng.random() < 0.5 else (extra, phi)
            phi = (rng.choice(("and", "or")), *pair)
        else:
            phi = (ops[level][0], ops[level][1], phi)
    return phi


def formula_nodes(phi: tuple) -> int:
    count, stack = 0, [phi]
    while stack:
        item = stack.pop()
        if item[0] in ("tt", "ff"):
            continue
        count += 1
        stack.extend(item[2:] if item[0] in ("dia", "box") else item[1:])
    return count


# ---------------------------------------------------------------- terms


def term_text(t: tuple) -> str:
    """Concrete syntax: prefixes bind tighter than ``+``."""
    op = t[0]
    if op in ("0", "w"):
        return op
    if op == "sum":
        return f"{term_text(t[1])} + {term_text(t[2])}"
    body = term_text(t[2])
    if t[2][0] == "sum":
        body = f"({body})"
    return f"{t[1]}{'.' if op == 'pre' else '!'}{body}"


def random_term(rng: random.Random, size: int, labels: list, musts: int) -> tuple:
    """A term of exactly ``size`` symbols over ``labels`` mixing may and
    must prefixes, sums, ``0`` and ``w``, with at most ``musts`` must
    prefixes on any path (the encoding doubles the text below each one)."""
    if size <= 1:
        return ("0",) if rng.random() < 0.7 else ("w",)
    if size == 2 or rng.random() < 0.55:
        op = "must" if musts and rng.random() < 0.5 else "pre"
        rest = random_term(rng, size - 1, labels, musts - (op == "must"))
        return (op, rng.choice(labels), rest)
    left = rng.randint(1, size - 2)
    return ("sum", random_term(rng, left, labels, musts),
            random_term(rng, size - 1 - left, labels, musts))


def must_chain(rng: random.Random, labels: list, depth: int) -> tuple:
    """``a!b!...0``: ``depth`` must prefixes on seeded labels."""
    t: tuple = ("0",)
    for _ in range(depth):
        t = ("must", rng.choice(labels), t)
    return t
