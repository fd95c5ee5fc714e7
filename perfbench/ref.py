"""Reference answers for the benchmark, written apart from the package.

Nothing here imports ``modalsim``.  The decider transcribes the four
preorder definitions and removes violating pairs with a worklist over
predecessor pairs, unlike the package's round-by-round rescan; the model
checker computes satisfying sets bottom-up over a formula DAG.  Both are
iterative, so deep inputs cannot exhaust the interpreter stack.  A test in
this directory cross-checks the decider against the package's brute-force
``oracle_greatest`` on small products.
"""

from __future__ import annotations

import re
from collections import defaultdict

from gen import Sys

# ---------------------------------------------------------------- indices


def succ_index(rel) -> dict:
    """``state -> label -> [targets]``."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for src, lab, dst in rel:
        out[src][lab].append(dst)
    return out


def pred_states(*rels) -> dict:
    out: dict = defaultdict(set)
    for rel in rels:
        for src, _lab, dst in rel:
            out[dst].add(src)
    return out


# ---------------------------------------------------------------- decider


def _obligations(kind: str, p: Sys, q: Sys, bset: frozenset):
    """(left forward relation, right forward relation, forward labels,
    left backward relation, right backward relation, backward labels).

    A forward obligation: a left step on a forward label is matched by a
    right step on the same label.  A backward one: a right step on a
    backward label is matched by a left step."""
    if kind == "refine":
        if p.actions != q.actions:
            raise ValueError("refinement needs one action set")
        return p.must, q.must, None, p.may, q.may, None
    if p.labels != q.labels:
        raise ValueError("the systems need one alphabet")
    if kind == "ccsim":
        if (p.cov, p.con, p.bi) != (q.cov, q.con, q.bi):
            raise ValueError("cc-simulation needs one signature")
        return p.trans, q.trans, p.cov | p.bi, p.trans, q.trans, p.con | p.bi
    if kind in ("pbsim", "sim"):
        back = frozenset(bset) if kind == "pbsim" else frozenset()
        return p.trans, q.trans, None, p.trans, q.trans, back
    raise ValueError(f"unknown preorder kind {kind!r}")


def greatest(kind: str, p: Sys, q: Sys, bset: frozenset = frozenset()) -> frozenset:
    """The greatest relation of ``kind`` between the state sets of ``p``
    and ``q``, as a set of (left state, right state) pairs."""
    lf, rf, flabels, lb, rb, blabels = _obligations(kind, p, q, bset)
    lf_succ, rf_succ = succ_index(lf), succ_index(rf)
    lb_succ, rb_succ = succ_index(lb), succ_index(rb)
    left_pred, right_pred = pred_states(lf, lb), pred_states(rf, rb)
    rel = {(s, t) for s in p.states for t in q.states}

    def violated(s: str, t: str) -> bool:
        for lab, targets in lf_succ[s].items():
            if flabels is not None and lab not in flabels:
                continue
            answers = rf_succ[t].get(lab, ())
            for s2 in targets:
                if not any((s2, t2) in rel for t2 in answers):
                    return True
        for lab, targets in rb_succ[t].items():
            if blabels is not None and lab not in blabels:
                continue
            answers = lb_succ[s].get(lab, ())
            for t2 in targets:
                if not any((s2, t2) in rel for s2 in answers):
                    return True
        return False

    work = sorted(rel)
    while work:
        pair = work.pop()
        if pair not in rel or not violated(*pair):
            continue
        rel.discard(pair)
        for s in left_pred[pair[0]]:
            for t in right_pred[pair[1]]:
                if (s, t) in rel:
                    work.append((s, t))
    return frozenset(rel)


# ---------------------------------------------------------------- formulae


_FORMULA_TOKEN = re.compile(r"\s*(?:<([^<>]*)>|\[([^\[\]]*)\]|(tt|ff|&|\||\(|\)))")


def parse_formula(text: str) -> tuple:
    """Read back a printed formula into interned tuples (equal subformulae
    become one object, so a tree-printed DAG is a DAG again).  Iterative
    operator-precedence parsing; any depth reads."""
    interned: dict = {}

    def make(op, a, b):
        key = (op, a if op in ("dia", "box") else id(a), id(b))
        node = interned.get(key)
        if node is None:
            node = interned[key] = (op, a, b)
        return node

    atoms = {"tt": ("tt",), "ff": ("ff",)}
    prec = {"|": 1, "&": 2}
    operands: list = []
    ops: list = []  # "(" | "&" | "|" | ("dia"|"box", label)

    def reduce_binary():
        op = ops.pop()
        right, left = operands.pop(), operands.pop()
        operands.append(make("and" if op == "&" else "or", left, right))

    def push_operand(node):
        while ops and isinstance(ops[-1], tuple):
            kind, lab = ops.pop()
            node = make(kind, lab, node)
        operands.append(node)

    try:
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _FORMULA_TOKEN.match(text, pos)
            if not m:
                raise ValueError(f"cannot read formula at offset {pos}")
            pos = m.end()
            dia, box, tok = m.groups()
            if dia is not None or box is not None:
                ops.append(("dia" if dia is not None else "box", (dia or box).replace(" ", "")))
            elif tok in atoms:
                push_operand(atoms[tok])
            elif tok == "(":
                ops.append("(")
            elif tok == ")":
                while ops[-1] != "(":
                    reduce_binary()
                ops.pop()
                push_operand(operands.pop())
            else:
                while ops and ops[-1] in prec and prec[ops[-1]] >= prec[tok]:
                    reduce_binary()
                ops.append(tok)
        while ops:
            if ops[-1] == "(":
                raise ValueError("unbalanced parenthesis")
            reduce_binary()
    except IndexError as exc:  # an operator or ")" without its operands
        raise ValueError("malformed formula") from exc
    if len(operands) != 1:
        raise ValueError("not a single formula")
    return operands[0]


def _postorder(phi: tuple) -> list:
    order, seen, stack = [], set(), [(phi, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded or node[0] in ("tt", "ff"):
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        kids = (node[2],) if node[0] in ("dia", "box") else (node[1], node[2])
        stack.extend((kid, False) for kid in kids if id(kid) not in seen)
    return order


def well_formed(phi: tuple, dia_labels: frozenset, box_labels: frozenset) -> bool:
    return all(
        node[1] in (dia_labels if node[0] == "dia" else box_labels)
        for node in _postorder(phi)
        if node[0] in ("dia", "box")
    )


def satisfying(states, dia_succ: dict, box_succ: dict, phi: tuple) -> set:
    """States satisfying ``phi``: ``<a>`` looks at ``dia_succ``, ``[a]`` at
    ``box_succ``."""
    everything = set(states)
    sets: dict = {}
    for node in _postorder(phi):
        op = node[0]
        if op == "tt":
            out = everything
        elif op == "ff":
            out = set()
        elif op == "and":
            out = sets[id(node[1])] & sets[id(node[2])]
        elif op == "or":
            out = sets[id(node[1])] | sets[id(node[2])]
        elif op == "dia":
            body = sets[id(node[2])]
            out = {s for s in everything if any(t in body for t in dia_succ[s].get(node[1], ()))}
        else:
            body = sets[id(node[2])]
            out = {s for s in everything if all(t in body for t in box_succ[s].get(node[1], ()))}
        sets[id(node)] = out
    return sets[id(phi)]


def holds(system: Sys, state: str, phi: tuple) -> bool:
    """Truth at ``state``; raises ValueError on an ill-formed formula.
    Over an MTS ``<a>`` reads must and ``[a]`` may steps; over an LTS both
    read the one relation, ``<a>`` needs a covariant or bivariant label and
    ``[a]`` a contravariant or bivariant one."""
    if system.kind == "mts":
        dia, box = system.actions, system.actions
        dia_succ, box_succ = succ_index(system.must), succ_index(system.may)
    else:
        dia, box = system.cov | system.bi, system.con | system.bi
        dia_succ = box_succ = succ_index(system.trans)
    if not well_formed(phi, dia, box):
        raise ValueError("formula is not well formed over the system")
    return state in satisfying(system.states, dia_succ, box_succ, phi)


# ---------------------------------------------------------------- terms


def encode_term(t: tuple) -> tuple:
    """May prefixes become ``ct`` copies; a must prefix splits into a
    ``cv`` and a ``ct`` branch sharing one continuation."""
    memo: dict = {}
    for node in _term_postorder(t):
        op = node[0]
        if op in ("0", "w"):
            out = node
        elif op == "sum":
            out = ("sum", memo[id(node[1])], memo[id(node[2])])
        elif op == "pre":
            out = ("pre", f"ct({node[1]})", memo[id(node[2])])
        else:
            rest = memo[id(node[2])]
            out = ("sum", ("pre", f"cv({node[1]})", rest), ("pre", f"ct({node[1]})", rest))
        memo[id(node)] = out
    return memo[id(t)]


def _term_postorder(t: tuple) -> list:
    order, seen, stack = [], set(), [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded or node[0] in ("0", "w"):
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        kids = (node[1], node[2]) if node[0] == "sum" else (node[2],)
        stack.extend((kid, False) for kid in kids)
    return order


def term_labels(t: tuple) -> set:
    return {node[1] for node in _term_postorder(t) if node[0] in ("pre", "must")}


def expand_term(t: tuple, loop_labels, must_prefixes: bool) -> Sys:
    """The system reachable from ``t``: states are subterm objects, ``w``
    loops on ``loop_labels``.  With ``must_prefixes`` an MTS (``!`` steps
    are may and must), otherwise an LTS whose transitions are the steps."""
    names: dict = {}
    may, must = set(), set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in names:
            continue
        name = names[id(node)] = f"t{len(names)}"
        parts, pending = [], [node]
        while pending:
            part = pending.pop()
            if part[0] == "sum":
                pending += [part[1], part[2]]
            else:
                parts.append(part)
        for part in parts:
            if part[0] == "w":
                moves = [(lab, part) for lab in loop_labels]
            elif part[0] in ("pre", "must"):
                moves = [(part[1], part[2])]
            else:
                moves = []
            for lab, nxt in moves:
                stack.append(nxt)
                may.add((name, lab, nxt))
                if part[0] == "must":
                    must.add((name, lab, nxt))
    resolve = lambda rel: frozenset((s, lab, names[id(d)]) for s, lab, d in rel)
    states = sorted(names.values())
    if must_prefixes:
        return Sys("mts", states, names[id(t)], actions=frozenset(loop_labels),
                   may=resolve(may), must=resolve(must))
    return Sys("lts", states, names[id(t)], trans=resolve(may))


# ---------------------------------------------------------------- systems


def parse_system(text: str) -> Sys:
    """Read back a system printed by the package (token state names)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    kind = lines[0][0]
    fields: dict = defaultdict(list)
    for ln in lines[1:]:
        head, rest = ln[0].rstrip(":"), ln[1:]
        if head in ("may", "must", "trans"):
            fields[head].append(tuple(rest))
        else:
            fields[head].extend(rest)
    (init,) = fields["init"]
    common = dict(kind=kind, states=sorted(fields["states"]), init=init)
    if kind == "mts":
        return Sys(**common, actions=frozenset(fields["actions"]),
                   may=frozenset(fields["may"]), must=frozenset(fields["must"]))
    return Sys(**common, cov=frozenset(fields["cov"]) | frozenset(fields["actions"]),
               con=frozenset(fields["con"]), bi=frozenset(fields["bi"]),
               trans=frozenset(fields["trans"]))


def same_system(a: Sys, b: Sys) -> bool:
    keys = ("kind", "init", "actions", "may", "must", "cov", "con", "bi", "trans")
    return sorted(a.states) == sorted(b.states) and all(
        getattr(a, k) == getattr(b, k) for k in keys
    )


def encode_mts(m: Sys) -> Sys:
    """MTS to LTS: may steps on ``ct(a)``, must steps on ``cv(a)``."""
    return Sys("lts", sorted(m.states), m.init,
               cov=frozenset(f"cv({a})" for a in m.actions),
               con=frozenset(f"ct({a})" for a in m.actions),
               trans=frozenset((s, f"ct({a})", d) for s, a, d in m.may)
               | frozenset((s, f"cv({a})", d) for s, a, d in m.must))


def embed_lts(p: Sys) -> Sys:
    """LTS to MTS: every step may, covariant and bivariant steps also must;
    a fresh sink takes a may step on every covariant label from every state
    and loops on every label."""
    sink = "u"
    while sink in p.states:
        sink += "_"
    states = list(p.states) + [sink]
    may = set(p.trans)
    may |= {(s, a, sink) for a in p.cov for s in states}
    may |= {(sink, a, sink) for a in p.labels}
    must = {e for e in p.trans if e[1] in p.cov | p.bi}
    return Sys("mts", sorted(states), p.init, actions=p.labels,
               may=frozenset(may), must=frozenset(must))
