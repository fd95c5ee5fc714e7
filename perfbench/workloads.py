"""The four workloads: seeded query lists with their reference checks.

Each ``build_*`` function writes its input files, computes every expected
answer with :mod:`ref` (so none of that work is timed) and returns
:class:`Query` objects.  A query's ``verify`` takes the exit code and standard output of
one CLI call and returns ``None`` when they are right, or what is wrong.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import gen
import ref

KINDS = ("refine", "ccsim", "pbsim", "sim")
# Properties that demonstrate a known non-theorem; every other property of
# the package's selfcheck passes.
EXPECTED_FAIL = frozenset({
    "charform.literal-prefix-clause-fails",
    "translate.approximation-complete-unguarded",
})


@dataclass
class Query:
    argv: list
    cmd: str
    verify: Callable[[int, str], Optional[str]]
    # For check queries: (kind, left file, right file, bisimulation set).
    check: Optional[tuple] = None
    related: Optional[bool] = None


@dataclass
class Workload:
    queries: list
    # Inputs nested at least 500 deep, run once outside the timed passes.
    deep: list = field(default_factory=list)


class Files:
    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, s: gen.Sys) -> str:
        self.count += 1
        path = self.root / f"{self.count:04d}.{s.kind}"
        path.write_text(gen.system_text(s), encoding="utf-8")
        return str(path)


def _witness_problem(kind: str, left: gen.Sys, right: gen.Sys, text: Optional[str]) -> Optional[str]:
    if kind not in ("refine", "ccsim"):
        return None if text is None else "witness printed for a kind without witnesses"
    if text is None:
        return "no distinguishing formula for an unrelated pair"
    try:
        phi = ref.parse_formula(text)
        ok = ref.holds(left, left.init, phi) and not ref.holds(right, right.init, phi)
    except ValueError as exc:
        return f"unreadable witness: {exc}"
    return None if ok else "distinguishing formula does not distinguish"


def check_query(files: Files, kind: str, left: gen.Sys, right: gen.Sys,
                bset: frozenset = frozenset(), fmt: str = "text") -> Query:
    lpath, rpath = files.write(left), files.write(right)
    rel = ref.greatest(kind, left, right, bset)
    related = (left.init, right.init) in rel
    argv = ["check", kind, lpath, rpath]
    if kind == "pbsim":
        argv += ["--bisimset", ",".join(sorted(bset))]
    if fmt == "json":
        argv += ["--format", "json"]
    pairs = sorted([p, q] for p, q in rel)

    def verify(rc: int, out: str) -> Optional[str]:
        if rc != (0 if related else 1):
            return f"exit {rc}, expected {0 if related else 1}"
        if fmt == "json":
            data = json.loads(out)
            if data["related"] != related or data["relation"] != pairs:
                return "json verdict or relation differs from the reference"
            witness = data["distinguishing_formula"]
        else:
            lines = out.splitlines()
            if lines[0] != ("related" if related else "not related"):
                return f"printed {lines[0]!r}"
            prefix = "distinguishing formula: "
            witness = lines[1][len(prefix):] if len(lines) > 1 and lines[1].startswith(prefix) else None
        if related:
            return None if witness is None else "witness printed for a related pair"
        return _witness_problem(kind, left, right, witness)

    return Query(argv, "check", verify, check=(kind, lpath, rpath, bset), related=related)


def translate_query(files: Files, system: gen.Sys, fmt: str) -> Query:
    path = files.write(system)
    op, expected = ("c", ref.encode_mts(system)) if system.kind == "mts" else ("m", ref.embed_lts(system))
    argv = ["translate", op, path] + (["--format", "json"] if fmt == "json" else [])

    def verify(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        text = json.loads(out)["text"] if fmt == "json" else out
        return None if ref.same_system(ref.parse_system(text), expected) else "translated system differs"

    return Query(argv, "translate", verify)


def mc_query(files: Files, system: gen.Sys, path: str, state: str, phi: tuple, fmt: str) -> Query:
    expected = ref.holds(system, state, phi)
    argv = ["mc", path, state, gen.formula_text(phi)] + (["--format", "json"] if fmt == "json" else [])

    def verify(rc: int, out: str) -> Optional[str]:
        if rc != (0 if expected else 1):
            return f"exit {rc}, expected {0 if expected else 1}"
        got = json.loads(out)["holds"] if fmt == "json" else out.strip() == "true"
        return None if got == expected else "printed verdict differs"

    return Query(argv, "mc", verify)


def charform_query(term: tuple, extra: list, fmt: str) -> Query:
    ambient = sorted(ref.term_labels(term) | set(extra))
    mts = ref.expand_term(term, ambient, must_prefixes=True)
    encoded = ref.expand_term(ref.encode_term(term), [f"ct({a})" for a in ambient], must_prefixes=False)
    encoded = replace(encoded, cov=frozenset(f"cv({a})" for a in ambient),
                      con=frozenset(f"ct({a})" for a in ambient))
    argv = ["charform", "--cc", gen.term_text(term)]
    if extra:
        argv += ["--actions", ",".join(extra)]
    if fmt == "json":
        argv += ["--format", "json"]

    def verify(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        if fmt == "json":
            fields = json.loads(out)
        else:
            fields = dict(line.split(": ", 1) for line in out.splitlines())
            fields = {k.replace(" ", "_"): v for k, v in fields.items()}
        if fields["actions"].split() != ambient:
            return "ambient alphabet differs"
        try:
            for key in ("formula", "simplified"):
                if not ref.holds(mts, mts.init, ref.parse_formula(fields[key])):
                    return f"{key} fails at the term's own expansion"
            if not ref.holds(encoded, encoded.init, ref.parse_formula(fields["encoded_formula"])):
                return "encoded formula fails at the encoded term's expansion"
        except ValueError as exc:
            return f"unreadable formula: {exc}"
        return None

    return Query(argv, "charform", verify)


def _fmt(i: int) -> str:
    return "json" if i % 4 == 3 else "text"


# ---------------------------------------------------------------- chains

CHAIN_SIZES = (4, 6, 8, 10, 12, 14, 16, 18, 20, 24)
LADDER_LEVELS = (4, 6, 8, 10, 12, 14, 16)


def build_chains(rng: random.Random, files: Files) -> Workload:
    """chain(n+1) against chain(n) both ways for every kind, and chain
    against a width-2 ladder for the two kinds with witnesses."""
    label = rng.choice(gen.LABEL_POOL)
    queries = []
    for i, n in enumerate(CHAIN_SIZES):
        for kind in KINDS:
            skind = "mts" if kind == "refine" else "lts"
            cls = "bi" if kind == "ccsim" and i % 2 else "cov"
            long_ = gen.chain(rng, skind, n + 1, label, cls)
            short = gen.chain(rng, skind, n, label, cls)
            bset = frozenset({label}) if kind == "pbsim" else frozenset()
            for left, right in ((long_, short), (short, long_)):
                queries.append(check_query(files, kind, left, right, bset, _fmt(len(queries))))
    for n in LADDER_LEVELS:
        for kind in ("ccsim", "refine"):
            skind = "mts" if kind == "refine" else "lts"
            line = gen.chain(rng, skind, n + 1, label)
            lad = gen.ladder(rng, skind, n, label)
            for left, right in ((line, lad), (lad, line)):
                queries.append(check_query(files, kind, left, right, fmt=_fmt(len(queries))))
    rng.shuffle(queries)
    return Workload(queries)


# ---------------------------------------------------------------- sparse

SPARSE_SIZES = (40, 40, 40, 40, 40, 40, 60, 60, 80, 120)
# Label count and out-degree of the i-th pair of every kind.  They cycle
# rather than being drawn, so that every seed runs the same mix of shapes
# and only the systems themselves change with it.
SPARSE_LABELS = (3, 3, 4, 4)
SPARSE_DEGREES = (2, 3, 4)


def build_sparse(rng: random.Random, files: Files) -> Workload:
    """Random sparse pairs for every kind, planted-related and independent
    in turn, plus ``translate c|m`` on the systems involved."""
    queries, translations = [], []
    for kind in KINDS:
        for i, n in enumerate(SPARSE_SIZES):
            labels = gen.pick_labels(rng, SPARSE_LABELS[i % len(SPARSE_LABELS)])
            degree = SPARSE_DEGREES[i % len(SPARSE_DEGREES)]
            planted = i % 2 == 0
            if kind == "refine":
                right = gen.sparse_mts(rng, n, labels, degree)
                left = gen.planted_mts(rng, right) if planted else gen.sparse_mts(rng, n, labels, degree)
                bset = frozenset()
                translations += [left, right]
            else:
                sig = gen.sparse_signature(rng, labels)
                bset = frozenset({rng.choice(labels)}) if kind == "pbsim" else frozenset()
                right = gen.sparse_lts(rng, n, labels, degree, sig)
                left = (gen.planted_lts(rng, right, kind, bset) if planted
                        else gen.sparse_lts(rng, n, labels, degree, sig))
                translations += [left, right]
            fmt = "json" if i in (1, 2, 6) else "text"
            queries.append(check_query(files, kind, left, right, bset, fmt))
    queries += [translate_query(files, s, _fmt(i)) for i, s in enumerate(translations)]
    rng.shuffle(queries)
    return Workload(queries)


# ---------------------------------------------------------------- logic

MC_NODES = (10, 25, 50, 100, 200, 400)
TERM_SIZES = (6, 10, 15, 20, 25, 30, 35, 40)
MUST_CHAIN_DEPTHS = tuple(range(1, 13))
# A multiple of 12, so that every pairing of formula size and system comes
# up equally often.  Most mc calls take about the same time, set by parsing
# and start-up; with this many of them the median of a pass lies inside that
# cluster, not on its edge, where the random charform terms would move it.
MC_QUERIES = 144
TERMS_PER_SIZE = 5


def deep_inputs(system_path: str, state: str, label: str) -> list:
    """Valid inputs nested 500 or more deep.  Each stays cheap to answer
    once nesting is handled, so the list can stay as the program changes."""
    formulas = [
        f"<{label}>" * 500 + "tt",
        f"<{label}>" * 1000 + "tt",
        f"[{label}]" * 500 + "tt",
        "(" * 500 + "tt" + ")" * 500,
        f"<{label}>(tt & " * 500 + "tt" + ")" * 500,
    ]
    terms = ["(" * 500 + "0" + ")" * 500, "(" * 1000 + "0" + ")" * 1000]
    return ([["mc", system_path, state, f] for f in formulas]
            + [["charform", "--cc", t] for t in terms])


def build_logic(rng: random.Random, files: Files) -> Workload:
    """``mc`` with formulae of set node count and nesting depth on small
    systems, and ``charform --cc`` on sized terms and a must-prefix chain
    sweep."""
    systems = []
    for i, n in enumerate((5, 10, 20, 30) * 3):
        labels = gen.pick_labels(rng, 3)
        if i % 2:
            s = gen.sparse_mts(rng, n, labels, 2)
            dia = box = labels
        else:
            sig = gen.sparse_signature(rng, labels)
            s = gen.sparse_lts(rng, n, labels, 2, sig)
            dia, box = sorted(sig["cov"] | sig["bi"]), sorted(sig["con"] | sig["bi"])
        systems.append((s, files.write(s), dia, box))
    queries = []
    for i in range(MC_QUERIES):
        s, path, dia, box = systems[i % len(systems)]
        nodes = MC_NODES[i % len(MC_NODES)]
        low = max(3, math.ceil(math.log2(nodes + 1)))
        depth = rng.randint(low, min(nodes, 120))
        phi = gen.random_formula(rng, nodes, depth, dia, box)
        queries.append(mc_query(files, s, path, rng.choice(s.states), phi, _fmt(i)))
    for i, size in enumerate(TERM_SIZES * TERMS_PER_SIZE):
        labels = gen.pick_labels(rng, rng.choice((2, 3)))
        term = gen.random_term(rng, size, labels, musts=2)
        extra = [rng.choice(gen.LABEL_POOL)] if i % 3 == 0 else []
        queries.append(charform_query(term, extra, _fmt(i)))
    labels = gen.pick_labels(rng, 2)
    for depth in MUST_CHAIN_DEPTHS:
        queries.append(charform_query(gen.must_chain(rng, labels, depth), [], "text"))
    rng.shuffle(queries)
    s, path, dia, _box = systems[1]
    deep = deep_inputs(path, s.init, dia[0])
    return Workload(queries, deep)


# ---------------------------------------------------------------- selfcheck

# The selfcheck seeds are fixed: each seed gives the suite different work
# (0.50 to 0.77 s for all properties), which would swamp the timing spread.
# The benchmark seed decides the order of the calls.
SELFCHECK_SEEDS = ("42", "1", "2", "3")


def build_selfcheck(rng: random.Random, files: Files, property_ids: list) -> Workload:
    """Every selfcheck property, one CLI call each, for each selfcheck seed
    of a fixed list."""
    queries = []
    for seed in SELFCHECK_SEEDS:
        for pid in property_ids:
            want = "expected-fail" if pid in EXPECTED_FAIL else "pass"

            def verify(rc: int, out: str, want=want, pid=pid) -> Optional[str]:
                if rc != 0:
                    return f"exit {rc}"
                (report,) = json.loads(out)["properties"]
                if report["id"] != pid or report["status"] != want:
                    return f"{report['id']}: {report['status']}, expected {want}"
                return None

            argv = ["selfcheck", "--format", "json", "--seed", seed, "--property", pid]
            queries.append(Query(argv, "selfcheck", verify))
    rng.shuffle(queries)
    return Workload(queries)
