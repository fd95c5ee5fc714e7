"""Benchmark of modalsim's command line, run from the root of a checkout.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the queries of a workload go through
``modalsim.cli.main(argv)`` in this process, one after another.  Input
files are written and every expected answer is computed by the reference
code in this directory before timing starts.  A first pass checks each
answer; the timed passes must then repeat its output byte for byte.  Times
are reported scaled by a host-speed gauge (see :class:`Gauge`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half with the span recorder of
:mod:`spans` installed, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it records the
interpreter, core count and git revision.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import ref  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

SETUP_SPAWNS = 15
# Gauge bursts on each side of a measured call whose median is its gauge
# reading: one burst is a few milliseconds and jitters on its own, while the
# host's fast and slow stretches last seconds.
GAUGE_SIDE = 5
MODULES = ("cli", "textio", "systems", "preorders", "formulas", "terms",
           "charform", "translate", "sampling", "selfcheck")
GREATEST = ("preorders.greatest_refinement", "preorders.greatest_ccsim",
            "preorders.greatest_pbsim", "preorders.greatest_simulation")


def call(main, argv):
    """One CLI call: (exit code or exception, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is an answer to record, not to stop on
            rc = exc
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


class Gauge:
    """Host-speed gauge: a fixed burst of the benchmark's own generators and
    reference code, timed next to every measured call.  One burst builds a
    planted pair of 12-state systems, decides refinement on it, sends both
    systems through a text round trip, model-checks a 60-node formula and
    expands a 12-symbol term: the same mix of object building, dictionary,
    set and string work as the package's commands.

    The shared host's speed drifts by tens of percent within seconds, and
    whole runs land in slow or fast stretches.  The ratio of a call's time
    to the median of the bursts around it barely moves with that drift,
    because the burst is the same kind of Python and runs in the same few
    milliseconds.  A figure is that ratio times ``BURST_S``, a fixed nominal
    burst time: seconds at one fixed host speed.
    Nothing in ``src/`` runs inside a burst, so a change to the program
    moves the ratio and never the gauge."""

    BURST_S = 0.0017  # the burst's time in fast stretches of the 2-core host the benchmark was written on
    LABELS = ["a", "b", "c"]

    def __init__(self) -> None:
        self.formula = gen.random_formula(random.Random(1), 60, 10, self.LABELS, self.LABELS)
        self.term = gen.random_term(random.Random(2), 12, self.LABELS[:2], 2)
        self.times: list = []

    def burst(self) -> float:
        """Seconds for one burst, with the collector off, so that the
        program's heap does not leak into the gauge."""
        gc.disable()
        try:
            start = time.perf_counter()
            rng = random.Random(0)
            right = gen.sparse_mts(rng, 12, self.LABELS, 3)
            left = gen.planted_mts(rng, right)
            ref.greatest("refine", left, right)
            for s in (left, right):
                ref.parse_system(gen.system_text(s))
            ref.holds(right, right.init, self.formula)
            ref.expand_term(self.term, self.LABELS[:2], must_prefixes=True)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        self.times.append(elapsed)
        return elapsed

    def scaled(self, ratios: list) -> float:
        """Seconds at the nominal speed, from one call's time-to-burst
        ratios over the passes: their median times ``BURST_S``."""
        return statistics.median(ratios) * self.BURST_S


def failed(rc) -> bool:
    return isinstance(rc, BaseException) or rc not in (0, 1)


def describe(rc) -> str:
    if not isinstance(rc, BaseException):
        return f"exit {rc}"
    frames = [f for f in traceback.extract_tb(rc.__traceback__) if "modalsim" in f.filename]
    where = f" in modalsim.{Path(frames[-1].filename).stem}" if frames else ""
    return f"{type(rc).__name__}{where}"


class Setup:
    """Start-up samples: the wall time of a fresh interpreter importing
    ``modalsim.cli``, each over the gauge bursts around it.  They are taken
    a few at a time between timed passes, so that their median spans the
    whole run rather than one stretch of it."""

    CODE = "import sys; sys.path.insert(0, 'src'); import modalsim.cli"

    def __init__(self, root: Path, gauge: Gauge):
        self.root = root
        self.gauge = gauge
        self.ratios: list = []
        self.times: list = []
        self._spawn()  # may still be writing bytecode caches; not counted

    def _spawn(self) -> float:
        # No timeout: with one, subprocess waits by polling with sleeps of up
        # to 50 ms, which rounds every measured time to that step.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE], cwd=self.root, check=True)
        return time.perf_counter() - start

    def sample(self, count: int) -> None:
        for _ in range(min(count, SETUP_SPAWNS - len(self.times))):
            before = [self.gauge.burst() for _ in range(GAUGE_SIDE)]
            spawn = self._spawn()
            after = [self.gauge.burst() for _ in range(GAUGE_SIDE)]
            self.times.append(spawn)
            self.ratios.append(spawn / statistics.median(before + after))

    def scaled(self) -> float:
        self.sample(SETUP_SPAWNS)
        return self.gauge.scaled(self.ratios)


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref_name = text[5:]
    loose = root / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return "unknown"


def per_query(gauge: Gauge, passes: list) -> list:
    """Each query's scaled time (see :class:`Gauge`), in query order."""
    return [gauge.scaled(rs) for rs in zip(*(p[4] for p in passes))]


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, main, work: workloads.Workload, gauge: Gauge):
        self.main = main
        self.gauge = gauge
        self.queries = work.queries
        self.deep = work.deep
        self.first: list = []  # (exit code, stdout) of the checking pass
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def check_pass(self) -> None:
        for i, query in enumerate(self.queries):
            rc, out, _ = call(self.main, query.argv)
            self.first.append((rc if not isinstance(rc, BaseException) else describe(rc), out))
            if failed(rc):
                self.problems.append(f"query {i} ({query.cmd}): {describe(rc)}")
                continue
            try:
                problem = query.verify(rc, out)
            except Exception as exc:  # output the check cannot even read
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
            if problem:
                self.problems.append(f"query {i} ({' '.join(query.argv[:2])}): {problem}")

    def timed_pass(self, main, recorder=None, tallies=None) -> tuple:
        """Runs every query once, each followed by a gauge burst; returns
        (wall seconds, per-query seconds, stdout bytes, per-query ratios of
        the query's time to the median of the ``2 * GAUGE_SIDE`` bursts
        around it)."""
        gc.collect()
        times, out_bytes = [], 0
        start = time.perf_counter()
        bursts = [self.gauge.burst() for _ in range(GAUGE_SIDE)]
        for i, query in enumerate(self.queries):
            if recorder is not None:
                recorder.query = i
                before = (recorder.counts["preorders._fixpoint"], recorder.count("check_wf"))
            rc, out, elapsed = call(main, query.argv)
            if recorder is not None:
                tallies.append((query, recorder.counts["preorders._fixpoint"] - before[0],
                                recorder.count("check_wf") - before[1]))
            bursts.append(self.gauge.burst())
            times.append(elapsed)
            out_bytes += len(out.encode("utf-8"))
            self.attempted += 1
            if failed(rc):
                self.failed += 1
            expected = self.first[i]
            got = (rc if not isinstance(rc, BaseException) else describe(rc), out)
            if got != expected:
                self.problems.append(f"query {i}: output differs from the checking pass")
        bursts += [self.gauge.burst() for _ in range(GAUGE_SIDE - 1)]
        wall = time.perf_counter() - start
        # Query i ran between bursts[i + GAUGE_SIDE - 1] and bursts[i + GAUGE_SIDE].
        ratios = [t / statistics.median(bursts[i:i + 2 * GAUGE_SIDE]) for i, t in enumerate(times)]
        return wall, times, out_bytes, ratios

    def passes(self, seconds: float, main, recorder=None, between=None) -> list:
        """Passes until they add up to ``seconds``, give or take half a
        pass; ``between`` runs before each pass, outside that count."""
        results: list = []
        while not results or (sum(r[0] for r in results)
                              + statistics.mean(r[0] for r in results) / 2 < seconds):
            if between is not None:
                between()
            tallies: list = []
            if recorder is not None:
                recorder.counts.clear()
                recorder.printed.clear()
                first_span = len(recorder.spans)
            wall, times, out_bytes, ratios = self.timed_pass(main, recorder, tallies)
            layer = None
            if recorder is not None:
                layer = layer_metrics(recorder, recorder.spans[first_span:], first_span, tallies)
                if results:  # only the first traced pass's spans are kept for writing out
                    del recorder.spans[first_span:]
            results.append((wall, times, out_bytes, layer, ratios))
        return results

    def deep_outcomes(self) -> list:
        """Each deep input once, untimed: its outcome by cause."""
        outcomes = []
        for argv in self.deep:
            rc, out, elapsed = call(self.main, argv)
            shape = argv[-1][:24] + f"... ({len(argv[-1])} chars)"
            outcomes.append({"command": argv[0], "input": shape,
                             "outcome": describe(rc) if failed(rc) else f"answered, exit {rc}",
                             "seconds": round(elapsed, 4)})
        return outcomes


def _sum_spans(spans, names) -> tuple:
    picked = [s for s in spans if s[0] in names]
    return sum(s[2] - s[1] for s in picked), len(picked)


def _outermost(spans, offset: int, module: str) -> float:
    """Inclusive time of the module's spans not nested in another of its
    spans."""
    total = 0.0
    for span in spans:
        if span[0].split(".", 1)[0] != module:
            continue
        parent = span[3]
        nested = False
        while parent >= offset:
            ancestor = spans[parent - offset]
            if ancestor[0].split(".", 1)[0] == module:
                nested = True
                break
            parent = ancestor[3]
        if not nested:
            total += span[2] - span[1]
    return total


def _dag_nodes(phi) -> int:
    seen, stack = set(), [phi]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, f) for f in ("left", "right", "body") if hasattr(node, f))
    return len(seen)


def layer_metrics(rec: Recorder, spans: list, offset: int, tallies: list) -> dict:
    """Per-layer figures of one traced pass; ``spans`` start at index
    ``offset`` of the recorder's list."""
    m: dict = {}
    m["preorders.greatest_s"], m["preorders.greatest_calls"] = _sum_spans(spans, GREATEST)
    m["preorders.distinguishing_s"], _ = _sum_spans(spans, ("preorders.distinguishing_formula",))
    m["preorders.oracle_s"], _ = _sum_spans(spans, ("preorders.oracle_greatest",))
    m["preorders.pair_evals"] = rec.counts["modalsim.preorders:sorted_actions"]
    m["preorders.removed_pairs"] = rec.counts["preorders.removed_pairs"]
    m["preorders.removal_yield"] = m["preorders.removed_pairs"] / max(1, m["preorders.pair_evals"])
    witnessed = [t for t in tallies if t[0].cmd == "check" and not t[0].related
                 and t[0].check[0] in ("refine", "ccsim")]
    m["preorders.fixpoints_per_query"] = (
        sum(t[1] for t in witnessed) / len(witnessed) if witnessed else 0.0)
    m["systems.successor_index_s"], m["systems.successor_index_calls"] = _sum_spans(
        spans, ("systems.successor_index",))
    m["systems.action_hashes"] = rec.counts["systems.action_hashes"]
    m["systems.sorted_actions_calls"] = rec.count("sorted_actions")
    parse_names = ("textio.parse_system", "textio.parse_system_details")
    m["textio.parse_system_s"], m["textio.parse_system_calls"] = _sum_spans(spans, parse_names)
    m["textio.input_bytes"] = sum(rec.counts[f"{n}:bytes"] for n in parse_names)
    m["textio.parse_formula_s"], _ = _sum_spans(spans, ("textio.parse_formula",))
    m["textio.parse_term_s"], _ = _sum_spans(spans, ("textio.parse_term",))
    m["textio.print_system_s"], _ = _sum_spans(spans, ("textio.print_system",))
    m["formulas.formula_text_s"], _ = _sum_spans(spans, ("formulas.formula_text",))
    nodes = sum(_dag_nodes(phi) for phi, _ in rec.printed)
    m["formulas.witness_dag_nodes"] = nodes
    m["formulas.print_expansion"] = sum(n for _, n in rec.printed) / max(1, nodes)
    m["formulas.mc_s"], _ = _sum_spans(spans, ("formulas.mc_mts", "formulas.mc_cc"))
    mc = [t for t in tallies if t[0].cmd == "mc"]
    m["formulas.check_wf_calls"] = sum(t[2] for t in mc) / len(mc) if mc else 0.0
    m["terms.canonical_term_s"], _ = _sum_spans(spans, ("terms.canonical_term",))
    m["terms.expand_s"], _ = _sum_spans(spans, ("terms.expand_mts_term", "terms.expand_lts_term"))
    m["terms.term_text_calls"] = rec.count("term_text")
    m["charform.characteristic_formula_s"], _ = _sum_spans(
        spans, ("charform.characteristic_formula", "charform.characteristic_formula_cc"))
    m["charform.omega_checks"] = rec.count("is_omega_equivalent")
    m["translate.s"] = _outermost(spans, offset, "translate")
    m["sampling.s"] = _outermost(spans, offset, "sampling")
    m["selfcheck.property_s"], _ = _sum_spans(spans, ("selfcheck.run_selfcheck",))
    for module in MODULES:
        m[f"{module}.self_s"] = sum(s[5] for s in spans if s[0].split(".", 1)[0] == module)
    return m


def fixpoint_rounds(queries: list) -> float:
    """Mean removal rounds per check query, from the package's own
    ``fixpoint_rounds``, called untraced."""
    from modalsim import preorders
    from modalsim.systems import action
    from modalsim.textio import parse_system

    kinds = {"refine": lambda b: preorders.Refinement(), "ccsim": lambda b: preorders.CCSim(),
             "pbsim": lambda b: preorders.PartialBisim(frozenset(action(x) for x in b)),
             "sim": lambda b: preorders.Simulation()}
    rounds = []
    for query in queries:
        if query.check is None:
            continue
        kind, left, right, bset = query.check
        systems = [parse_system(Path(p).read_text(encoding="utf-8")) for p in (left, right)]
        rounds.append(len(preorders.fixpoint_rounds(kinds[kind](bset), *systems)) - 1)
    return sum(rounds) / len(rounds) if rounds else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("chains", "sparse", "logic", "selfcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "modalsim" / "cli.py").is_file():
        print("error: run from the root of a modalsim checkout (src/modalsim/cli.py is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    from modalsim import cli

    if Path(cli.__file__).resolve().parent != (src / "modalsim").resolve():
        print(f"error: imported modalsim from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=out_dir))
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        files = workloads.Files(inputs)
        if args.workload == "selfcheck":
            rc, listing, _ = call(cli.main, ["selfcheck", "--list"])
            work = workloads.build_selfcheck(rng, files, listing.split())
        else:
            build = {"chains": workloads.build_chains, "sparse": workloads.build_sparse,
                       "logic": workloads.build_logic}[args.workload]
            work = build(rng, files)
        gauge = Gauge()
        runner = Runner(cli.main, work, gauge)
        setup = None if args.trace else Setup(root, gauge)
        runner.check_pass()
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        plain = runner.passes(untraced_budget, cli.main,
                              between=setup and (lambda: setup.sample(2)))
        traced, rounds = [], None
        if args.trace:
            rounds = fixpoint_rounds(runner.queries)
            recorder = Recorder()
            recorder.install()
            try:
                entry = recorder.span(cli.main, "cli.main")
                traced = runner.passes(args.seconds / 2, entry, recorder)
            finally:
                recorder.uninstall()
            recorder.write(out_dir / f"spans-{args.workload}.tsv")
        deep = runner.deep_outcomes()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    times = per_query(gauge, plain)
    if args.trace:
        values = {k: statistics.median(p[3][k] for p in traced) for k in traced[0][3]}
        values["preorders.rounds"] = rounds
        values["trace.overhead_frac"] = sum(per_query(gauge, traced)) / sum(times) - 1
    else:
        values = {
            "setup_s": setup.scaled(),
            "wall_s": sum(times),
            "verdict_ms.p50": statistics.median(times) * 1000,
            "verdict_ms.p90": percentile(times, 90) * 1000,
            "peak_rss_mb": peak_rss_mb,
            "output_bytes": plain[0][2],
        }
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "git_revision": git_revision(root),
        "queries_per_pass": len(runner.queries), "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "unscaled": {"pass_s": statistics.median(sum(p[1]) for p in plain),
                     "burst_s": statistics.median(gauge.times),
                     "setup_s": statistics.median(setup.times) if setup else None},
        "deep_inputs": deep,
        "problems": runner.problems[:20],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
