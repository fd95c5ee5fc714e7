"""Deeply nested and long flat inputs are answered, not refused.

Every walk that builds a value per node of a formula, term or expansion
state runs through ``systems.fold``; the formula printer, ``check_wf``
and both parsers keep their own stack.  So no Python frame
is spent per nesting level, chains of ``&``, ``|`` and ``+`` print flat,
the formula printer's work and memory are linear in its output, and the
lean characteristic formula of a nested term takes memory linear in its
depth.  The characteristic formula of a shared term has a node count
linear in its depth, though its text is exponentially long.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import pytest

from modalsim.charform import characteristic_formula
from modalsim.cli import main
from modalsim.formulas import And, Box, Diamond, Or, Top, formula_text
from modalsim.systems import action, shared_nodes
from modalsim.terms import MustPrefix, Omega, Prefix, Sum, Zero, term_text
from modalsim.textio import parse_formula

SRC = Path(__file__).resolve().parent.parent / "src"
UNIVERSAL = "mts universal\nactions: a\nstates: u\ninit: u\nmay: u a u\n"
DEMANDING = "mts demanding\nactions: a\nstates: m\ninit: m\nmay: m a m\nmust: m a m\n"

# Runs CLI calls given as JSON after lowering the recursion limit far below
# the nesting depth, so a walk that recursed per level would fail.
LOW_LIMIT = """
import contextlib, io, json, sys
from modalsim.cli import main
sys.setrecursionlimit(150)
results = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _must_chain(n):
    lines = [f"mts chain{n}", "actions: a", "states: " + " ".join(f"s{i}" for i in range(n + 1))]
    lines.append("init: s0")
    for i in range(n):
        lines += [f"may: s{i} a s{i + 1}", f"must: s{i} a s{i + 1}"]
    return "\n".join(lines) + "\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_depth_400_needs_no_frame_per_level(tmp_path):
    n = 400
    u = _write(tmp_path, "u.mts", UNIVERSAL)
    longer = _write(tmp_path, "c401.mts", _must_chain(n + 1))
    shorter = _write(tmp_path, "c400.mts", _must_chain(n))
    calls = [
        ["mc", u, "u", "<a>" * n + "tt"],
        ["mc", u, "u", "(" * n + "tt" + ")" * n],
        ["mc", u, "u", "<a>(tt & " * n + "tt" + ")" * n],
        ["check", "refine", longer, shorter],
        ["charform", "--cc", "a." * n + "0"],
        ["charform", "--cc", "(" * n + "a!0" + ")" * n],
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", LOW_LIMIT], input=json.dumps(calls),
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert results[:3] == [[1, "false\n", ""], [0, "true\n", ""], [1, "false\n", ""]]
    assert results[3] == [1, "not related\ndistinguishing formula: " + "<a>" * (n + 1) + "tt\n", ""]
    boxes = "[a]" * (n + 1) + "ff"
    encoded = "[ct(a)]" * (n + 1) + "ff"
    assert results[4] == [0, (
        f"term: {'a.' * n}0\nactions: a\nformula: {boxes}\nsimplified: {boxes}\n"
        f"encoded term: {'ct(a).' * n}0\nencoded formula: {encoded}\n"
    ), ""]
    assert results[5] == [0, (
        "term: a!0\nactions: a\nformula: <a>[a]ff & [a][a]ff\nsimplified: <a>[a]ff & [a][a]ff\n"
        "encoded term: cv(a).0 + ct(a).0\nencoded formula: <cv(a)>[ct(a)]ff & [ct(a)][ct(a)]ff\n"
    ), ""]


N = 10**4
FORMULA_PARTS = [Diamond(action(f"a{i % 7}"), Top()) for i in range(N)]
TERM_PARTS = [Prefix(action(f"a{i % 7}"), Omega() if i % 2 else Zero()) for i in range(N)]


@pytest.mark.parametrize("connective, system, state, verdict", [
    (" & ", DEMANDING, "m", "true"),
    (" | ", UNIVERSAL, "u", "false"),
])
def test_flat_formula_chains_are_answered(tmp_path, capsys, connective, system, state, verdict):
    # From 1000 operands up the recursive walks gave exit 2.
    path = _write(tmp_path, "s.mts", system)
    code = 0 if verdict == "true" else 1
    out = _run(capsys, "mc", path, state, connective.join(["<a>tt"] * N))
    assert out == (code, verdict + "\n", "")


def test_flat_sum_gets_its_characteristic_formula(capsys):
    code, out, err = _run(capsys, "charform", "--cc", " + ".join(["a!0", "b.w"] * (N // 2)))
    assert (code, err) == (0, "")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["term"] == " + ".join(["a!0"] * (N // 2) + ["b.w"] * (N // 2))
    assert lines["simplified"] == "<a>([a]ff & [b]ff) & [a]([a]ff & [b]ff)"
    gamma_b = ["ff"] * (N // 2) + ["[a]tt & [b]tt"] * (N // 2)
    assert lines["formula"].endswith(f" & [b]({' | '.join(gamma_b)})")


@pytest.mark.parametrize("connective, separator, parts, printer", [
    (And, " & ", FORMULA_PARTS, formula_text),
    (Or, " | ", FORMULA_PARTS, formula_text),
    (Sum, " + ", TERM_PARTS, term_text),
], ids=["and", "or", "sum"])
def test_chains_print_flat_in_memory_linear_in_the_text(connective, separator, parts, printer):
    text, peak = _printed(printer, reduce(connective, parts))
    assert text == separator.join(printer(p) for p in parts)
    assert peak < 10 * len(text)


def test_nested_formula_prints_in_memory_linear_in_its_depth():
    # Only the texts of shared subformulae outlive the step that reads them,
    # so doubling the depth doubles the peak; holding every level's text
    # would quadruple it.
    peaks = []
    for n in (1000, 2000):
        text = "<a>(tt & " * n + "tt" + ")" * n
        printed, peak = _printed(formula_text, parse_formula(text))
        assert printed == text
        peaks.append(peak)
    assert peaks[1] < 3 * peaks[0]


def _nested_term(n):
    """``a.(`` n times, ``0``, then `` + w)`` n times."""
    a = action("a")
    t = Zero()
    for _ in range(n):
        t = Prefix(a, Sum(t, Omega()))
    return t


def test_nested_term_prints_in_memory_linear_in_its_depth():
    # A printer that kept the text of every subterm held 7.8 and 30.9 MB
    # here, four times over for twice the depth.
    peaks = []
    for n in (1000, 2000):
        printed, peak = _printed(term_text, _nested_term(n))
        assert printed == "a.(" * n + "0" + " + w)" * n
        peaks.append(peak)
    assert peaks[1] < 3 * peaks[0]


def test_nested_term_gets_its_lean_formula_in_memory_linear_in_its_depth():
    # An expansion that named each state by the text of its subterm held
    # 8.8 and 33.4 MB here.
    peaks = []
    for n in (1000, 2000):
        result, peak = _printed(lambda t: characteristic_formula(t, ["a"]), _nested_term(n))
        assert isinstance(result.simplified, Top)
        peaks.append(peak)
    assert peaks[1] < 3 * peaks[0]


def test_shared_term_gets_its_characteristic_formula_in_nodes_linear_in_its_depth():
    # t_(k+1) = a!t_k + b!t_k.  A builder that ordered each node's diamonds
    # by their printed text took 6.2 s at k=14 and was killed at k=16.
    k = 60
    a, b = action("a"), action("b")
    t = Zero()
    for _ in range(k):
        t = Sum(MustPrefix(a, t), MustPrefix(b, t))
    result = characteristic_formula(t, [a, b])
    assert len(shared_nodes(result.formula)[0]) <= 10 * k
    assert len(shared_nodes(result.simplified)[0]) <= 10 * k


def test_alternation_nested_100000_deep_prints_in_linear_time():
    # The text is 2*10**6 characters.  A printer that joined each level's
    # text into its parent's would copy about 10**11 characters here.
    n = 10**5
    a = action("a")
    phi = Top()
    for _ in range(n):
        phi = Diamond(a, And(Top(), Box(a, Or(phi, Top()))))
    assert formula_text(phi) == "<a>(tt & [a](" * n + "tt" + " | tt))" * n


def _printed(printer, root):
    tracemalloc.start()
    try:
        return printer(root), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_labels_nested_5000_deep_are_answered(tmp_path, capsys):
    # From about 1000 levels the recursive label reader and printer gave exit 2.
    n = 5000
    lab = "cv(" * n + "a" + ")" * n
    path = _write(tmp_path, "deep.mts", (
        f"mts deep\nactions: {lab}\nstates: s t\ninit: s\nmay: s {lab} t\nmust: s {lab} t\n"
    ))
    assert _run(capsys, "mc", path, "s", f"<{lab}>[{lab}]ff") == (0, "true\n", "")
    assert _run(capsys, "check", "refine", path, path) == (0, "related\n", "")
    code, out, err = _run(capsys, "charform", f"{lab}!0")
    assert (code, err) == (0, "")
    assert out.startswith(f"term: {lab}!0\nactions: {lab}\nformula: <{lab}>")
