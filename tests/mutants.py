"""Mutation gate: small faults planted in ``src/modalsim`` that the tests
must catch.

Each mutant is one exact text edit in one file, with the pytest selection
that must fail once the edit is made.  A mutant is applied to a temporary
copy of ``src/``, ``tests/`` and ``pyproject.toml``, never to the checkout;
the copy's ``pyproject.toml`` puts the copy's ``src`` first on the path.
The selections are first run on an unmutated copy, where they must pass.

Run from anywhere, with pytest installed::

    python tests/mutants.py

One JSON line is printed per mutant, with its status (``killed``,
``survived`` or ``timeout``, which counts as killed) and seconds.  Exit
status 1 means a mutant survived, 2 that a mutant's old text does not occur
exactly once or that a selection fails without any mutant.  Not part of the
tier-1 suite: pytest collects only ``test_*.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/modalsim
    old: str
    new: str
    selection: tuple[str, ...]


MUTANTS = [
    Mutant(
        "solve-skips-round-1-seeding", "preorders.py",
        "                rank[pair] = 1\n                frontier.append(pair)\n",
        "                rank[pair] = 1\n",
        ("tests/test_single_pair.py", "-k", "root_of_rank_one or chain10"),
    ),
    Mutant(
        "solve-decrements-by-two", "preorders.py",
        "counts[i] -= 1", "counts[i] -= 2",
        ("tests/test_single_pair.py", "-k", "chain10 or small1-"),
    ),
    Mutant(
        "solve-ranks-one-round-late", "preorders.py",
        "rank[owners[i]] = k\n", "rank[owners[i]] = k + 1\n",
        ("tests/test_single_pair.py", "-k", "root_rank"),
    ),
    Mutant(
        "violation-cites-its-own-round", "preorders.py",
        "if all(0 < rank[c] < k for c in cited):\n                    return a, 1, cited",
        "if all(0 < rank[c] <= k for c in cited):\n                    return a, 1, cited",
        ("tests/test_single_pair.py", "-k", "sparse"),
    ),
    Mutant(
        "holds-keeps-round-1-candidates", "preorders.py",
        "        p, q = divmod(pair, m)\n        if standing:\n",
        "        p, q = divmod(pair, m)\n        standing = False\n        if standing:\n",
        ("tests/test_single_pair.py", "-k", "explores_few_pairs"),
    ),
    Mutant(
        "mc-mts-swaps-may-and-must", "formulas.py",
        "return _state_test(BLLogic(m.actions), m.states, m.may, m.must, phi)",
        "return _state_test(BLLogic(m.actions), m.states, m.must, m.may, phi)",
        ("tests/test_formulas.py",),
    ),
    Mutant(
        "check-wf-revisits-shared-nodes", "formulas.py",
        "if kind is Top or kind is Bottom or node in seen:",
        "if kind is Top or kind is Bottom:",
        ("tests/test_formulas.py", "-k", "bounded_by_its_dag"),
    ),
    Mutant(
        "encoding-marks-must-copies-contravariant", "translate.py",
        "must_label = {a: cv(a) for a in labels}",
        "must_label = {a: ct(a) for a in labels}",
        ("tests/test_translate.py",),
    ),
    Mutant(
        "fixpoint-round-1-ignores-unanswered-right-steps", "preorders.py",
        "            if a not in answered:\n                rows[p] &= ~bits\n",
        "            if a not in answered:\n                pass\n",
        ("tests/test_fixpoint_reference.py", "-k", "engine_reproduces"),
    ),
    Mutant(
        "fixpoint-lost-side-keeps-the-unmet", "preorders.py",
        "hit = rest & ~_meeting(rest, found, row2)", "hit = rest & _meeting(rest, found, row2)",
        ("tests/test_fixpoint_reference.py", "-k", "engine_reproduces"),
    ),
    Mutant(
        "fixpoint-fresh-is-what-stayed", "preorders.py",
        "fresh, row = lost & ~union, rows[p]", "fresh, row = lost & union, rows[p]",
        ("tests/test_fixpoint_reference.py", "-k", "engine_reproduces"),
    ),
    Mutant(
        "fixpoint-kept-side-removes-the-image", "preorders.py",
        "hit = rows[p] & ~alive", "hit = rows[p] & alive",
        ("tests/test_fixpoint_reference.py", "-k", "engine_reproduces"),
    ),
    Mutant(
        "embedding-drops-covariant-sink-edges", "translate.py",
        "    for a in sig.covariant:\n        for s in states:\n            may.add((s, a, sink))\n",
        "",
        ("tests/test_translate.py",),
    ),
    Mutant(
        "modal-reading-musts-the-complement", "translate.py",
        "if a in bset}", "if a not in bset}",
        ("tests/test_translate.py",),
    ),
    Mutant(
        "decoding-skips-the-twin-check", "translate.py",
        "for triple in sorted(must - may, key=_triple_key):",
        "for triple in sorted(set(), key=_triple_key):",
        ("tests/test_translate.py",),
    ),
    Mutant(
        "partial-bisimulation-filters-left-moves-by-alphabet", "preorders.py",
        "        p_steps = p_sys.transitions\n",
        "        p_steps = [t for t in p_sys.transitions if t[1] in p_sys.signature.actions]\n",
        ("tests/test_preorders.py", "-k", "outside_the_alphabet"),
    ),
    Mutant(
        "game-always-shares-the-left-index", "preorders.py",
        "self.p_answers if p_steps is p_answers else _index(p_steps, self.left_id, label_id)",
        "self.p_answers",
        ("tests/test_single_pair.py", "-k", "small"),
    ),
    Mutant(
        "lean-reads-must-prefixes-as-may", "charform.py",
        "targets(a, MustPrefix)", "targets(a, ())",
        ("tests/test_charform_reference.py",),
    ),
    Mutant(
        "lean-takes-targets-in-summand-order", "charform.py",
        "return sorted(nxt, key=cmp_to_key(_text_order))",
        "return list(dict.fromkeys(s.rest for s in parts if s.rest in nxt))",
        ("tests/test_charform_reference.py",),
    ),
    Mutant(
        "chi-literal-clause-reads-the-rest-s-chi", "charform.py",
        "rests[s.rest].gamma[a] if literal_prefix_clause else rests[s.rest].chi",
        "rests[s.rest].chi",
        ("tests/test_charform_reference.py", "-k", "chi_matches"),
    ),
    Mutant(
        "chi-diamonds-over-may-targets", "charform.py",
        "targets(a, MustPrefix)", "targets(a, (Prefix, MustPrefix))",
        ("tests/test_charform_reference.py", "-k", "chi_matches"),
    ),
    Mutant(
        "successor-index-left-unsorted", "systems.py",
        "            dsts.sort()\n", "",
        ("tests/test_systems.py", "-k", "successor_index"),
    ),
    Mutant(
        "printer-reads-bareness-off-the-joined-names", "textio.py",
        '        and joined.count(" ") == len(states) - 1\n', "",
        ("tests/test_textio.py", "-k", "per_name_path"),
    ),
    Mutant(
        "printer-checks-only-sources-are-states", "textio.py",
        "for _, rel in rels for k in (0, 2))", "for _, rel in rels for k in (0,))",
        ("tests/test_textio.py", "-k", "per_name_path"),
    ),
    Mutant(
        "reader-checks-only-sources-are-states", "textio.py",
        "        and states.issuperset(map(itemgetter(2), entries))\n", "",
        ("tests/test_textio.py", "-k", "undeclared_endpoint"),
    ),
    Mutant(
        "json-rows-skip-the-string-encoder", "cli.py",
        '[f"{quote(p)},\\n      {quote(q)}" for p, q in sorted(relation)]',
        '[f\'"{p}",\\n      "{q}"\' for p, q in sorted(relation)]',
        ("tests/test_cli.py", "-k", "byte_for_byte"),
    ),
    Mutant(
        "tokenizer-lets-a-vertical-tab-through", "textio.py",
        '" \\t\\r\\n"', '" \\t\\r\\n\\x0b"',
        ("tests/test_parser_reference.py", "-k", "recursive_reference"),
    ),
    Mutant(
        "parse-error-lands-after-its-token", "textio.py",
        "end -= len(tokens[index])", "pass",
        ("tests/test_parser_reference.py",),
    ),
    Mutant(
        "encoded-text-leaves-box-labels-open", "translate.py",
        '.replace("]", ")]")', '.replace("]", "]")',
        ("tests/test_translate.py", "tests/test_cli.py", "-k",
         "encoded_formula_text or decorated_label"),
    ),
    Mutant(
        "table-reader-skips-positional-choices", "cli.py",
        "values[action.dest] = _value(action, word)", "values[action.dest] = word",
        ("tests/test_cli.py", "-k", "table_reader"),
    ),
    Mutant(
        "table-reader-append-overwrites", "cli.py",
        "value = [*(values.get(action.dest) or ()), value]", "value = [value]",
        ("tests/test_cli.py", "-k", "table_reader"),
    ),
]


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _run(copy: Path, selection: tuple[str, ...]) -> tuple[str, float]:
    """``passed``, ``failed`` or ``timeout`` for ``selection`` in ``copy``,
    and the seconds it took."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("failed" if done.returncode else "passed"), time.perf_counter() - start


def main() -> int:
    sources = {}
    for mutant in MUTANTS:
        path = ROOT / "src" / "modalsim" / mutant.path
        text = sources.setdefault(path, path.read_text(encoding="utf-8"))
        found = text.count(mutant.old)
        if found != 1:
            print(f"error: mutant {mutant.name}: its old text occurs {found} times in {mutant.path}",
                  file=sys.stderr)
            return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            status, _ = _run(copy, selection)
            if status != "passed":
                print(f"error: {' '.join(selection)} is {status} without any mutant", file=sys.stderr)
                return 2
        for mutant in MUTANTS:
            target = copy / "src" / "modalsim" / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                status, seconds = _run(copy, mutant.selection)
            finally:
                target.write_text(original, encoding="utf-8")
            status = {"failed": "killed", "passed": "survived"}.get(status, status)
            survived += status == "survived"
            print(json.dumps({"mutant": mutant.name, "status": status, "seconds": round(seconds, 2)}),
                  flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
