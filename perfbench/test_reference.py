"""Checks of the benchmark's own reference code against the package.

Run from the repository root with ``python -m pytest perfbench``.  They are
outside the tier-1 suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import ref  # noqa: E402
import workloads  # noqa: E402
from modalsim.formulas import formula_text, mc_cc, mc_mts  # noqa: E402
from modalsim.preorders import (  # noqa: E402
    ORACLE_PRODUCT_CAP,
    CCSim,
    PartialBisim,
    Refinement,
    Simulation,
    distinguishing_formula,
    oracle_greatest,
)
from modalsim.systems import action  # noqa: E402
from modalsim.textio import parse_formula, parse_system, print_system  # noqa: E402
from modalsim.translate import lts_of_mts, mts_of_lts  # noqa: E402


def _small_pair(rng: random.Random, kind: str):
    """A random pair whose state product has at most the oracle's cap."""
    n_left = rng.randint(1, 4)
    n_right = rng.randint(1, ORACLE_PRODUCT_CAP // n_left)
    if kind == "refine":
        labels = gen.pick_labels(rng, rng.randint(1, 2))
        degree = lambda n: rng.randint(0, min(3, n * len(labels)))
        return (gen.sparse_mts(rng, n_left, labels, degree(n_left)),
                gen.sparse_mts(rng, n_right, labels, degree(n_right)), frozenset())
    labels = gen.pick_labels(rng, 3)
    sig = gen.sparse_signature(rng, labels)
    degree = lambda n: rng.randint(0, min(3, n * 3))
    bset = frozenset(rng.sample(labels, rng.randint(0, 2)))
    return (gen.sparse_lts(rng, n_left, labels, degree(n_left), sig),
            gen.sparse_lts(rng, n_right, labels, degree(n_right), sig), bset)


def _package(s: gen.Sys):
    return parse_system(gen.system_text(s))


def _kind(kind: str, bset: frozenset):
    return {"refine": Refinement(), "ccsim": CCSim(), "sim": Simulation(),
            "pbsim": PartialBisim(frozenset(action(a) for a in bset))}[kind]


def test_decider_matches_oracle_on_small_products():
    rng = random.Random(20240)
    for kind in workloads.KINDS:
        for _ in range(150):
            left, right, bset = _small_pair(rng, kind)
            expected = oracle_greatest(_kind(kind, bset), _package(left), _package(right)).pairs
            assert ref.greatest(kind, left, right, bset) == expected


def test_package_witnesses_distinguish_under_reference_semantics():
    rng = random.Random(7)
    seen = 0
    for kind in ("refine", "ccsim"):
        for _ in range(150):
            left, right, _ = _small_pair(rng, kind)
            if (left.init, right.init) in ref.greatest(kind, left, right):
                continue
            p, q = _package(left), _package(right)
            witness = distinguishing_formula(_kind(kind, frozenset()), p, p.init, q, q.init)
            phi = ref.parse_formula(formula_text(witness))
            assert ref.holds(left, left.init, phi)
            assert not ref.holds(right, right.init, phi)
            seen += 1
    assert seen > 50


def test_model_checker_matches_package_and_formula_text_reads_back():
    rng = random.Random(11)
    for i in range(200):
        labels = gen.pick_labels(rng, 3)
        if i % 2:
            s = gen.sparse_mts(rng, rng.randint(2, 8), labels, 2)
            dia = box = labels
        else:
            sig = gen.sparse_signature(rng, labels)
            s = gen.sparse_lts(rng, rng.randint(2, 8), labels, 2, sig)
            dia, box = sorted(sig["cov"] | sig["bi"]), sorted(sig["con"] | sig["bi"])
        nodes = rng.randint(1, 60)
        phi = gen.random_formula(rng, nodes, rng.randint(max(1, nodes.bit_length()), nodes), dia, box)
        assert gen.formula_nodes(phi) == nodes
        text = gen.formula_text(phi)
        theirs = parse_formula(text)
        system = _package(s)
        check = mc_mts if s.kind == "mts" else mc_cc
        for state in s.states:
            expected = check(system, state, theirs)
            assert ref.holds(s, state, phi) == expected
            assert ref.holds(s, state, ref.parse_formula(formula_text(theirs))) == expected


def test_charform_outputs_pass_and_wrong_outputs_fail_the_check():
    from modalsim import cli
    import run

    rng = random.Random(3)
    for size in (1, 3, 6, 10, 15):
        for _ in range(6):
            term = gen.random_term(rng, size, gen.pick_labels(rng, 2), musts=2)
            query = workloads.charform_query(term, [], rng.choice(("text", "json")))
            rc, out, _ = run.call(cli.main, query.argv)
            assert query.verify(rc, out) is None, (query.argv, out)
    term = ("must", "a", ("0",))
    query = workloads.charform_query(term, [], "text")
    rc, out, _ = run.call(cli.main, query.argv)
    assert query.verify(rc, out.replace("formula: <a>", "formula: [a]ff & <a>", 1)) is not None


def test_check_verification_rejects_wrong_verdicts_and_witnesses(tmp_path):
    from modalsim import cli
    import run

    rng = random.Random(5)
    files = workloads.Files(tmp_path)
    line, ladder = gen.chain(rng, "lts", 4, "a"), gen.ladder(rng, "lts", 3, "a")
    query = workloads.check_query(files, "ccsim", line, ladder)
    rc, out, _ = run.call(cli.main, query.argv)
    assert query.verify(rc, out) is None
    assert query.verify(0, "related\n") is not None
    assert query.verify(1, "not related\ndistinguishing formula: tt\n") is not None


def test_reference_translations_match_the_package():
    rng = random.Random(9)
    for _ in range(40):
        labels = gen.pick_labels(rng, 3)
        m = gen.sparse_mts(rng, rng.randint(1, 12), labels, 2)
        got = ref.parse_system(print_system(lts_of_mts(_package(m))))
        assert ref.same_system(got, ref.encode_mts(m))
        sig = gen.sparse_signature(rng, labels)
        p = gen.sparse_lts(rng, rng.randint(1, 12), labels, 2, sig)
        got = ref.parse_system(print_system(mts_of_lts(_package(p))))
        assert ref.same_system(got, ref.embed_lts(p))


def test_workloads_are_determined_by_the_seed(tmp_path):
    """Same seed, same inputs, also under another string-hash seed."""
    code = f"""
import hashlib, random, sys
from pathlib import Path
sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / "src")!r}]
import workloads
digest = hashlib.sha256()
for name in ("chains", "sparse", "logic"):
    root = Path(sys.argv[1]) / name
    root.mkdir()
    work = getattr(workloads, "build_" + name)(random.Random(name + ":4"), workloads.Files(root))
    for query in work.queries + [workloads.Query(argv, "deep", None) for argv in work.deep]:
        for arg in query.argv:
            text = Path(arg).read_text() if arg.startswith(str(root)) else arg
            digest.update(text.encode() + b"\\0")
print(digest.hexdigest())
"""
    digests = set()
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        digests.add(done.stdout.strip())
    assert len(digests) == 1
