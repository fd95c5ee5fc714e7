"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated scale and tolerance
and prints a single ``criterion N (...): PASS|FAIL`` line.  The heavy
lifting lives in the selfcheck property registry; this module drives those
properties at acceptance scale, adds the pinned counterexamples inline and
enforces the runtime budgets.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import modalsim
from modalsim.formulas import Bottom, Box, Top, mc_cc, mc_mts
from modalsim.preorders import CCSim, Refinement, greatest
from modalsim.selfcheck import SelfCheckConfig, run_property
from modalsim.systems import action, lts, mts, signature
from modalsim.translate import (
    approximate_formula,
    decorate_by_class,
    lts_of_mts,
    mts_of_lts,
    strip_decorations,
)

A = action("a")


def _report(number: int, description: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({description}): {verdict}")


def _run_all(pids, config):
    return [run_property(pid, config) for pid in pids]


def _all_pass(reports):
    return all(r.status == "pass" for r in reports)


def _explain(reports):
    return "; ".join(
        f"{r.property_id}: {r.status} {list(r.failures)[:1]}"
        for r in reports
        if r.status != "pass"
    )


def test_criterion_1_oracle_equivalence():
    config = SelfCheckConfig(cases=500)
    start = time.monotonic()
    reports = _run_all(
        [
            "preorders.fixpoint-matches-oracle.refinement",
            "preorders.fixpoint-matches-oracle.ccsim",
            "preorders.fixpoint-matches-oracle.pbsim",
            "preorders.fixpoint-matches-oracle.simulation",
        ],
        config,
    )
    elapsed = time.monotonic() - start
    ok = _all_pass(reports) and elapsed < 30.0
    _report(1, "greatest fixpoints equal the brute-force oracle, 500 cases per kind", ok)
    assert _all_pass(reports), _explain(reports)
    assert all(r.cases >= 500 for r in reports)
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_2_embedding_and_encoding_corollaries():
    config = SelfCheckConfig(cases=300, max_states=5, max_labels=2)
    reports = _run_all(
        [
            "translate.embedding-preserves-ccsim",
            "translate.encoding-preserves-refinement",
            "translate.encoding-roundtrip",
        ],
        config,
    )
    ok = _all_pass(reports)
    _report(2, "state pairs agree across the embedding and the encoding, 300 cases each", ok)
    assert ok, _explain(reports)
    assert all(r.cases >= 300 for r in reports)


def test_criterion_3_logic_preservation():
    config = SelfCheckConfig(cases=300, max_formula_depth=4)
    biconditionals = _run_all(
        [
            "translate.formula-embedding-truth",
            "translate.formula-encoding-truth",
            "translate.formula-decoding-truth",
            "translate.formula-codec-roundtrip",
        ],
        config,
    )
    guarded = _run_all(
        [
            "translate.approximation-sound",
            "translate.approximation-complete-existential",
            "translate.approximation-complete-no-covariant",
        ],
        config,
    )
    hole = run_property("translate.approximation-complete-unguarded", config)

    # The pinned counterexample: a box over a covariant label approximates
    # to tt, which the move-free state satisfies, while its embedding can
    # always step to the sink and so refutes the box.
    pin = lts(["s0"], signature(cov=["a"]), [], "s0")
    box = Box(A, Bottom())
    pinned_ok = (
        approximate_formula(box, pin.signature) == Top()
        and mc_cc(pin, "s0", Top())
        and not mc_mts(mts_of_lts(pin), "s0", box)
    )

    triples = sum(r.cases for r in biconditionals)
    ok = (
        _all_pass(biconditionals)
        and _all_pass(guarded)
        and hole.status == "expected-fail"
        and pinned_ok
        and triples >= 1000
    )
    _report(3, "formula maps preserve truth on 1200 triples; approximation guards hold", ok)
    assert _all_pass(biconditionals), _explain(biconditionals)
    assert _all_pass(guarded), _explain(guarded)
    assert hole.status == "expected-fail"
    assert pinned_ok
    assert triples >= 1000


def test_criterion_4_composition_bounds():
    config = SelfCheckConfig(cases=300, max_states=4, max_labels=2)
    reports = _run_all(
        [
            "translate.composition-bound-mts",
            "translate.composition-bound-lts",
            "translate.decorated-bridge",
        ],
        config,
    )

    pin_mts = mts(["m"], ["a"], [], [], "m")
    back = strip_decorations(mts_of_lts(lts_of_mts(pin_mts)))
    mts_pin_ok = ("m", "m") in greatest(Refinement(), back, pin_mts) and (
        "m",
        "m",
    ) not in greatest(Refinement(), pin_mts, back)

    pin_lts = lts(["p"], signature(cov=["a"]), [], "p")
    image = strip_decorations(lts_of_mts(mts_of_lts(pin_lts)), target=pin_lts.signature)
    lts_pin_ok = ("p", "p") in greatest(CCSim(), pin_lts, image) and (
        "p",
        "p",
    ) not in greatest(CCSim(), image, pin_lts)

    bridge_q = mts(["q"], ["a"], [("q", "a", "q")], [], "q")
    bridge_ok = ("p", "q") in greatest(Refinement(), mts_of_lts(pin_lts), bridge_q) and (
        "p",
        "q",
    ) not in greatest(CCSim(), decorate_by_class(pin_lts), lts_of_mts(bridge_q))

    ok = _all_pass(reports) and mts_pin_ok and lts_pin_ok and bridge_ok
    _report(4, "round-trip composition bounds hold; both converses fail on the pins", ok)
    assert _all_pass(reports), _explain(reports)
    assert mts_pin_ok
    assert lts_pin_ok
    assert bridge_ok


def test_criterion_5_characteristic_formulae():
    start = time.monotonic()
    reports = []
    for labels in (1, 2):
        config = SelfCheckConfig(term_height=3, max_labels=labels)
        reports.extend(
            _run_all(
                [
                    "charform.larsen-characteristic",
                    "charform.simplified-equivalent",
                    "charform.cc-transport",
                ],
                config,
            )
        )
    literal = run_property(
        "charform.literal-prefix-clause-fails", SelfCheckConfig(term_height=3)
    )
    elapsed = time.monotonic() - start
    ok = _all_pass(reports) and literal.status == "expected-fail" and elapsed < 300.0
    _report(5, "characteristic formulae exhaustive to height 3 over 1 and 2 labels", ok)
    assert _all_pass(reports), _explain(reports)
    assert literal.status == "expected-fail"
    assert elapsed < 300.0, f"characteristic formula sweep took {elapsed:.1f}s"


def test_criterion_6_partial_bisimulation():
    config = SelfCheckConfig(cases=300)
    reports = _run_all(
        [
            "preorders.fixpoint-matches-oracle.pbsim",
            "translate.plain-reading-matches-pbsim",
            "preorders.pbsim-empty-is-simulation",
        ],
        config,
    )
    ok = _all_pass(reports)
    _report(6, "partial bisimulation matches its oracle, the modal reading and simulation", ok)
    assert ok, _explain(reports)
    assert all(r.cases >= 300 for r in reports)


def test_criterion_7_institutions():
    satisfaction = _run_all(
        [
            "institutions.satisfaction-condition.mts",
            "institutions.satisfaction-condition.cc",
        ],
        SelfCheckConfig(cases=500),
    )
    morphism = run_property(
        "institutions.morphism-condition", SelfCheckConfig(cases=300)
    )
    witnesses = _run_all(
        [
            "institutions.weakly-final-cc",
            "institutions.universal-spec-cc",
            "institutions.weakly-initial-mts",
        ],
        SelfCheckConfig(cases=100),
    )
    impossibility = _run_all(
        [
            "institutions.no-weakly-final-mts",
            "institutions.no-weakly-initial-cc-bivariant",
        ],
        SelfCheckConfig(),
    )
    ok = (
        _all_pass(satisfaction)
        and morphism.status == "pass"
        and _all_pass(witnesses)
        and _all_pass(impossibility)
    )
    _report(7, "satisfaction and morphism conditions, witnesses and impossibilities", ok)
    assert _all_pass(satisfaction), _explain(satisfaction)
    assert morphism.status == "pass", morphism.failures
    assert all(r.cases >= 500 for r in satisfaction)
    assert morphism.cases >= 300
    assert _all_pass(witnesses), _explain(witnesses)
    assert all(r.cases >= 100 for r in witnesses)
    assert _all_pass(impossibility), _explain(impossibility)


def test_criterion_8_determinism_and_golden_files():
    def capture(fmt):
        cmd = [sys.executable, "-m", "modalsim", "selfcheck", "--seed", "42", "--format", fmt]
        env = dict(os.environ, PYTHONPATH=str(Path(modalsim.__file__).parents[1]))
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    json_one, json_two = capture("json"), capture("json")
    text_one, text_two = capture("text"), capture("text")
    golden = run_property("textio.golden-files-stable", SelfCheckConfig())

    ok = (
        json_one.returncode == 0
        and json_one.stdout == json_two.stdout
        and text_one.returncode == 0
        and text_one.stdout == text_two.stdout
        and json.loads(json_one.stdout)["ok"] is True
        and golden.status == "pass"
    )
    _report(8, "selfcheck runs are byte-identical; golden files round-trip", ok)
    assert json_one.returncode == 0, json_one.stderr
    assert json_one.stdout == json_two.stdout
    assert text_one.stdout == text_two.stdout
    assert json.loads(json_one.stdout)["ok"] is True
    assert golden.status == "pass", golden.failures
