import json
import types
from pathlib import Path

import pytest

from modalsim.selfcheck import (
    SCHEMA,
    PropertyReport,
    SelfCheckConfig,
    SelfCheckReport,
    _PropertyDef,
    _FAILURE_CAP,
    _REGISTRY,
    _SHRINK_BUDGET,
    _reductions,
    property_ids,
    run_property,
    run_selfcheck,
    shrink_pair,
)
from modalsim.systems import PointedMTS, lts, mts, signature

QUICK = SelfCheckConfig(cases=8, max_states=3)

GOLDEN_REPORT = Path(__file__).resolve().parent / "selfcheck_seed42.json"

EXPECTED_FAIL_IDS = {
    "charform.literal-prefix-clause-fails",
    "translate.approximation-complete-unguarded",
}


def test_registry_contents():
    ids = property_ids()
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert len(ids) >= 50
    assert EXPECTED_FAIL_IDS <= set(ids)
    prefixes = {pid.split(".", 1)[0] for pid in ids}
    assert prefixes == {
        "charform",
        "formulas",
        "institutions",
        "preorders",
        "sampling",
        "systems",
        "terms",
        "textio",
        "translate",
    }


def test_quick_run_is_green():
    report = run_selfcheck(QUICK)
    assert report.ok
    assert report.schema == SCHEMA
    assert len(report.properties) == len(property_ids())
    for item in report.properties:
        if item.property_id in EXPECTED_FAIL_IDS:
            assert item.status == "expected-fail"
            assert item.failures
        else:
            assert item.status == "pass"
            assert item.failures == ()


def test_selected_subset_and_unknown_ids():
    config = SelfCheckConfig(cases=5, properties=("systems.validate-accepts-generated",))
    report = run_selfcheck(config)
    assert [p.property_id for p in report.properties] == [
        "systems.validate-accepts-generated"
    ]
    assert report.config["properties"] == ["systems.validate-accepts-generated"]
    with pytest.raises(ValueError):
        run_selfcheck(SelfCheckConfig(properties=("no.such.property",)))
    with pytest.raises(ValueError):
        run_property("no.such.property", QUICK)


def test_json_output_is_stable_and_parses():
    one = run_selfcheck(QUICK).to_json()
    two = run_selfcheck(QUICK).to_json()
    assert one == two
    payload = json.loads(one)
    assert payload["schema"] == SCHEMA
    assert payload["seed"] == 42
    assert payload["ok"] is True
    assert payload["config"]["cases"] == 8
    by_id = {p["id"]: p for p in payload["properties"]}
    assert set(by_id) == set(property_ids())
    assert all(p["cases"] >= 1 for p in payload["properties"])
    # Different seeds change the run but not the shape.
    other = run_selfcheck(SelfCheckConfig(seed=7, cases=8, max_states=3))
    assert json.loads(other.to_json())["seed"] == 7
    assert other.ok


def test_default_report_matches_the_golden_file():
    # Pins every case count and every failure text of the default run.
    report = run_selfcheck(SelfCheckConfig(seed=42)).to_json()
    assert report == GOLDEN_REPORT.read_text(encoding="utf-8")


SHAPES = ["generator", "one-case"]


def _shaped(shape, case):
    """The property that runs ``case(config, rng, *args)`` once per case:
    ``case`` itself for the runner to call, or a generator that loops over
    the cases on its own."""
    if shape == "one-case":
        return case

    def loop(config, rng, *args):
        for _ in range(config.cases):
            yield case(config, rng, *args)

    return loop


@pytest.mark.parametrize("shape", SHAPES)
def test_status_mapping_for_a_failing_property(shape):
    bad = _shaped(shape, lambda config, rng: "it broke")
    good = _shaped(shape, lambda config, rng: None)

    _REGISTRY["zz.test-bad"] = _PropertyDef("zz.test-bad", bad)
    _REGISTRY["zz.test-good-but-expected-bad"] = _PropertyDef(
        "zz.test-good-but-expected-bad", good, expect_fail=True
    )
    try:
        report = run_property("zz.test-bad", QUICK)
        assert report.status == "fail"
        assert not report.ok
        assert report.failures == ("it broke",) * _FAILURE_CAP

        surprise = run_property("zz.test-good-but-expected-bad", QUICK)
        assert surprise.status == "unexpected-pass"
        assert not surprise.ok

        whole = run_selfcheck(
            SelfCheckConfig(properties=("zz.test-bad", "zz.test-good-but-expected-bad"))
        )
        assert not whole.ok
        assert "result: FAILED" in whole.to_text()
    finally:
        del _REGISTRY["zz.test-bad"]
        del _REGISTRY["zz.test-good-but-expected-bad"]


@pytest.mark.parametrize("shape", SHAPES)
def test_runner_counts_cases_and_stops_at_the_cap(shape):
    ran = []
    calls = []

    def always_bad(config, rng):
        ran.append(len(ran))
        return f"case {ran[-1]} broke"

    def never_bad(config, rng):
        calls.append((config, rng))
        return None

    _REGISTRY["zz.test-always-bad"] = _PropertyDef("zz.test-always-bad", _shaped(shape, always_bad))
    _REGISTRY["zz.test-never-bad"] = _PropertyDef(
        "zz.test-never-bad", _shaped(shape, never_bad), expect_fail=True
    )
    try:
        capped = run_property("zz.test-always-bad", QUICK)
        assert capped.status == "fail"
        assert capped.cases == _FAILURE_CAP == 3
        assert capped.failures == ("case 0 broke", "case 1 broke", "case 2 broke")
        assert ran == [0, 1, 2]

        surprise = run_property("zz.test-never-bad", QUICK)
        assert surprise.status == "unexpected-pass"
        assert surprise.cases == QUICK.cases
        assert surprise.failures == ()
        # Every case sees the one config and the one seeded random generator.
        assert len(calls) == QUICK.cases
        assert {id(config) for config, _ in calls} == {id(QUICK)}
        assert len({id(rng) for _, rng in calls}) == 1
    finally:
        del _REGISTRY["zz.test-always-bad"]
        del _REGISTRY["zz.test-never-bad"]


def test_golden_files_property_fails_without_fixtures(tmp_path, monkeypatch):
    import modalsim.selfcheck as selfcheck

    (tmp_path / "fixtures").mkdir()
    monkeypatch.setattr(selfcheck, "resources", types.SimpleNamespace(files=lambda package: tmp_path))
    report = run_property("textio.golden-files-stable", QUICK)
    assert report.status == "fail"
    assert report.failures == ("no golden fixture files found",)


def test_text_rendering():
    report = SelfCheckReport(
        schema=SCHEMA,
        seed=3,
        config={"cases": 1},
        properties=(
            PropertyReport("x.alpha", "pass", 4, ()),
            PropertyReport("x.beta", "fail", 4, ("first line\nsecond line",)),
        ),
    )
    text = report.to_text()
    assert text.splitlines() == [
        "selfcheck seed=3",
        "[pass] x.alpha  cases=4",
        "[fail] x.beta  cases=4",
        "    first line",
        "    second line",
        "result: FAILED (2 properties: 1 fail, 1 pass)",
    ]
    assert "\x1b[" not in text
    colored = report.to_text(color=True)
    assert "\x1b[32m[pass]\x1b[0m" in colored
    assert "\x1b[31m[fail]\x1b[0m" in colored


@pytest.mark.parametrize("shape", SHAPES)
def test_one_body_runs_under_each_id_with_its_args(shape):
    from modalsim.selfcheck import prop

    seen = []

    def case(config, rng, tag):
        seen.append(tag)
        return None if tag == "one" else f"{tag} broke"

    body = _shaped(shape, case)
    prop("zz.test-args-one", "one")(body)
    prop("zz.test-args-two", "two", expect_fail=True)(body)
    try:
        assert run_property("zz.test-args-one", QUICK).status == "pass"
        assert run_property("zz.test-args-two", QUICK).failures == ("two broke",) * _FAILURE_CAP
        assert run_property("zz.test-args-two", QUICK).status == "expected-fail"
        assert seen == ["one"] * QUICK.cases + ["two"] * (2 * _FAILURE_CAP)
    finally:
        del _REGISTRY["zz.test-args-one"]
        del _REGISTRY["zz.test-args-two"]


@pytest.mark.parametrize(
    "ids",
    [
        ("preorders.fixpoint-matches-oracle.refinement", "preorders.fixpoint-matches-oracle.ccsim"),
        ("preorders.refinement-preorder-laws", "preorders.ccsim-preorder-laws"),
        ("formulas.satisfaction-monotone.mts", "formulas.satisfaction-monotone.cc"),
        ("formulas.refinement-preserves-truth", "formulas.ccsim-preserves-truth"),
        ("institutions.satisfaction-condition.mts", "institutions.satisfaction-condition.cc"),
        ("institutions.no-weakly-final-mts", "institutions.no-weakly-initial-cc-bivariant"),
        ("institutions.weakly-final-cc", "institutions.universal-spec-cc", "institutions.weakly-initial-mts"),
        ("translate.composition-bound-mts", "translate.composition-bound-lts"),
    ],
)
def test_a_law_of_both_worlds_has_one_body(ids):
    assert len({_REGISTRY[pid].fn for pid in ids}) == 1
    assert len({_REGISTRY[pid].args for pid in ids}) == len(ids)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"max_states": 0}, "max_states must be at least 1, got 0"),
        ({"term_height": -5}, "term_height must be at least 1, got -5"),
        ({"cases": -3}, "cases must be at least 1, got -3"),
        ({"cases": 0}, "cases must be at least 1, got 0"),
    ],
    ids=["max_states", "term_height", "cases", "no-cases"],
)
def test_config_refuses_sizes_below_their_bounds(sizes, message):
    # The config refuses them itself, so run_property never sees them.
    with pytest.raises(ValueError) as error:
        SelfCheckConfig(**sizes)
    assert str(error.value) == message


def test_duplicate_registration_is_rejected():
    from modalsim.selfcheck import prop

    with pytest.raises(ValueError):
        prop("systems.validate-accepts-generated")(lambda config, rng: iter([None]))


def _complete_mts(n, prefix):
    """An MTS on ``n`` states whose every possible transition is a must."""
    states = [f"{prefix}{i}" for i in range(n)]
    triples = [(s, a, d) for s in states for a in "ab" for d in states]
    return mts(states, "ab", triples, triples, f"{prefix}0")


def _complete_lts(n, prefix):
    states = [f"{prefix}{i}" for i in range(n)]
    triples = [(s, a, d) for s in states for a in "ab" for d in states]
    return lts(states, signature(cov=["a"], con=["b"]), triples, f"{prefix}0")


def _size(system):
    if isinstance(system, PointedMTS):
        return len(system.states) + len(system.may) + len(system.must)
    return len(system.states) + len(system.transitions)


@pytest.mark.parametrize(
    "pair, still_fails",
    [
        ((_complete_mts(2, "p"), _complete_mts(2, "q")), lambda p, q: bool(p.must)),
        ((_complete_lts(2, "p"), _complete_lts(2, "q")), lambda p, q: bool(p.transitions)),
    ],
    ids=["mts", "lts"],
)
def test_shrink_pair_keeps_the_failure_and_reaches_a_local_minimum(pair, still_fails):
    p, q = pair
    small_p, small_q = shrink_pair(p, q, still_fails)
    assert still_fails(small_p, small_q)
    assert _size(small_p) <= _size(p) and _size(small_q) <= _size(q)
    assert _size(small_p) + _size(small_q) < _size(p) + _size(q)
    # No single reduction of the result still fails.
    assert not any(still_fails(rp, small_q) for rp in _reductions(small_p))
    assert not any(still_fails(small_p, rq) for rq in _reductions(small_q))


@pytest.mark.parametrize("make", [_complete_mts, _complete_lts], ids=["mts", "lts"])
@pytest.mark.parametrize("verdict", [True, False], ids=["always-fails", "never-fails"])
def test_shrink_pair_stops_at_its_budget(make, verdict):
    p, q = make(8, "p"), make(8, "q")
    # One pass over the reductions alone would exceed the budget.
    assert len(list(_reductions(p))) + len(list(_reductions(q))) > _SHRINK_BUDGET
    calls = []

    def still_fails(a, b):
        calls.append((a, b))
        return verdict

    shrink_pair(p, q, still_fails)
    assert len(calls) <= _SHRINK_BUDGET
