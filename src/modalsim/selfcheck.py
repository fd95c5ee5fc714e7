"""A registry of executable correctness properties with a deterministic
runner.

Each property is a function ``(config, rng, *args)`` registered under a
dotted id together with its extra ``args``.  One body may be registered under
several ids: a law that holds for MTSs under refinement and for LTSs under
covariant-contravariant simulation is one body with one id per world, each
passing that world's view, which says how the world is drawn and checked.

A case's result is its failure text, or ``None`` when it passes.  Most
properties state one case: the runner calls them ``config.cases`` times with
the same random generator and takes each return value as a result.  A
property that cannot, because it alternates worlds by case, checks a pinned
case first or enumerates terms or fixtures, is a generator function that
yields one result per case.  The runner alone counts the cases that ran,
keeps the failures and stops a property at its third failure.  It seeds every
property with its own ``random.Random(f"{seed}:{property_id}")``, so reports
are reproducible and independent of which other properties run.  A few
properties are registered with ``expect_fail=True``: they pin known
boundaries (an approximation that is deliberately one-sided, a formula
recursion variant that does not characterise) and count as OK exactly when
their failure materialises.

Reports serialise to JSON with sorted keys and no timing information, so two
runs with one seed produce byte-identical output.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterator, Optional, Union

from .charform import characteristic_formula, characteristic_formula_cc, encode_term
from .formulas import (
    BLLogic,
    Bottom,
    Box,
    CCLogic,
    Formula,
    Or,
    Top,
    check_wf,
    formula_text,
    is_existential,
    mc_cc,
    mc_mts,
    replace_subformula,
    satisfying_states_cc,
    satisfying_states_mts,
    simplify,
    subformulas,
)
from .institutions import (
    CCSignatureMorphism,
    MtsSignatureMorphism,
    cc_morphism,
    check_morphism_condition,
    check_satisfaction_condition,
    compose_morphisms,
    final_obstruction_pair,
    identity_morphism,
    initial_obstruction_pair,
    mts_morphism,
    reduct,
    sen_map,
    universal_specification,
    weakly_final_implementation,
)
from .preorders import (
    CCSim,
    ORACLE_PRODUCT_CAP,
    PartialBisim,
    PreorderKind,
    Refinement,
    Simulation,
    compose_relations,
    distinguishing_formula,
    greatest,
    oracle_greatest,
)
from .sampling import (
    ALL_CLASSES,
    LABEL_POOL,
    pool_labels,
    random_alphabet,
    random_bl_formula,
    random_cc_formula,
    random_lts,
    random_lts_pair,
    random_mts,
    random_mts_pair,
    random_plain_lts,
    random_signature,
    random_state,
    random_term,
)
from .systems import (
    BIVARIANT,
    CONTRAVARIANT,
    COVARIANT,
    Action,
    CCSignature,
    PointedLTS,
    PointedMTS,
    _triple_key,
    lts,
    mts,
    signature,
    sorted_actions,
    universal_mts,
    validate_cc_lts,
    validate_mts,
)
from .terms import (
    Omega,
    Term,
    canonical_term,
    enumerate_lts_terms,
    enumerate_mts_terms,
    expand_lts_term,
    expand_mts_term,
    lts_term_forms,
    mts_term_forms,
    term_text,
)
from .textio import (
    parse_formula,
    parse_system,
    parse_system_details,
    parse_term,
    print_system,
)
from .translate import (
    NotInEncodingRange,
    approximate_formula,
    decode_formula,
    decorate_by_class,
    eliminate_bivariant,
    embed_formula,
    encode_formula,
    fresh_sink_name,
    lts_of_mts,
    morphism_signature_map,
    mts_of_encoded_lts,
    mts_of_lts,
    mts_of_plain_lts,
    strip_decorations,
)

SCHEMA = "modalsim-selfcheck/1"

_FAILURE_CAP = 3
_SHRINK_BUDGET = 200

# The sizes a config states, with the least value each may take; a report
# lists them under ``config``.
_LOWER_BOUNDS = (
    ("cases", 1),
    ("max_states", 1),
    ("max_labels", 1),
    ("max_formula_depth", 0),
    ("term_height", 1),
)


@dataclass(frozen=True)
class SelfCheckConfig:
    """Knobs shared by all properties; the defaults finish in seconds."""

    seed: int = 42
    cases: int = 60
    max_states: int = 4
    max_labels: int = 2
    max_formula_depth: int = 4
    term_height: int = 2
    properties: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, bound in _LOWER_BOUNDS:
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be at least {bound}, got {getattr(self, name)}")
        most = len(LABEL_POOL) // len(ALL_CLASSES)  # what the pool fills in every class
        if self.max_labels > most:
            raise ValueError(f"max_labels must be at most {most}, got {self.max_labels}")


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    status: str  # pass | fail | expected-fail | unexpected-pass
    cases: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "expected-fail")


@dataclass(frozen=True)
class SelfCheckReport:
    schema: str
    seed: int
    config: dict
    properties: tuple[PropertyReport, ...]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.properties)

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "seed": self.seed,
            "config": self.config,
            "ok": self.ok,
            "properties": [
                {
                    "id": p.property_id,
                    "status": p.status,
                    "cases": p.cases,
                    "failures": list(p.failures),
                }
                for p in self.properties
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self, color: bool = False) -> str:
        def paint(text: str, good: bool) -> str:
            if not color:
                return text
            code = "32" if good else "31"
            return f"\x1b[{code}m{text}\x1b[0m"

        lines = [f"selfcheck seed={self.seed}"]
        for p in self.properties:
            tag = paint(f"[{p.status}]", p.ok)
            lines.append(f"{tag} {p.property_id}  cases={p.cases}")
            for failure in p.failures:
                for sub in failure.splitlines():
                    lines.append(f"    {sub}")
        counts: dict[str, int] = {}
        for p in self.properties:
            counts[p.status] = counts.get(p.status, 0) + 1
        summary = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
        verdict = "ok" if self.ok else "FAILED"
        lines.append(paint(f"result: {verdict} ({len(self.properties)} properties: {summary})", self.ok))
        return "\n".join(lines) + "\n"


# Called as ``fn(config, rng, *args)`` with the ``args`` of its registration:
# one case's result, or a generator of them.
PropertyFn = Callable[..., Union[Optional[str], Iterator[Optional[str]]]]


@dataclass(frozen=True)
class _PropertyDef:
    pid: str
    fn: PropertyFn
    expect_fail: bool = False
    args: tuple = ()


_REGISTRY: dict[str, _PropertyDef] = {}


def prop(pid: str, *args: object, expect_fail: bool = False) -> Callable[[PropertyFn], PropertyFn]:
    """Register a property under ``pid`` with the extra ``args`` it is run
    with; stacked, it registers one body under several ids."""

    def register(fn: PropertyFn) -> PropertyFn:
        if pid in _REGISTRY:
            raise ValueError(f"property id {pid!r} registered twice")
        _REGISTRY[pid] = _PropertyDef(pid, fn, expect_fail, args)
        return fn

    return register


def property_ids() -> list[str]:
    return sorted(_REGISTRY)


def run_property(pid: str, config: SelfCheckConfig) -> PropertyReport:
    """Run one property under its own seeded generator, counting its cases
    and stopping at its ``_FAILURE_CAP``-th failure.  A plain function states
    one case and is called ``config.cases`` times; a generator function
    yields its cases itself."""
    if pid not in _REGISTRY:
        raise ValueError(f"unknown property {pid!r}")
    definition = _REGISTRY[pid]
    rng = random.Random(f"{config.seed}:{pid}")
    fn, args = definition.fn, (config, rng, *definition.args)
    if inspect.isgeneratorfunction(fn):
        results = fn(*args)
    else:
        results = (fn(*args) for _ in range(config.cases))
    cases = 0
    failures: list[str] = []
    for failure in results:
        cases += 1
        if failure is not None:
            failures.append(failure)
            if len(failures) >= _FAILURE_CAP:
                break
    if definition.expect_fail:
        status = "expected-fail" if failures else "unexpected-pass"
    else:
        status = "fail" if failures else "pass"
    return PropertyReport(pid, status, cases, tuple(failures))


def run_selfcheck(config: SelfCheckConfig = SelfCheckConfig()) -> SelfCheckReport:
    selected = config.properties or tuple(property_ids())
    unknown = sorted(set(selected) - set(_REGISTRY))
    if unknown:
        raise ValueError(f"unknown properties: {', '.join(unknown)}")
    reports = tuple(run_property(pid, config) for pid in sorted(set(selected)))
    snapshot = {name: getattr(config, name) for name, _ in _LOWER_BOUNDS}
    if config.properties:
        snapshot["properties"] = sorted(set(config.properties))
    return SelfCheckReport(
        schema=SCHEMA, seed=config.seed, config=snapshot, properties=reports
    )


# --------------------------------------------------------------------------
# shared helpers


def _show_pair(p: Union[PointedMTS, PointedLTS], q: Union[PointedMTS, PointedLTS]) -> str:
    return f"left system:\n{print_system(p)}right system:\n{print_system(q)}"


def _mts_reductions(m: PointedMTS) -> Iterator[PointedMTS]:
    for t in sorted(m.must, key=_triple_key):
        yield m._replace(must=m.must - {t})
    for t in sorted(m.may - m.must, key=_triple_key):
        yield m._replace(may=m.may - {t})
    for s in sorted(m.states - {m.init}):
        keep = frozenset(tr for tr in m.may if s not in (tr[0], tr[2]))
        must = frozenset(tr for tr in m.must if s not in (tr[0], tr[2]))
        yield PointedMTS(m.states - {s}, m.actions, keep, must, m.init)


def _lts_reductions(p: PointedLTS) -> Iterator[PointedLTS]:
    for t in sorted(p.transitions, key=_triple_key):
        yield p._replace(transitions=p.transitions - {t})
    for s in sorted(p.states - {p.init}):
        keep = frozenset(tr for tr in p.transitions if s not in (tr[0], tr[2]))
        yield PointedLTS(p.states - {s}, p.signature, keep, p.init)


def _reductions(system):
    if isinstance(system, PointedMTS):
        return _mts_reductions(system)
    return _lts_reductions(system)


def shrink_pair(p, q, still_fails: Callable[[object, object], bool]):
    """Greedy minimisation of a failing pair: drop transitions, then states,
    as long as the failure persists, trying at most ``_SHRINK_BUDGET`` pairs."""
    budget = _SHRINK_BUDGET
    while budget > 0:
        for candidate in [(rp, q) for rp in _reductions(p)] + [(p, rq) for rq in _reductions(q)]:
            budget -= 1
            if still_fails(*candidate):
                p, q = candidate
                break
            if budget <= 0:
                break
        else:
            break
    return p, q


# --------------------------------------------------------------------------
# the two worlds


def _random_mts_morphism(rng: random.Random, cfg: SelfCheckConfig) -> MtsSignatureMorphism:
    target = random_alphabet(rng, cfg.max_labels)
    choices = sorted_actions(target)
    source = [Action(f"x{i}") for i in range(rng.randint(1, 3))]
    mapping = {a: choices[rng.randrange(len(choices))] for a in source}
    return mts_morphism(source, target, mapping)


def _random_cc_morphism(rng: random.Random, cfg: SelfCheckConfig) -> CCSignatureMorphism:
    target = random_signature(rng, max_per_class=cfg.max_labels)
    buckets: dict[str, list[Action]] = {COVARIANT: [], CONTRAVARIANT: [], BIVARIANT: []}
    mapping: dict[Action, Action] = {}
    fresh = 0
    for cls, labels in (
        (COVARIANT, target.covariant),
        (CONTRAVARIANT, target.contravariant),
        (BIVARIANT, target.bivariant),
    ):
        choices = sorted_actions(labels)
        if not choices:
            continue
        for _ in range(rng.randint(0, 2)):
            a = Action(f"x{fresh}")
            fresh += 1
            buckets[cls].append(a)
            mapping[a] = choices[rng.randrange(len(choices))]
    source = signature(
        cov=buckets[COVARIANT], con=buckets[CONTRAVARIANT], bi=buckets[BIVARIANT]
    )
    return cc_morphism(source, target, mapping)


@dataclass(frozen=True)
class _View:
    """How the properties draw and check one of the paper's two worlds: MTSs
    under refinement, or LTSs over covariant-contravariant signatures under
    cc-simulation.  A law stated in both worlds is one body registered once
    per view; a property that alternates worlds takes ``_VIEWS[case % 2]``."""

    kind: PreorderKind
    noun: str  # the preorder, in failure messages
    name: str  # the system kind, as ``parse_term`` reads it
    labels: Callable  # (rng, cfg) -> the labels of one system
    pair_labels: Callable  # (rng, cfg) -> the labels that a pair shares
    term_labels: Callable  # (rng, cfg) -> labels with no bivariant class, as terms need
    system: Callable  # (rng, labels, max_states, prefix) -> a system
    formula: Callable  # (rng, labels, max_depth) -> a formula
    term_forms: Callable
    expand: Callable
    logic: Callable
    mc: Callable
    satisfying: Callable
    validate: Callable
    morphism: Callable  # (rng, cfg) -> a signature morphism

    def pair(self, rng: random.Random, cfg: SelfCheckConfig):
        """Shared labels and two systems over them, states prefixed ``p``/``q``."""
        labels = self.pair_labels(rng, cfg)
        p = self.system(rng, labels, cfg.max_states, prefix="p")
        q = self.system(rng, labels, cfg.max_states, prefix="q")
        return labels, p, q


def _alphabet(rng: random.Random, cfg: SelfCheckConfig) -> frozenset[Action]:
    return random_alphabet(rng, cfg.max_labels)


_MTS = _View(
    kind=Refinement(),
    noun="refinement",
    name="mts",
    labels=_alphabet,
    pair_labels=_alphabet,
    term_labels=_alphabet,
    system=random_mts,
    formula=random_bl_formula,
    term_forms=mts_term_forms,
    expand=expand_mts_term,
    logic=BLLogic,
    mc=mc_mts,
    satisfying=satisfying_states_mts,
    validate=validate_mts,
    morphism=_random_mts_morphism,
)
_CC = _View(
    kind=CCSim(),
    noun="cc-simulation",
    name="lts",
    labels=lambda rng, cfg: random_signature(rng, cfg.max_labels),
    pair_labels=lambda rng, cfg: random_signature(rng, max_per_class=1),
    term_labels=lambda rng, cfg: random_signature(rng, cfg.max_labels, classes=(COVARIANT, CONTRAVARIANT)),
    system=random_lts,
    formula=random_cc_formula,
    term_forms=lts_term_forms,
    expand=expand_lts_term,
    logic=CCLogic,
    mc=mc_cc,
    satisfying=satisfying_states_cc,
    validate=validate_cc_lts,
    morphism=_random_cc_morphism,
)
_VIEWS = (_MTS, _CC)


def _oracle_pair(rng: random.Random, cfg: SelfCheckConfig, draw_labels: Callable, draw_system: Callable):
    """Two systems over shared labels that the oracle can take: the right one
    keeps the product of the two state counts within ``ORACLE_PRODUCT_CAP``."""
    labels = draw_labels(rng, cfg)
    left_states = rng.randint(1, min(cfg.max_states, ORACLE_PRODUCT_CAP))
    p = draw_system(rng, labels, left_states, prefix="p")
    right_states = max(1, min(cfg.max_states, ORACLE_PRODUCT_CAP // len(p.states)))
    q = draw_system(rng, labels, right_states, prefix="q")
    return p, q


def _random_bset(rng: random.Random, acts: frozenset[Action]) -> frozenset[Action]:
    labels = sorted_actions(acts)
    return frozenset(rng.sample(labels, rng.randint(0, len(labels))))


def _oracle_disagreement(kind: PreorderKind, p, q) -> bool:
    return greatest(kind, p, q).pairs != oracle_greatest(kind, p, q).pairs


def _oracle_case(kind: PreorderKind, p, q, what: str) -> Optional[str]:
    if not _oracle_disagreement(kind, p, q):
        return None
    p, q = shrink_pair(p, q, lambda a, b: _oracle_disagreement(kind, a, b))
    return f"{what}: fixpoint and brute force disagree on\n{_show_pair(p, q)}"


# --------------------------------------------------------------------------
# systems and terms


@prop("systems.validate-accepts-generated")
def _prop_validate_generated(cfg: SelfCheckConfig, rng: random.Random):
    for case in range(cfg.cases):
        view = _VIEWS[case % 2]
        problems = view.validate(view.system(rng, view.labels(rng, cfg), cfg.max_states))
        if problems:
            yield f"generated system failed validation: {problems}"
        else:
            yield None


@prop("terms.expansion-well-formed")
def _prop_term_expansion(cfg: SelfCheckConfig, rng: random.Random):
    for case in range(cfg.cases):
        view = _VIEWS[case % 2]
        labels = view.term_labels(rng, cfg)
        t = random_term(rng, view.term_forms(labels), cfg.term_height + 1)
        expansion = view.expand(t, labels)
        problems = view.validate(expansion)
        root = canonical_term(t)
        if problems:
            yield f"expansion of {term_text(t)} is ill-formed: {problems}"
        elif expansion.init != term_text(root):
            yield f"expansion of {term_text(t)} starts at {expansion.init!r}"
        elif canonical_term(root) != root:
            yield f"canonical form of {term_text(t)} is not idempotent"
        else:
            for state in sorted(expansion.states):
                back = parse_term(state, view.name)
                if canonical_term(back) != back or term_text(back) != state:
                    yield f"state {state!r} is not a canonical printed term"
                    break
            else:
                yield None


# --------------------------------------------------------------------------
# preorders


@prop("preorders.fixpoint-matches-oracle.refinement", _MTS)
@prop("preorders.fixpoint-matches-oracle.ccsim", _CC)
def _prop_oracle(cfg: SelfCheckConfig, rng: random.Random, view: _View):
    p, q = _oracle_pair(rng, cfg, view.pair_labels, view.system)
    return _oracle_case(view.kind, p, q, view.noun)


@prop("preorders.fixpoint-matches-oracle.pbsim")
def _prop_oracle_pbsim(cfg: SelfCheckConfig, rng: random.Random):
    p, q = _oracle_pair(rng, cfg, _alphabet, random_plain_lts)
    kind = PartialBisim(_random_bset(rng, p.signature.actions))
    return _oracle_case(kind, p, q, "partial bisimulation")


@prop("preorders.fixpoint-matches-oracle.simulation")
def _prop_oracle_simulation(cfg: SelfCheckConfig, rng: random.Random):
    p, q = _oracle_pair(rng, cfg, _alphabet, random_plain_lts)
    return _oracle_case(Simulation(), p, q, "simulation")


@prop("preorders.pbsim-empty-is-simulation")
def _prop_pbsim_empty(cfg: SelfCheckConfig, rng: random.Random):
    p, q = _oracle_pair(rng, cfg, _alphabet, random_plain_lts)
    empty = greatest(PartialBisim(frozenset()), p, q).pairs
    if empty != greatest(Simulation(), p, q).pairs:
        return f"empty-set partial bisimulation differs from simulation on\n{_show_pair(p, q)}"
    if empty != oracle_greatest(Simulation(), p, q).pairs:
        return f"empty-set partial bisimulation differs from the simulation oracle on\n{_show_pair(p, q)}"
    return None


@prop("preorders.refinement-preorder-laws", _MTS)
@prop("preorders.ccsim-preorder-laws", _CC)
def _prop_preorder_laws(cfg: SelfCheckConfig, rng: random.Random, view: _View):
    labels, p, q = view.pair(rng, cfg)
    r = view.system(rng, labels, cfg.max_states, prefix="r")
    identity = greatest(view.kind, p, p)
    through = compose_relations(greatest(view.kind, p, q), greatest(view.kind, q, r))
    if any((s, s) not in identity for s in p.states):
        return f"{view.noun} is not reflexive on\n{print_system(p)}"
    if not through.pairs <= greatest(view.kind, p, r).pairs:
        return f"{view.noun} is not transitive through\n{print_system(q)}"
    return None


@prop("preorders.distinguishing-formula-witnesses")
def _prop_distinguishing(cfg: SelfCheckConfig, rng: random.Random):
    for case in range(cfg.cases):
        view = _VIEWS[case % 2]
        labels, p, q = view.pair(rng, cfg)
        rel = greatest(view.kind, p, q)
        pp, qq = random_state(rng, p), random_state(rng, q)
        phi = distinguishing_formula(view.kind, p, pp, q, qq)
        related = (pp, qq) in rel
        if related and phi is not None:
            yield f"related pair ({pp}, {qq}) got a distinguishing formula {formula_text(phi)}"
        elif related:
            yield None
        elif phi is None:
            yield f"unrelated pair ({pp}, {qq}) got no distinguishing formula"
        elif check_wf(phi, view.logic(labels)):
            yield f"distinguishing formula {formula_text(phi)} is ill-formed"
        elif not view.mc(p, pp, phi) or view.mc(q, qq, phi):
            yield f"formula {formula_text(phi)} does not separate ({pp}, {qq}) on\n{_show_pair(p, q)}"
        else:
            yield None


# --------------------------------------------------------------------------
# logic


@prop("formulas.satisfaction-monotone.mts", _MTS)
@prop("formulas.satisfaction-monotone.cc", _CC)
def _prop_monotone(cfg: SelfCheckConfig, rng: random.Random, view: _View):
    labels = view.labels(rng, cfg)
    m = view.system(rng, labels, cfg.max_states)
    phi = view.formula(rng, labels, cfg.max_formula_depth)
    parts = list(subformulas(phi))
    target = parts[rng.randrange(len(parts))]
    weaker = replace_subformula(phi, target, Or(target, view.formula(rng, labels, 2)))
    if not view.satisfying(m, phi) <= view.satisfying(m, weaker):
        return f"weakening {formula_text(phi)} to {formula_text(weaker)} lost states on\n{print_system(m)}"
    return None


@prop("formulas.refinement-preserves-truth", _MTS)
@prop("formulas.ccsim-preserves-truth", _CC)
def _prop_preserves_truth(cfg: SelfCheckConfig, rng: random.Random, view: _View):
    labels, p, q = view.pair(rng, cfg)
    rel = greatest(view.kind, p, q)
    phi = view.formula(rng, labels, cfg.max_formula_depth)
    sat_p = view.satisfying(p, phi)
    sat_q = view.satisfying(q, phi)
    for pp, qq in sorted(rel.pairs):
        if pp in sat_p and qq not in sat_q:
            return f"{formula_text(phi)} holds at {pp} but not at related {qq} on\n{_show_pair(p, q)}"
    return None


@prop("formulas.simplify-preserves-meaning")
def _prop_simplify(cfg: SelfCheckConfig, rng: random.Random):
    for case in range(cfg.cases):
        view = _VIEWS[case % 2]
        labels = view.labels(rng, cfg)
        system = view.system(rng, labels, cfg.max_states)
        phi = view.formula(rng, labels, cfg.max_formula_depth)
        if view.satisfying(system, phi) != view.satisfying(system, simplify(phi)):
            yield (
                f"simplify changed the meaning of {formula_text(phi)} "
                f"(now {formula_text(simplify(phi))})"
            )
        else:
            yield None


# --------------------------------------------------------------------------
# text round trips


@prop("textio.system-roundtrip")
def _prop_system_roundtrip(cfg: SelfCheckConfig, rng: random.Random):
    for case in range(cfg.cases):
        view = _VIEWS[case % 2]
        system = view.system(rng, view.labels(rng, cfg), cfg.max_states)
        text = print_system(system)
        parsed = parse_system_details(text, strict=True)
        if parsed.system != system:
            yield f"round trip changed the system:\n{text}"
        elif parsed.warnings:
            yield f"canonical text produced warnings: {parsed.warnings}"
        elif print_system(parsed.system) != text:
            yield f"printing is not a fixpoint on:\n{text}"
        else:
            yield None


@prop("textio.formula-roundtrip")
def _prop_formula_roundtrip(cfg: SelfCheckConfig, rng: random.Random):
    acts = random_alphabet(rng, cfg.max_labels)
    m = random_mts(rng, acts, cfg.max_states)
    phi = random_bl_formula(rng, acts, cfg.max_formula_depth)
    text = formula_text(phi)
    back = parse_formula(text)
    if formula_text(back) != text:
        return f"formula text is not a parse/print fixpoint: {text}"
    if satisfying_states_mts(m, back) != satisfying_states_mts(m, phi):
        return f"reparsing changed the meaning of {text}"
    return None


@prop("textio.term-roundtrip")
def _prop_term_roundtrip(cfg: SelfCheckConfig, rng: random.Random):
    for case in range(cfg.cases):
        view = _VIEWS[case % 2]
        t = random_term(rng, view.term_forms(view.term_labels(rng, cfg)), cfg.term_height + 1)
        text = term_text(t)
        back = parse_term(text, view.name)
        root = canonical_term(t)
        if term_text(back) != text:
            yield f"term text is not a parse/print fixpoint: {text}"
        elif parse_term(term_text(root), view.name) != root:
            yield f"canonical term does not reparse to itself: {term_text(root)}"
        else:
            yield None


@prop("textio.must-twin-repair")
def _prop_must_twin_repair(cfg: SelfCheckConfig, rng: random.Random):
    m = random_mts(rng, random_alphabet(rng, cfg.max_labels), cfg.max_states)
    # Print by hand, leaving out the may twins of must transitions.
    lines = ["mts"]
    if m.actions:
        lines.append("actions: " + " ".join(str(a) for a in sorted_actions(m.actions)))
    lines.append("states: " + " ".join(sorted(m.states)))
    lines.append(f"init: {m.init}")
    for src, lab, dst in sorted(m.may - m.must, key=_triple_key):
        lines.append(f"may: {src} {lab} {dst}")
    for src, lab, dst in sorted(m.must, key=_triple_key):
        lines.append(f"must: {src} {lab} {dst}")
    text = "\n".join(lines) + "\n"
    parsed = parse_system_details(text)
    if parsed.system != m:
        return f"twin repair did not rebuild the system from:\n{text}"
    if len(parsed.warnings) != len(m.must):
        return f"expected {len(m.must)} repair warnings, got {len(parsed.warnings)} from:\n{text}"
    strict_raised = False
    try:
        parse_system(text, strict=True)
    except ValueError:
        strict_raised = True
    if strict_raised != bool(m.must):
        return f"strict parsing disagreed with the presence of bare musts:\n{text}"
    return None


@prop("textio.golden-files-stable")
def _prop_golden_files(cfg: SelfCheckConfig, rng: random.Random):
    root = resources.files("modalsim").joinpath("fixtures")
    names = sorted(
        entry.name for entry in root.iterdir() if entry.name.endswith((".mts", ".lts"))
    )
    # An empty run would read as a pass, so a missing fixture set is a failing case.
    if not names:
        yield "no golden fixture files found"
    for name in names:
        text = root.joinpath(name).read_text(encoding="utf-8")
        parsed = parse_system_details(text, strict=True)
        if parsed.warnings:
            yield f"{name}: parsing warned: {parsed.warnings}"
        elif print_system(parsed.system, parsed.name) != text:
            yield f"{name}: not in canonical print form"
        elif parse_system(print_system(parsed.system, parsed.name)) != parsed.system:
            yield f"{name}: parse/print round trip changed the system"
        else:
            yield None


# --------------------------------------------------------------------------
# translations


@prop("translate.embedding-preserves-ccsim")
def _prop_embedding_corollary(cfg: SelfCheckConfig, rng: random.Random):
    def disagreement(p: PointedLTS, q: PointedLTS) -> Optional[str]:
        cc = greatest(CCSim(), p, q).pairs
        mp, mq = mts_of_lts(p), mts_of_lts(q)
        ref = greatest(Refinement(), mp, mq).pairs
        for pp in sorted(p.states):
            for qq in sorted(q.states):
                if ((pp, qq) in cc) != ((pp, qq) in ref):
                    return f"state pair ({pp}, {qq})"
        sink = fresh_sink_name(p.states)
        for x in sorted(mq.states):
            if (sink, x) not in ref:
                return f"sink row pair ({sink}, {x})"
        return None

    p, q = random_lts_pair(rng, cfg.max_states)
    if disagreement(p, q) is None:
        return None
    p, q = shrink_pair(p, q, lambda a, b: disagreement(a, b) is not None)
    return f"embedding broke the simulation/refinement match at {disagreement(p, q)} on\n{_show_pair(p, q)}"


@prop("translate.encoding-preserves-refinement")
def _prop_encoding_corollary(cfg: SelfCheckConfig, rng: random.Random):
    def disagrees(m: PointedMTS, n: PointedMTS) -> bool:
        return (
            greatest(Refinement(), m, n).pairs
            != greatest(CCSim(), lts_of_mts(m), lts_of_mts(n)).pairs
        )

    m, n = random_mts_pair(rng, cfg.max_states, cfg.max_labels)
    if not disagrees(m, n):
        return None
    m, n = shrink_pair(m, n, disagrees)
    return f"encoding broke the refinement/simulation match on\n{_show_pair(m, n)}"


@prop("translate.encoding-roundtrip")
def _prop_encoding_roundtrip(cfg: SelfCheckConfig, rng: random.Random):
    m = random_mts(rng, random_alphabet(rng, cfg.max_labels), cfg.max_states)
    back = mts_of_encoded_lts(lts_of_mts(m))
    if back != m:
        return f"decoding the encoding changed the system:\n{print_system(m)}"
    return None


@prop("translate.encoding-range-rejects")
def _prop_encoding_range(cfg: SelfCheckConfig, rng: random.Random):
    m = random_mts(rng, random_alphabet(rng, cfg.max_labels), cfg.max_states)
    if not m.must:
        forced = (m.init, sorted_actions(m.actions)[0], m.init)
        m = m._replace(may=m.may | {forced}, must=m.must | {forced})
    encoded = lts_of_mts(m)
    sig = encoded.signature
    first_cv = sorted_actions(sig.covariant)[0]
    mutants = [
        (
            "a bivariant label slipped through",
            encoded._replace(
                signature=CCSignature(
                    sig.covariant, sig.contravariant, frozenset({Action("z")})
                ),
            ),
        ),
        (
            "an undecorated covariant label slipped through",
            encoded._replace(
                signature=CCSignature(
                    sig.covariant | {Action("z")}, sig.contravariant, frozenset()
                ),
            ),
        ),
        (
            "mismatched base alphabets slipped through",
            encoded._replace(
                signature=CCSignature(
                    sig.covariant,
                    frozenset(
                        lab
                        for lab in sig.contravariant
                        if lab.base != first_cv.base
                    ),
                    frozenset(),
                ),
            ),
        ),
    ]
    cv_triples = sorted(
        (t for t in encoded.transitions if t[1].mark == "cv"), key=_triple_key
    )
    src, lab, dst = cv_triples[0]
    broken = encoded._replace(
        transitions=encoded.transitions - {(src, Action(mark="ct", base=lab.base), dst)},
    )
    mutants.append(("a missing contravariant twin slipped through", broken))
    if mts_of_encoded_lts(encoded) != m:
        return "the unmutated encoding failed to invert"
    for what, mutant in mutants:
        try:
            mts_of_encoded_lts(mutant)
        except NotInEncodingRange:
            continue
        return what
    return None


@prop("translate.plain-reading-matches-pbsim")
def _prop_plain_reading(cfg: SelfCheckConfig, rng: random.Random):
    acts = random_alphabet(rng, cfg.max_labels)
    p = random_plain_lts(rng, acts, cfg.max_states, prefix="p")
    q = random_plain_lts(rng, acts, cfg.max_states, prefix="q")
    bset = _random_bset(rng, acts)
    direct = greatest(PartialBisim(bset), p, q).pairs
    through = greatest(
        Refinement(), mts_of_plain_lts(q, bset), mts_of_plain_lts(p, bset)
    ).inverse().pairs
    if direct != through:
        return f"modal reading with set {sorted_actions(bset)} disagreed on\n{_show_pair(p, q)}"
    return None


@prop("translate.results-validate")
def _prop_translations_validate(cfg: SelfCheckConfig, rng: random.Random):
    sig = random_signature(rng, cfg.max_labels)
    p = random_lts(rng, sig, cfg.max_states)
    m = random_mts(rng, random_alphabet(rng, cfg.max_labels), cfg.max_states)
    checks = [
        ("embedding", validate_mts(mts_of_lts(p))),
        ("encoding", validate_cc_lts(lts_of_mts(m))),
        ("plain reading", validate_mts(mts_of_plain_lts(p, _random_bset(rng, sig.actions)))),
        ("bivariant elimination", validate_cc_lts(eliminate_bivariant(p))),
    ]
    flat = random_lts(
        rng,
        random_signature(rng, cfg.max_labels, classes=(COVARIANT, CONTRAVARIANT)),
        cfg.max_states,
    )
    checks.append(("class decoration", validate_cc_lts(decorate_by_class(flat))))
    for what, problems in checks:
        if problems:
            return f"{what} produced an ill-formed system: {problems}"
    return None


@prop("translate.formula-codec-roundtrip")
def _prop_formula_codec(cfg: SelfCheckConfig, rng: random.Random):
    acts = random_alphabet(rng, cfg.max_labels)
    phi = random_bl_formula(rng, acts, cfg.max_formula_depth)
    encoded_sig = morphism_signature_map(acts)
    psi = random_cc_formula(rng, encoded_sig, cfg.max_formula_depth)
    if decode_formula(encode_formula(phi)) != phi:
        return f"decode(encode(..)) changed {formula_text(phi)}"
    if encode_formula(decode_formula(psi)) != psi:
        return f"encode(decode(..)) changed {formula_text(psi)}"
    return None


@prop("translate.formula-embedding-truth")
def _prop_embed_truth(cfg: SelfCheckConfig, rng: random.Random):
    sig = random_signature(rng, cfg.max_labels)
    p = random_lts(rng, sig, cfg.max_states)
    s = random_state(rng, p)
    phi = random_cc_formula(rng, sig, cfg.max_formula_depth)
    if mc_cc(p, s, phi) != mc_mts(mts_of_lts(p), s, embed_formula(phi)):
        return f"embedding changed the truth of {formula_text(phi)} at {s} on\n{print_system(p)}"
    return None


@prop("translate.formula-encoding-truth")
def _prop_encode_truth(cfg: SelfCheckConfig, rng: random.Random):
    m = random_mts(rng, random_alphabet(rng, cfg.max_labels), cfg.max_states)
    s = random_state(rng, m)
    phi = random_bl_formula(rng, m.actions, cfg.max_formula_depth)
    if mc_mts(m, s, phi) != mc_cc(lts_of_mts(m), s, encode_formula(phi)):
        return f"encoding changed the truth of {formula_text(phi)} at {s} on\n{print_system(m)}"
    return None


@prop("translate.formula-decoding-truth")
def _prop_decode_truth(cfg: SelfCheckConfig, rng: random.Random):
    m = random_mts(rng, random_alphabet(rng, cfg.max_labels), cfg.max_states)
    encoded = lts_of_mts(m)
    back = mts_of_encoded_lts(encoded)
    s = random_state(rng, encoded)
    psi = random_cc_formula(rng, encoded.signature, cfg.max_formula_depth)
    if mc_cc(encoded, s, psi) != mc_mts(back, s, decode_formula(psi)):
        return f"decoding changed the truth of {formula_text(psi)} at {s} on\n{print_system(m)}"
    return None


@prop("translate.approximation-sound")
def _prop_approx_sound(cfg: SelfCheckConfig, rng: random.Random):
    sig = random_signature(rng, cfg.max_labels)
    p = random_lts(rng, sig, cfg.max_states)
    s = random_state(rng, p)
    phi = random_bl_formula(rng, sig.actions, cfg.max_formula_depth)
    if mc_mts(mts_of_lts(p), s, phi) and not mc_cc(p, s, approximate_formula(phi, sig)):
        return f"approximation of {formula_text(phi)} is unsound at {s} on\n{print_system(p)}"
    return None


def _approx_converse_violation(
    p: PointedLTS, s: str, phi: Formula
) -> bool:
    sig = p.signature
    return mc_cc(p, s, approximate_formula(phi, sig)) and not mc_mts(mts_of_lts(p), s, phi)


@prop("translate.approximation-complete-existential")
def _prop_approx_existential(cfg: SelfCheckConfig, rng: random.Random):
    sig = random_signature(rng, cfg.max_labels)
    p = random_lts(rng, sig, cfg.max_states)
    s = random_state(rng, p)
    phi = random_bl_formula(rng, sig.actions, cfg.max_formula_depth, existential=True)
    if not is_existential(phi):
        return f"generator produced a non-existential formula {formula_text(phi)}"
    if _approx_converse_violation(p, s, phi):
        return f"approximation of existential {formula_text(phi)} is incomplete at {s} on\n{print_system(p)}"
    return None


@prop("translate.approximation-complete-no-covariant")
def _prop_approx_no_covariant(cfg: SelfCheckConfig, rng: random.Random):
    sig = random_signature(rng, cfg.max_labels, classes=(CONTRAVARIANT, BIVARIANT))
    p = random_lts(rng, sig, cfg.max_states)
    s = random_state(rng, p)
    phi = random_bl_formula(rng, sig.actions, cfg.max_formula_depth)
    if _approx_converse_violation(p, s, phi):
        return (
            f"approximation of {formula_text(phi)} is incomplete without covariant labels "
            f"at {s} on\n{print_system(p)}"
        )
    return None


@prop("translate.approximation-complete-unguarded", expect_fail=True)
def _prop_approx_unguarded(cfg: SelfCheckConfig, rng: random.Random):
    a = Action("a")
    pinned = PointedLTS(frozenset({"s0"}), signature(cov=[a]), frozenset(), "s0")
    pinned_phi: Formula = Box(a, Bottom())
    if _approx_converse_violation(pinned, "s0", pinned_phi):
        yield (
            "known hole: [a]ff approximates to tt over a covariant-only signature, "
            "but the embedded state can always step to the sink"
        )
    else:
        yield None
    for _ in range(cfg.cases):
        sig = random_signature(rng, cfg.max_labels)
        p = random_lts(rng, sig, cfg.max_states)
        s = random_state(rng, p)
        phi = random_bl_formula(rng, sig.actions, cfg.max_formula_depth)
        if _approx_converse_violation(p, s, phi):
            yield f"converse fails for {formula_text(phi)} at {s} on\n{print_system(p)}"
        else:
            yield None


def _mts_round_trip(m: PointedMTS) -> tuple[PointedMTS, PointedMTS]:
    """An MTS and its round trip through the encoding, the lower one first."""
    return strip_decorations(mts_of_lts(lts_of_mts(m))), m


def _lts_round_trip(p: PointedLTS) -> tuple[PointedLTS, PointedLTS]:
    """An LTS and its round trip through the embedding, the lower one first."""
    return p, strip_decorations(lts_of_mts(mts_of_lts(p)), target=p.signature)


@prop("translate.composition-bound-mts", _MTS, mts(["m"], ["a"], [], [], "m"), _mts_round_trip,
      "the round trip is not below the one-state pinned system", "round trip is not below the original")
@prop("translate.composition-bound-lts", _CC, lts(["p"], signature(cov=["a"]), [], "p"), _lts_round_trip,
      "the one-state pinned system is not below its round trip", "original is not below its round trip")
def _prop_composition_bound(
    cfg: SelfCheckConfig, rng: random.Random, view: _View, pin, round_trip, pin_failure: str, failure: str
):
    """The round trip through the other world bounds a system strictly:
    below an MTS, above an LTS."""
    lower, upper = round_trip(pin)
    if (pin.init, pin.init) not in greatest(view.kind, lower, upper):
        yield pin_failure
    elif (pin.init, pin.init) in greatest(view.kind, upper, lower):
        yield "the inequality is not strict on the one-state pinned system"
    else:
        yield None
    for _ in range(cfg.cases):
        system = view.system(rng, view.labels(rng, cfg), cfg.max_states)
        lower, upper = round_trip(system)
        rel = greatest(view.kind, lower, upper)
        for s in sorted(system.states):
            if (s, s) not in rel:
                yield f"{failure} at state {s} on\n{print_system(system)}"
                break
        else:
            yield None


@prop("translate.decorated-bridge")
def _prop_decorated_bridge(cfg: SelfCheckConfig, rng: random.Random):
    a = Action("a")
    pin_p = PointedLTS(frozenset({"p"}), signature(cov=[a]), frozenset(), "p")
    pin_q = PointedMTS(
        frozenset({"q"}), frozenset({a}), frozenset({("q", a, "q")}), frozenset(), "q"
    )
    if ("p", "q") not in greatest(Refinement(), mts_of_lts(pin_p), pin_q):
        yield "pinned pair lost the embedded refinement"
    elif ("p", "q") in greatest(CCSim(), decorate_by_class(pin_p), lts_of_mts(pin_q)):
        yield "pinned pair unexpectedly satisfies the decorated simulation"
    else:
        yield None
    for _ in range(cfg.cases):
        sig = random_signature(rng, cfg.max_labels, classes=(COVARIANT, CONTRAVARIANT))
        p = random_lts(rng, sig, cfg.max_states, prefix="p")
        q = random_mts(rng, sig.actions, cfg.max_states, prefix="q")
        bridge = greatest(CCSim(), decorate_by_class(p), lts_of_mts(q))
        target = greatest(Refinement(), mts_of_lts(p), q)
        for pair in sorted(bridge.pairs):
            if pair[0] in p.states and pair not in target:
                yield f"decorated simulation at {pair} did not transfer to refinement on\n{_show_pair(p, q)}"
                break
        else:
            yield None


@prop("translate.eliminate-bivariant-preserves")
def _prop_eliminate_bivariant(cfg: SelfCheckConfig, rng: random.Random):
    p, q = random_lts_pair(rng, cfg.max_states)
    before = greatest(CCSim(), p, q).pairs
    after = greatest(CCSim(), eliminate_bivariant(p), eliminate_bivariant(q)).pairs
    changed = [
        (pp, qq)
        for pp in sorted(p.states)
        for qq in sorted(q.states)
        if ((pp, qq) in before) != ((pp, qq) in after)
    ]
    if changed:
        pp, qq = changed[0]
        return f"bivariant elimination changed pair ({pp}, {qq}) on\n{_show_pair(p, q)}"
    return None


# --------------------------------------------------------------------------
# characteristic formulae


def _union(systems: list, init: Optional[str] = None) -> Union[PointedMTS, PointedLTS]:
    """One system with the states and transitions of all ``systems``, which
    share their labels, started at ``init`` or else at its least state."""

    def merged(field: str) -> frozenset:
        return frozenset().union(*(getattr(system, field) for system in systems))

    states = merged("states")
    init = min(states) if init is None else init
    if isinstance(systems[0], PointedMTS):
        return systems[0]._replace(states=states, may=merged("may"), must=merged("must"), init=init)
    return systems[0]._replace(states=states, transitions=merged("transitions"), init=init)


def _mts_term_universe(
    acts: frozenset[Action], height: int
) -> tuple[list[Term], PointedMTS]:
    terms = enumerate_mts_terms(acts, height)
    return terms, _union([expand_mts_term(t, acts) for t in terms], "0")


def _mismatch(t: Term, what: str, sat: frozenset[str], row: frozenset[str]) -> Optional[str]:
    """A failure when the states that satisfy ``what``, the characteristic
    formula of ``t``, are not the states ``row`` above ``t``."""
    if sat == row:
        return None
    return (
        f"term {term_text(t)}: {what} satisfied beyond the preorder at {sorted(sat - row)}, "
        f"missing {sorted(row - sat)}"
    )


def _larsen_mismatches(
    terms: list[Term],
    universe: PointedMTS,
    acts: frozenset[Action],
    literal: bool,
) -> Iterator[Optional[str]]:
    big = greatest(Refinement(), universe, universe)
    for t in terms:
        result = characteristic_formula(t, acts, literal_prefix_clause=literal)
        sat = satisfying_states_mts(universe, result.formula)
        row = frozenset(s for s in universe.states if (term_text(t), s) in big.pairs)
        yield _mismatch(t, "formula", sat, row)


@prop("charform.larsen-characteristic")
def _prop_larsen(cfg: SelfCheckConfig, rng: random.Random):
    acts = frozenset(pool_labels(cfg.max_labels))
    terms, universe = _mts_term_universe(acts, cfg.term_height)
    yield from _larsen_mismatches(terms, universe, acts, literal=False)


@prop("charform.simplified-equivalent")
def _prop_simplified_equivalent(cfg: SelfCheckConfig, rng: random.Random):
    acts = frozenset(pool_labels(cfg.max_labels))
    terms, universe = _mts_term_universe(acts, cfg.term_height)
    for t in terms:
        result = characteristic_formula(t, acts)
        full = satisfying_states_mts(universe, result.formula)
        lean = satisfying_states_mts(universe, result.simplified)
        if full != lean:
            yield (
                f"term {term_text(t)}: simplified form disagrees "
                f"({formula_text(result.simplified)} vs {formula_text(result.formula)})"
            )
        else:
            yield None


@prop("charform.literal-prefix-clause-fails", expect_fail=True)
def _prop_literal_clause(cfg: SelfCheckConfig, rng: random.Random):
    acts = frozenset(pool_labels(1))
    terms, universe = _mts_term_universe(acts, max(cfg.term_height, 2))
    yield from _larsen_mismatches(terms, universe, acts, literal=True)


@prop("charform.cc-transport")
def _prop_cc_transport(cfg: SelfCheckConfig, rng: random.Random):
    acts = frozenset(pool_labels(cfg.max_labels))
    height = cfg.term_height
    terms = enumerate_mts_terms(acts, height)
    encoded_sig = morphism_signature_map(acts)
    expansions = {term_text(t): expand_lts_term(encode_term(t), encoded_sig) for t in terms}
    left = _union(list(expansions.values()))
    right = _union([expand_lts_term(s, encoded_sig) for s in enumerate_lts_terms(encoded_sig, height)])
    big = greatest(CCSim(), left, right)
    for t in terms:
        phi = characteristic_formula_cc(t, acts)
        sat = satisfying_states_cc(right, phi)
        row = frozenset(s for s in right.states if (expansions[term_text(t)].init, s) in big.pairs)
        yield _mismatch(t, "encoded formula", sat, row)


@prop("charform.omega-satisfied-everywhere")
def _prop_omega_formula(cfg: SelfCheckConfig, rng: random.Random):
    acts = random_alphabet(rng, cfg.max_labels)
    m = random_mts(rng, acts, cfg.max_states)
    result = characteristic_formula(Omega(), acts)
    if result.simplified != Top():
        return f"loosest-process formula simplified to {formula_text(result.simplified)}"
    if satisfying_states_mts(m, result.formula) != m.states:
        return f"loosest-process formula rejected a state of\n{print_system(m)}"
    return None


# --------------------------------------------------------------------------
# institutions


@prop("institutions.satisfaction-condition.mts", _MTS)
@prop("institutions.satisfaction-condition.cc", _CC)
def _prop_satisfaction(cfg: SelfCheckConfig, rng: random.Random, view: _View):
    f = view.morphism(rng, cfg)
    m = view.system(rng, f.target, cfg.max_states)
    s = random_state(rng, m)
    phi = view.formula(rng, f.source, cfg.max_formula_depth)
    if not check_satisfaction_condition(f, m, s, phi):
        return f"satisfaction condition broke for {formula_text(phi)} at {s} on\n{print_system(m)}"
    return None


@prop("institutions.morphism-composition")
def _prop_morphism_composition(cfg: SelfCheckConfig, rng: random.Random):
    f = _random_mts_morphism(rng, cfg)
    mid_choices = sorted_actions(f.source)
    inner = [Action(f"y{i}") for i in range(rng.randint(1, 3))]
    g = mts_morphism(
        inner,
        f.source,
        {a: mid_choices[rng.randrange(len(mid_choices))] for a in inner},
    )
    composed = compose_morphisms(f, g)
    phi = random_bl_formula(rng, g.source, cfg.max_formula_depth)
    m = random_mts(rng, f.target, cfg.max_states)
    if sen_map(composed, phi) != sen_map(f, sen_map(g, phi)):
        return f"sentence maps disagreed under composition for {formula_text(phi)}"
    if reduct(m, composed) != reduct(reduct(m, f), g):
        return f"reducts disagreed under composition on\n{print_system(m)}"
    if compose_morphisms(f, identity_morphism(f.source)) != f:
        return "composing with the source identity changed the morphism"
    if compose_morphisms(identity_morphism(f.target), f) != f:
        return "composing with the target identity changed the morphism"
    return None


@prop("institutions.morphism-condition")
def _prop_morphism_condition(cfg: SelfCheckConfig, rng: random.Random):
    m = random_mts(rng, random_alphabet(rng, cfg.max_labels), cfg.max_states)
    s = random_state(rng, m)
    encoded_sig = lts_of_mts(m).signature
    phi = random_cc_formula(rng, encoded_sig, cfg.max_formula_depth)
    if not check_morphism_condition(m, s, phi):
        return f"institution morphism condition broke for {formula_text(phi)} at {s} on\n{print_system(m)}"
    return None


@prop("institutions.weakly-final-cc", _CC, weakly_final_implementation, True,
      "some state does not simulate into the candidate on")
@prop("institutions.universal-spec-cc", _CC, universal_specification, False,
      "the candidate does not simulate into some state of")
@prop("institutions.weakly-initial-mts", _MTS, universal_mts, False,
      "the may-everything system is not below every state of")
def _prop_extremal(
    cfg: SelfCheckConfig, rng: random.Random, view: _View, build, final: bool, failure: str
):
    """The system that ``build`` makes from some labels lies above every
    state of every system over them if ``final``, and below it if not."""
    labels = view.term_labels(rng, cfg)
    w = build(labels)
    system = view.system(rng, labels, cfg.max_states)
    # Read with ``w`` on the left either way.
    rel = greatest(view.kind, system, w).inverse() if final else greatest(view.kind, w, system)
    if any((w.init, s) not in rel for s in system.states):
        return f"{failure}\n{print_system(system)}"
    return None


def _subsets(items: list) -> Iterator[frozenset]:
    """Every subset of ``items``, in the order of their bit masks."""
    for bits in range(1 << len(items)):
        yield frozenset(t for i, t in enumerate(items) if bits >> i & 1)


# Every system on one or two states over the labels of ``like``.
def _small_mts_candidates(like: PointedMTS) -> Iterator[PointedMTS]:
    labels = sorted_actions(like.actions)
    for n in (1, 2):
        states = [f"w{i}" for i in range(n)]
        for may in _subsets([(s, a, d) for s in states for a in labels for d in states]):
            for must in _subsets(sorted(may, key=_triple_key)):
                for init in states:
                    yield PointedMTS(frozenset(states), like.actions, may, must, init)


def _small_lts_candidates(like: PointedLTS) -> Iterator[PointedLTS]:
    labels = sorted_actions(like.signature.actions)
    for n in (1, 2):
        states = [f"w{i}" for i in range(n)]
        for trans in _subsets([(s, a, d) for s in states for a in labels for d in states]):
            for init in states:
                yield PointedLTS(frozenset(states), like.signature, trans, init)


@prop("institutions.no-weakly-final-mts", _MTS, final_obstruction_pair(), _small_mts_candidates,
      True, "demanding", "candidate admits arrows from both obstruction systems:")
@prop("institutions.no-weakly-initial-cc-bivariant", _CC, initial_obstruction_pair(), _small_lts_candidates,
      False, "looping", "candidate admits arrows into either obstruction system:")
def _prop_no_extremal(
    cfg: SelfCheckConfig, rng: random.Random, view: _View, obstruction, candidates, final: bool, name, failure
):
    """No MTS is weakly final, and no LTS over a bivariant label is weakly
    initial: each system of the obstruction pair reaches itself, but no small
    candidate takes an arrow from both (if ``final``) or sends one into both."""

    def arrow(a, b) -> bool:
        return (a.init, b.init) in greatest(view.kind, a, b)

    for system, what in zip(obstruction, (name, "silent")):
        if not arrow(system, system):
            yield f"the {what} obstruction system does not even reach itself"
        else:
            yield None
    for candidate in candidates(obstruction[0]):
        if all(arrow(o, candidate) if final else arrow(candidate, o) for o in obstruction):
            yield f"{failure}\n{print_system(candidate)}"
        else:
            yield None


# --------------------------------------------------------------------------
# sampling determinism


@prop("sampling.deterministic")
def _prop_sampling_deterministic(cfg: SelfCheckConfig, rng: random.Random):
    one = random.Random("determinism:probe")
    two = random.Random("determinism:probe")
    for _ in range(cfg.cases):
        pair_one = random_mts_pair(one, cfg.max_states, cfg.max_labels)
        pair_two = random_mts_pair(two, cfg.max_states, cfg.max_labels)
        sig_one = random_signature(one, cfg.max_labels)
        sig_two = random_signature(two, cfg.max_labels)
        phi_one = random_cc_formula(one, sig_one, cfg.max_formula_depth)
        phi_two = random_cc_formula(two, sig_two, cfg.max_formula_depth)
        term_one = random_term(one, mts_term_forms(pair_one[0].actions), cfg.term_height)
        term_two = random_term(two, mts_term_forms(pair_two[0].actions), cfg.term_height)
        if pair_one != pair_two:
            yield "system generation diverged under one seed"
        elif sig_one != sig_two:
            yield "signature generation diverged under one seed"
        elif phi_one != phi_two:
            yield "formula generation diverged under one seed"
        elif term_one != term_two:
            yield "term generation diverged under one seed"
        else:
            yield None
