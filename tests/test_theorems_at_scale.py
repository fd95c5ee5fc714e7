"""The paper's translation theorems as oracles on systems of 1,000 states:
refinement is cc-simulation of the encodings, and partial bisimulation is
refinement of the modal readings, the two sides swapped.  The systems come
from the benchmark's own generators, read from ``perfbench/gen.py``."""

import importlib.util
import random
import sys
from pathlib import Path

from modalsim.preorders import CCSim, PartialBisim, Refinement, decide
from modalsim.systems import action
from modalsim.textio import parse_system
from modalsim.translate import lts_of_mts, mts_of_plain_lts


def _load_gen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    # ``dataclass`` looks its class's module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gen = _load_gen()
N = 1000
SAMPLE = 20


def _pairs(p_sys, q_sys, seed):
    """The initial pair and ``SAMPLE`` seeded pairs."""
    rng = random.Random(seed)
    left, right = sorted(p_sys.states), sorted(q_sys.states)
    return [(p_sys.init, q_sys.init)] + [(rng.choice(left), rng.choice(right)) for _ in range(SAMPLE)]


def test_refinement_is_cc_simulation_of_the_encodings_at_scale():
    rng = random.Random(11)
    base = gen.sparse_mts(rng, N, gen.pick_labels(rng, 3), 3)
    p_sys = parse_system(gen.system_text(gen.planted_mts(rng, base)))
    q_sys = parse_system(gen.system_text(base))
    p_enc, q_enc = lts_of_mts(p_sys), lts_of_mts(q_sys)
    verdicts = []
    for p, q in _pairs(p_sys, q_sys, 11):
        related = decide(Refinement(), p_sys, p, q_sys, q)[0]
        assert decide(CCSim(), p_enc, p, q_enc, q)[0] == related, (p, q)
        verdicts.append(related)
    # The planted pair is related, and the sample holds unrelated pairs.
    assert verdicts[0] and not all(verdicts)


def test_partial_bisimulation_is_refinement_of_the_modal_readings_at_scale():
    rng = random.Random(11)
    labels = gen.pick_labels(rng, 3)
    base = gen.sparse_lts(rng, N, labels, 3, gen.sparse_signature(rng, labels))
    bset = frozenset({labels[0]})
    p_sys = parse_system(gen.system_text(gen.planted_lts(rng, base, "pbsim", bset)))
    q_sys = parse_system(gen.system_text(base))
    kind = PartialBisim(frozenset(map(action, bset)))
    p_mts, q_mts = mts_of_plain_lts(p_sys, kind.bset), mts_of_plain_lts(q_sys, kind.bset)
    verdicts = []
    for p, q in _pairs(p_sys, q_sys, 11):
        related = decide(kind, p_sys, p, q_sys, q)[0]
        assert decide(Refinement(), q_mts, q, p_mts, p)[0] == related, (p, q)
        verdicts.append(related)
    assert verdicts[0] and not all(verdicts)
