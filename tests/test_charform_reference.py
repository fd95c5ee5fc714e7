"""Test-only references for :func:`modalsim.charform.characteristic_formula`.

The characteristic formula is checked against a plain recursion that
transcribes the module docstring's ``delta``/``gamma`` clauses, with either
prefix clause; its diamonds are ordered by action and then by the text of
the target.  The library builds it in one walk over the canonical subterm
nodes, together with the lean form.

The lean form is checked against a reference that walks the term itself:
for each may successor it asks anew whether that subterm is as loose as
``w``, expanding the subterm and running two refinement fixpoints against
the expansion of ``w``.  The library runs no fixpoint: it reads a subterm
as loose as ``w`` off its lean form, which is then ``tt``.  Both must print
the same formula byte for byte, and the library's answer to the per-term
question must agree with the fixpoints' at every state of the expansion.
"""

import random

import pytest

from modalsim.charform import characteristic_formula, is_omega_equivalent
from modalsim.formulas import Bottom, Box, Diamond, Or, Top, conj, disj, formula_text, simplify
from modalsim.preorders import Refinement, greatest
from modalsim.systems import action, sorted_actions
from modalsim.terms import (
    MustPrefix,
    Omega,
    Prefix,
    Sum,
    Zero,
    canonical_term,
    enumerate_mts_terms,
    expand_mts_term,
    term_text,
)
from modalsim.textio import parse_term

LABELS = (action("a"), action("b"))

# ---------------------------------------------------------------- reference


def _reference_omega(t, ambient):
    left = expand_mts_term(t, ambient)
    right = expand_mts_term(Omega(), ambient)
    forward = greatest(Refinement(), left, right)
    backward = greatest(Refinement(), right, left)
    return (left.init, right.init) in forward and (right.init, left.init) in backward


def _moves(t, ordered, must_only):
    if isinstance(t, Sum):
        return _moves(t.left, ordered, must_only) + _moves(t.right, ordered, must_only)
    if isinstance(t, Omega):
        return [] if must_only else [(a, t) for a in ordered]
    if isinstance(t, MustPrefix) or (isinstance(t, Prefix) and not must_only):
        return [(t.action, t.rest)]
    return []


def reference_simplified(root, acts):
    """The lean form of the canonical term ``root``, one omega question per
    distinct may successor."""
    ambient = frozenset(action(a) for a in acts)
    ordered = sorted_actions(ambient)
    memo, loose = {}, {}

    def omega_like(sub):
        if sub not in loose:
            loose[sub] = _reference_omega(sub, ambient)
        return loose[sub]

    def lean(t):
        if t in memo:
            return memo[t]
        parts = []
        musts = sorted(set(_moves(t, ordered, True)), key=lambda m: (str(m[0]), term_text(m[1])))
        for a, nxt in musts:
            parts.append(Diamond(a, lean(nxt)))
        mays = _moves(t, ordered, False)
        for a in ordered:
            targets = dict.fromkeys(nxt for b, nxt in mays if b is a)
            if any(omega_like(sub) for sub in targets):
                continue
            parts.append(Box(a, disj([lean(sub) for sub in sorted(targets, key=term_text)])))
        memo[t] = simplify(conj(parts))
        return memo[t]

    return lean(root)


def reference_chi(root, acts, literal_prefix_clause=False):
    """``chi`` of the canonical term ``root`` by the clauses of the module
    docstring of :mod:`modalsim.charform`, one call per clause."""
    ordered = sorted_actions(frozenset(action(a) for a in acts))

    def delta(t):
        if isinstance(t, Sum):
            return delta(t.left) | delta(t.right)
        if isinstance(t, MustPrefix):
            return {(t.action, t.rest)}
        return set()

    def gamma(t, a):
        if isinstance(t, Zero):
            return Bottom()
        if isinstance(t, Omega):
            return Top()
        if isinstance(t, Sum):
            return Or(gamma(t.left, a), gamma(t.right, a))
        if t.action != a:
            return Bottom()
        return gamma(t.rest, a) if literal_prefix_clause else chi(t.rest)

    def chi(t):
        moves = sorted(delta(t), key=lambda m: (str(m[0]), term_text(m[1])))
        diamonds = dict.fromkeys(Diamond(a, chi(nxt)) for a, nxt in moves)
        return conj(list(diamonds) + [Box(a, gamma(t, a)) for a in ordered])

    return chi(root)


# ---------------------------------------------------------------- cases


def _random_term(rng, height):
    if height == 1 or rng.random() < 0.15:
        return rng.choice([Zero(), Omega()])
    if rng.random() < 0.4:
        return Sum(_random_term(rng, height - 1), _random_term(rng, height - 1))
    forced = rng.random() < 0.5
    return (MustPrefix if forced else Prefix)(rng.choice(LABELS), _random_term(rng, height - 1))


def _cases():
    cases = [(t, ("a",)) for t in enumerate_mts_terms(["a"], 3)]
    cases += [(t, ("a", "b")) for t in enumerate_mts_terms(["a", "b"], 3)]
    rng = random.Random(8)
    cases += [(_random_term(rng, 8), ("a", "b")) for _ in range(150)]
    return cases


CASES = _cases()


def test_the_random_cases_have_w_and_must_prefixes():
    texts = [term_text(t) for t, _ in CASES[-150:]]
    assert sum("w" in s for s in texts) > 50
    assert sum("!" in s for s in texts) > 50
    assert max(len(s) for s in texts) > 100


@pytest.mark.parametrize("literal", [False, True], ids=["paper-clause", "literal-clause"])
def test_chi_matches_the_recursion_reference(literal):
    for t, acts in CASES:
        result = characteristic_formula(t, acts, literal_prefix_clause=literal)
        expected = reference_chi(canonical_term(t), acts, literal)
        assert formula_text(result.formula) == formula_text(expected), term_text(t)


@pytest.mark.parametrize("start", range(0, len(CASES), 60))
def test_simplified_matches_the_per_successor_reference(start):
    for t, acts in CASES[start:start + 60]:
        result = characteristic_formula(t, acts)
        expected = reference_simplified(result.term, acts)
        assert formula_text(result.simplified) == formula_text(expected), term_text(t)


@pytest.mark.parametrize("start", range(0, len(CASES), 60))
def test_batch_omega_states_agree_with_the_per_term_question(start):
    for t, acts in CASES[start:start + 60]:
        for state in sorted(expand_mts_term(t, acts).states):
            sub = parse_term(state, "mts")
            assert is_omega_equivalent(sub, acts) == _reference_omega(sub, acts), (term_text(t), state)
