"""Institution-style packaging of the two logics.

Signatures are plain alphabets (MTS side) or covariant-contravariant
signatures (LTS side).  A signature morphism maps labels to labels, class
preserving on the LTS side; sentences travel along morphisms by relabelling
modalities, models travel backwards by pulling transitions back along the
label map (states and the distinguished state stay put).  The satisfaction
condition, truth is invariant under this round trip, holds for both logics
and is checked pointwise by :func:`check_satisfaction_condition`.

The two institutions are connected by mapping an alphabet ``A`` to the
decorated signature ``(cv(A), ct(A), {})`` of
:func:`~modalsim.translate.morphism_signature_map`, sentences backwards via
:func:`~modalsim.translate.decode_formula` and models via
:func:`~modalsim.translate.lts_of_mts`;
:func:`check_morphism_condition` checks the resulting invariance.

Some canonical models, with "simulates" meaning
``greatest(CCSim(), ...)`` and "refines" ``greatest(Refinement(), ...)``
of :mod:`modalsim.preorders`:

* :func:`weakly_final_implementation`: one state looping on every covariant
  label; every same-signature model simulates into it (signatures without
  bivariant labels);
* :func:`universal_specification`: one state looping on every contravariant
  label; it simulates into every same-signature model (again bivariant
  free);
* :func:`~modalsim.systems.universal_mts`: the one-state may-everything
  MTS, which refines into every MTS over its alphabet (weakly initial).

No MTS plays the weakly final role, and no LTS model is weakly initial once
a bivariant label exists; :func:`final_obstruction_pair` and
:func:`initial_obstruction_pair` build the concrete two-model instances
that rule the candidates out.  A degenerate morphism collapsing every label
(making all systems indistinguishable) exists but is deliberately not part
of the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .formulas import (
    CCLogic,
    BLLogic,
    Formula,
    check_wf,
    mc_cc,
    mc_mts,
)
from .systems import (
    Action,
    CCSignature,
    PointedLTS,
    PointedMTS,
    action,
    actions_text,
    signature,
    sorted_actions,
)
from .translate import decode_formula, lts_of_mts, relabel


def _freeze_mapping(mapping: Mapping[Action, Action]) -> tuple[tuple[Action, Action], ...]:
    return tuple(sorted(mapping.items(), key=lambda kv: str(kv[0])))


class _LabelMap:
    """The label map both morphism kinds share, as sorted ``pairs``."""

    pairs: tuple[tuple[Action, Action], ...]

    def apply(self, a: Action) -> Action:
        for k, v in self.pairs:
            if k == a:
                return v
        raise KeyError(f"label {a} not in the source alphabet")


@dataclass(frozen=True)
class MtsSignatureMorphism(_LabelMap):
    """A total label map between two alphabets."""

    source: frozenset[Action]
    target: frozenset[Action]
    pairs: tuple[tuple[Action, Action], ...]

    def __post_init__(self) -> None:
        keys = frozenset(k for k, _ in self.pairs)
        if keys != self.source:
            raise ValueError("morphism must be defined on exactly the source alphabet")
        stray = frozenset(v for _, v in self.pairs) - self.target
        if stray:
            raise ValueError(
                f"morphism images {actions_text(stray)} are outside the target alphabet"
            )


@dataclass(frozen=True)
class CCSignatureMorphism(_LabelMap):
    """A total, class-preserving label map between two signatures."""

    source: CCSignature
    target: CCSignature
    pairs: tuple[tuple[Action, Action], ...]

    def __post_init__(self) -> None:
        keys = frozenset(k for k, _ in self.pairs)
        if keys != self.source.actions:
            raise ValueError("morphism must be defined on exactly the source alphabet")
        classes = (
            ("covariant", self.source.covariant, self.target.covariant),
            ("contravariant", self.source.contravariant, self.target.contravariant),
            ("bivariant", self.source.bivariant, self.target.bivariant),
        )
        lookup = dict(self.pairs)
        for name, src_class, tgt_class in classes:
            for a in sorted_actions(src_class):
                if lookup[a] not in tgt_class:
                    raise ValueError(
                        f"{name} label {a} maps to {lookup[a]}, which is not {name}"
                    )


SignatureMorphism = Union[MtsSignatureMorphism, CCSignatureMorphism]


def mts_morphism(
    source: Iterable[Union[str, Action]],
    target: Iterable[Union[str, Action]],
    mapping: Mapping[Union[str, Action], Union[str, Action]],
) -> MtsSignatureMorphism:
    src = frozenset(action(a) for a in source)
    tgt = frozenset(action(a) for a in target)
    pairs = {action(k): action(v) for k, v in mapping.items()}
    return MtsSignatureMorphism(src, tgt, _freeze_mapping(pairs))


def cc_morphism(
    source: CCSignature,
    target: CCSignature,
    mapping: Mapping[Union[str, Action], Union[str, Action]],
) -> CCSignatureMorphism:
    pairs = {action(k): action(v) for k, v in mapping.items()}
    return CCSignatureMorphism(source, target, _freeze_mapping(pairs))


def identity_morphism(
    sig: Union[CCSignature, Iterable[Union[str, Action]]],
) -> SignatureMorphism:
    if isinstance(sig, CCSignature):
        return cc_morphism(sig, sig, {a: a for a in sig.actions})
    alphabet = frozenset(action(a) for a in sig)
    return mts_morphism(alphabet, alphabet, {a: a for a in alphabet})


def compose_morphisms(f: SignatureMorphism, g: SignatureMorphism) -> SignatureMorphism:
    """``f`` after ``g``: the source of ``f`` must be the target of ``g``."""
    if type(f) is not type(g):
        raise TypeError("cannot compose morphisms of different institutions")
    if g.target != f.source:
        raise ValueError("composition needs target(g) == source(f)")
    mapping = {k: f.apply(v) for k, v in g.pairs}
    return type(f)(g.source, f.target, _freeze_mapping(mapping))


def sen_map(f: SignatureMorphism, phi: Formula) -> Formula:
    """Translate a sentence along a morphism by relabelling its modalities.

    Class preservation keeps well-formedness, which is asserted on the way
    out.
    """
    out = relabel(phi, f.apply, f.apply)
    if isinstance(f, CCSignatureMorphism):
        logic: Union[BLLogic, CCLogic] = CCLogic(f.target)
    else:
        logic = BLLogic(f.target)
    problems = check_wf(out, logic)
    assert not problems, f"sentence translation broke well-formedness: {problems}"
    return out


def reduct(
    system: Union[PointedMTS, PointedLTS], f: SignatureMorphism
) -> Union[PointedMTS, PointedLTS]:
    """Pull a model over the target signature back to the source: same
    states, same distinguished state, and an ``a`` transition wherever the
    model has an ``f(a)`` one."""
    if isinstance(system, PointedMTS):
        if not isinstance(f, MtsSignatureMorphism):
            raise TypeError("an MTS reduct needs an alphabet morphism")
        if system.actions != f.target:
            raise ValueError("the model must live over the morphism's target alphabet")
        may = set()
        must = set()
        for a, fa in f.pairs:
            may.update((s, a, d) for (s, lab, d) in system.may if lab == fa)
            must.update((s, a, d) for (s, lab, d) in system.must if lab == fa)
        return PointedMTS(system.states, f.source, frozenset(may), frozenset(must), system.init)
    if not isinstance(f, CCSignatureMorphism):
        raise TypeError("an LTS reduct needs a signature morphism")
    if system.signature != f.target:
        raise ValueError("the model must live over the morphism's target signature")
    trans = set()
    for a, fa in f.pairs:
        trans.update((s, a, d) for (s, lab, d) in system.transitions if lab == fa)
    return PointedLTS(system.states, f.source, frozenset(trans), system.init)


def check_satisfaction_condition(
    f: SignatureMorphism,
    system: Union[PointedMTS, PointedLTS],
    state: str,
    phi: Formula,
) -> bool:
    """Does the satisfaction condition hold for this morphism, model, state
    and source sentence: translated sentence at the model iff original
    sentence at the reduct?"""
    if isinstance(f, MtsSignatureMorphism):
        there = mc_mts(system, state, sen_map(f, phi))
        back = mc_mts(reduct(system, f), state, phi)
    else:
        there = mc_cc(system, state, sen_map(f, phi))
        back = mc_cc(reduct(system, f), state, phi)
    return there == back


def check_morphism_condition(m: PointedMTS, state: str, phi: Formula) -> bool:
    """Truth is invariant across the connecting morphism: the decoded
    sentence holds at an MTS state iff the sentence holds at the same state
    of the encoded model."""
    return mc_mts(m, state, decode_formula(phi)) == mc_cc(lts_of_mts(m), state, phi)


def weakly_final_implementation(sig: CCSignature) -> PointedLTS:
    """One state ``s`` looping on every covariant label; weakly final among
    models over a bivariant-free signature."""
    if sig.bivariant:
        raise ValueError("weak finality needs a signature without bivariant labels")
    loops = frozenset(("s", a, "s") for a in sig.covariant)
    return PointedLTS(frozenset({"s"}), sig, loops, "s")


def universal_specification(sig: CCSignature) -> PointedLTS:
    """One state ``s`` looping on every contravariant label; weakly initial
    among models over a bivariant-free signature."""
    if sig.bivariant:
        raise ValueError("weak initiality needs a signature without bivariant labels")
    loops = frozenset(("s", a, "s") for a in sig.contravariant)
    return PointedLTS(frozenset({"s"}), sig, loops, "s")


def final_obstruction_pair() -> tuple[PointedMTS, PointedMTS]:
    """Two MTSs over the one letter ``a`` that no single MTS can receive
    refinement arrows from simultaneously: one demands an infinite must
    path, the other forbids any may step."""
    a = action("a")
    demanding = PointedMTS(
        states=frozenset({"m"}),
        actions=frozenset({a}),
        may=frozenset({("m", a, "m")}),
        must=frozenset({("m", a, "m")}),
        init="m",
    )
    silent = PointedMTS(
        states=frozenset({"n"}),
        actions=frozenset({a}),
        may=frozenset(),
        must=frozenset(),
        init="n",
    )
    return demanding, silent


def initial_obstruction_pair() -> tuple[PointedLTS, PointedLTS]:
    """Two LTSs over the one bivariant letter ``c`` that no single model can
    simulate into simultaneously: one loops on the bivariant label, the
    other is silent."""
    c = action("c")
    sig = signature(bi=[c])
    looping = PointedLTS(frozenset({"p"}), sig, frozenset({("p", c, "p")}), "p")
    silent = PointedLTS(frozenset({"q"}), sig, frozenset(), "q")
    return looping, silent
