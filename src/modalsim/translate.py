"""Translations between LTSs over covariant-contravariant signatures and
MTSs, together with the matching formula maps.

System maps:

* :func:`mts_of_lts` embeds an LTS into an MTS.  Every transition becomes a
  may transition, transitions on covariant or bivariant labels also become
  must transitions, and a fresh sink state is added that may loop on every
  action and is may-reachable from every state via every covariant label.
  The embedding turns covariant-contravariant simulation into refinement.
* :func:`lts_of_mts` encodes an MTS as an LTS over covariant copies
  ``cv(a)`` (one per must transition) and contravariant copies ``ct(a)``
  (one per may transition).  The encoding turns refinement into
  covariant-contravariant simulation and is injective;
  :func:`mts_of_encoded_lts` inverts it exactly.
* :func:`mts_of_plain_lts` reads a plain LTS with a bisimulation set ``B``
  as an MTS: every transition may, ``B``-labelled transitions also must.
  Partial bisimulation between two plain systems coincides with refinement
  between the swapped images.
* :func:`strip_decorations` renames ``cv(a)`` and ``ct(a)`` back to ``a``;
  :func:`decorate_by_class` renames covariant ``a`` to ``cv(a)`` and
  contravariant ``a`` to ``ct(a)``.  Both are thin wrappers over
  :func:`~modalsim.systems.rename_actions` with fixed label maps.
* :func:`eliminate_bivariant` composes the embedding with the encoding,
  yielding an equivalent system whose signature has no bivariant class.

The first four maps, :func:`decorate_by_class`, :func:`eliminate_bivariant`
and the two reports raise :class:`TypeError` on a system of the other kind,
as the preorders do.

Formula maps: :func:`embed_formula` (identity, LTS logic read as MTS
logic), :func:`encode_formula` (decorates modalities to match
:func:`lts_of_mts`), :func:`decode_formula` (its exact inverse) and
:func:`approximate_formula` (back from MTS logic, replacing modalities that
have no counterpart by ``ff``/``tt``; sound but deliberately one-sided,
complete only for existential formulae or alphabets without covariant
labels).  No map reflecting arbitrary box properties back through the
embedding is provided; whether a compositional one exists is left open in
the docs.  The encoding and decoding, and sentence translation along a
signature morphism, are one walk, :func:`relabel`, with different label
maps; it and :func:`approximate_formula` rebuild formulae through the one
memoised walk :func:`~modalsim.systems.fold`.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Union

from .formulas import (
    Bottom,
    Box,
    Diamond,
    Formula,
    Top,
    _same_connective,
)
from .systems import (
    CT,
    CV,
    Action,
    CCSignature,
    PointedLTS,
    PointedMTS,
    _triple_key,
    actions,
    actions_text,
    ct,
    cv,
    fold,
    rename_actions,
    sorted_actions,
)


class NotInEncodingRange(ValueError):
    """The input is not the image of the translation being inverted."""


def fresh_sink_name(states: frozenset[str]) -> str:
    """``u``, with as many ``_`` appended as keep it out of ``states``."""
    name = "u"
    while name in states:
        name += "_"
    return name


def _takes(system: object, kind: type, translation: str) -> None:
    """Refuse a system of the other kind, as the preorders do."""
    if not isinstance(system, kind):
        raise TypeError(f"{translation} takes an {'LTS' if kind is PointedLTS else 'MTS'}")


class TranslationReport(NamedTuple):
    """What a system translation did: kinds, whether a sink state was added
    (true exactly for the LTS-to-MTS embedding) and the label map used."""

    source_kind: str
    result_kind: str
    added_state: Optional[str]
    label_map: tuple[tuple[str, str], ...]


def mts_of_lts(p: PointedLTS) -> PointedMTS:
    """Embed an LTS into an MTS over the same alphabet (plus a fresh sink)."""
    _takes(p, PointedLTS, "the embedding")
    sig = p.signature
    forced = sig.forward
    sink = fresh_sink_name(p.states)
    states = p.states | {sink}
    may = set(p.transitions)
    must = {(s, a, d) for (s, a, d) in p.transitions if a in forced}
    for a in sig.covariant:
        for s in states:
            may.add((s, a, sink))
    for a in sig.actions:
        may.add((sink, a, sink))
    return PointedMTS(
        states=frozenset(states),
        actions=sig.actions,
        may=frozenset(may),
        must=frozenset(must),
        init=p.init,
    )


def embedding_report(p: PointedLTS) -> TranslationReport:
    _takes(p, PointedLTS, "the embedding report")
    return TranslationReport(
        source_kind="lts",
        result_kind="mts",
        added_state=fresh_sink_name(p.states),
        label_map=tuple((str(a), str(a)) for a in sorted_actions(p.signature.actions)),
    )


def morphism_signature_map(alphabet: Iterable[Union[str, Action]]) -> CCSignature:
    """The decorated signature ``(cv(A), ct(A), {})`` of an alphabet ``A``:
    what :func:`lts_of_mts` encodes over, and the signature map of the
    morphism connecting the MTS institution to the LTS one."""
    labels = actions(*alphabet)
    return CCSignature(
        covariant=frozenset(cv(a) for a in labels),
        contravariant=frozenset(ct(a) for a in labels),
        bivariant=frozenset(),
    )


def lts_of_mts(m: PointedMTS) -> PointedLTS:
    """Encode an MTS as an LTS over decorated copies of its alphabet."""
    _takes(m, PointedMTS, "the encoding")
    # Each label is decorated once, including one that ``m.actions`` lacks.
    labels = {t[1] for rel in (m.may, m.must) for t in rel}
    may_label = {a: ct(a) for a in labels}
    must_label = {a: cv(a) for a in labels}
    trans = {(s, may_label[a], d) for (s, a, d) in m.may} | {
        (s, must_label[a], d) for (s, a, d) in m.must
    }
    return PointedLTS(
        states=m.states,
        signature=morphism_signature_map(m.actions),
        transitions=frozenset(trans),
        init=m.init,
    )


def encoding_report(m: PointedMTS) -> TranslationReport:
    _takes(m, PointedMTS, "the encoding report")
    pairs = []
    for a in sorted_actions(m.actions):
        pairs.append((str(a), str(cv(a))))
        pairs.append((str(a), str(ct(a))))
    return TranslationReport("mts", "lts", None, tuple(pairs))


def mts_of_encoded_lts(p: PointedLTS) -> PointedMTS:
    """Exact inverse of :func:`lts_of_mts`.

    The signature must consist of covariant ``cv`` copies and contravariant
    ``ct`` copies of one base alphabet with no bivariant labels, and every
    ``cv(a)`` transition needs a matching ``ct(a)`` transition.  Anything
    else raises :class:`NotInEncodingRange`.
    """
    _takes(p, PointedLTS, "the decoding")
    sig = p.signature
    if sig.bivariant:
        raise NotInEncodingRange("encodings have no bivariant labels")
    for lab in sorted_actions(sig.covariant):
        if lab.mark != CV:
            raise NotInEncodingRange(f"covariant label {lab} is not a cv copy")
    for lab in sorted_actions(sig.contravariant):
        if lab.mark != CT:
            raise NotInEncodingRange(f"contravariant label {lab} is not a ct copy")
    cov_base = frozenset(lab.base for lab in sig.covariant)
    con_base = frozenset(lab.base for lab in sig.contravariant)
    if cov_base != con_base:
        raise NotInEncodingRange(
            "covariant and contravariant classes decorate different alphabets"
        )
    may = {(s, lab.base, d) for (s, lab, d) in p.transitions if lab.mark == CT}
    must = {(s, lab.base, d) for (s, lab, d) in p.transitions if lab.mark == CV}
    for triple in sorted(must - may, key=_triple_key):
        s, a, d = triple
        raise NotInEncodingRange(
            f"transition ({s}, {cv(a)}, {d}) has no ({s}, {ct(a)}, {d}) twin"
        )
    return PointedMTS(
        states=p.states,
        actions=cov_base,
        may=frozenset(may),
        must=frozenset(must),
        init=p.init,
    )


def mts_of_plain_lts(p: PointedLTS, bset: Iterable[Action]) -> PointedMTS:
    """Read a plain LTS with bisimulation set ``bset`` as an MTS: all
    transitions may, ``bset``-labelled ones also must.  The signature
    classes of ``p`` are ignored; only its alphabet matters."""
    _takes(p, PointedLTS, "the modal reading")
    universe = p.signature.actions
    bset = frozenset(bset)
    stray = bset - universe
    if stray:
        raise ValueError(f"bisimulation set labels {actions_text(stray)} are outside the alphabet")
    must = {(s, a, d) for (s, a, d) in p.transitions if a in bset}
    return PointedMTS(
        states=p.states,
        actions=universe,
        may=p.transitions,
        must=frozenset(must),
        init=p.init,
    )


def _strip_map(labels: Iterable[Action]) -> dict[Action, Action]:
    mapping: dict[Action, Action] = {}
    for lab in sorted_actions(labels):
        if lab.mark not in (CV, CT):
            raise ValueError(f"label {lab} carries no cv/ct decoration to strip")
        mapping[lab] = lab.base
    return mapping


def strip_decorations(
    system: Union[PointedMTS, PointedLTS],
    target: Union[frozenset[Action], CCSignature, None] = None,
) -> Union[PointedMTS, PointedLTS]:
    """Rename every ``cv(a)`` and ``ct(a)`` label back to ``a``.

    For an MTS the target action set defaults to the stripped image.  For an
    LTS there is no canonical way to re-classify the collapsed labels, so a
    target signature is required.
    """
    if isinstance(system, PointedMTS):
        mapping = _strip_map(system.actions)
        if target is None:
            target = frozenset(mapping.values())
        return rename_actions(system, mapping, target)
    mapping = _strip_map(system.signature.actions)
    if target is None:
        raise ValueError("stripping an LTS needs a target signature for the plain labels")
    return rename_actions(system, mapping, target)


def decorate_by_class(p: PointedLTS) -> PointedLTS:
    """Rename covariant ``a`` to ``cv(a)`` and contravariant ``a`` to
    ``ct(a)``; the signature must have no bivariant labels.

    The result's signature decorates the full alphabet on both sides, so it
    matches what :func:`lts_of_mts` produces for any MTS over the same
    alphabet and the two can be compared directly.
    """
    _takes(p, PointedLTS, "the decoration by class")
    sig = p.signature
    if sig.bivariant:
        raise ValueError("only signatures without bivariant labels can be decorated by class")
    mapping: dict[Action, Action] = {}
    for lab in sig.covariant:
        mapping[lab] = cv(lab)
    for lab in sig.contravariant:
        mapping[lab] = ct(lab)
    return rename_actions(p, mapping, morphism_signature_map(sig.actions))


def eliminate_bivariant(p: PointedLTS) -> PointedLTS:
    """Encode away the bivariant class: the embedding followed by the
    encoding.  Preserves and reflects covariant-contravariant simulation
    between any two systems over one signature (the sink state is added
    either way, also when the bivariant class was already empty)."""
    _takes(p, PointedLTS, "the bivariant elimination")
    return lts_of_mts(mts_of_lts(p))


def embed_formula(phi: Formula) -> Formula:
    """Formula companion of :func:`mts_of_lts`: the identity.

    A formula over an LTS signature is read unchanged over the embedded
    MTS; satisfaction agrees at every original state.
    """
    assert isinstance(phi, Formula), "not a formula"
    return phi


def relabel(
    phi: Formula, diamond: Callable[[Action], Action], box: Callable[[Action], Action]
) -> Formula:
    """``phi`` with every diamond label mapped by ``diamond`` and every box
    label by ``box``, through :func:`~modalsim.systems.fold`, so a
    subformula shared in ``phi`` is mapped once and stays shared."""

    def step(phi: Formula):
        if isinstance(phi, Diamond):
            return Diamond(diamond(phi.action), (yield phi.body))
        if isinstance(phi, Box):
            return Box(box(phi.action), (yield phi.body))
        return (yield from _same_connective(phi))

    return fold(phi, step)


def encode_formula(phi: Formula) -> Formula:
    """Formula companion of :func:`lts_of_mts`: ``<a>`` becomes
    ``<cv(a)>`` and ``[a]`` becomes ``[ct(a)]``."""
    return relabel(phi, cv, ct)


def encoded_formula_text(text: str) -> str:
    """``formula_text(encode_formula(phi))`` from ``text``, the
    ``formula_text`` of ``phi``, with no formula built.

    Formula text holds ``<``, ``>``, ``[`` and ``]`` only around modality
    labels, and label text holds none of them; relabelling keeps the
    formula's shape, so everything outside the brackets prints the same.
    """
    return text.replace("<", "<cv(").replace(">", ")>").replace("[", "[ct(").replace("]", ")]")


def _base_of(mark: str, modality: str) -> Callable[[Action], Action]:
    def base(a: Action) -> Action:
        if a.mark != mark:
            raise NotInEncodingRange(f"{modality} label {a} is not a {mark} copy")
        return a.base

    return base


def decode_formula(phi: Formula) -> Formula:
    """Exact inverse of :func:`encode_formula`: strips ``cv`` off diamonds
    and ``ct`` off boxes.  Raises :class:`NotInEncodingRange` on any other
    modality label."""
    return relabel(phi, _base_of(CV, "diamond"), _base_of(CT, "box"))


def approximate_formula(phi: Formula, sig: CCSignature) -> Formula:
    """Formula companion for going back from the embedding: diamonds on
    labels that are neither covariant nor bivariant collapse to ``ff``,
    boxes on labels that are neither contravariant nor bivariant collapse
    to ``tt``.

    Truth at an embedded state implies truth of the approximation at the
    original state.  The converse holds for existential formulae and for
    signatures without covariant labels, and fails in general.  A
    subformula shared in ``phi`` is approximated once and stays shared.
    """
    forward, backward = sig.forward, sig.backward

    def step(phi: Formula):
        if isinstance(phi, Diamond):
            return Diamond(phi.action, (yield phi.body)) if phi.action in forward else Bottom()
        if isinstance(phi, Box):
            return Box(phi.action, (yield phi.body)) if phi.action in backward else Top()
        return (yield from _same_connective(phi))

    return fold(phi, step)
