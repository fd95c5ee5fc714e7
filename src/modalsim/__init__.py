"""Modal transition systems, covariant-contravariant simulation, and the
translations that connect them.

The package covers two behavioural worlds and the bridges between them:

- :mod:`modalsim.systems`: pointed modal transition systems (may/must) and
  labelled transition systems whose alphabet is classified into covariant,
  contravariant and bivariant labels.
- :mod:`modalsim.preorders`: ``greatest(kind, p, q)`` for modal
  refinement, covariant-contravariant simulation, partial bisimulation and
  plain simulation, with a brute-force oracle and distinguishing formulae.
- :mod:`modalsim.formulas`: the boolean modal logics of both worlds with
  model checking over states.
- :mod:`modalsim.translate`: embeddings and encodings between the two views,
  together with formula maps and a one-sided approximation.
- :mod:`modalsim.terms` and :mod:`modalsim.charform`: finite process terms,
  their expansions, and characteristic formulae.
- :mod:`modalsim.institutions`: signature morphisms, reducts and the
  satisfaction conditions that make both views institutions.
- :mod:`modalsim.textio`: a small text format for systems, formulae and
  terms; :mod:`modalsim.cli` exposes everything as the ``modalsim`` command.
- :mod:`modalsim.selfcheck`: a deterministic, seedable property suite.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public API: each export, listed under the submodule that defines it.
# A submodule is imported on the first access to one of its exports, so
# ``import modalsim`` imports none of them.
_EXPORTS = {
    "charform": """
        CharFormResult characteristic_formula characteristic_formula_cc encode_term
        is_omega_equivalent
    """,
    "formulas": """
        And BLLogic Bottom Box CCLogic Diamond Formula LogicKind Or Top check_wf conj
        disj formula_text is_existential mc_cc mc_mts modal_depth satisfying_states_cc
        satisfying_states_mts simplify
    """,
    "institutions": """
        CCSignatureMorphism MtsSignatureMorphism SignatureMorphism cc_morphism
        check_morphism_condition check_satisfaction_condition compose_morphisms
        final_obstruction_pair identity_morphism initial_obstruction_pair mts_morphism
        reduct sen_map universal_specification weakly_final_implementation
    """,
    "preorders": """
        CCSim PartialBisim PreorderKind Refinement Relation Simulation compose_relations
        distinguishing_formula fixpoint_rounds greatest oracle_greatest
    """,
    "selfcheck": """
        PropertyReport SelfCheckConfig SelfCheckReport property_ids run_property
        run_selfcheck
    """,
    "systems": """
        Action CCSignature PointedLTS PointedMTS action actions cv ct lts mts
        plain_signature rename_actions signature sorted_actions universal_mts
        validate_cc_lts validate_mts
    """,
    "terms": """
        MustPrefix Omega Prefix Sum Term Zero canonical_term enumerate_lts_terms
        enumerate_mts_terms expand_lts_term expand_mts_term must_prefix prefix
        term_labels term_text
    """,
    "textio": """
        ParseError ParsedSystem parse_formula parse_label parse_system
        parse_system_details parse_term print_system
    """,
    "translate": """
        NotInEncodingRange TranslationReport approximate_formula decode_formula
        decorate_by_class eliminate_bivariant embed_formula embedding_report
        encode_formula encoding_report lts_of_mts morphism_signature_map
        mts_of_encoded_lts mts_of_lts mts_of_plain_lts strip_decorations
    """,
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
