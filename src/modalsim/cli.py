"""Command line front end.

Subcommands:

- ``check``      decide a behavioural preorder between two system files
- ``translate``  move a system between the modal and classified views
- ``mc``         evaluate a formula at a state of a system
- ``charform``   print the characteristic formula of a process term
- ``selfcheck``  run the built-in property suite

Exit codes follow the usual convention: 0 when the query holds (related,
formula true, all checks pass), 1 when it does not, 2 on errors such as
unreadable files, parse failures or ill-formed queries, and on any crash.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from typing import Optional

from .charform import characteristic_formula, encode_term
from .formulas import formula_text, mc_cc, mc_mts
from .preorders import CCSim, PartialBisim, PreorderKind, Refinement, Simulation, decide
from .systems import Action, PointedLTS, PointedMTS, System, sorted_actions
from .terms import term_labels, term_text
from .textio import (
    ParseError,
    _line_col,
    parse_formula,
    parse_label,
    parse_system_details,
    parse_term,
    print_system,
)
from .translate import (
    TranslationReport,
    embedding_report,
    encoded_formula_text,
    encoding_report,
    eliminate_bivariant,
    lts_of_mts,
    mts_of_encoded_lts,
    mts_of_lts,
    mts_of_plain_lts,
    strip_decorations,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_stdin_once(*paths: Optional[str]) -> None:
    """Refuse ``-`` for more than one input: a second read of stdin is empty."""
    if paths.count("-") > 1:
        raise ValueError("-: standard input can be read for one input only")


def _load_system(path: str, strict: bool) -> System:
    try:
        parsed = parse_system_details(_read_text(path), strict=strict)
    except ParseError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for warning in parsed.warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return parsed.system


def _parse_labels(text: str, option: str) -> frozenset[Action]:
    """The labels of a comma-separated list given as ``option``; an error
    names the option and is placed in ``text``."""
    labels = []
    start = 0
    for piece in text.split(","):
        label = piece.strip()
        if label:
            at = start + len(piece) - len(piece.lstrip())
            try:
                labels.append(parse_label(label, *_line_col(text, at)))
            except ParseError as exc:
                raise ValueError(f"{option}: {exc}") from exc
        start += len(piece) + 1
    return frozenset(labels)


def _emit_json(payload: dict) -> None:
    # Imported here: no other output needs json, and importing it costs start-up.
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _check_json(payload: dict, relation: frozenset) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` with ``relation``, a
    set of state pairs, as the ``relation`` field of sorted rows.  json's
    indented encoder is pure Python, so the rows are written here, each name
    through ``encode_basestring_ascii``, the C function that json calls for
    every string."""
    # Imported here, as in _emit_json.
    import json
    from json.encoder import encode_basestring_ascii as quote

    text = json.dumps({**payload, "relation": []}, indent=2, sort_keys=True)
    if not relation:
        return text
    # A JSON string holds no line break, so this is the field's own line.
    head, _, tail = text.partition('\n  "relation": []')
    rows = "\n    ],\n    [\n      ".join(
        [f"{quote(p)},\n      {quote(q)}" for p, q in sorted(relation)]
    )
    return f'{head}\n  "relation": [\n    [\n      {rows}\n    ]\n  ]{tail}'


def _system_kind(system: System) -> str:
    return "mts" if isinstance(system, PointedMTS) else "lts"


# The preorders of ``check`` that take no parameter; ``pbsim`` reads its
# bisimulation set from ``--bisimset``.
_KINDS = {"refine": Refinement, "ccsim": CCSim, "sim": Simulation}


def _cmd_check(args: argparse.Namespace) -> int:
    if args.bisimset is not None and args.kind != "pbsim":
        raise ValueError(f"--bisimset: only pbsim reads a bisimulation set, not {args.kind}")
    _read_stdin_once(args.left, args.right)
    left = _load_system(args.left, args.strict)
    right = _load_system(args.right, args.strict)
    if args.kind == "pbsim":
        kind: PreorderKind = PartialBisim(_parse_labels(args.bisimset or "", "--bisimset"))
    else:
        kind = _KINDS[args.kind]()
    # decide checks that the systems fit the kind and that the states exist.
    left_state = left.init if args.left_state is None else args.left_state
    right_state = right.init if args.right_state is None else args.right_state
    whole = args.format == "json"
    related, rel, witness = decide(kind, left, left_state, right, right_state, whole)
    if whole:
        payload = {
            "kind": args.kind,
            "left_state": left_state,
            "right_state": right_state,
            "related": related,
            "distinguishing_formula": None if witness is None else formula_text(witness),
        }
        print(_check_json(payload, rel.pairs))
    else:
        print("related" if related else "not related")
        if witness is not None:
            print(f"distinguishing formula: {formula_text(witness)}")
    return 0 if related else 1


def _strip_target(system: System, args: argparse.Namespace):
    if args.like is None:
        if isinstance(system, PointedLTS):
            raise ValueError("stripping an lts needs --like FILE to supply the target signature")
        return None
    like = _load_system(args.like, args.strict)
    if isinstance(system, PointedLTS):
        if not isinstance(like, PointedLTS):
            raise ValueError("--like must name an lts file when the input is an lts")
        return like.signature
    return like.actions if isinstance(like, PointedMTS) else like.signature.actions


def _cmd_translate(args: argparse.Namespace) -> int:
    if args.bisimset is not None and args.op != "n":
        raise ValueError(f"--bisimset: only op n reads must labels, not {args.op}")
    if args.like is not None and args.op != "rho":
        raise ValueError(f"--like: only op rho reads a target system, not {args.op}")
    _read_stdin_once(args.file, args.like)
    system = _load_system(args.file, args.strict)
    report: Optional[TranslationReport] = None
    # Each translation refuses a system of the other kind.
    if args.op == "m":
        result: System = mts_of_lts(system)
        report = embedding_report(system)
    elif args.op == "c":
        result = lts_of_mts(system)
        report = encoding_report(system)
    elif args.op == "n":
        result = mts_of_plain_lts(system, _parse_labels(args.bisimset or "", "--bisimset"))
    elif args.op == "cinv":
        result = mts_of_encoded_lts(system)
    elif args.op == "rho":
        result = strip_decorations(system, _strip_target(system, args))
    else:  # debi
        result = eliminate_bivariant(system)
    text = print_system(result)
    if args.format == "json":
        payload: dict = {"op": args.op, "kind": _system_kind(result), "text": text}
        if report is not None:
            payload["report"] = {
                "source_kind": report.source_kind,
                "result_kind": report.result_kind,
                "added_state": report.added_state,
                "label_map": [list(pair) for pair in report.label_map],
            }
        _emit_json(payload)
    else:
        print(text, end="")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    system = _load_system(args.file, args.strict)
    try:
        phi = parse_formula(args.formula)
    except ParseError as exc:
        raise ValueError(f"formula: {exc}") from exc
    if isinstance(system, PointedMTS):
        holds = mc_mts(system, args.state, phi)
    else:
        holds = mc_cc(system, args.state, phi)
    if args.format == "json":
        _emit_json(
            {
                "state": args.state,
                "formula": formula_text(phi),
                "holds": holds,
            }
        )
    else:
        print("true" if holds else "false")
    return 0 if holds else 1


def _cmd_charform(args: argparse.Namespace) -> int:
    try:
        term = parse_term(args.term, "mts")
    except ParseError as exc:
        raise ValueError(f"term: {exc}") from exc
    ambient = term_labels(term) | _parse_labels(args.actions, "--actions")
    result = characteristic_formula(term, ambient)
    fields = {
        "term": term_text(result.term),
        "actions": " ".join(str(a) for a in sorted_actions(result.actions)),
        "formula": formula_text(result.formula),
        "simplified": formula_text(result.simplified),
    }
    if args.cc:
        fields["encoded term"] = term_text(encode_term(result.term))
        fields["encoded formula"] = encoded_formula_text(fields["formula"])
    if args.format == "json":
        _emit_json({key.replace(" ", "_"): value for key, value in fields.items()})
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")
    return 0


# The ``SelfCheckConfig`` fields that options set; an option that is not
# given keeps the field's default.
_SELFCHECK_SIZES = ("seed", "cases", "max_states", "max_labels", "max_formula_depth", "term_height")


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    # Only this command uses the property suite, so only it imports it.
    from .selfcheck import SelfCheckConfig, property_ids, run_selfcheck

    if args.list:
        for pid in property_ids():
            print(pid)
        return 0
    given = {field: getattr(args, field) for field in _SELFCHECK_SIZES if hasattr(args, field)}
    # A size out of range or an unknown id raises ValueError, which main
    # prints as an error.
    report = run_selfcheck(SelfCheckConfig(properties=tuple(args.properties), **given))
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
        print(report.to_text(color=bool(color)), end="")
    return 0 if report.ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later :func:`main` call in the process, because building it costs far
    more than parsing one command line.  It is the one statement of the
    grammar: :func:`_argv_table` is read off its subparsers, and it alone
    reads a command line that the table does not (help, abbreviations,
    ``--opt=value``, errors)."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument(
        "--strict",
        action="store_true",
        help="treat recoverable file problems (like a must without its may twin) as errors",
    )

    parser = argparse.ArgumentParser(
        prog="modalsim",
        description="Modal and classified transition systems: preorders, logic, translations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", parents=[fmt, strict], help="decide a behavioural preorder"
    )
    check.add_argument("kind", choices=["refine", "ccsim", "pbsim", "sim"])
    check.add_argument("left", help="left system file (- for stdin)")
    check.add_argument("right", help="right system file")
    check.add_argument("--left-state", help="start state on the left (default: init)")
    check.add_argument("--right-state", help="start state on the right (default: init)")
    check.add_argument(
        "--bisimset",
        help="comma-separated labels that must be matched both ways (pbsim only)",
    )
    check.set_defaults(handler=_cmd_check)

    translate = sub.add_parser(
        "translate", parents=[fmt, strict], help="translate between system kinds"
    )
    translate.add_argument(
        "op",
        choices=["m", "c", "n", "cinv", "rho", "debi"],
        help=(
            "m: embed lts as mts; c: encode mts as lts; n: read a plain lts modally; "
            "cinv: decode an encoded lts; rho: strip label decorations; "
            "debi: eliminate bivariant labels"
        ),
    )
    translate.add_argument("file", help="input system file (- for stdin)")
    translate.add_argument(
        "--bisimset", help="comma-separated must labels for op n"
    )
    translate.add_argument(
        "--like", help="system file supplying the target alphabet or signature for rho"
    )
    translate.set_defaults(handler=_cmd_translate)

    mc = sub.add_parser(
        "mc", parents=[fmt, strict], help="evaluate a formula at a state"
    )
    mc.add_argument("file", help="system file (- for stdin)")
    mc.add_argument("state", help="state to evaluate at")
    mc.add_argument("formula", help="formula text, e.g. '<a>tt & [b]ff'")
    mc.set_defaults(handler=_cmd_mc)

    charform = sub.add_parser(
        "charform", parents=[fmt], help="characteristic formula of a process term"
    )
    charform.add_argument("term", help="process term, e.g. 'a!0 + b.w'")
    charform.add_argument(
        "--actions", default="", help="extra ambient labels, comma separated"
    )
    charform.add_argument(
        "--cc",
        action="store_true",
        help="also print the encoded term and formula for the classified view",
    )
    charform.set_defaults(handler=_cmd_charform)

    selfcheck = sub.add_parser(
        "selfcheck", parents=[fmt], help="run the built-in property suite"
    )
    # No defaults here: SelfCheckConfig holds them (see _cmd_selfcheck).
    selfcheck.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    selfcheck.add_argument("--cases", type=int, default=argparse.SUPPRESS, help="cases per property")
    selfcheck.add_argument("--max-states", type=int, default=argparse.SUPPRESS)
    selfcheck.add_argument("--max-labels", type=int, default=argparse.SUPPRESS)
    selfcheck.add_argument(
        "--max-depth",
        type=int,
        default=argparse.SUPPRESS,
        dest="max_formula_depth",
        metavar="MAX_DEPTH",
        help="formula depth bound",
    )
    selfcheck.add_argument("--term-height", type=int, default=argparse.SUPPRESS)
    selfcheck.add_argument(
        "--property",
        action="append",
        default=[],
        dest="properties",
        metavar="ID",
        help="run only this property (repeatable)",
    )
    selfcheck.add_argument("--list", action="store_true", help="list property ids and exit")
    selfcheck.set_defaults(handler=_cmd_selfcheck)

    return parser


# The actions that _read_argv reads as argparse does; an option of any other
# class, such as help, is left out of the table, so argparse reads it.
_TABLED = (argparse._StoreAction, argparse._StoreTrueAction, argparse._AppendAction)


@functools.cache
def _argv_table() -> dict:
    """For each command of :func:`_build_parser`: the namespace it starts
    from (the command's name, ``set_defaults`` and each default but
    ``SUPPRESS`` ones), its positionals in order, and its options of
    :data:`_TABLED` by exact option string."""
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, sub in commands.choices.items():
        defaults = {a.dest: a.default for a in sub._actions if a.default is not argparse.SUPPRESS}
        table[name] = (
            {commands.dest: name, **sub._defaults, **defaults},
            [a for a in sub._actions if not a.option_strings],
            {s: a for a in sub._actions if type(a) in _TABLED for s in a.option_strings},
        )
    return table


def _value(action: argparse.Action, word: str):
    """``word`` converted by ``action``'s type; ValueError if not in its choices."""
    value = word if action.type is None else action.type(word)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)
    return value


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace that ``_build_parser().parse_args(argv)`` returns, read
    in one pass off :func:`_argv_table`, or None for a command line that
    argparse must read.  That is one whose first word is no command, that
    holds a word starting with ``-`` other than a lone ``-`` or an exact
    option string (help, an abbreviation, ``--opt=value``, ``--``, a negative
    number), whose option lacks its value or whose value starts with ``-``,
    fails its type or choices, or whose positionals are too few or too many.
    argparse reads those itself, with its own help, usage and messages."""
    command = _argv_table().get(argv[0]) if argv else None
    if command is None:
        return None
    start, positionals, options = command
    values = dict(start)
    given = []
    words = iter(argv[1:])
    try:
        for word in words:
            action = options.get(word)
            if action is None:
                if word.startswith("-") and word != "-":
                    return None
                given.append(word)
            elif action.nargs == 0:
                values[action.dest] = action.const
            else:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    return None
                value = _value(action, value)
                if type(action) is argparse._AppendAction:
                    # A fresh list, as argparse makes: the default is shared.
                    value = [*(values.get(action.dest) or ()), value]
                values[action.dest] = value
        if len(given) != len(positionals):
            return None
        for action, word in zip(positionals, given):
            values[action.dest] = _value(action, word)
    except ValueError:
        return None
    return argparse.Namespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    stdout = sys.stdout
    if type(getattr(stdout, "buffer", None)) is io.FileIO:
        # Unbuffered (``python -u``, ``PYTHONUNBUFFERED``): a text write
        # straight to the file drops what a partial write to a closing pipe
        # left over, so the closed pipe never shows.  A buffer retries the
        # rest, as the default stdout does.
        sys.stdout = open(stdout.fileno(), "w", buffering=1, encoding=stdout.encoding,
                          errors=stdout.errors, closefd=False)
    try:
        code = args.handler(args)
        # A closed pipe shows here rather than in the flush at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (as under ``| head``).  Point stdout at devnull,
        # so that the flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # Exit 1 would read as "does not hold".
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception:
        # A crash is a fault of the tool, never a verdict.  Imported here, so
        # that only a crash pays for the import.
        import traceback

        traceback.print_exc()
        return 2
    finally:
        if sys.stdout is not stdout:
            buffered, sys.stdout = sys.stdout, stdout
            try:
                buffered.close()
            except BrokenPipeError:
                pass


if __name__ == "__main__":
    raise SystemExit(main())
