"""Concrete syntax: parsing and printing of systems, formulae and terms.

Systems travel in a line-oriented format:

    mts coffee
    actions: a b
    states: p q
    init: p
    may: p a q
    must: p a q

``#`` starts a comment, blank lines are skipped, and directives may repeat
(their operands accumulate).  LTS files replace ``actions:`` by the three
signature classes ``cov:``, ``con:`` and ``bi:`` (a bare ``actions:`` line
in an LTS file is sugar for ``cov:``) and ``may:``/``must:`` by ``trans:``.
State names are single tokens; anything fancier must be double quoted, with
backslash escaping the quote and itself.  Labels are never quoted; decorated
labels are written structurally, ``cv(a)`` or ``ct(a)``.  One reader reads
labels in system files, formulae, terms and :func:`parse_label`, with the
same messages everywhere; it allows blanks between a label's tokens, which
a label in a system file cannot hold.

A must transition without its may twin is repaired (the twin is added) with
a warning; under ``strict=True`` it is an error instead.

:func:`print_system` emits the canonical form: sorted directives, all may
twins explicit, quotes only where needed.  Parsing the canonical form back
yields an equal system and no warnings.

Formulae and terms have small expression grammars matching the canonical
printers :func:`~modalsim.formulas.formula_text` and
:func:`~modalsim.terms.term_text`: modalities bind tighter than ``&``,
which binds tighter than ``|``; prefixes bind tighter than ``+``; ``0``
and ``w`` are reserved term atoms.  Parsing checks syntax only;
well-formedness under a logic is checked where formulae are evaluated,
by :func:`~modalsim.formulas.check_wf`.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NamedTuple, Optional

from .formulas import (
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    Or,
    Top,
)
from .systems import (
    NAME_TOKEN,
    Action,
    CCSignature,
    PointedLTS,
    PointedMTS,
    System,
    Transition,
    is_name_token,
    sorted_actions,
)
from .terms import MustPrefix, Omega, Prefix, Sum, Term, Zero


class ParseError(ValueError):
    """A syntax or semantic error in parsed text, with a 1-based position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Token(NamedTuple):
    text: str
    line: int
    col: int
    quoted: bool = False


# This module's patterns are strings that ``re`` compiles on first use and
# caches, so importing it compiles none of them.

# One token of a system line per match: a bare token, a double-quoted one
# (group 2 is the body, group 3 the closing quote, missing when the body
# stops at a bad escape or the end of the line) or a comment.  Blanks are
# the only characters no alternative matches.
_LINE_TOKEN = r'([^ \t\r#"]+)|"((?:[^"\\]|\\["\\])*)(")?|#'
_ESCAPE = r'\\(["\\])'


def _tokenize_line(text: str, line: int) -> list[_Token]:
    out: list[_Token] = []
    for m in re.finditer(_LINE_TOKEN, text):
        bare, body, closed = m.groups()
        col = m.start() + 1
        if bare is not None:
            out.append(_Token(bare, line, col))
        elif closed:
            out.append(_Token(re.sub(_ESCAPE, r"\1", body), line, col, True))
        elif body is None:
            break
        else:
            stop = m.end()
            if stop == len(text):
                raise ParseError("unterminated quote", line, col)
            # The body stopped at a backslash that starts no valid escape.
            if stop + 1 == len(text):
                raise ParseError("dangling backslash inside quotes", line, stop + 1)
            raise ParseError(f"unknown escape \\{text[stop + 1]}", line, stop + 1)
    return out


def _plain(text: str) -> bool:
    """True when ``str.split`` splits each line of ``text`` into the tokens
    :func:`_tokenize_line` gives: blanks other than `` \t``, quotes and
    comments need the tokenizer."""
    return text.isascii() and '"' not in text and "#" not in text and "\x1f" not in text


class ParsedSystem(NamedTuple):
    """A parsed system together with its optional name and any warnings."""

    system: System
    name: Optional[str]
    warnings: tuple[str, ...]


_MTS_DIRECTIVES = {"actions:", "states:", "init:", "may:", "must:"}
_LTS_DIRECTIVES = {"actions:", "cov:", "con:", "bi:", "states:", "init:", "trans:"}


def parse_system_details(text: str, strict: bool = False) -> ParsedSystem:
    """Parse the line format, returning the system, its name and warnings."""
    kind: Optional[str] = None
    name: Optional[str] = None
    # Where each label was first declared, as (line, token index), the
    # initial state with its line, and each transition with the first line
    # that gives it: an error finds its column by tokenizing its line again.
    mts_actions: dict[Action, tuple[int, int]] = {}
    classes: dict[str, dict[Action, tuple[int, int]]] = {"cov": {}, "con": {}, "bi": {}}
    states: set[str] = set()
    init: Optional[tuple[str, int]] = None
    rels: dict[str, dict[Transition, int]] = {"may": {}, "must": {}, "trans": {}}
    directives: dict[str, str] = {}  # those of the kind the header names, by head
    labels: dict[str, Action] = {}
    lines = text.splitlines()

    def label(words: list[str], quoted, line: int, k: int) -> Action:
        # Each distinct label text is parsed once per file.
        if k in quoted:
            raise _error_at("labels cannot be quoted", lines, line, k)
        lab = labels.get(words[k])
        if lab is None:
            try:
                lab = labels[words[k]] = parse_label(words[k])
            except ParseError as exc:
                # A token holds no line break, so the error is on its line.
                col = _tokenize_line(lines[line - 1], line)[k].col + exc.col - 1
                raise ParseError(exc.message, line, col) from None
        return lab

    # The relation directives of the header's kind, by head, once it is read.
    relations: dict[str, dict[Transition, int]] = {}
    all_plain = _plain(text)
    for lineno, raw in enumerate(lines, start=1):
        if all_plain or _plain(raw):
            words = raw.split()
            quoted = ()
        else:
            tokens = _tokenize_line(raw, lineno)
            words = [tok.text for tok in tokens]
            quoted = [k for k, tok in enumerate(tokens) if tok.quoted]
        # Most lines are transitions: four words under a relation directive.
        if len(words) == 4 and 0 not in quoted and (rel := relations.get(words[0])) is not None:
            lab = labels.get(words[2])
            if lab is None or quoted:
                lab = label(words, quoted, lineno, 2)
            rel.setdefault((words[1], lab, words[3]), lineno)
            continue
        if not words:
            continue
        head = words[0]
        directive = directives.get(head)
        if directive is None or 0 in quoted:
            if kind is None:
                if 0 in quoted or head not in ("mts", "lts"):
                    raise _error_at("expected an 'mts' or 'lts' header line", lines, lineno, 0)
                kind = head
                allowed = _MTS_DIRECTIVES if kind == "mts" else _LTS_DIRECTIVES
                directives = {d: d[:-1] for d in allowed}
                relations = {d: rels[d[:-1]] for d in allowed if d[:-1] in rels}
                if len(words) > 2:
                    raise _error_at("the header line takes at most a name", lines, lineno, 2)
                if len(words) == 2:
                    name = words[1]
                continue
            if 0 in quoted or not head.endswith(":"):
                raise _error_at(f"expected a directive, found {head!r}", lines, lineno, 0)
            if head in (_LTS_DIRECTIVES if kind == "mts" else _MTS_DIRECTIVES):
                raise _error_at(
                    f"directive {head!r} is not valid in a {kind} file", lines, lineno, 0
                )
            raise _error_at(f"unknown directive {head!r}", lines, lineno, 0)
        if directive in rels:
            raise _error_at(
                f"{head} takes exactly three operands: source label target", lines, lineno, 0
            )
        if directive == "states":
            states.update(words[1:])
        elif directive == "init":
            if len(words) != 2:
                raise _error_at("init: takes exactly one state", lines, lineno, 0)
            if init is not None:
                raise _error_at("init: was already given", lines, lineno, 0)
            init = (words[1], lineno)
        else:
            if kind == "mts":
                target = mts_actions
            else:
                target = classes["cov" if directive == "actions" else directive]
            for k in range(1, len(words)):
                target.setdefault(label(words, quoted, lineno, k), (lineno, k))

    last_line = max(len(lines), 1)
    if kind is None:
        raise ParseError("expected an 'mts' or 'lts' header line", last_line, 1)
    if init is None:
        raise ParseError("missing init: directive", last_line, 1)
    init_state, init_line = init
    if init_state not in states:
        raise _error_at(f"undeclared state {init_state!r}", lines, init_line, 1)

    warnings: list[str] = []
    if kind == "mts":
        declared = frozenset(mts_actions)
        for rel_name in ("may", "must"):
            _check_endpoints(rels[rel_name], states, declared, lines)
        may = set(rels["may"])
        if not may.issuperset(rels["must"]):
            for triple, line in rels["must"].items():
                if triple not in may:
                    s, lab, d = triple
                    msg = f"must transition {s} {lab} {d} has no may twin"
                    if strict:
                        raise _error_at(msg, lines, line, 2)
                    warnings.append(f"line {line}: {msg}; adding it")
                    may.add(triple)
        system: System = PointedMTS(
            frozenset(states), declared, frozenset(may), frozenset(rels["must"]), init_state
        )
    else:
        sig = CCSignature(
            covariant=frozenset(classes["cov"]),
            contravariant=frozenset(classes["con"]),
            bivariant=frozenset(classes["bi"]),
        )
        for lab in sig.overlaps():
            line, k = max(d[lab] for d in classes.values() if lab in d)
            raise _error_at(
                f"label {lab} is declared in more than one signature class", lines, line, k
            )
        _check_endpoints(rels["trans"], states, sig.actions, lines)
        trans = frozenset(rels["trans"])
        system = PointedLTS(frozenset(states), sig, trans, init_state)
    return ParsedSystem(system=system, name=name, warnings=tuple(warnings))


def _check_endpoints(
    entries: dict[Transition, int],
    states: set[str],
    declared: frozenset[Action],
    lines: list[str],
) -> None:
    # Tested by set inclusion; the entries are walked only to word the
    # first error.
    if (
        states.issuperset(map(itemgetter(0), entries))
        and states.issuperset(map(itemgetter(2), entries))
        and declared.issuperset(map(itemgetter(1), entries))
    ):
        return
    for (src, lab, dst), line in entries.items():
        if src not in states:
            raise _error_at(f"undeclared state {src!r}", lines, line, 1)
        if dst not in states:
            raise _error_at(f"undeclared state {dst!r}", lines, line, 3)
        if lab not in declared:
            raise _error_at(f"undeclared label {lab}", lines, line, 2)


def _error_at(message: str, lines: list[str], line: int, k: int) -> ParseError:
    """The error at the ``k``-th token of a line, found by tokenizing that
    line again."""
    tok = _tokenize_line(lines[line - 1], line)[k]
    return ParseError(message, tok.line, tok.col)


def parse_system(text: str, strict: bool = False) -> System:
    """Parse the line format, returning just the system."""
    return parse_system_details(text, strict=strict).system


def _show_state(s: str) -> str:
    if is_name_token(s):
        return s
    if "".join(s.splitlines()) != s:
        # The reader splits lines where ``str.splitlines`` does, quotes or not.
        raise ValueError(f"cannot print {s!r}: the line format has no escape for its line break")
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# Name tokens, each followed by one blank but the last.
_BARE_NAMES = rf"{NAME_TOKEN}(?: {NAME_TOKEN})*\Z"


class _Shown(dict):
    """``shown[x]`` is ``show(x)``, computed once per key."""

    def __init__(self, show) -> None:
        super().__init__()
        self._show = show

    def __missing__(self, key):
        text = self[key] = self._show(key)
        return text


def print_system(system: System, name: Optional[str] = None) -> str:
    """The canonical text form of a system; inverse to :func:`parse_system`.

    Raises :class:`ValueError` for a state or name with a line break in it,
    which no text of the line format can hold.
    """
    header = "mts" if isinstance(system, PointedMTS) else "lts"
    if name is not None:
        header += f" {_show_state(name)}"
    lines = [header]
    if isinstance(system, PointedMTS):
        if system.actions:
            lines.append(
                "actions: " + " ".join(str(a) for a in sorted_actions(system.actions))
            )
        rels = (("may", system.may), ("must", system.must))
    else:
        sig = system.signature
        for directive, cls in (
            ("cov", sig.covariant),
            ("con", sig.contravariant),
            ("bi", sig.bivariant),
        ):
            if cls:
                lines.append(
                    f"{directive}: " + " ".join(str(a) for a in sorted_actions(cls))
                )
        rels = (("trans", system.transitions),)
    states = sorted(system.states)
    joined = " ".join(states)
    # Decided once: every state is a nonempty token (``joined`` is tokens
    # between single blanks, one blank per join, so no name holds a blank)
    # and every state printed is one of them, so every state shows bare.
    bare = (
        re.match(_BARE_NAMES, joined) is not None
        and joined.count(" ") == len(states) - 1
        and system.init in system.states
        and all(system.states.issuperset(map(itemgetter(k), rel)) for _, rel in rels for k in (0, 2))
    )
    if bare:
        lines.append(f"states: {joined}")
        lines.append(f"init: {system.init}")
    else:
        shown = _Shown(_show_state)
        lines.append("states: " + " ".join(shown[s] for s in states))
        lines.append(f"init: {shown[system.init]}")
    # Each label is shown once.  Bare lines sort as ``_triple_key`` orders
    # the transitions, since a blank sorts below every character of a bare
    # name or a label; a quoted state needs the (state, label text, state)
    # triples sorted instead.
    label_text = _Shown(str)
    for rel_name, rel in rels:
        if bare:
            texts = [f"{rel_name}: {src} {label_text[lab]} {dst}" for src, lab, dst in rel]
            texts.sort()
        else:
            keyed = [(src, label_text[lab], dst) for src, lab, dst in rel]
            keyed.sort()
            texts = [f"{rel_name}: {shown[src]} {lab} {shown[dst]}" for src, lab, dst in keyed]
        lines += texts
    return "\n".join(lines) + "\n"


class _Unplaced(Exception):
    """``(index, message)``: a syntax error at the ``index``-th token string,
    or at the end of the input when ``index`` is their count, before
    :func:`_read` places it."""


def _expected(tokens: list[str], i: int, wanted: str) -> _Unplaced:
    found = repr(tokens[i]) if i < len(tokens) else "end of input"
    return _Unplaced(i, f"expected {wanted}, found {found}")


def _read(text: str, punctuation: str, parse):
    """``parse`` run on the token strings of ``text``: names and single marks.

    Positions are worked out only for an error.  A stray character, one
    outside the name characters, ``punctuation`` and `` \\t\\r\\n``, is placed
    where it first occurs, before any other error.  Otherwise the token
    strings are looked up in ``text`` in turn up to the one the parse stopped
    at, and the error is placed at its start, or at the end of the last
    token when the parse stopped at the end of the input.
    """
    allowed = _NAMES_AND_BLANKS + punctuation
    # ``str.split`` also splits at other blanks, such as ``\x0b``; text of
    # allowed characters alone splits into the tokens once each mark is
    # spaced off.
    if not text.isascii() or text.encode().translate(None, allowed.encode()):
        at = next(k for k, c in enumerate(text) if c not in allowed)
        raise ParseError(f"unexpected character {text[at]!r}", *_line_col(text, at))
    spaced = text
    for mark in punctuation:
        spaced = spaced.replace(mark, f" {mark} ")
    tokens = spaced.split()
    try:
        return parse(tokens)
    except _Unplaced as exc:
        index, message = exc.args
    end = 0
    for tok in tokens[: index + 1]:
        end = text.index(tok, end) + len(tok)
    if index < len(tokens):
        end -= len(tokens[index])
    raise ParseError(message, *_line_col(text, end))


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[offset]``; lines end at ``\\n``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _label(tokens: list[str], i: int, plain: dict[str, Action]) -> tuple[Action, int]:
    """The label that starts at the ``i``-th token, and the index after it.
    ``plain`` holds the plain labels already built, by name."""
    marks = []  # the open decorations, outermost first
    end = len(tokens)
    while True:
        if i == end:
            raise _expected(tokens, i, "a label")
        name = tokens[i]
        i += 1
        if name not in ("cv", "ct") or i == end or tokens[i] != "(":
            break
        marks.append(name)
        i += 1
    label = plain.get(name)
    if label is None:
        if not is_name_token(name):
            raise _Unplaced(i - 1, f"expected a label, found {name!r}")
        label = plain[name] = Action(name=name)
    for mark in reversed(marks):
        if i == end or tokens[i] != ")":
            raise _expected(tokens, i, "')'")
        label, i = Action(mark=mark, base=label), i + 1
    return label, i


# With a grammar's punctuation, the only characters formula, term and label
# text may hold: name characters and the blanks between tokens.
_NAMES_AND_BLANKS = "".join(c for c in map(chr, range(128)) if is_name_token(c)) + " \t\r\n"
_FORMULA_PUNCTUATION = "<>[]()&|"


def parse_formula(text: str) -> Formula:
    """Parse a formula; syntax errors raise :class:`ParseError`."""
    return _read(text, _FORMULA_PUNCTUATION, _formula)


def parse_label(text: str, line: int = 1, col: int = 1) -> Action:
    """Parse a label written structurally, such as ``a`` or ``cv(ct(b))``,
    as formulae and terms read it.  An error is placed as if ``text``
    started at ``line`` and ``col``."""
    if is_name_token(text):
        return Action(text)
    try:
        return _read(text, _FORMULA_PUNCTUATION, _whole_label)
    except ParseError as exc:
        shift = col - 1 if exc.line == 1 else 0
        raise ParseError(exc.message, exc.line + line - 1, exc.col + shift) from None


def _whole_label(tokens: list[str]) -> Action:
    label, i = _label(tokens, 0, {})
    if i < len(tokens):
        raise _Unplaced(i, f"unexpected trailing input: {tokens[i]!r}")
    return label


def _formula(tokens: list[str]) -> Formula:
    constants = {"tt": Top(), "ff": Bottom()}
    plain: dict[str, Action] = {}
    # Open modalities as (class, label), and open parentheses as (None, the
    # disjunction and conjunction read so far outside them).
    stack: list = []
    disjunction = conjunction = None
    i, end = 0, len(tokens)
    while True:
        if i == end:
            raise _expected(tokens, i, "a formula")
        tok = tokens[i]
        i += 1
        if tok == "<" or tok == "[":
            lab, i = _label(tokens, i, plain)
            close = ">" if tok == "<" else "]"
            if i == end or tokens[i] != close:
                raise _expected(tokens, i, repr(close))
            i += 1
            stack.append((Diamond if tok == "<" else Box, lab))
            continue
        if tok == "(":
            stack.append((None, (disjunction, conjunction)))
            disjunction = conjunction = None
            continue
        phi = constants.get(tok)
        if phi is None:
            raise _Unplaced(i - 1, f"expected a formula, found {tok!r}")
        while True:
            while stack and stack[-1][0] is not None:
                modality, lab = stack.pop()
                phi = modality(lab, phi)
            conjunction = phi if conjunction is None else And(conjunction, phi)
            following = tokens[i] if i < end else None
            if following == "&":
                i += 1
                break
            disjunction = conjunction if disjunction is None else Or(disjunction, conjunction)
            conjunction = None
            if following == "|":
                i += 1
                break
            if not stack:
                if i < end:
                    raise _Unplaced(i, f"unexpected trailing input: {following!r}")
                return disjunction
            if following != ")":
                raise _expected(tokens, i, "')'")
            i += 1
            phi = disjunction
            disjunction, conjunction = stack.pop()[1]


_TERM_PUNCTUATION = "+.!()"

TERM_KINDS = ("mts", "lts")


def parse_term(text: str, kind: str = "mts") -> Term:
    """Parse a process term; ``kind`` decides whether ``!`` prefixes parse.

    ``0`` and ``w`` are reserved atoms, not labels.
    """
    if kind not in TERM_KINDS:
        raise ValueError(f"unknown term kind {kind!r}; pick one of {TERM_KINDS}")
    return _read(text, _TERM_PUNCTUATION, lambda tokens: _term(tokens, kind))


def _term(tokens: list[str], kind: str) -> Term:
    plain: dict[str, Action] = {}
    # Open prefixes as (class, label), and open parentheses as (None, the
    # sum read so far outside them).
    stack: list = []
    total = None
    i, end = 0, len(tokens)
    while True:
        if i == end:
            raise _expected(tokens, i, "a term")
        tok = tokens[i]
        i += 1
        if tok == "(":
            stack.append((None, total))
            total = None
            continue
        following = tokens[i] if i < end else None
        if following == "." or following == "!" or (tok in ("cv", "ct") and following == "("):
            if tok == "0" or tok == "w":
                raise _Unplaced(i - 1, f"{tok!r} is a reserved atom, not a label")
            if not is_name_token(tok):
                raise _Unplaced(i - 1, f"expected a term, found {tok!r}")
            lab, i = _label(tokens, i - 1, plain)
            if i == end or tokens[i] not in (".", "!"):
                raise _expected(tokens, i, "'.' or '!'")
            if tokens[i] == "!" and kind == "lts":
                raise _Unplaced(i, "'!' prefixes only exist in mts terms")
            stack.append((Prefix if tokens[i] == "." else MustPrefix, lab))
            i += 1
            continue
        if tok == "0":
            t = Zero()
        elif tok == "w":
            t = Omega()
        elif is_name_token(tok):
            raise _Unplaced(i - 1, f"label {tok!r} needs a '.' or '!' and a body")
        else:
            raise _Unplaced(i - 1, f"expected a term, found {tok!r}")
        while True:
            while stack and stack[-1][0] is not None:
                prefix, lab = stack.pop()
                t = prefix(lab, t)
            total = t if total is None else Sum(total, t)
            following = tokens[i] if i < end else None
            if following == "+":
                i += 1
                break
            if not stack:
                if i < end:
                    raise _Unplaced(i, f"unexpected trailing input: {following!r}")
                return total
            if following != ")":
                raise _expected(tokens, i, "')'")
            i += 1
            t = total
            total = stack.pop()[1]
