"""The one-loop formula and term parsers against the recursive-descent
parsers they replaced, and the system reader against the reader that
tokenized every line.

The references below are test-only copies of those parsers, of the
positioned token cursor and label reader they ran on, and of that reader,
kept as they were.  On seeded texts made from the grammars and on
mutations of them, both sides must give the same node (for systems: the
same ``ParsedSystem``, warnings included), or the same ``ParseError``
message, line and column.
"""

import random
from typing import Optional

import pytest

from modalsim.formulas import And, Bottom, Box, Diamond, Or, Top
from modalsim.systems import (
    Action,
    CCSignature,
    PointedLTS,
    PointedMTS,
    System,
    Transition,
    ct,
    cv,
    is_name_token,
    signature,
)
from modalsim.terms import MustPrefix, Omega, Prefix, Sum, Zero
from modalsim.textio import (
    _LTS_DIRECTIVES,
    _MTS_DIRECTIVES,
    ParseError,
    ParsedSystem,
    _scan_tokens,
    _Token,
    _tokenize_line,
    parse_formula,
    parse_label,
    parse_system_details,
    parse_term,
    print_system,
)


class _Cursor:
    """A token stream with one-token lookahead and positioned errors."""

    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek_text(self) -> Optional[str]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos].text
        return None

    def next(self, wanted: str = "a token") -> _Token:
        if self._pos >= len(self._tokens):
            line, col = self._end_pos()
            raise ParseError(f"expected {wanted}, found end of input", line, col)
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(repr(text))
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_end(self) -> None:
        if self._pos < len(self._tokens):
            tok = self._tokens[self._pos]
            raise ParseError(f"unexpected trailing input: {tok.text!r}", tok.line, tok.col)

    def _end_pos(self) -> tuple[int, int]:
        if not self._tokens:
            return (1, 1)
        last = self._tokens[-1]
        return (last.line, last.col + len(last.text))


def _label_from_stream(cur: _Cursor, tok: Optional[_Token] = None) -> Action:
    """A label read from ``cur``, after its first token ``tok`` if given."""
    marks = []  # the open decorations, outermost first
    while True:
        tok = tok or cur.next("a label")
        if not is_name_token(tok.text):
            raise ParseError(f"expected a label, found {tok.text!r}", tok.line, tok.col)
        if tok.text not in ("cv", "ct") or cur.peek_text() != "(":
            break
        cur.next()
        marks.append(tok.text)
        tok = None
    label = Action(name=tok.text)
    for mark in reversed(marks):
        cur.expect(")")
        label = Action(mark=mark, base=label)
    return label


# The scanners the references ran on: one match per newline, run of blanks,
# token or stray character.
_FORMULA_SCANNER = r"(?P<newline>\n)|[ \t\r]+|(?P<token>[A-Za-z0-9_]+|[<>\[\]()&|])|(?P<bad>.)"
_TERM_SCANNER = r"(?P<newline>\n)|[ \t\r]+|(?P<token>[A-Za-z0-9_]+|[+.!()])|(?P<bad>.)"


def reference_parse_formula(text):
    cur = _Cursor(_scan_tokens(text, _FORMULA_SCANNER))
    phi = _formula(cur)
    cur.expect_end()
    return phi


def _formula(cur):
    out = _conjunct(cur)
    while cur.peek_text() == "|":
        cur.next()
        out = Or(out, _conjunct(cur))
    return out


def _conjunct(cur):
    out = _unary(cur)
    while cur.peek_text() == "&":
        cur.next()
        out = And(out, _unary(cur))
    return out


def _unary(cur):
    tok = cur.next("a formula")
    if tok.text == "tt":
        return Top()
    if tok.text == "ff":
        return Bottom()
    if tok.text == "(":
        phi = _formula(cur)
        cur.expect(")")
        return phi
    if tok.text == "<":
        lab = _label_from_stream(cur)
        cur.expect(">")
        return Diamond(lab, _unary(cur))
    if tok.text == "[":
        lab = _label_from_stream(cur)
        cur.expect("]")
        return Box(lab, _unary(cur))
    raise ParseError(f"expected a formula, found {tok.text!r}", tok.line, tok.col)


def reference_parse_term(text, kind="mts"):
    cur = _Cursor(_scan_tokens(text, _TERM_SCANNER))
    t = _term(cur, kind)
    cur.expect_end()
    return t


def _term(cur, kind):
    out = _prefixed(cur, kind)
    while cur.peek_text() == "+":
        cur.next()
        out = Sum(out, _prefixed(cur, kind))
    return out


def _prefixed(cur, kind):
    tok = cur.next("a term")
    if tok.text == "(":
        t = _term(cur, kind)
        cur.expect(")")
        return t
    if not is_name_token(tok.text):
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
    if tok.text in ("cv", "ct") and cur.peek_text() == "(":
        cur.next()
        inner = _label_from_stream(cur)
        cur.expect(")")
        lab = cv(inner) if tok.text == "cv" else ct(inner)
        return _prefix_rest(cur, kind, lab)
    if cur.peek_text() in (".", "!"):
        if tok.text in ("0", "w"):
            raise ParseError(
                f"{tok.text!r} is a reserved atom, not a label", tok.line, tok.col
            )
        return _prefix_rest(cur, kind, Action(name=tok.text))
    if tok.text == "0":
        return Zero()
    if tok.text == "w":
        return Omega()
    raise ParseError(
        f"label {tok.text!r} needs a '.' or '!' and a body", tok.line, tok.col
    )


def _prefix_rest(cur, kind, lab):
    op = cur.next("'.' or '!'")
    if op.text == ".":
        return Prefix(lab, _prefixed(cur, kind))
    if op.text == "!":
        if kind == "lts":
            raise ParseError("'!' prefixes only exist in mts terms", op.line, op.col)
        return MustPrefix(lab, _prefixed(cur, kind))
    raise ParseError(f"expected '.' or '!', found {op.text!r}", op.line, op.col)


_RelEntry = tuple[_Token, Action, _Token, _Token]


def reference_parse_system_details(text: str, strict: bool = False) -> ParsedSystem:
    """Parse the line format, returning the system, its name and warnings."""
    kind: Optional[str] = None
    name: Optional[str] = None
    mts_actions: dict[Action, _Token] = {}
    classes: dict[str, dict[Action, _Token]] = {"cov": {}, "con": {}, "bi": {}}
    states: dict[str, _Token] = {}
    init_tok: Optional[_Token] = None
    rels: dict[str, list[_RelEntry]] = {"may": [], "must": [], "trans": []}
    labels: dict[str, Action] = {}
    last_line = 1

    def label(tok: _Token) -> Action:
        # Each distinct label text is parsed once per file.
        if tok.quoted:
            raise ParseError("labels cannot be quoted", tok.line, tok.col)
        lab = labels.get(tok.text)
        if lab is None:
            lab = labels[tok.text] = parse_label(tok.text, tok.line, tok.col)
        return lab

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if kind is None:
            if head.quoted or head.text not in ("mts", "lts"):
                raise ParseError(
                    "expected an 'mts' or 'lts' header line", head.line, head.col
                )
            kind = head.text
            if len(tokens) > 2:
                extra = tokens[2]
                raise ParseError(
                    "the header line takes at most a name", extra.line, extra.col
                )
            if len(tokens) == 2:
                name = tokens[1].text
            continue
        if head.quoted or not head.text.endswith(":"):
            raise ParseError(
                f"expected a directive, found {head.text!r}", head.line, head.col
            )
        allowed = _MTS_DIRECTIVES if kind == "mts" else _LTS_DIRECTIVES
        if head.text not in allowed:
            other = _LTS_DIRECTIVES if kind == "mts" else _MTS_DIRECTIVES
            if head.text in other:
                raise ParseError(
                    f"directive {head.text!r} is not valid in a {kind} file",
                    head.line,
                    head.col,
                )
            raise ParseError(f"unknown directive {head.text!r}", head.line, head.col)
        directive = head.text[:-1]
        operands = tokens[1:]
        if directive in ("actions", "cov", "con", "bi"):
            if kind == "mts":
                target = mts_actions
            else:
                target = classes["cov" if directive == "actions" else directive]
            for tok in operands:
                target.setdefault(label(tok), tok)
        elif directive == "states":
            for tok in operands:
                states.setdefault(tok.text, tok)
        elif directive == "init":
            if len(operands) != 1:
                raise ParseError("init: takes exactly one state", head.line, head.col)
            if init_tok is not None:
                raise ParseError("init: was already given", head.line, head.col)
            init_tok = operands[0]
        else:
            if len(operands) != 3:
                raise ParseError(
                    f"{head.text} takes exactly three operands: source label target",
                    head.line,
                    head.col,
                )
            src, labtok, dst = operands
            rels[directive].append((src, label(labtok), labtok, dst))

    if kind is None:
        raise ParseError("expected an 'mts' or 'lts' header line", last_line, 1)
    if init_tok is None:
        raise ParseError("missing init: directive", last_line, 1)
    if init_tok.text not in states:
        raise ParseError(
            f"undeclared state {init_tok.text!r}", init_tok.line, init_tok.col
        )

    warnings: list[str] = []
    if kind == "mts":
        declared = frozenset(mts_actions)
        for rel_name in ("may", "must"):
            _reference_check_endpoints(rels[rel_name], states, declared)
        may = {(s.text, lab, d.text) for s, lab, _lt, d in rels["may"]}
        must: set[Transition] = set()
        for s, lab, labtok, d in rels["must"]:
            triple = (s.text, lab, d.text)
            must.add(triple)
            if triple not in may:
                msg = f"must transition {s.text} {lab} {d.text} has no may twin"
                if strict:
                    raise ParseError(msg, labtok.line, labtok.col)
                warnings.append(f"line {labtok.line}: {msg}; adding it")
                may.add(triple)
        system: System = PointedMTS(
            frozenset(states), declared, frozenset(may), frozenset(must), init_tok.text
        )
    else:
        sig = CCSignature(
            covariant=frozenset(classes["cov"]),
            contravariant=frozenset(classes["con"]),
            bivariant=frozenset(classes["bi"]),
        )
        for lab in sig.overlaps():
            decls = sorted(
                (d[lab] for d in classes.values() if lab in d),
                key=lambda t: (t.line, t.col),
            )
            where = decls[-1]
            raise ParseError(
                f"label {lab} is declared in more than one signature class",
                where.line,
                where.col,
            )
        _reference_check_endpoints(rels["trans"], states, sig.actions)
        trans = frozenset((s.text, lab, d.text) for s, lab, _lt, d in rels["trans"])
        system = PointedLTS(frozenset(states), sig, trans, init_tok.text)
    return ParsedSystem(system=system, name=name, warnings=tuple(warnings))


def _reference_check_endpoints(
    entries: list[_RelEntry],
    states: dict[str, _Token],
    declared: frozenset[Action],
) -> None:
    for src, lab, labtok, dst in entries:
        if src.text not in states:
            raise ParseError(f"undeclared state {src.text!r}", src.line, src.col)
        if dst.text not in states:
            raise ParseError(f"undeclared state {dst.text!r}", dst.line, dst.col)
        if lab not in declared:
            raise ParseError(f"undeclared label {lab}", labtok.line, labtok.col)


LABELS = ["a", "b", "cv(a)", "ct(cv(b))"]


def _random_formula(rng, depth):
    pick = rng.randrange(6 if depth > 0 else 2)
    if pick < 2:
        return ["tt", "ff"][pick]
    if pick < 4:
        body = _random_formula(rng, depth - 1)
        return f"{'<' if pick == 2 else '['}{rng.choice(LABELS)}{'>' if pick == 2 else ']'}{body}"
    op = " & " if pick == 4 else " | "
    out = op.join(_random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return f"({out})" if rng.random() < 0.6 else out


def _random_term(rng, depth):
    pick = rng.randrange(5 if depth > 0 else 2)
    if pick < 2:
        return ["0", "w"][pick]
    if pick < 4:
        body = _random_term(rng, depth - 1)
        return f"{rng.choice(LABELS)}{'.' if pick == 2 else '!'}{body}"
    out = " + ".join(_random_term(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return f"({out})" if rng.random() < 0.6 else out


# Pieces a mutation may insert: every token of both grammars, names that are
# reserved or decorate labels, blanks, a newline and characters no scanner
# accepts, among them every other kind of character ``str.split`` splits at.
PIECES = ["tt", "ff", "0", "w", "a", "cv", "ct", "(", ")", "<", ">", "[", "]", "&", "|",
          "+", ".", "!", " ", "\n", "#", ",", "~", "\t", "\r", "\x0b", "\x0c", "\x1c",
          "\x1f", "\x85", "\xa0", "\u00e9"]


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 3))
        choice = rng.randrange(4)
        if choice == 0:
            text = text[:i] + text[j:]
        elif choice == 1:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif choice == 2:
            text = text[:i] + rng.choice(PIECES) + text[j:]
        else:
            text = text[:i]
    return text


def _outcome(parse, text, *args):
    try:
        return ("parsed", parse(text, *args))
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def _texts(make, seed, count=2000):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = make(rng, rng.randint(0, 4))
        if rng.random() < 0.3:
            text = text.replace(" ", rng.choice([" ", "", "\n", "  \n "]))
        out.append(text if rng.random() < 0.3 else _mutate(rng, text))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_formula_parser_matches_the_recursive_reference(seed):
    kinds = set()
    for text in _texts(_random_formula, seed):
        expected = _outcome(reference_parse_formula, text)
        assert _outcome(parse_formula, text) == expected, repr(text)
        kinds.add(expected[0])
    assert kinds == {"parsed", "error"}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", ["mts", "lts"])
def test_term_parser_matches_the_recursive_reference(seed, kind):
    kinds = set()
    for text in _texts(_random_term, seed):
        expected = _outcome(reference_parse_term, text, kind)
        assert _outcome(parse_term, text, kind) == expected, repr(text)
        kinds.add(expected[0])
    assert kinds == {"parsed", "error"}


# State names that print bare, quoted, with escapes, or with a blank that
# only quotes keep; and label texts plain and decorated.
SYSTEM_STATES = ["p", "q1", "s_2", "a b", 'say "hi"', "back\\slash", "ü", "#x", "", "x\u00a0y"]
SYSTEM_LABELS = ["a", "b", "cv(a)", "ct(cv(b))"]


def _random_system(rng):
    states = rng.sample(SYSTEM_STATES, rng.randint(1, 4))
    labels = [parse_label(t) for t in rng.sample(SYSTEM_LABELS, rng.randint(1, 3))]
    triples = [(s, a, d) for s in states for a in labels for d in states]
    chosen = rng.sample(triples, rng.randint(0, min(len(triples), 12)))
    init = rng.choice(states)
    if rng.random() < 0.5:
        must = rng.sample(chosen, rng.randint(0, len(chosen)))
        system = PointedMTS(
            frozenset(states), frozenset(labels), frozenset(chosen), frozenset(must), init
        )
    else:
        classes = [[], [], []]
        for a in labels:
            rng.choice(classes).append(a)
        sig = signature(cov=classes[0], con=classes[1], bi=classes[2])
        system = PointedLTS(frozenset(states), sig, frozenset(chosen), init)
    return print_system(system, rng.choice([None, "sys", "two words"]))


def _operand(rng):
    return rng.choice(["p", "q1", "nowhere", '"a b"', '"p"', "a", "cv(a)", "ü", "x\u00a0y"])


def _insert_in_token(rng, line, pieces):
    words = line.split(" ")
    k = rng.randrange(len(words))
    i = rng.randrange(len(words[k]) + 1)
    words[k] = words[k][:i] + rng.choice(pieces) + words[k][i:]
    return " ".join(words)


def _replace_blank(rng, line, pieces):
    words = line.split(" ")
    if len(words) == 1:
        return line
    i = rng.randrange(1, len(words))
    return " ".join(words[:i]) + rng.choice(pieces) + " ".join(words[i:])


def _replace_token(rng, line, choices):
    words = line.split(" ")
    i = rng.randrange(len(words))
    words[i] = rng.choice(choices) if choices else f'"{words[i]}"'
    return " ".join(words)


# Each takes a line of printed text and returns the mutated line(s).
LINE_MUTATIONS = [
    lambda rng, line: _replace_token(rng, line, None),  # quote a token
    lambda rng, line: line + rng.choice([" # note", "#", ' # "', "#x y z"]),
    lambda rng, line: _replace_blank(rng, line, ["\t", "  ", " \r", "\r", "\u00a0", "\u2028", " \t"]),
    lambda rng, line: _insert_in_token(rng, line, ["#", '"', "\\", "\t", "\u00a0", ":", "(", ")"]),
    lambda rng, line: rng.choice([" ", "\t", "\u00a0", "\r"]) + line,
    lambda rng, line: line + rng.choice([" ", "\t", " \t ", "\u00a0", "\x1f"]),
    lambda rng, line: _replace_token(rng, line, [
        "cv(a", "cv()", "a)", "cv(ct(b))", "ct(a)", "zz", "a-b", "(a)", '"a"', "cv(zz)", "b",
    ]),
    lambda rng, line: " ".join(line.split(" ")[:-1]),  # one operand fewer
    lambda rng, line: line + " " + _operand(rng),  # one operand more
    lambda rng, line: _replace_token(rng, line, ["nowhere", "p", '"nowhere"', "\u00a0"]),
    lambda rng, line: _replace_token(rng, line, [
        "may:", "must:", "trans:", "cov:", "con:", "bi:", "actions:", "states:", "init:",
        "bogus:", "may", '"may:"', "mts", "lts",
    ]),
    lambda rng, line: "",  # drop the line, leaving a must without its twin or no header
    lambda rng, line: line + "\n" + line,
    lambda rng, line: line + "\n" + " ".join(
        [rng.choice(["may:", "must:", "trans:"]), _operand(rng), rng.choice(SYSTEM_LABELS), _operand(rng)]
    ),
    lambda rng, line: _mutate(rng, line) if line else line,
]


def _system_texts(seed, count=600):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = _random_system(rng)
        if rng.random() < 0.2:
            text = text.replace("\nmay:", "\nmust:", 1)  # a must without its twin
        if rng.random() < 0.8:
            lines = text.split("\n")
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(lines))
                lines[i] = rng.choice(LINE_MUTATIONS)(rng, lines[i])
            text = "\n".join(lines)
        out.append(text)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_system_reader_matches_the_tokenizing_reference(seed):
    seen = set()
    for text in _system_texts(seed):
        for strict in (False, True):
            expected = _outcome(reference_parse_system_details, text, strict)
            assert _outcome(parse_system_details, text, strict) == expected, (repr(text), strict)
            if expected[0] == "error":
                seen.add(expected[1].split(" ")[0])
            else:
                seen.add(("parsed", type(expected[1].system).__name__, bool(expected[1].warnings)))
    # The texts reach every kind of outcome: both kinds of system, with and
    # without repaired must twins, and errors of the tokenizer, of a line,
    # of an endpoint and of a missing twin under strict.
    assert {
        ("parsed", "PointedMTS", False), ("parsed", "PointedMTS", True),
        ("parsed", "PointedLTS", False),
        "unterminated", "labels", "expected", "directive", "undeclared", "must", "unexpected",
    } <= seen, seen



# "\x1f" and "\u3000" are blanks to ``str.split`` and name characters to
# the tokenizer.
EDIT_PIECES = ["#", '"', "\\", " ", "\t", "\r", "\n", "\u00a0", "\u2028", ":", "(", "a",
               "\x1f", "\u3000"]


@pytest.mark.parametrize("text", [
    'mts m\nactions: a cv(b)\nstates: p "q r"\ninit: p\n'
    'may: p a "q r"\nmay: "q r" cv(b) p\nmust: p a "q r"\n',
    "lts\ncov: a\ncon: b\nbi: c\nstates: p q\ninit: p\ntrans: p a q\ntrans: q c p\n",
    'mts m # note\nstates: p "x y" \u00fc q\nactions: a\ninit: \u00fc\n'
    'may: p\tcv(b) "x y"\nmay: \u00fc a q # note\nmust: \u00fc a q\nactions: cv(b)\n',
])
def test_system_reader_matches_the_reference_on_every_single_edit(text):
    # Every deleted or inserted character, and every line dropped or moved first.
    edits = [text[:i] + text[i + 1:] for i in range(len(text))]
    edits += [text[:i] + piece + text[i:] for i in range(len(text) + 1) for piece in EDIT_PIECES]
    lines = text.split("\n")
    for k in range(len(lines)):
        edits.append("\n".join(lines[:k] + lines[k + 1:]))
        edits.append("\n".join([lines[k]] + lines[:k] + lines[k + 1:]))
    for edited in edits:
        for strict in (False, True):
            expected = _outcome(reference_parse_system_details, edited, strict)
            assert _outcome(parse_system_details, edited, strict) == expected, (repr(edited), strict)


# The grammars' characters, name characters, reserved names, blanks, a
# newline and a character neither scanner accepts.
GRAMMAR_PIECES = list("<>[]()&|+.!") + ["a", "c", "v", "t", "0", "w", "_", " ", "\t", "\r", "\n", "#"]


def _single_edits(text):
    edits = [text[:i] + text[i + 1:] for i in range(len(text))]
    edits += [text[:i] + piece + text[i:] for i in range(len(text) + 1) for piece in GRAMMAR_PIECES]
    return edits


@pytest.mark.parametrize("text", [
    "<cv(a)>tt &\n[ct(cv(b))](ff | <cv>tt)",
    "[0]<w>(tt\n| [ct]ff) & <a_1>tt",
])
def test_formula_parser_matches_the_reference_on_every_single_edit(text):
    for edited in _single_edits(text):
        expected = _outcome(reference_parse_formula, edited)
        assert _outcome(parse_formula, edited) == expected, repr(edited)


@pytest.mark.parametrize("text", [
    "cv(a).0 + ct(cv(b))!(w\n+ cv.0)",
    "(ct!w +\n0) + a_1.(0 + w)",
])
@pytest.mark.parametrize("kind", ["mts", "lts"])
def test_term_parser_matches_the_reference_on_every_single_edit(text, kind):
    for edited in _single_edits(text):
        expected = _outcome(reference_parse_term, edited, kind)
        assert _outcome(parse_term, edited, kind) == expected, repr(edited)
