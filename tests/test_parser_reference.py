"""The one-loop formula and term parsers against the recursive-descent
parsers they replaced.

The reference below is a test-only copy of those recursive parsers, kept
as they were.  On seeded texts made from the grammars and on mutations of
them, both parsers must give the same node, or the same ``ParseError``
message, line and column.
"""

import random

import pytest

from modalsim.formulas import And, Bottom, Box, Diamond, Or, Top
from modalsim.systems import Action, ct, cv, is_name_token
from modalsim.terms import MustPrefix, Omega, Prefix, Sum, Zero
from modalsim.textio import (
    _FORMULA_SCANNER,
    _TERM_SCANNER,
    ParseError,
    _Cursor,
    _label_from_stream,
    _scan_tokens,
    parse_formula,
    parse_term,
)


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
# accepts.
PIECES = ["tt", "ff", "0", "w", "a", "cv", "ct", "(", ")", "<", ">", "[", "]", "&", "|",
          "+", ".", "!", " ", "\n", "#", ",", "~"]


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
