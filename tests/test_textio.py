import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from modalsim.formulas import (
    And,
    Bottom,
    Box,
    Diamond,
    Or,
    Top,
    formula_text,
)
from modalsim import textio
from modalsim.systems import (
    PointedMTS,
    _triple_key,
    action,
    actions,
    ct,
    cv,
    lts,
    mts,
    signature,
    sorted_actions,
)
from modalsim.terms import MustPrefix, Omega, Prefix, Sum, Zero, term_text
from modalsim.textio import (
    ParseError,
    parse_formula,
    parse_label,
    parse_system,
    parse_system_details,
    parse_term,
    print_system,
)

A = action("a")
B = action("b")


def err(text, strict=False):
    with pytest.raises(ParseError) as info:
        parse_system_details(text, strict=strict)
    return info.value


def test_parse_with_comments_and_repeats():
    text = """
# a tiny spec
mts demo
actions: a
actions: b   # repeats accumulate
states: s "wait here"
init: s
may: s a "wait here"   # trailing comment
may: "wait here" b s
must: s a "wait here"
"""
    parsed = parse_system_details(text)
    assert parsed.name == "demo"
    assert parsed.warnings == ()
    system = parsed.system
    assert system.actions == actions("a", "b")
    assert system.states == frozenset({"s", "wait here"})
    assert system.may == frozenset(
        {("s", A, "wait here"), ("wait here", B, "s")}
    )
    assert system.must == frozenset({("s", A, "wait here")})


def test_quoted_states_round_trip_with_escapes():
    awkward = 'say "hi"\\now'
    system = mts([awkward, "s"], ["a"], [("s", "a", awkward)], [], "s")
    text = print_system(system, name=awkward)
    again = parse_system_details(text)
    assert again.system == system
    assert again.name == awkward
    assert again.warnings == ()


def test_canonical_print_is_sorted_and_quoted():
    system = lts(
        states=["b state", "a"],
        sig=signature(cov=["z", "a"], con=["m"]),
        transitions=[("b state", "z", "a"), ("a", "a", "a")],
        init="b state",
    )
    assert print_system(system, name="x") == (
        'lts x\n'
        "cov: a z\n"
        "con: m\n"
        'states: a "b state"\n'
        'init: "b state"\n'
        "trans: a a a\n"
        'trans: "b state" z a\n'
    )


@pytest.mark.parametrize("seed", range(3))
def test_relation_lines_print_in_triple_order(seed):
    # Bare states that are prefixes of one another, plain and decorated
    # labels; a quoted state sorts by its name, not its text, and so does a
    # quoted endpoint outside the states.
    rng = random.Random(seed)
    bare = ["q1", "q10", "q1_", "Q", "_9", "q"]
    labels = [A, B, cv(A), ct(cv(B))]
    sig = signature(cov=[A, B], con=[cv(A)], bi=[ct(cv(B))])
    for quoted in ([], ["q1 0"]):
        states = bare + quoted
        triples = [(s, a, d) for s in states for a in labels for d in states]
        for _ in range(20):
            may = rng.sample(triples, rng.randint(0, 60))
            must = rng.sample(may, rng.randint(0, len(may)))
            m = mts(states, labels, may, must, "q1")
            p = lts(states, sig, may, "q1")
            cases = [(m, True), (p, True), (m._replace(states=frozenset(bare)), False)]
            for system, valid in cases:
                text = print_system(system)
                if valid:
                    assert parse_system(text) == system
                rels = [("may", system.may), ("must", system.must)] if system is not p else [
                    ("trans", system.transitions)
                ]
                for rel_name, rel in rels:
                    assert [raw for raw in text.splitlines() if raw.startswith(rel_name + ":")] == [
                        f"{rel_name}: {textio._show_state(s)} {a} {textio._show_state(d)}"
                        for s, a, d in sorted(rel, key=_triple_key)
                    ]


def per_name_text(system):
    """The canonical text as the per-name path writes it: every state shown
    on its own, every relation sorted by its (state, label text, state)
    triples."""
    show = textio._show_state
    if isinstance(system, PointedMTS):
        lines = ["mts"]
        if system.actions:
            lines.append("actions: " + " ".join(str(a) for a in sorted_actions(system.actions)))
        rels = [("may", system.may), ("must", system.must)]
    else:
        sig = system.signature
        lines = ["lts"] + [
            f"{directive}: " + " ".join(str(a) for a in sorted_actions(cls))
            for directive, cls in (
                ("cov", sig.covariant), ("con", sig.contravariant), ("bi", sig.bivariant)
            )
            if cls
        ]
        rels = [("trans", system.transitions)]
    lines.append("states: " + " ".join(show(s) for s in sorted(system.states)))
    lines.append(f"init: {show(system.init)}")
    for rel_name, rel in rels:
        lines += [
            f"{rel_name}: {show(s)} {a} {show(d)}" for s, a, d in sorted(rel, key=_triple_key)
        ]
    return "\n".join(lines) + "\n"


# Each case changes one thing of an all-bare system, ``p``/``q`` over ``a``.
@pytest.mark.parametrize(
    "states, steps, init",
    [
        (["p", "q"], [("p", "a", "q"), ("q", "a", "p")], "p"),
        # Joined by blanks, these read as three bare names.
        (["a", "b state"], [("a", "a", "b state")], "a"),
        (["", "p"], [("p", "a", ""), ("", "a", "p")], "p"),
        (["\u00e9", "p"], [("p", "a", "\u00e9")], "p"),
        (["p", "q"], [("p", "a", "q"), ("q", "a", "x y")], "p"),
        (["p", "q"], [("p", "a", "q"), ("x y", "a", "p")], "p"),
        (["p", "q"], [("p", "a", "q"), ("q", "a", "x")], "p"),
        (["p", "q"], [("p", "a", "q")], "x y"),
        (["p", "q"], [("p", "a", "q")], "x"),
    ],
    ids=[
        "all-bare", "blank-in-a-name", "empty-name", "non-ascii-name", "quoted-target-outside",
        "quoted-source-outside", "bare-target-outside", "quoted-init-outside", "bare-init-outside",
    ],
)
def test_printing_matches_the_per_name_path(states, steps, init):
    systems = [
        mts(states, ["a"], steps, steps[:1], init),
        lts(states, signature(cov=["a"]), steps, init),
    ]
    for system in systems:
        assert print_system(system) == per_name_text(system)


@pytest.mark.parametrize("kind", ["mts", "lts"])
def test_the_first_undeclared_endpoint_is_reported_on_its_line(kind):
    rel, head = ("may", "actions: a\n") if kind == "mts" else ("trans", "cov: a\n")
    text = f"{kind} m\n{head}states: p\ninit: p\n"
    for first, second, where in [
        ("p a nowhere", "elsewhere a p", (5, len(rel) + 7, "undeclared state 'nowhere'")),
        ("elsewhere a p", "p a nowhere", (5, len(rel) + 3, "undeclared state 'elsewhere'")),
        ("p b p", "p a nowhere", (5, len(rel) + 5, "undeclared label b")),
        ("p a nowhere", "p b p", (5, len(rel) + 7, "undeclared state 'nowhere'")),
        ("p a p", "p a nowhere", (6, len(rel) + 7, "undeclared state 'nowhere'")),
    ]:
        assert position(parse_system, f"{text}{rel}: {first}\n{rel}: {second}\n") == where


def test_musts_without_twins_warn_in_line_order():
    text = (
        "mts m\nactions: a b\nstates: s t\ninit: s\n"
        "must: t b s\nmay: s a t\nmust: s a t\nmust: s b t\nmust: t b s\nmust: s a s\n"
    )
    parsed = parse_system_details(text)
    assert parsed.warnings == (
        "line 5: must transition t b s has no may twin; adding it",
        "line 8: must transition s b t has no may twin; adding it",
        "line 10: must transition s a s has no may twin; adding it",
    )
    assert parsed.system.must <= parsed.system.may
    failure = err(text, strict=True)
    assert (failure.line, failure.col) == (5, 9)


def test_must_twin_repair_and_strict_mode():
    text = "mts m\nactions: a\nstates: s t\ninit: s\nmust: s a t\n"
    parsed = parse_system_details(text)
    assert parsed.warnings == (
        "line 5: must transition s a t has no may twin; adding it",
    )
    assert parsed.system.may == frozenset({("s", A, "t")})
    assert parsed.system.must == parsed.system.may

    failure = err(text, strict=True)
    assert failure.line == 5
    assert failure.col == 9
    assert "has no may twin" in failure.message


def test_error_positions():
    e = err('mts m\nstates: "abc\ninit: s\n')
    assert (e.line, e.col) == (2, 9)
    assert e.message == "unterminated quote"

    e = err('mts m\nstates: "a\\x"\ninit: s\n')
    assert e.line == 2
    assert "unknown escape" in e.message

    e = err("actions: a\n")
    assert (e.line, e.col) == (1, 1)
    assert "header" in e.message

    e = err("mts m\nactions: a\nstates: s\n")
    assert e.message == "missing init: directive"

    e = err("mts m extra\n")
    assert (e.line, e.col) == (1, 7)

    e = err("mts m\nstates: s\ninit: s\ninit: s\n")
    assert e.message == "init: was already given"

    e = err("mts m\nstates: s t\ninit: s t\n")
    assert "exactly one state" in e.message

    e = err("mts m\nactions: a\nstates: s\ninit: s\ntrans: s a s\n")
    assert (e.line, e.col) == (5, 1)
    assert "not valid in a mts file" in e.message

    e = err("lts l\ncov: a\ncon: a\nstates: s\ninit: s\n")
    assert (e.line, e.col) == (3, 6)
    assert "more than one signature class" in e.message

    e = err('mts m\nactions: a\nstates: s\ninit: s\nmay: s "a" s\n')
    assert e.message == "labels cannot be quoted"

    e = err("mts m\nactions: a\nstates: s\ninit: t\n")
    assert e.message == "undeclared state 't'"

    e = err("mts m\nactions: a\nstates: s\ninit: s\nmay: s b s\n")
    assert e.message == "undeclared label b"

    e = err("mts m\nactions: a\nstates: s\ninit: s\nmay: s a\n")
    assert "exactly three operands" in e.message

    e = err("mts m\nactions: a\nstates: s\ninit: s\nbogus: s\n")
    assert "unknown directive" in e.message


def position(parse, *args):
    with pytest.raises(ParseError) as info:
        parse(*args)
    return info.value.line, info.value.col, info.value.message


def test_scanner_positions():
    # Tabs and carriage returns count one column each; only '\n' starts a line.
    assert position(parse_formula, "<a>tt &\n\t\r $") == (
        2, 4, "unexpected character '$'"
    )
    for kind in ("mts", "lts"):
        assert position(parse_term, "a.\n\t\r  b.%0", kind) == (
            2, 7, "unexpected character '%'"
        )

    # A comment may follow a bare token directly.
    assert parse_system("mts m\nstates: s#c\ninit: s#x\n").states == {"s"}
    assert position(parse_system, "mts m\nstates: s#c\ninit: t#x\n") == (
        3, 7, "undeclared state 't'"
    )

    # Quoted and bare tokens split where a quote opens or closes.
    mixed = 'mts m\nactions: x\nstates: a"b c"d "e\\"f"\ninit: d\n'
    system = parse_system(mixed + 'may: "b c" x a\n')
    assert system.states == {"a", "b c", "d", 'e"f'}
    assert system.may == {("b c", action("x"), "a")}
    assert position(parse_system, mixed + 'may: "b c"\tx"q"\n') == (
        5, 13, "undeclared state 'q'"
    )
    assert position(parse_system, 'mts m\nstates: "ab\\') == (
        2, 12, "dangling backslash inside quotes"
    )
    assert position(parse_system, 'mts m\nstates: "a\\x"\n') == (
        2, 11, "unknown escape \\x"
    )

    # An unclosed decorated label, in each place a label is read.
    unclosed = "expected ')', found end of input"
    assert position(parse_label, "cv(a") == (1, 5, unclosed)
    assert position(parse_system, "mts m\nactions: cv(a\n") == (2, 14, unclosed)
    assert position(
        parse_system, "mts m\nactions: a\nstates: s\ninit: s\nmay: s cv(a s\n"
    ) == (5, 12, unclosed)
    assert position(parse_formula, "<cv(a>tt") == (1, 6, "expected ')', found '>'")
    assert position(parse_term, "cv(a.0") == (1, 5, "expected ')', found '.'")


def test_parse_label_structure():
    assert parse_label("a") == A
    assert parse_label("cv(a)") == cv(A)
    assert parse_label("cv(ct(b))") == cv(ct(B))
    # Blanks between tokens are read as in formulae and terms.
    assert parse_label(" cv( ct(b\n) ) ") == cv(ct(B))
    with pytest.raises(ParseError):
        parse_label("a b")
    # Only an error on the text's first line has its column shifted.
    assert position(parse_label, "cv(a ", 3, 7) == (3, 11, "expected ')', found end of input")
    assert position(parse_label, "cv(\n a", 3, 7) == (4, 3, "expected ')', found end of input")
    with pytest.raises(ParseError):
        parse_label("cv(a")
    with pytest.raises(ParseError):
        parse_label("(a)")


def test_name_labels_skip_the_token_reader(monkeypatch):
    reads = []
    read = textio._read
    monkeypatch.setattr(textio, "_read", lambda text, *rest: reads.append(text) or read(text, *rest))
    assert parse_label("a") is A
    assert parse_label("x_9", 3, 7) is action("x_9")
    system = parse_system("lts\ncov: a b\ncon: c\nstates: p\ninit: p\ntrans: p c p\n")
    assert system == lts(["p"], signature(cov=["a", "b"], con=["c"]), [("p", "c", "p")], "p")
    assert reads == []
    assert parse_label("cv(a)") is cv(A)
    assert reads == ["cv(a)"]


@pytest.mark.parametrize("text, col, message", [
    ("cv(a", 5, "expected ')', found end of input"),
    ("cv()", 4, "expected a label, found ')'"),
    ("(a)", 1, "expected a label, found '('"),
    ("a)", 2, "unexpected trailing input: ')'"),
    ("cv(a))", 6, "unexpected trailing input: ')'"),
    ("cv(ct(b)", 9, "expected ')', found end of input"),
    ("a-b", 2, "unexpected character '-'"),
])
def test_malformed_label_reads_alike_everywhere(text, col, message):
    # The column counts from the label's first character.
    assert position(parse_label, text) == (1, col, message)
    assert position(parse_label, text, 3, 7) == (3, col + 6, message)
    actions = f"mts m\nactions: {text}\n"
    assert position(parse_system, actions) == (2, col + 9, message)
    may = f"mts m\nactions: a\nstates: s\ninit: s\nmay: s {text} s\n"
    assert position(parse_system, may) == (5, col + 7, message)
    assert position(parse_formula, f"<{text}>tt")[:2] == (1, col + 1)


def _label_text(rng):
    name = rng.choice(["a", "b7", "x_y", "cv", "ct", "tt", "0", "_", "A9"])
    marks = [rng.choice(["cv", "ct"]) for _ in range(rng.randrange(5))]
    return "".join(f"{mark}(" for mark in marks) + name + ")" * len(marks)


def _label_of_formula(text):
    phi = parse_formula(f"<{text}>tt")
    assert type(phi) is Diamond and phi.body is Top()
    return phi.action


def _read_or_none(read, text):
    try:
        return read(text)
    except ParseError:
        return None


@pytest.mark.parametrize("seed", range(3))
def test_label_readers_agree(seed):
    # One reader of the label grammar, with two entry points: parse_label,
    # which system files use too, and the modalities of formulae.
    rng = random.Random(seed)
    for _ in range(400):
        text = _label_text(rng)
        assert _label_of_formula(text) is parse_label(text), text
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and i < len(text):
            edited = text[:i] + text[i + 1 :]
        else:
            edited = text[:i] + rng.choice("()a_0-!.") + text[i:]
        assert _read_or_none(_label_of_formula, edited) is _read_or_none(parse_label, edited), edited
    for text in ("", "(", ")", "cv(", "cv()", "cv(a", "a)", "(a)", "cv(a))", "cv((a))", "a-b", "cv(ct(b)"):
        assert _read_or_none(parse_label, text) is None, text
        assert _read_or_none(_label_of_formula, text) is None, text


def test_formula_parsing_and_precedence():
    assert parse_formula("tt & ff | tt") == Or(And(Top(), Bottom()), Top())
    assert parse_formula("tt | ff & tt") == Or(Top(), And(Bottom(), Top()))
    assert parse_formula("(tt | ff) & tt") == And(Or(Top(), Bottom()), Top())
    assert parse_formula("<a>[b]ff") == Diamond(A, Box(B, Bottom()))
    assert parse_formula("[cv(a)]tt") == Box(cv(A), Top())

    for text in ("<a>", "tt &", "tt tt", "a", "<a]tt", ""):
        with pytest.raises(ParseError):
            parse_formula(text)


def test_formula_text_round_trip():
    for text in (
        "tt",
        "ff & tt",
        "(tt | ff) & tt",
        "<a>(tt | ff)",
        "[ct(b)][a]ff",
        "tt | ff | tt",
    ):
        assert formula_text(parse_formula(text)) == text


def test_term_parsing():
    assert parse_term("0") == Zero()
    assert parse_term("w") == Omega()
    assert parse_term("a.0 + b!w") == Sum(
        Prefix(A, Zero()), MustPrefix(B, Omega())
    )
    assert parse_term("a.(0 + w)") == Prefix(A, Sum(Zero(), Omega()))
    assert parse_term("cv(a).0", kind="lts") == Prefix(cv(A), Zero())

    with pytest.raises(ParseError):
        parse_term("a!0", kind="lts")
    with pytest.raises(ParseError):
        parse_term("a")
    with pytest.raises(ParseError):
        parse_term("0.a")
    with pytest.raises(ParseError):
        parse_term("w!0")
    with pytest.raises(ValueError):
        parse_term("0", kind="nonsense")


def test_term_text_round_trip():
    for text in ("0", "w", "a.0 + b!w", "a!(0 + w)", "ct(a).w"):
        assert term_text(parse_term(text)) == text


def test_system_print_parse_round_trip():
    ccex = lts(
        states=["p", "q", "r", "s"],
        sig=signature(cov=["a"], con=["b"]),
        transitions=[
            ("p", "a", "s"),
            ("p", "b", "s"),
            ("q", "a", "s"),
            ("r", "b", "s"),
        ],
        init="p",
    )
    text = print_system(ccex, "ccex")
    again = parse_system_details(text)
    assert again.system == ccex
    assert again.name == "ccex"
    assert print_system(again.system, again.name) == text


@pytest.mark.parametrize("line_break", ["\n", "\u2028"])
def test_print_system_refuses_a_line_break_it_cannot_write(line_break):
    state = f"a{line_break}b"
    m = mts(["p", state], ["a"], [("p", "a", state)], [], "p")
    with pytest.raises(ValueError, match=re.escape(repr(state))):
        print_system(m)
    with pytest.raises(ValueError, match=re.escape(repr(state))):
        print_system(mts(["p"], ["a"], [], [], "p"), name=state)


def test_plain_relation_lines_skip_the_tokenizer(monkeypatch):
    rng = random.Random(2)
    states = [f"s{i}" for i in range(20)] + ["a b"]
    labels = ["a", "b", cv("a")]
    may = {(rng.choice(states), rng.choice(labels), rng.choice(states)) for _ in range(300)}
    must = set(rng.sample(sorted(may, key=str), 100))
    tokenized = []
    tokenize = textio._tokenize_line
    monkeypatch.setattr(
        textio, "_tokenize_line", lambda raw, line: tokenized.append(raw) or tokenize(raw, line)
    )
    # A comment, a non-ASCII character and a \x1f, which ``str.split`` reads
    # as a blank and the tokenizer as part of a name.
    extra = ["# note", "states: s1 # s2", "states: s1\u00a0", "states: s1\x1f"]
    for quoted in (False, True):
        chosen = states if quoted else states[:-1]
        chosen_may = {t for t in may if t[0] in chosen and t[2] in chosen}
        chosen_must = must & chosen_may
        for system in (
            mts(chosen, labels, chosen_may, chosen_must, "s0"),
            lts(chosen, signature(cov=["a", "b"], con=[cv("a")]), chosen_may, "s0"),
        ):
            tokenized.clear()
            text = print_system(system, "sys")
            assert len([raw for raw in text.splitlines() if "may:" in raw or "trans:" in raw]) >= 150
            assert parse_system(text) == system
            # Only lines with a quote reach the tokenizer.
            assert tokenized == [raw for raw in text.splitlines() if '"' in raw]
            assert bool(tokenized) is quoted
            tokenized.clear()
            again = parse_system(text + "\n".join(extra) + "\n")
            assert again == system._replace(states=system.states | {"s1\u00a0", "s1\x1f"})
            assert tokenized[-len(extra):] == extra
    # An error on a plain line is placed by tokenizing that line alone.
    head = "mts\nactions: a\nstates: p q\ninit: p\n"
    for line, col, message in [
        ("may:  p\ta  nowhere", 12, "undeclared state 'nowhere'"),
        ("may: \tnowhere a p", 7, "undeclared state 'nowhere'"),
        ("must: p  zz\tq", 10, "undeclared label zz"),
        ("may: p  cv(a q", 13, "expected ')', found end of input"),
        ("may: p\ta-b q", 9, "unexpected character '-'"),
        ("  must: p a", 3, "must: takes exactly three operands: source label target"),
        ("\tinit: p q", 2, "init: takes exactly one state"),
        ("actions:  a   cv(", 18, "expected a label, found end of input"),
    ]:
        tokenized.clear()
        assert position(parse_system, head + "states: x\n" + line + "\n") == (6, col, message)
        assert tokenized == [line]


def test_formulae_and_terms_are_positioned_only_on_error(monkeypatch):
    scans = []
    line_col = textio._line_col
    monkeypatch.setattr(
        textio, "_line_col", lambda text, offset: scans.append(text) or line_col(text, offset)
    )
    for text in ["<cv(a)>tt &\n[ct(b)](ff | <cv>tt)", "(tt)", "[0][w]ff"]:
        parse_formula(text)
    for text in ["cv(a).0 + ct(cv(b))!(w\n+ cv.0)", "(0)", "w"]:
        parse_term(text)
    assert scans == []
    for parse, text, line, col in [
        (parse_formula, "<a>tt &\n (ff | )", 2, 8),
        (parse_formula, "<a>tt & ~", 1, 9),
        (parse_term, "a.0 +\n0.w", 2, 1),
        (parse_term, "a.(0", 1, 5),
    ]:
        scans.clear()
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.col) == (line, col)
        assert scans == [text]


def test_deep_formula_parses_in_bounded_memory():
    # Token strings instead of positioned tokens: at this depth the
    # positioned reader peaked at about 12 MB, this one at about 5 MB.
    text = "<a>" * 20_000 + "tt"
    tracemalloc.start()
    try:
        phi = parse_formula(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(phi, Diamond)
    assert peak < 7_500_000, peak


# Prints the modules that call into ``re`` to compile a pattern, this script
# included, while ``modalsim.cli`` is imported.
COMPILES_AT_IMPORT = """
import re, sys
_compile = re._compile
callers = []
def recording(*args, **kwargs):
    frame = sys._getframe(1)
    while frame.f_globals.get("__name__", "").split(".")[0] == "re":
        frame = frame.f_back
    callers.append(frame.f_globals.get("__name__"))
    return _compile(*args, **kwargs)
re._compile = recording
re.compile("probe")
import modalsim.cli
print(" ".join(sorted(set(callers))))
"""


def test_importing_compiles_no_textio_pattern():
    # Patterns stay strings compiled on first use, so a reader's patterns
    # cost nothing to a call that does not read that grammar.
    env = dict(os.environ, PYTHONPATH=str(Path(textio.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", COMPILES_AT_IMPORT], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    callers = done.stdout.split()
    assert "__main__" in callers  # the recording sees the probe
    assert "modalsim.textio" not in callers
