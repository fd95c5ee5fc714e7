import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import modalsim
from modalsim.charform import characteristic_formula, encode_term
from modalsim.cli import _build_parser, _read_argv, main
from modalsim.formulas import formula_text, mc_mts
from modalsim.preorders import fixpoint_rounds
from modalsim.selfcheck import SelfCheckConfig, property_ids, run_selfcheck
from modalsim.systems import PointedMTS, action, mts
from modalsim.terms import term_text
from modalsim.textio import parse_formula, parse_system, parse_term, print_system
from modalsim.translate import (
    decorate_by_class,
    eliminate_bivariant,
    lts_of_mts,
    mts_of_lts,
    strip_decorations,
)
from test_fixpoint_reference import CASES

# The directory that holds the package, for interpreters the tests start.
SRC = str(Path(modalsim.__file__).parents[1])

UNIVERSAL = "mts universal\nactions: a\nstates: u\ninit: u\nmay: u a u\n"
DEMANDING = "mts demanding\nactions: a\nstates: m\ninit: m\nmay: m a m\nmust: m a m\n"
CCEX = (
    "lts ccex\ncov: a\ncon: b\nstates: p q r s\ninit: p\n"
    "trans: p a s\ntrans: p b s\ntrans: q a s\ntrans: r b s\n"
)
VENDING = (
    "mts vending\nactions: coin tea\nstates: idle paid served\ninit: idle\n"
    "may: idle coin paid\nmay: paid coin paid\nmay: paid tea served\n"
    "may: served coin paid\nmust: idle coin paid\nmust: paid tea served\n"
)
LOOP_A = "lts loop_a\ncov: a\ncon: b\nstates: p\ninit: p\ntrans: p a p\n"
LOOP_AB = "lts loop_ab\ncov: a\ncon: b\nstates: q\ninit: q\ntrans: q a q\ntrans: q b q\n"
BIVARIANT = "lts bi\ncov: a\nbi: b\nstates: p q\ninit: p\ntrans: p b q\ntrans: q a p\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_refine_related(files, capsys):
    u = files("u.mts", UNIVERSAL)
    m = files("m.mts", DEMANDING)
    code, out, err = run(capsys, "check", "refine", u, m)
    assert (code, out, err) == (0, "related\n", "")


def test_check_refine_unrelated_reports_a_witness(files, capsys):
    u = files("u.mts", UNIVERSAL)
    m = files("m.mts", DEMANDING)
    code, out, _ = run(capsys, "check", "refine", m, u, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "refine"
    assert payload["related"] is False
    assert payload["left_state"] == "m"
    assert payload["right_state"] == "u"
    witness = payload["distinguishing_formula"]
    assert witness is not None
    # The witness holds at the left state and fails at the right one.
    assert run(capsys, "mc", m, "m", witness)[0] == 0
    assert run(capsys, "mc", u, "u", witness)[0] == 1


def test_repaired_must_line_is_reported_as_a_warning(files, capsys):
    m = files("m.mts", "mts m\nactions: a\nstates: s\ninit: s\nmust: s a s\n")
    warning = f"warning: {m}: line 5: must transition s a s has no may twin; adding it\n"
    code, out, err = run(capsys, "check", "refine", m, m)
    assert (code, out, err) == (0, "related\n", warning * 2)
    code, out, err = run(capsys, "check", "refine", "--strict", m, m)
    assert (code, out) == (2, "")
    assert err == f"error: {m}: line 5, col 9: must transition s a s has no may twin\n"


def test_check_ccsim_with_explicit_states(files, capsys):
    path = files("ccex.lts", CCEX)
    code, out, _ = run(
        capsys, "check", "ccsim", path, path, "--left-state", "r", "--right-state", "p"
    )
    assert (code, out) == (0, "related\n")
    code, out, _ = run(
        capsys, "check", "ccsim", path, path, "--left-state", "q", "--right-state", "p"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not related"
    assert lines[1].startswith("distinguishing formula: ")


def test_check_pbsim_depends_on_the_bisimset(files, capsys):
    p = files("p.lts", "lts p\ncov: a b\nstates: p\ninit: p\ntrans: p a p\n")
    q = files("q.lts", "lts q\ncov: a b\nstates: q\ninit: q\ntrans: q a q\ntrans: q b q\n")
    assert run(capsys, "check", "pbsim", p, q)[0] == 0
    assert run(capsys, "check", "pbsim", p, q, "--bisimset", "a")[0] == 0
    assert run(capsys, "check", "pbsim", p, q, "--bisimset", "a,b")[0] == 1
    code, _, err = run(capsys, "check", "pbsim", p, q, "--bisimset", "z")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,option",
    [
        (["check", "sim", "{lts}", "{lts}", "--bisimset", "a"], "--bisimset"),
        (["check", "ccsim", "{lts}", "{lts}", "--bisimset", ""], "--bisimset"),
        (["translate", "c", "{mts}", "--bisimset", "zz"], "--bisimset"),
        (["translate", "c", "{mts}", "--like", "{lts}"], "--like"),
        (["translate", "debi", "{lts}", "--like", "{lts}"], "--like"),
    ],
    ids=[
        "check-sim-bisimset",
        "check-ccsim-empty-bisimset",
        "translate-c-bisimset",
        "translate-c-like",
        "translate-debi-like",
    ],
)
def test_options_a_subcommand_does_not_read_are_refused(files, capsys, argv, option):
    paths = {"{lts}": files("p.lts", LOOP_A), "{mts}": files("v.mts", VENDING)}
    code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option}: ")


# main() builds its argument parser once per process; the next three tests
# check that one call leaves nothing behind for the next.


def test_reused_parser_forgets_the_bisimset(files, capsys):
    p = files("p.lts", "lts p\ncov: a b\nstates: p\ninit: p\ntrans: p b p\n")
    q = files("q.lts", "lts q\ncov: a b\nstates: q\ninit: q\ntrans: q a q\ntrans: q b q\n")
    assert run(capsys, "check", "pbsim", p, q, "--bisimset", "a") == (1, "not related\n", "")
    assert run(capsys, "check", "pbsim", p, q) == (0, "related\n", "")


def test_reused_parser_forgets_earlier_properties(capsys):
    ids = property_ids()[:2]
    for pid in ids:
        code, out, _ = run(
            capsys, "selfcheck", "--cases", "2", "--format", "json", "--property", pid
        )
        assert code == 0
        assert [p["id"] for p in json.loads(out)["properties"]] == [pid]


def test_usage_error_does_not_spoil_the_next_call(files, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "refine", "--bisimset"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    u = files("u.mts", UNIVERSAL)
    m = files("m.mts", DEMANDING)
    assert run(capsys, "check", "refine", u, m) == (0, "related\n", "")


# main reads a command line off a table built from the parser's own
# subparsers, and hands every other command line to parse_args.

COMMANDS = next(
    a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
# Words that argparse reads by its own rules: help, an abbreviation, an
# attached value, the end of options, a negative number, an empty word, a
# word with a blank and a lone dash.
ADVERSARIAL = ["-", "--", "-1", "--form", "--format=json", "", "a b", "-h"]
WORDS = ["f.mts", "s0", "<a>tt & [b]ff", "a!0 + b.w", "a,b"]
NUMBERS = ["0", "7", "42", "x"]


@st.composite
def command_lines(draw):
    """A command line of the parser's own commands: each positional once
    (sometimes not, or twice), each option but help up to twice with its
    value, shuffled, then up to two adversarial words put anywhere.  A word
    comes from the action's choices and one word outside them, or else from
    words of its type."""
    name = draw(st.sampled_from([*COMMANDS, "nope"]))
    groups = []
    for action in COMMANDS[name]._actions if name in COMMANDS else ():
        if isinstance(action, argparse._HelpAction):
            continue
        pool = [*action.choices, "f.mts"] if action.choices else NUMBERS if action.type is int else WORDS
        if not action.option_strings:
            groups += [[draw(st.sampled_from(pool))]] * draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]))
            continue
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            option = draw(st.sampled_from(action.option_strings))
            groups.append([option] if action.nargs == 0 else [option, draw(st.sampled_from(pool))])
    argv = [name, *(word for group in draw(st.permutations(groups)) for word in group)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ADVERSARIAL)))
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
# Always tried: a positional outside its choices, and an appended option given twice.
@example(["check", "f.mts", "f.mts", "f.mts"])
@example(["selfcheck", "--property", "a,b", "--seed", "7", "--property", "s0"])
def test_table_reader_declines_or_agrees_with_argparse(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(_build_parser().parse_args(argv))
        except SystemExit as exc:
            expected = f"exit {exc.code}"
    read = _read_argv(argv)
    assert read is None or vars(read) == expected


def test_benchmark_command_lines_never_reach_argparse(files, capsys, monkeypatch):
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counted(self, *args, **kwargs):
        calls.append(args)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    mts_pair = [files("u.mts", UNIVERSAL), files("m.mts", DEMANDING)]
    lts_pair = [files("p.lts", LOOP_A), files("q.lts", LOOP_AB)]
    vending = files("v.mts", VENDING)
    json_or_not = ([], ["--format", "json"])
    argvs = [
        *(["check", kind, *pair, *bisimset, *fmt]
          for kind, pair, bisimset in [
              ("refine", mts_pair, []), ("ccsim", lts_pair, []), ("sim", lts_pair, []),
              ("pbsim", lts_pair, ["--bisimset", "a"]), ("pbsim", lts_pair, ["--bisimset", ""])]
          for fmt in json_or_not),
        *(["translate", op, path, *fmt] for op, path in [("c", vending), ("m", lts_pair[0])]
          for fmt in json_or_not),
        *(["mc", vending, "idle", "<coin>tt & [tea]ff", *fmt] for fmt in json_or_not),
        *(["charform", "--cc", "a!0 + b.w", *actions, *fmt]
          for actions in ([], ["--actions", "c,d"]) for fmt in json_or_not),
        ["selfcheck", "--format", "json", "--seed", "42", "--property", "textio.golden-files-stable"],
    ]
    for argv in argvs:
        assert run(capsys, *argv)[0] in (0, 1), argv
    assert calls == []


# States whose JSON strings need escapes: a quote, a backslash, a tab, a
# non-ASCII letter and a character outside the Basic Multilingual Plane.
ESCAPED = ['say "hi"', "back\\slash", "tab\there", "\u00e9t\u00e9", "\U0001f600"]


@pytest.mark.parametrize("case", ["related", "unrelated", "empty-relation"])
def test_check_json_is_json_dumps_byte_for_byte(files, capsys, case):
    steps = list(zip(ESCAPED, "a" * len(ESCAPED), ESCAPED[1:] + ESCAPED[:1]))
    loose = mts(ESCAPED, ["a"], steps, [], ESCAPED[0])
    states = []
    if case == "related":
        left = right = loose
    elif case == "unrelated":
        # Only the first state promises its step.
        left = right = loose._replace(must=frozenset(steps[:1]))
        states = ["--left-state", ESCAPED[1], "--right-state", ESCAPED[0]]
    else:
        # A promised step that the right cannot answer.
        loop = [(ESCAPED[2], "a", ESCAPED[2])]
        left = mts(ESCAPED[2:3], ["a"], loop, loop, ESCAPED[2])
        right = mts(ESCAPED[3:4], ["a"], [], [], ESCAPED[3])
    code, out, err = run(
        capsys, "check", "refine", files("l.mts", print_system(left)),
        files("r.mts", print_system(right)), "--format", "json", *states,
    )
    assert (code, err) == (0 if case == "related" else 1, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (payload["distinguishing_formula"] is None) == (case == "related")
    if case == "empty-relation":
        assert payload["relation"] == []
    else:
        assert all([s, s] in payload["relation"] for s in ESCAPED)


def test_check_kind_mismatch_is_an_error(files, capsys):
    path = files("ccex.lts", CCEX)
    code, out, err = run(capsys, "check", "refine", path, path, "--format", "json")
    assert (code, out, err) == (2, "", "error: refinement compares two MTSs\n")


# The engine's refusal of each kind on systems of the other kind.
KIND_MISMATCH = {
    "refine": "refinement compares two MTSs",
    "ccsim": "covariant-contravariant simulation compares two LTSs",
    "pbsim": "partial bisimulation and simulation compare two LTSs",
    "sim": "partial bisimulation and simulation compare two LTSs",
}


@pytest.mark.parametrize(
    "kind,left,right",
    [
        ("refine", "lts", "lts"),
        ("refine", "mts", "lts"),
        ("ccsim", "mts", "mts"),
        ("ccsim", "lts", "mts"),
        ("pbsim", "mts", "mts"),
        ("pbsim", "mts", "lts"),
        ("sim", "mts", "mts"),
        ("sim", "lts", "mts"),
    ],
)
def test_every_kind_refuses_files_of_the_other_kind(files, capsys, kind, left, right):
    paths = {"mts": files("v.mts", VENDING), "lts": files("ccex.lts", CCEX)}
    code, out, err = run(capsys, "check", kind, paths[left], paths[right])
    assert (code, out, err) == (2, "", f"error: {KIND_MISMATCH[kind]}\n")


def test_check_unknown_state_is_an_error(files, capsys):
    u = files("u.mts", UNIVERSAL)
    code, _, err = run(capsys, "check", "refine", u, u, "--left-state", "zz")
    assert code == 2
    assert "'zz' is not a state of the left system" in err


def test_translate_m_matches_the_library(files, capsys):
    path = files("ccex.lts", CCEX)
    code, out, _ = run(capsys, "translate", "m", path)
    assert code == 0
    assert out == print_system(mts_of_lts(parse_system(CCEX)))


def test_translate_c_json_report(files, capsys):
    path = files("vending.mts", VENDING)
    code, out, _ = run(capsys, "translate", "c", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "c"
    assert payload["kind"] == "lts"
    assert payload["text"] == print_system(lts_of_mts(parse_system(VENDING)))
    assert payload["report"]["added_state"] is None
    assert ["coin", "cv(coin)"] in payload["report"]["label_map"]


def test_translate_n_marks_must_labels(files, capsys):
    path = files("plain.lts", "lts plain\ncov: a b\nstates: s\ninit: s\ntrans: s a s\ntrans: s b s\n")
    code, out, _ = run(capsys, "translate", "n", path, "--bisimset", "a")
    assert code == 0
    parsed = parse_system(out)
    assert parsed.must == frozenset({("s", action("a"), "s")})
    assert len(parsed.may) == 2


def test_translate_round_trip_through_files(files, capsys):
    original = parse_system(VENDING)
    encoded_path = files("encoded.lts", print_system(lts_of_mts(original)))
    code, out, _ = run(capsys, "translate", "cinv", encoded_path)
    assert code == 0
    assert parse_system(out) == original

    plain = files("plain.lts", CCEX)
    code, _, err = run(capsys, "translate", "cinv", plain)
    assert code == 2
    assert "error:" in err


def test_translate_debi_matches_the_library(files, capsys):
    assert parse_system(BIVARIANT).signature.bivariant
    path = files("bi.lts", BIVARIANT)
    expected = print_system(eliminate_bivariant(parse_system(BIVARIANT)))
    assert run(capsys, "translate", "debi", path) == (0, expected, "")
    assert parse_system(expected).signature.bivariant == frozenset()
    code, out, err = run(capsys, "translate", "debi", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"op": "debi", "kind": "lts", "text": expected}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "refine", "{empty}", "{mts}"],
         "{empty}: line 1, col 1: expected an 'mts' or 'lts' header line"),
        (["check", "refine", "{blank}", "{mts}"],
         "{blank}: line 3, col 1: expected an 'mts' or 'lts' header line"),
        (["translate", "m", "{mts}"], "the embedding takes an LTS"),
        (["translate", "n", "{mts}"], "the modal reading takes an LTS"),
        (["translate", "cinv", "{mts}"], "the decoding takes an LTS"),
        (["translate", "debi", "{mts}"], "the bivariant elimination takes an LTS"),
        (["translate", "c", "{lts}"], "the encoding takes an MTS"),
        (["translate", "cinv", "{cov_a}"], "covariant label a is not a cv copy"),
        (["translate", "rho", "{lts}", "--like", "{mts}"],
         "--like must name an lts file when the input is an lts"),
        (["translate", "rho", "{enc}", "--like", "{mts}"],
         "renamed labels a are outside the target action set"),
    ],
    ids=["no-header", "only-blanks-and-comments", "translate-m", "translate-n",
         "translate-cinv", "translate-debi", "translate-c", "translate-cinv-not-encoded",
         "translate-rho-lts-like-mts", "translate-rho-like"],
)
def test_input_of_the_wrong_shape_is_refused(files, capsys, argv, message):
    paths = {
        "empty": files("empty.mts", ""),
        "blank": files("blank.mts", "\n  \n# no header\n"),
        "mts": files("v.mts", VENDING),
        "lts": files("ccex.lts", CCEX),
        "cov_a": files("cov_a.lts", LOOP_A),
        "enc": files("enc.mts", "mts enc\nactions: cv(a)\nstates: s\ninit: s\nmay: s cv(a) s\n"),
    }
    argv = [arg.format(**paths) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message.format(**paths)}\n")


def test_translate_rho_needs_a_target_for_lts_input(files, capsys):
    base_text = "lts base\ncov: a\ncon: b\nstates: s\ninit: s\ntrans: s a s\n"
    base = parse_system(base_text)
    decorated_path = files("decorated.lts", print_system(decorate_by_class(base)))
    code, _, err = run(capsys, "translate", "rho", decorated_path)
    assert code == 2
    assert "--like" in err

    like = files("base.lts", base_text)
    code, out, _ = run(capsys, "translate", "rho", decorated_path, "--like", like)
    assert code == 0
    assert parse_system(out) == base


def test_translate_rho_strips_an_mts_without_a_target(files, capsys):
    text = "mts enc\nactions: cv(a) ct(a)\nstates: s\ninit: s\nmay: s ct(a) s\nmay: s cv(a) s\n"
    expected = print_system(strip_decorations(parse_system(text)))
    assert run(capsys, "translate", "rho", files("enc.mts", text)) == (0, expected, "")


def test_translate_reads_stdin(files, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(VENDING))
    code, out, _ = run(capsys, "translate", "c", "-")
    assert code == 0
    assert out == print_system(lts_of_mts(parse_system(VENDING)))


@pytest.mark.parametrize(
    "argv",
    [("check", "refine", "-", "-"), ("translate", "rho", "-", "--like", "-")],
    ids=["check", "translate"],
)
def test_stdin_is_refused_for_two_inputs(capsys, monkeypatch, argv):
    stdin = io.StringIO(VENDING)
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: -: standard input can be read for one input only\n"
    assert stdin.tell() == 0  # refused before reading anything


def test_mc_exit_codes(files, capsys):
    path = files("vending.mts", VENDING)
    assert run(capsys, "mc", path, "idle", "<coin>tt")[:2] == (0, "true\n")
    assert run(capsys, "mc", path, "idle", "[coin]<tea>tt")[0] == 0
    assert run(capsys, "mc", path, "idle", "<tea>tt")[:2] == (1, "false\n")

    code, out, _ = run(capsys, "mc", path, "idle", "<coin>tt", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "state": "idle",
        "formula": "<coin>tt",
        "holds": True,
    }

    assert run(capsys, "mc", path, "zz", "tt") == (2, "", "error: 'zz' is not a state of the system\n")
    code, _, err = run(capsys, "mc", path, "idle", "<zz>tt")
    assert code == 2
    assert "error:" in err
    assert run(capsys, "mc", path, "idle", "<coin>")[0] == 2


def test_mc_ill_formed_formula_lists_every_problem(files, capsys):
    path = files("u.mts", UNIVERSAL)
    code, out, err = run(capsys, "mc", path, "u", "<x>tt & [y]tt")
    assert (code, out) == (2, "")
    assert err == "error: label x is not in the alphabet; label y is not in the alphabet\n"


def test_mc_diamond_on_a_contravariant_label_is_an_error(files, capsys):
    path = files("ccex.lts", CCEX)
    code, out, err = run(capsys, "mc", path, "p", "<b>tt")
    assert (code, out) == (2, "")
    assert err == "error: diamond modality needs a covariant or bivariant label: b\n"


def test_deep_formula_gets_its_verdict(files, capsys):
    path = files("v.mts", VENDING)
    code, out, err = run(capsys, "mc", path, "idle", "<coin>" * 10**5 + "tt")
    assert (code, out, err) == (1, "false\n", "")


@pytest.mark.parametrize(
    "crash,message",
    [
        (RecursionError("maximum recursion depth exceeded"), "error: input nested too deeply\n"),
        (MemoryError(), "error: out of memory\n"),
        (KeyError("lost"), None),
    ],
    ids=["recursion", "memory", "other"],
)
def test_a_crash_is_an_error_not_a_verdict(files, capsys, monkeypatch, crash, message):
    # Exit 1 would read as "not related" or "false".
    def crashing(text):
        raise crash

    monkeypatch.setattr("modalsim.cli.parse_formula", crashing)
    path = files("v.mts", VENDING)
    code, out, err = run(capsys, "mc", path, "idle", "<coin>tt")
    assert (code, out) == (2, "")
    if message is None:
        assert err.startswith("Traceback (most recent call last):") and err.endswith("KeyError: 'lost'\n")
    else:
        assert err == message


def _must_chain(n):
    lines = [f"mts chain{n}", "actions: a", "states: " + " ".join(f"s{i}" for i in range(n + 1))]
    lines.append("init: s0")
    for i in range(n):
        lines += [f"may: s{i} a s{i + 1}", f"must: s{i} a s{i + 1}"]
    return "\n".join(lines) + "\n"


def test_long_must_chain_gets_its_witness(files, capsys):
    longer = files("c601.mts", _must_chain(601))
    shorter = files("c600.mts", _must_chain(600))
    code, out, err = run(capsys, "check", "refine", longer, shorter)
    assert (code, err) == (1, "")
    assert out == "not related\ndistinguishing formula: " + "<a>" * 601 + "tt\n"


def test_charform_output(files, capsys):
    result = characteristic_formula(parse_term("a!0"), frozenset({"a"}))
    code, out, _ = run(capsys, "charform", "a!0", "--cc")
    assert code == 0
    assert out.splitlines() == [
        f"term: {term_text(result.term)}",
        "actions: a",
        f"formula: {formula_text(result.formula)}",
        f"simplified: {formula_text(result.simplified)}",
        f"encoded term: {term_text(encode_term(result.term))}",
        "encoded formula: <cv(a)>[ct(a)]ff & [ct(a)][ct(a)]ff",
    ]
    assert out.splitlines()[2] == "formula: <a>[a]ff & [a][a]ff"

    code, out, _ = run(capsys, "charform", "0", "--actions", "a,b", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "term": "0",
        "actions": "a b",
        "formula": "[a]ff & [b]ff",
        "simplified": "[a]ff & [b]ff",
    }

    assert run(capsys, "charform", "a!")[0] == 2


def test_charform_encodes_a_decorated_label_inside_its_modalities(capsys):
    code, out, _ = run(capsys, "charform", "--cc", "cv(a)!0")
    assert code == 0
    assert out.splitlines()[-1] == (
        "encoded formula: <cv(cv(a))>[ct(cv(a))]ff & [ct(cv(a))][ct(cv(a))]ff"
    )


@pytest.mark.parametrize("labels, where, message", [
    ("b,cv(", "line 1, col 6", "expected a label, found end of input"),
    ("b, cv(a", "line 1, col 8", "expected ')', found end of input"),
    (" a ,ct(b c)", "line 1, col 10", "expected ')', found 'c'"),
    ("a,\n  x-y", "line 2, col 4", "unexpected character '-'"),
])
def test_label_list_errors_are_placed_in_the_argument(files, capsys, labels, where, message):
    # --actions and both --bisimset options read their lists alike, and an
    # error names the option it comes from.
    p = files("p.lts", "lts p\ncov: a b\nstates: p\ninit: p\ntrans: p a p\n")
    for argv in (
        ["charform", "a.0", "--actions", labels],
        ["check", "pbsim", p, p, "--bisimset", labels],
        ["translate", "n", p, "--bisimset", labels],
    ):
        expected = f"error: {argv[-2]}: {where}: {message}\n"
        assert run(capsys, *argv) == (2, "", expected), argv


def test_labels_outside_the_alphabet_are_printed_as_text(files, capsys):
    p = files("p.lts", "lts p\ncov: a\nstates: p\ninit: p\n")
    code, out, err = run(capsys, "check", "pbsim", p, p, "--bisimset", "z, cv(y)")
    assert (code, out, err) == (
        2, "", "error: bisimulation set labels cv(y), z are outside the alphabet\n"
    )
    enc = files("enc.lts", "lts enc\ncov: cv(a)\nstates: p\ninit: p\n")
    like = files("like.lts", "lts like\ncov: b\nstates: p\ninit: p\n")
    code, out, err = run(capsys, "translate", "rho", enc, "--like", like)
    assert (code, out, err) == (
        2, "", "error: renamed labels a are outside the target signature\n"
    )


def test_selfcheck_list_and_subset(capsys):
    code, out, _ = run(capsys, "selfcheck", "--list")
    assert code == 0
    assert out.splitlines() == property_ids()

    code, out, _ = run(
        capsys,
        "selfcheck",
        "--cases",
        "3",
        "--property",
        "systems.validate-accepts-generated",
    )
    assert code == 0
    assert "result: ok (1 properties: 1 pass)" in out
    assert "\x1b[" not in out

    code, _, err = run(capsys, "selfcheck", "--property", "no.such.id")
    assert code == 2
    assert "unknown properties" in err


def test_selfcheck_options_default_to_the_config_defaults(capsys):
    code, out, _ = run(
        capsys, "selfcheck", "--format", "json", "--property", "systems.validate-accepts-generated"
    )
    assert code == 0
    payload = json.loads(out)
    defaults = SelfCheckConfig()
    assert payload["seed"] == defaults.seed
    sizes = ("cases", "max_states", "max_labels", "max_formula_depth", "term_height")
    assert {k: payload["config"][k] for k in sizes} == {k: getattr(defaults, k) for k in sizes}


def test_selfcheck_config_is_built_from_the_options_given(capsys, monkeypatch):
    # The parser holds no defaults, so an option left out keeps the default
    # that SelfCheckConfig states.
    configs = []

    def recording(config):
        configs.append(config)
        return run_selfcheck(replace(config, properties=("systems.validate-accepts-generated",)))

    monkeypatch.setattr("modalsim.selfcheck.run_selfcheck", recording)
    assert run(capsys, "selfcheck", "--format", "json")[0] == 0
    assert run(capsys, "selfcheck", "--seed", "7", "--max-depth", "3", "--property", "x.y")[0] == 0
    assert configs == [
        SelfCheckConfig(),
        SelfCheckConfig(seed=7, max_formula_depth=3, properties=("x.y",)),
    ]


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-states", "0", "max_states must be at least 1, got 0"),
        ("--max-labels", "0", "max_labels must be at least 1, got 0"),
        ("--term-height", "0", "term_height must be at least 1, got 0"),
        ("--cases", "-3", "cases must be at least 1, got -3"),
        ("--cases", "0", "cases must be at least 1, got 0"),
        ("--max-depth", "-1", "max_formula_depth must be at least 0, got -1"),
    ],
)
def test_selfcheck_rejects_out_of_range_options(capsys, option, value, message):
    code, out, err = run(capsys, "selfcheck", option, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_file_is_reported(capsys):
    code, _, err = run(capsys, "check", "refine", "/no/such/file.mts", "-")
    assert code == 2
    assert err.startswith("error: cannot read")


def test_selfcheck_subprocess_is_deterministic():
    cmd = [
        sys.executable,
        "-m",
        "modalsim",
        "selfcheck",
        "--cases",
        "5",
        "--max-states",
        "3",
        "--format",
        "json",
    ]
    # Nodes hash by identity, so set order can follow memory layout; runs
    # under two hash seeds pin that no output depends on set order.
    one, two = (
        subprocess.run(
            cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed}
        )
        for seed in ("0", "1")
    )
    assert one.returncode == 0
    assert one.stdout == two.stdout
    payload = json.loads(one.stdout)
    assert payload["ok"] is True
    assert payload["config"]["cases"] == 5


# Modules that only the selfcheck command imports: the property suite and
# what only it uses.
SUITE_ONLY = {"modalsim.selfcheck", "modalsim.sampling", "modalsim.institutions"}


def _imported(*args):
    """The modules that a fresh interpreter started with ``args`` imports,
    read from ``-X importtime``, and its stdout."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}, done.stdout


def _package(modules):
    return {name for name in modules if name.partition(".")[0] == "modalsim"}


def test_commands_import_only_what_they_use():
    assert _package(_imported("-c", "import modalsim")[0]) == {"modalsim"}
    # What the interpreter imports on its own, which site hooks may extend.
    bare = _imported("-c", "pass")[0]
    vending = str(Path(SRC, "modalsim", "fixtures", "vending.mts"))
    for args in (
        ("-c", "import modalsim.cli"),
        ("-m", "modalsim", "check", "refine", vending, vending),
        ("-m", "modalsim", "mc", vending, "idle", "<coin>tt"),
        ("-m", "modalsim", "translate", "c", vending),
        ("-m", "modalsim", "charform", "--cc", "a!0 + b.w"),
    ):
        modules = _imported(*args)[0]
        assert "modalsim.cli" in modules, args  # the probe sees the imports
        assert not modules & SUITE_ONLY, args
        # dataclasses brings inspect, ast, dis and tokenize with it.
        assert not (modules - bare) & {"dataclasses", "inspect"}, args
    modules, out = _imported("-m", "modalsim", "selfcheck", "--list")
    assert SUITE_ONLY <= _package(modules)
    assert out.split() == property_ids()
    assert len(property_ids()) == 53


def _large_mts(n, seed):
    rng = random.Random(seed)
    labels = [action(name) for name in "abc"]
    may = {(f"s{i}", rng.choice(labels), f"s{rng.randrange(n)}") for i in range(n) for _ in range(3)}
    must = {t for t in sorted(may, key=str) if rng.random() < 0.5}
    return PointedMTS(frozenset(f"s{i}" for i in range(n)), frozenset(labels), frozenset(may), frozenset(must), "s0")


def test_closed_stdout_is_one_error_line(files):
    system = _large_mts(2000, 1)
    # Well above the 64 KB pipe buffer, so the writer meets the closed pipe.
    assert len(print_system(lts_of_mts(system))) > 3 * 65536
    path = files("big.mts", print_system(system))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    # Python's unbuffered stdout drops what a partial write left over, so
    # there the closed pipe went unseen and the call exited 0, its output cut.
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen(
            [sys.executable, "-m", "modalsim", "translate", "c", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**env, **unbuffered, "PYTHONPATH": SRC},
        )
        try:
            assert proc.stdout.read(1)
            proc.stdout.close()
            err = proc.stderr.read().decode()
        finally:
            code = proc.wait(timeout=60)
        # One line: no traceback, and no "Exception ignored" at interpreter exit.
        assert (code, err) == (2, "error: standard output was closed\n"), unbuffered


def test_check_json_subprocess_is_deterministic(files):
    _, kind, (p_sys, q_sys) = next(c for c in CASES if c[0] == "sparse1-refine")
    rounds = fixpoint_rounds(kind, p_sys, q_sys)
    p, q = min(rounds[-2] - rounds[-1])  # a pair of the last round, with the deepest witness
    left, right = files("l.mts", print_system(p_sys)), files("r.mts", print_system(q_sys))
    cmd = [sys.executable, "-m", "modalsim", "check", "refine", left, right, "--format", "json",
           "--left-state", p, "--right-state", q]
    # Labels hash by identity, and the whole-relation solver keys dicts and
    # sets by them; neither the relation nor the witness may follow that order.
    one, two = (
        subprocess.run(
            cmd, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed}
        )
        for seed in ("0", "1")
    )
    assert one.returncode == two.returncode == 1, one.stderr
    assert one.stdout == two.stdout
    payload = json.loads(one.stdout)
    assert payload["relation"] == sorted(map(list, rounds[-1]))
    assert payload["distinguishing_formula"].count("<") + payload["distinguishing_formula"].count("[") >= len(rounds) - 1


def _traced_main(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_translate_and_mc_on_a_large_system(files, capsys):
    m = _large_mts(3000, seed=5)
    path = files("large.mts", print_system(m))
    assert len(m.may) + len(m.must) > 13_000

    code, peak = _traced_main(["translate", "c", path])
    assert code == 0
    assert capsys.readouterr().out == print_system(lts_of_mts(m))
    # The parsed system holds about 3.3 MB and its encoding 1.3 MB more; a
    # reader that keeps a token object per operand peaks above 9 MB.
    assert peak < 8.5 * 2**20, peak

    for formula in ("<a><b><c>tt", "[a][b]<c>tt", "<a>[b]<c><a>tt | [c]ff"):
        expected = mc_mts(m, "s0", parse_formula(formula))
        code, peak = _traced_main(["mc", path, "s0", formula])
        assert (code, capsys.readouterr().out) == ((0, "true\n") if expected else (1, "false\n"))
        assert peak < 8 * 2**20, peak
