import copy
import gc
import pickle

import pytest

from modalsim import systems
from modalsim.formulas import And, Bottom, Diamond, Top
from modalsim.terms import Sum, Zero
from modalsim.textio import parse_formula
from modalsim.systems import (
    CT,
    CV,
    Action,
    CCSignature,
    action,
    cv,
    ct,
    is_name_token,
    lts,
    mts,
    plain_signature,
    rename_actions,
    signature,
    sorted_actions,
    successor_index,
    universal_mts,
    validate_cc_lts,
    validate_mts,
)


def test_action_text_forms():
    a = action("a")
    assert str(a) == "a"
    assert str(cv(a)) == "cv(a)"
    assert str(ct(a)) == "ct(a)"
    assert str(cv(ct(a))) == "cv(ct(a))"


def test_decorated_actions_keep_their_base():
    a = action("send")
    assert cv(a).base == a
    assert ct(a).base == a
    assert cv(a) != ct(a)
    assert cv(a) == cv(action("send"))


def test_sorted_actions_orders_by_text():
    acts = [ct(action("a")), action("b"), cv(action("a")), action("a")]
    assert [str(x) for x in sorted_actions(acts)] == ["a", "b", "ct(a)", "cv(a)"]


def test_is_name_token():
    assert is_name_token("abc_12")
    assert not is_name_token("")
    assert not is_name_token("a b")
    assert not is_name_token("cv(a)")


def test_signature_classes_and_overlap():
    sig = signature(cov=["a"], con=["b"], bi=["c"])
    assert sig.class_of(action("a")) == "covariant"
    assert sig.class_of(action("b")) == "contravariant"
    assert sig.class_of(action("c")) == "bivariant"
    assert sig.overlaps() == []
    bad = signature(cov=["a", "b"], con=["b"])
    assert bad.overlaps() == [action("b")]
    with pytest.raises(KeyError):
        sig.class_of(action("z"))


def test_plain_signature_is_all_covariant():
    sig = plain_signature(["x", "y"])
    assert sig.covariant == frozenset({action("x"), action("y")})
    assert sig.contravariant == frozenset()
    assert sig.bivariant == frozenset()


def test_universal_mts_shape():
    u = universal_mts(["a", "b"])
    assert u.states == frozenset({"u"})
    assert u.must == frozenset()
    assert u.may == frozenset({("u", action("a"), "u"), ("u", action("b"), "u")})
    assert validate_mts(u) == []


def test_validate_mts_finds_problems():
    m = mts(
        states=["s", "t"],
        acts=["a"],
        may=[("s", "a", "t")],
        must=[("s", "a", "t"), ("t", "a", "s")],
        init="s",
    )
    problems = validate_mts(m)
    assert any("must" in p for p in problems)

    stray_label = mts(["s"], ["a"], [("s", "b", "s")], [], "s")
    assert validate_mts(stray_label)

    stray_state = mts(["s"], ["a"], [("s", "a", "t")], [], "s")
    assert validate_mts(stray_state)

    bad_init = mts(["s"], ["a"], [], [], "t")
    assert validate_mts(bad_init)


def test_validate_cc_lts_finds_problems():
    good = lts(["s"], signature(cov=["a"]), [("s", "a", "s")], "s")
    assert validate_cc_lts(good) == []

    overlap = lts(["s"], signature(cov=["a"], bi=["a"]), [], "s")
    assert validate_cc_lts(overlap)

    stray = lts(["s"], signature(cov=["a"]), [("s", "b", "s")], "s")
    assert validate_cc_lts(stray)


def test_successor_index_groups_by_label():
    m = mts(
        states=["s", "t"],
        acts=["a", "b"],
        may=[("s", "a", "t"), ("s", "a", "s"), ("s", "b", "t")],
        must=[],
        init="s",
    )
    index = successor_index(m.states, m.may)
    assert index["s"][action("a")] == ("s", "t")
    assert index["s"][action("b")] == ("t",)
    assert index["t"] == {}


def test_rename_actions_merges_targets():
    sig = signature(cov=[cv(action("a")), ct(action("a"))])
    p = lts(
        ["s", "t"],
        sig,
        [("s", cv(action("a")), "t"), ("s", ct(action("a")), "t")],
        "s",
    )
    merged = rename_actions(
        p,
        {cv(action("a")): action("a"), ct(action("a")): action("a")},
        plain_signature(["a"]),
    )
    assert merged.transitions == frozenset({("s", action("a"), "t")})


def test_systems_are_hashable_values():
    one = mts(["s"], ["a"], [("s", "a", "s")], [], "s")
    two = mts(["s"], ["a"], [("s", "a", "s")], [], "s")
    assert one == two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


def test_interned_constructor_contract():
    assert cv("a") is cv("a")
    text = "<a>(tt & [b]ff) | [cv(a)]<a>(tt & [b]ff)"
    assert parse_formula(text) is parse_formula(text)
    phi = parse_formula(text)
    assert copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi

    for wrong_arity in (And, lambda: Diamond(action("a")), lambda: Sum(Zero())):
        with pytest.raises(TypeError):
            wrong_arity()
    for fields, message in [
        ({"name": "a b"}, "bad label name: 'a b'"),
        ({"name": "a", "base": action("b")}, "plain labels carry no base label"),
        ({"mark": CV}, "cv labels need a base label"),
        ({"name": "x", "mark": CT, "base": action("b")}, "ct labels carry no name of their own"),
        ({"mark": "zz"}, "unknown label mark: 'zz'"),
    ]:
        with pytest.raises(ValueError) as raised:
            Action(**fields)
        assert str(raised.value) == message

    with pytest.raises(AttributeError):
        phi.left = Bottom()
    with pytest.raises(AttributeError):
        action("a").name = "b"

    # The table holds nodes weakly: a dropped formula of 10,000 nodes (tt,
    # 5,000 diamonds over fresh labels, 4,999 conjunctions) leaves no entry.
    gc.collect()
    before = len(systems._NODES)
    level = [Diamond(action(f"fresh{i}"), Top()) for i in range(5000)]
    while len(level) > 1:
        level = [And(*level[i:i + 2]) if i + 1 < len(level) else level[i]
                 for i in range(0, len(level), 2)]
    assert len(systems._NODES) >= before + 14999
    del level
    gc.collect()
    assert len(systems._NODES) == before
