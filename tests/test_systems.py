import copy
import gc
import pickle
import random

import pytest

from modalsim import systems
from modalsim.formulas import And, Bottom, Box, Diamond, Or, Top
from modalsim.sampling import random_bl_formula, random_cc_formula, random_term
from modalsim.terms import MustPrefix, Omega, Prefix, Sum, Zero
from modalsim.textio import parse_formula
from modalsim.systems import (
    CT,
    CV,
    Action,
    CCSignature,
    Interned,
    PointedLTS,
    PointedMTS,
    action,
    cv,
    ct,
    is_name_token,
    lts,
    mts,
    plain_signature,
    rename_actions,
    shared_nodes,
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
    assert index["s"][action("a")] == ["s", "t"]
    assert index["s"][action("b")] == ["t"]
    assert index["t"] == {}
    # Targets are sorted whatever order the transitions come in.
    moves = sorted(m.may, key=str)
    for order in (moves, moves[::-1]):
        assert successor_index(m.states, order) == index


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
    assert repr(one) == (
        "PointedMTS(states=frozenset({'s'}), actions=frozenset({Action('a')}), "
        "may=frozenset({('s', Action('a'), 's')}), must=frozenset(), init='s')"
    )
    assert PointedMTS(one.states, one.actions, one.may, one.must, one.init) == one
    lts_one = lts(["s"], signature(cov=["a"]), [("s", "a", "s")], "s")
    assert PointedLTS(lts_one.states, lts_one.signature, lts_one.transitions, lts_one.init) == lts_one
    sig = CCSignature(frozenset({action("a")}), frozenset(), frozenset())
    assert sig == CCSignature(covariant=frozenset({action("a")}), contravariant=frozenset(), bivariant=frozenset())
    for value, field in ((one, "init"), (lts_one, "signature"), (sig, "bivariant")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    moved = one._replace(init="t")
    assert moved.init == "t"
    assert [f for f in moved._fields if getattr(moved, f) != getattr(one, f)] == ["init"]


def test_interned_constructor_contract():
    assert cv("a") is cv("a")
    text = "<a>(tt & [b]ff) | [cv(a)]<a>(tt & [b]ff)"
    assert parse_formula(text) is parse_formula(text)
    phi = parse_formula(text)
    assert copy.deepcopy(phi) is phi
    assert pickle.loads(pickle.dumps(phi)) is phi

    for fields, message in [
        ({"name": "a b"}, "bad label name: 'a b'"),
        ({"name": "a", "base": action("b")}, "plain labels carry no base label"),
        ({"mark": CV}, "cv labels need a base label"),
        ({"name": "x", "mark": CT, "base": action("b")}, "ct labels carry no name of their own"),
        ({"mark": "zz"}, "unknown label mark: 'zz'"),
    ]:
        # Labels are checked only when the table misses, and an invalid
        # label never enters it, so every call is refused alike.
        for _ in range(3):
            with pytest.raises(ValueError) as raised:
                Action(**fields)
            assert str(raised.value) == message

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
    # So does a dropped batch of 9,000 fresh labels, decorated ones included.
    labels = [Action(f"dropped{i}") for i in range(3000)]
    labels += [cv(ct(f"dropped{i}")) for i in range(3000)]
    assert len(systems._NODES) >= before + 9000
    del labels
    gc.collect()
    assert len(systems._NODES) == before


def _node_fields(cls):
    """Fields of one node of ``cls``."""
    phi, t = Diamond(action("b"), Top()), Prefix(action("b"), Zero())
    return {
        And: (phi, Top()), Or: (phi, Bottom()),
        Diamond: (cv("a"), phi), Box: (action("a"), phi),
        Prefix: (ct("a"), t), MustPrefix: (action("a"), t), Sum: (t, Omega()),
        Action: ("", CV, action("a")),
    }.get(cls, ())


@pytest.mark.parametrize(
    "cls",
    [Top, Bottom, And, Or, Diamond, Box, Zero, Omega, Prefix, MustPrefix, Sum, Action],
    ids=lambda cls: cls.__name__,
)
def test_every_node_class_keeps_the_constructor_contract(cls):
    fields = _node_fields(cls)
    node = cls(*fields)
    assert cls(*fields) is node
    assert [getattr(node, name) for name in cls.__slots__] == list(fields)
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node
    with pytest.raises(TypeError):
        cls(*fields, Top())
    if fields and cls is not Action:  # Action's fields have defaults
        with pytest.raises(TypeError):
            cls(*fields[:1])
    for name in cls.__slots__ or ("name",):
        with pytest.raises(AttributeError):
            setattr(node, name, Top())


def _reference_shared_nodes(root):
    """The per-slot scan that the per-class ``_subnodes`` record replaced:
    every field that is a node but not a label is a subnode."""
    seen, shared, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if node in seen:
            shared.add(node)
        elif node.__slots__:
            seen.add(node)
            for name in node.__slots__:
                sub = getattr(node, name)
                if isinstance(sub, Interned) and not isinstance(sub, Action):
                    stack.append(sub)
    return seen, shared


def test_shared_nodes_matches_the_per_slot_scan():
    rng = random.Random(22)
    labels = [action("a"), cv("b"), ct(cv("c"))]
    sig = signature(cov=labels[:1], con=labels[1:2], bi=labels[2:])
    forms = [(lab, must) for lab in labels for must in (False, True)]
    roots = [*labels, Top(), Zero()]
    for _ in range(200):
        roots.append(random_bl_formula(rng, frozenset(labels), max_depth=6))
        roots.append(random_cc_formula(rng, sig, max_depth=6))
        roots.append(random_term(rng, forms, max_height=6))
    for root in roots:
        assert shared_nodes(root) == _reference_shared_nodes(root)
    assert sum(bool(shared_nodes(root)[1]) for root in roots) > 50
