import pytest
from hypothesis import example, given, strategies as st

from qnets.theory import (
    CanonicalFormError,
    FreeElem,
    Theory,
    TheoryArrow,
    TheoryMismatchError,
    UnmappedNameError,
    UnsupportedOperationError,
    check_canonical,
    combine,
    extend,
    finset,
    invert,
    lift,
    multiset,
    neutral,
    signed_word,
    translate,
    unit,
    word,
)

PLACES = ("a", "b", "c", "d")

THEORIES = st.sampled_from(list(Theory))


def elems(theory, max_size=4):
    def build(spec):
        out = neutral(theory)
        for place, flip in spec:
            e = unit(theory, place)
            if flip and theory in (Theory.ABGRP, Theory.GRP):
                e = invert(e)
            out = combine(theory, out, e)
        return out

    return st.lists(
        st.tuples(st.sampled_from(PLACES), st.booleans()),
        max_size=max_size).map(build)


maps = st.fixed_dictionaries({p: st.sampled_from(PLACES) for p in PLACES})


def test_unit_examples():
    assert unit(Theory.CMON, "a").payload == (("a", 1),)
    assert unit(Theory.GRP, "a").payload == (("a", 1),)
    assert unit(Theory.SEMILAT, "a").payload == ("a",)


def test_combine_examples():
    assert combine(Theory.CMON, multiset(Theory.CMON, {"a": 1}),
                   multiset(Theory.CMON, {"a": 1, "b": 2})).payload \
        == (("a", 2), ("b", 2))
    assert combine(Theory.GRP, signed_word([("a", 1)]),
                   signed_word([("a", -1), ("b", 1)])).payload == (("b", 1),)
    assert combine(Theory.SEMILAT, finset("ab"), finset("b")).payload == ("a", "b")


def test_neutral_examples():
    assert neutral(Theory.CMON).payload == ()
    assert combine(Theory.MON, neutral(Theory.MON), word("a")) == word("a")
    x = multiset(Theory.ABGRP, {"a": 2})
    assert combine(Theory.ABGRP, x, invert(x)) == neutral(Theory.ABGRP)


def test_invert_examples():
    assert invert(multiset(Theory.ABGRP, {"a": 2, "b": -1})).payload \
        == (("a", -2), ("b", 1))
    assert invert(signed_word([("a", 1), ("b", -1)])).payload \
        == (("b", 1), ("a", -1))
    with pytest.raises(UnsupportedOperationError):
        invert(multiset(Theory.CMON, {"a": 1}))


def test_lift_examples():
    squash = {"a": "c", "b": "c"}
    assert lift(Theory.CMON, squash, multiset(Theory.CMON, {"a": 1, "b": 2})).payload \
        == (("c", 3),)
    assert lift(Theory.GRP, squash, signed_word([("a", 1), ("b", -1)])).payload == ()
    assert lift(Theory.SEMILAT, squash, finset("ab")).payload == ("c",)
    with pytest.raises(UnmappedNameError):
        lift(Theory.MON, {"a": "a"}, word("ab"))


def test_translate_examples():
    assert translate(TheoryArrow.ABELIANIZE, word("aba")).payload \
        == (("a", 2), ("b", 1))
    assert translate(TheoryArrow.SUPPORT,
                     multiset(Theory.CMON, {"a": 2, "b": 1})).payload == ("a", "b")
    assert translate(TheoryArrow.GROUP_SIGNED,
                     signed_word([("a", 1), ("b", -1), ("a", 1)])).payload \
        == (("a", 2), ("b", -1))
    with pytest.raises(TheoryMismatchError):
        translate(TheoryArrow.SUPPORT, word("a"))


def test_arrow_endpoints():
    assert TheoryArrow.SUPPORT.source is Theory.CMON
    assert TheoryArrow.SUPPORT.target is Theory.SEMILAT
    assert TheoryArrow.SIGNED.target is Theory.ABGRP
    assert TheoryArrow.ABELIANIZE.source is Theory.MON
    assert TheoryArrow.FREE_GROUP.target is Theory.GRP
    assert TheoryArrow.GROUP_SIGNED.source is Theory.GRP


def test_canonical_form_rejections():
    with pytest.raises(CanonicalFormError):
        FreeElem(Theory.CMON, (("a", 0),))
    with pytest.raises(CanonicalFormError):
        FreeElem(Theory.CMON, (("b", 1), ("a", 1)))
    with pytest.raises(CanonicalFormError):
        FreeElem(Theory.GRP, (("a", 1), ("a", -1)))
    with pytest.raises(CanonicalFormError):
        FreeElem(Theory.SEMILAT, ("b", "a"))
    with pytest.raises(CanonicalFormError):
        FreeElem(Theory.SEMILAT, ("a", "a"))


@pytest.mark.parametrize("build", [
    lambda: multiset(Theory.CMON, {"a": True}),
    lambda: multiset(Theory.ABGRP, {"a": -1, "b": True}),
    lambda: FreeElem(Theory.GRP, (("a", True),)),
    lambda: FreeElem(Theory.GRP, (("a", 1.0),)),
])
def test_bools_and_floats_are_not_counts_or_signs(build):
    with pytest.raises(CanonicalFormError):
        build()


def test_extend_rejects_an_image_of_another_theory():
    x = multiset(Theory.ABGRP, {"a": -1})
    with pytest.raises(TheoryMismatchError):
        extend(Theory.ABGRP, {"a": multiset(Theory.CMON, {"b": 1})}, x)
    with pytest.raises(TheoryMismatchError):
        extend(Theory.CMON, {"a": word("b")}, multiset(Theory.CMON, {"a": 2}))
    assert extend(Theory.ABGRP, {"a": multiset(Theory.ABGRP, {"b": 2, "c": -1})},
                  multiset(Theory.ABGRP, {"a": -3})).payload == (("b", -6), ("c", 3))


@given(THEORIES, st.data())
def test_monoid_laws(theory, data):
    x = data.draw(elems(theory))
    y = data.draw(elems(theory))
    z = data.draw(elems(theory))
    assert combine(theory, combine(theory, x, y), z) \
        == combine(theory, x, combine(theory, y, z))
    assert combine(theory, x, neutral(theory)) == x
    assert combine(theory, neutral(theory), x) == x
    if theory in (Theory.CMON, Theory.ABGRP, Theory.SEMILAT):
        assert combine(theory, x, y) == combine(theory, y, x)
    if theory is Theory.SEMILAT:
        assert combine(theory, x, x) == x
    if theory in (Theory.ABGRP, Theory.GRP):
        assert combine(theory, x, invert(x)) == neutral(theory)
        assert combine(theory, invert(x), x) == neutral(theory)


@given(THEORIES.flatmap(lambda th: st.tuples(st.just(th), st.lists(elems(th), max_size=5))))
@example((Theory.CMON, []))
# a.b^-1 | b.c^-1 | c.a^-1: every boundary between elements cancels.
@example((Theory.GRP, [signed_word([("a", 1), ("b", -1)]), signed_word([("b", 1), ("c", -1)]),
                       signed_word([("c", 1), ("a", -1)])]))
def test_nary_combine_is_the_left_fold_of_binary_combine(case):
    theory, xs = case
    folded = neutral(theory)
    for x in xs:
        folded = combine(theory, folded, x)
    assert combine(theory, *xs) == folded


@given(THEORIES, st.data(), maps, maps)
def test_lift_monad_laws(theory, data, g, h):
    x = data.draw(elems(theory))
    ident = {p: p for p in PLACES}
    assert lift(theory, ident, x) == x
    composed = {p: g[h[p]] for p in PLACES}
    assert lift(theory, composed, x) == lift(theory, g, lift(theory, h, x))
    for p in PLACES:
        assert lift(theory, g, unit(theory, p)) == unit(theory, g[p])


@given(st.sampled_from(list(TheoryArrow)), st.data(), maps)
def test_translate_is_monad_morphism(arrow, data, g):
    x = data.draw(elems(arrow.source))
    y = data.draw(elems(arrow.source))
    assert translate(arrow, unit(arrow.source, "a")) == unit(arrow.target, "a")
    assert translate(arrow, combine(arrow.source, x, y)) \
        == combine(arrow.target, translate(arrow, x), translate(arrow, y))
    assert translate(arrow, lift(arrow.source, g, x)) \
        == lift(arrow.target, g, translate(arrow, x))


@given(THEORIES, st.data())
def test_operations_stay_canonical(theory, data):
    x = data.draw(elems(theory))
    y = data.draw(elems(theory))
    for value in (x, combine(theory, x, y),
                  lift(theory, {p: "a" for p in PLACES}, x)):
        check_canonical(value.theory, value.payload)
    if theory in (Theory.ABGRP, Theory.GRP):
        check_canonical(theory, invert(x).payload)


@given(st.data())
def test_extend_is_homomorphic(data):
    theory = data.draw(THEORIES)
    x = data.draw(elems(theory))
    y = data.draw(elems(theory))
    images = {p: data.draw(elems(theory, 2)) for p in PLACES}
    left = extend(theory, images, combine(theory, x, y))
    right = combine(theory, extend(theory, images, x), extend(theory, images, y))
    assert left == right
    for p in PLACES:
        assert extend(theory, images, unit(theory, p)) == images[p]


# ---------------------------------------------------------------------------
# Stored hashes: FreeElem and LayeredForm keep their hash, which must not
# travel through pickle or copy, since string hashes differ between processes.

_HASHED = [multiset(Theory.CMON, {"a": 2, "b": 1}), word("aba"),
           signed_word([("a", 1), ("b", -1)]), finset("ba"), neutral(Theory.ABGRP)]


def _layered():
    from qnets.freecat import LayeredForm

    return LayeredForm(word("ab"), (word(["t", "id.b"]), word(["id.b", "u"])))


def test_hash_keeps_the_dataclass_formula():
    for elem in _HASHED:
        assert hash(elem) == hash((elem.theory, elem.payload))
    form = _layered()
    assert hash(form) == hash((form.start, form.layers))


def test_pickle_and_copy_rebuild_equal_hashable_objects():
    import copy
    import pickle

    for value in _HASHED + [_layered()]:
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert back == value and hash(back) == hash(value)
            assert {value: "found"}[back] == "found"
        assert b"_hash" not in pickle.dumps(value)


def test_unpickling_in_another_process_rehashes():
    import os
    import pickle
    import subprocess
    import sys

    import qnets

    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(qnets.__file__))
    code = ("import pickle, sys\n"
            "from qnets.theory import word\n"
            "from qnets.freecat import LayeredForm\n"
            "form = LayeredForm(word('ab'), (word(['t', 'id.b']), word(['id.b', 'u'])))\n"
            "sys.stdout.buffer.write(pickle.dumps((hash(form), form)))\n")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True).stdout
    their_hash, form = pickle.loads(out)
    assert their_hash != hash(form)  # string hashes really differ across processes
    assert form == _layered() and hash(form) == hash(_layered())
    assert hash(form.start) == hash(word("ab"))
    assert {_layered(): "found"}[form] == "found"


def test_unpickling_a_non_canonical_payload_is_rejected():
    import pickle

    data = pickle.dumps(multiset(Theory.CMON, {"a": 7}), protocol=0)
    assert data.count(b"I7\n") == 1
    with pytest.raises(CanonicalFormError):
        pickle.loads(data.replace(b"I7\n", b"I0\n"))
    data = pickle.dumps(finset("ab"), protocol=0)
    assert data.count(b"Va\n") == 1
    with pytest.raises(CanonicalFormError):
        pickle.loads(data.replace(b"Va\n", b"Vc\n"))  # payload ("c", "b")
