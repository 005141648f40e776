"""Differential tests for the theory table: the table-driven free-model
operations, JSON codec and multiset enumeration against test-local copies of
the per-theory code they replaced."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qnets import freecat, jsonio
from qnets.freecat import _firings, _Packed, hom_enumerate
from qnets.net import QNet
from qnets.theory import (
    FreeElem,
    Theory,
    TheoryArrow,
    UnsupportedOperationError,
    combine,
    extend,
    invert,
    lift,
    multiset,
    neutral,
    occurrences,
    translate,
    unit,
)

from netzoo import ELEMENTARY_NETS, PRE_NETS, TOKEN_GAME_NETS

PLACES = ("a", "b", "c")
COUNTS = (Theory.CMON, Theory.ABGRP)
GROUPS = (Theory.ABGRP, Theory.GRP)


# ---------------------------------------------------------------------------
# The replaced per-theory code, kept as the reference


def _reduce(pairs):
    out = []
    for place, sign in pairs:
        if out and out[-1][0] == place and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((place, sign))
    return tuple(out)


def _from_counts(theory, counts):
    return FreeElem(theory, tuple(sorted((p, c) for p, c in counts.items() if c != 0)))


def ref_combine(theory, x, y):
    if theory in COUNTS:
        counts = dict(x.payload)
        for p, c in y.payload:
            counts[p] = counts.get(p, 0) + c
        return _from_counts(theory, counts)
    if theory is Theory.MON:
        return FreeElem(theory, x.payload + y.payload)
    if theory is Theory.GRP:
        return FreeElem(theory, _reduce(x.payload + y.payload))
    return FreeElem(theory, tuple(sorted(set(x.payload) | set(y.payload))))


def ref_invert(x):
    if x.theory is Theory.ABGRP:
        return FreeElem(x.theory, tuple((p, -c) for p, c in x.payload))
    return FreeElem(x.theory, tuple((p, -s) for p, s in reversed(x.payload)))


def ref_lift(theory, mapping, x):
    if theory in COUNTS:
        counts = {}
        for p, c in x.payload:
            counts[mapping[p]] = counts.get(mapping[p], 0) + c
        return _from_counts(theory, counts)
    if theory is Theory.MON:
        return FreeElem(theory, tuple(mapping[p] for p in x.payload))
    if theory is Theory.GRP:
        return FreeElem(theory, _reduce((mapping[p], s) for p, s in x.payload))
    return FreeElem(theory, tuple(sorted({mapping[p] for p in x.payload})))


def ref_extend(theory, images, x):
    if theory in COUNTS:
        counts = {}
        for p, c in x.payload:
            for q, d in images[p].payload:
                counts[q] = counts.get(q, 0) + c * d
        return _from_counts(theory, counts)
    out = neutral(theory)
    for letter in x.payload:
        if theory is Theory.GRP:
            p, s = letter
            out = ref_combine(theory, out, images[p] if s > 0 else ref_invert(images[p]))
        else:
            out = ref_combine(theory, out, images[letter])
    return out


def ref_translate(arrow, x):
    if arrow is TheoryArrow.SUPPORT:
        return FreeElem(Theory.SEMILAT, tuple(sorted(p for p, _ in x.payload)))
    if arrow is TheoryArrow.SIGNED:
        return FreeElem(Theory.ABGRP, x.payload)
    if arrow is TheoryArrow.FREE_GROUP:
        return FreeElem(Theory.GRP, tuple((p, 1) for p in x.payload))
    counts = {}
    for letter in x.payload:
        p, c = letter if arrow is TheoryArrow.GROUP_SIGNED else (letter, 1)
        counts[p] = counts.get(p, 0) + c
    return _from_counts(arrow.target, counts)


def ref_occurrences(x):
    if x.theory in COUNTS:
        return dict(x.payload)
    counts = {}
    for letter in x.payload:
        p, c = letter if x.theory is Theory.GRP else (letter, 1)
        counts[p] = counts.get(p, 0) + c
    return {p: c for p, c in counts.items() if c != 0}


def ref_atoms(x):
    if x.theory in COUNTS or x.theory is Theory.GRP:
        return frozenset(p for p, _ in x.payload)
    return frozenset(x.payload)


def ref_size(x):
    if x.theory in COUNTS:
        return sum(abs(c) for _, c in x.payload)
    return len(x.payload)


def ref_elem_to_json(x):
    if x.theory in COUNTS:
        return {p: c for p, c in x.payload}
    if x.theory is Theory.GRP:
        return [[p, "+" if s > 0 else "-"] for p, s in x.payload]
    return list(x.payload)


def ref_unit_payload(theory, place):
    return ((place, 1),) if theory in COUNTS or theory is Theory.GRP else (place,)


def fired_multisets(pre, room, max_width):
    """The library's vector enumerator, with each yield turned back into a
    name-to-count dict. A ``max_width`` of None is the token total, which
    bounds nothing over nonempty sources."""
    places = sorted(room.keys() | {p for src in pre.values() for p in src})
    net = QNet(Theory.CMON, tuple(places), {
        name: (multiset(Theory.CMON, src), neutral(Theory.CMON)) for name, src in pre.items()})
    tokens = sum(room.values())
    width = tokens if max_width is None else max_width
    packed = _Packed(net, tokens, width)
    for fired, _, _ in _firings(packed, packed.pack(multiset(Theory.CMON, room)), width):
        yield {packed.names[i]: k for i, k in fired}


def ref_fired_multisets(pre, room, max_width):
    """The recursive enumeration the explicit stack replaced."""
    items = sorted(pre.items())

    def rec(idx, room, width_left, acc):
        if idx == len(items):
            if acc:
                yield dict(acc)
            return
        yield from rec(idx + 1, room, width_left, acc)
        name, src = items[idx]
        count = 0
        local = dict(room)
        while width_left is None or count < width_left:
            if not all(local.get(p, 0) >= c for p, c in src.items()):
                break
            for p, c in src.items():
                local[p] = local[p] - c
            count += 1
            acc2 = dict(acc)
            acc2[name] = count
            left = None if width_left is None else width_left - count
            yield from rec(idx + 1, local, left, acc2)

    yield from rec(0, dict(room), max_width, {})


# ---------------------------------------------------------------------------
# Free-model operations


def elems(theory, max_size=5):
    def build(spec):
        out = neutral(theory)
        for place, flip in spec:
            e = unit(theory, place)
            out = combine(theory, out, invert(e) if flip and theory in GROUPS else e)
        return out

    return st.lists(st.tuples(st.sampled_from(PLACES), st.booleans()),
                    max_size=max_size).map(build)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(Theory)), st.data())
def test_operations_match_reference(theory, data):
    x = data.draw(elems(theory))
    y = data.draw(elems(theory))
    mapping = data.draw(st.fixed_dictionaries({p: st.sampled_from(PLACES) for p in PLACES}))
    images = {p: data.draw(elems(theory, 3)) for p in PLACES}
    assert combine(theory, x, y) == ref_combine(theory, x, y)
    assert lift(theory, mapping, x) == ref_lift(theory, mapping, x)
    assert extend(theory, images, x) == ref_extend(theory, images, x)
    assert occurrences(x) == ref_occurrences(x)
    assert list(occurrences(x).items()) == list(ref_occurrences(x).items())
    assert (x.atoms(), x.size()) == (ref_atoms(x), ref_size(x))
    assert unit(theory, "a").payload == ref_unit_payload(theory, "a")
    if theory in GROUPS:
        assert invert(x) == ref_invert(x)
    else:
        with pytest.raises(UnsupportedOperationError):
            invert(x)
    assert jsonio.elem_to_json(x) == ref_elem_to_json(x)
    assert jsonio.elem_from_json(theory, ref_elem_to_json(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(TheoryArrow)), st.data())
def test_translate_matches_reference(arrow, data):
    x = data.draw(elems(arrow.source))
    assert translate(arrow, x) == ref_translate(arrow, x)


def test_table_flags():
    flags = {th: (th.ops.group, th.ops.commutative, th.ops.idempotent) for th in Theory}
    assert flags == {
        Theory.CMON: (False, True, False),
        Theory.ABGRP: (True, True, False),
        Theory.MON: (False, False, False),
        Theory.GRP: (True, False, False),
        Theory.SEMILAT: (False, True, True),
    }


def test_normal_form_test():
    grp = Theory.GRP.ops
    assert grp.is_normal((("a", 1), ("b", -1)))
    assert not grp.is_normal((("a", 1), ("a", -1)))
    assert Theory.MON.ops.is_normal(("b", "a", "b"))
    assert not Theory.SEMILAT.ops.is_normal(("b", "a"))


# ---------------------------------------------------------------------------
# Fired multisets


def test_fired_multisets_match_recursive_reference_on_zoo():
    compared = 0
    for net in TOKEN_GAME_NETS:
        pre = {name: occurrences(src) for name, (src, _) in net.transitions.items()}
        for counts in itertools.product(range(4), repeat=len(net.places)):
            room = {p: c for p, c in zip(net.places, counts) if c}
            for width in (None, 1, 2, 3):
                want = list(ref_fired_multisets(pre, room, width))
                got = list(fired_multisets(pre, room, width))
                assert got == want, (net, room, width)
                assert [list(m) for m in got] == [list(m) for m in want]
                compared += len(want)
    assert compared > 1000


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from("tuvw"),
                       st.dictionaries(st.sampled_from(PLACES), st.integers(1, 2),
                                       min_size=1), max_size=4),
       st.dictionaries(st.sampled_from(PLACES), st.integers(0, 5)),
       st.one_of(st.none(), st.integers(0, 4)))
def test_fired_multisets_match_recursive_reference(pre, room, width):
    assert list(fired_multisets(pre, room, width)) \
        == list(ref_fired_multisets(pre, room, width))


# ---------------------------------------------------------------------------
# Hom-set classes are converted without re-validating the net


def test_hom_enumerate_validates_the_net_once(monkeypatch):
    calls = []
    real = freecat._context
    monkeypatch.setattr(freecat, "_context", lambda net: calls.append(net) or real(net))
    for net, x, y in [
        (TOKEN_GAME_NETS[6], unit(Theory.CMON, "a"), unit(Theory.CMON, "a")),
        (PRE_NETS[3], FreeElem(Theory.MON, ("a", "a")), FreeElem(Theory.MON, ("c", "c"))),
        (ELEMENTARY_NETS[2], FreeElem(Theory.SEMILAT, ("a", "b")),
         FreeElem(Theory.SEMILAT, ("a",))),
    ]:
        calls.clear()
        classes = hom_enumerate(net, x, y, 3, 2)
        assert len(classes) >= 1 and len(calls) == 1
        assert classes == [freecat.layered_to_term(freecat.layered(t, net), net)
                           for t in classes]
