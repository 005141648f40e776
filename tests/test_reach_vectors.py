"""Differential tests: reachable's count-vector steps, interned markings and
memoized labels against the element-arithmetic token game they replaced, and
the firing enumerator against a brute-force one."""

import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qnets import QNet, jsonio
from qnets.net import default_budget
from qnets.freecat import ReachResult, _context, _firings, _Packed, _step_layers, reachable
from qnets.theory import (
    FreeElem,
    QnetError,
    Theory,
    UnsupportedOperationError,
    combine,
    finset,
    multiset,
    occurrences,
    unit,
    word,
)

from netzoo import (
    ELEMENTARY_NETS,
    EQUALITY_NETS,
    PRE_NETS,
    SYMMETRY_NETS,
    TOKEN_GAME_NETS,
)

TOKEN_GAMES = (Theory.CMON, Theory.MON, Theory.SEMILAT)


def _fired_multisets(net, marking):
    """Every nonempty transition multiset whose combined source fits."""
    names = sorted(net.transitions)

    def rec(idx, room, acc):
        if idx == len(names):
            if acc:
                yield dict(acc)
            return
        yield from rec(idx + 1, room, acc)
        src = occurrences(net.transitions[names[idx]][0])
        local = dict(room)
        count = 0
        while all(local.get(p, 0) >= c for p, c in src.items()):
            for p, c in src.items():
                local[p] -= c
            count += 1
            yield from rec(idx + 1, local, {**acc, names[idx]: count})

    yield from rec(0, occurrences(marking), {})


def _fired_image(net, fired, end):
    """The fired multiset's source (end 0) or target (1), as one product."""
    th = net.theory
    return combine(th, *(net.transitions[name][end]
                         for name, k in fired.items() for _ in range(k)))


def reference_reachable(net, m0, max_steps):
    """Reference on valid inputs: one FreeElem per edge by element arithmetic,
    and a label encoded per edge."""
    th = net.theory

    def steps(m):
        if th is Theory.CMON:
            for fired in _fired_multisets(net, m):
                counts = occurrences(m)
                for p, c in occurrences(_fired_image(net, fired, 0)).items():
                    counts[p] = counts.get(p, 0) - c
                for p, c in occurrences(_fired_image(net, fired, 1)).items():
                    counts[p] = counts.get(p, 0) + c
                yield jsonio.dumps({"fire": fired}), multiset(th, counts)
        elif th is Theory.MON:
            for name in sorted(net.transitions):
                src, tgt = net.transitions[name]
                for pos in range(len(m.payload) - len(src.payload) + 1):
                    if m.payload[pos:pos + len(src.payload)] == src.payload:
                        new = m.payload[:pos] + tgt.payload + m.payload[pos + len(src.payload):]
                        yield jsonio.dumps({"at": pos, "fire": name}), FreeElem(th, new)
        else:
            marking_set = set(m.payload)
            for name in sorted(net.transitions):
                src, tgt = net.transitions[name]
                if not set(src.payload) <= marking_set:
                    continue
                base = marking_set - set(src.payload)
                for bits in itertools.product((False, True), repeat=len(src.payload)):
                    context = base | {p for p, b in zip(src.payload, bits) if b}
                    new = combine(th, finset(context), tgt)
                    yield jsonio.dumps({"fire": name, "keep": sorted(context)}), new

    seen = {m0}
    frontier = [m0]
    edges = set()
    saturated = False
    for _ in range(max_steps):
        nxt = []
        for m in frontier:
            for label, m2 in steps(m):
                edges.add((m, label, m2))
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        if not nxt:
            saturated = True
            break
        frontier = nxt
    return ReachResult(
        m0, max_steps,
        tuple(sorted(seen, key=lambda e: e.payload)),
        tuple(sorted(edges, key=lambda e: (e[0].payload, e[1], e[2].payload))),
        saturated)


def _starts(net):
    """Arc markings, the all-places marking and a doubled source."""
    starts = {elem for arcs in net.transitions.values() for elem in arcs}
    starts.add(combine(net.theory, *(unit(net.theory, p) for p in net.places)))
    if net.theory is Theory.CMON:
        for src, _ in net.transitions.values():
            starts.add(combine(net.theory, src, src))
    return sorted(starts, key=lambda e: e.payload)


def test_zoo_matches_reference():
    nets = [n for n in TOKEN_GAME_NETS + PRE_NETS + ELEMENTARY_NETS
            + EQUALITY_NETS + SYMMETRY_NETS if n.theory in TOKEN_GAMES]
    compared = 0
    for net in nets:
        for m0 in _starts(net):
            for steps in range(5):
                want = reference_reachable(net, m0, steps)
                assert reachable(net, m0, steps) == want, (net, m0, steps)
                compared += len(want.edges)
    assert compared > 1000


def test_saturated_when_a_round_finds_nothing_new():
    net = TOKEN_GAME_NETS[2]  # t: a -> b, u: b -> c
    result = reachable(net, multiset(Theory.CMON, {"a": 1}), 5)
    assert result.saturated
    assert [m.payload for m in result.markings] == [(("a", 1),), (("b", 1),), (("c", 1),)]


def test_not_saturated_when_the_step_bound_cuts_off():
    net = TOKEN_GAME_NETS[2]
    assert not reachable(net, multiset(Theory.CMON, {"a": 1}), 2).saturated
    assert not reachable(net, multiset(Theory.CMON, {"a": 1}), 0).saturated


# Quotes, backslashes, a control character, non-ASCII and digits-only names,
# which sort "10" before "9" as strings.
AWKWARD = ('"q', "back\\slash", "ctl\x01", "\u00e9t\u00e9", "\u2603", "10", "9")


def _awkward_nets():
    a, b, c, d, e, p10, p9 = AWKWARD
    cmon = QNet(Theory.CMON, AWKWARD, {
        a: (multiset(Theory.CMON, {b: 1}), multiset(Theory.CMON, {c: 1, d: 1})),
        e: (multiset(Theory.CMON, {c: 1}), multiset(Theory.CMON, {p10: 1})),
        p10: (multiset(Theory.CMON, {d: 1}), multiset(Theory.CMON, {p9: 2})),
        p9: (multiset(Theory.CMON, {p9: 1}), multiset(Theory.CMON, {b: 1})),
    })
    mon = QNet(Theory.MON, AWKWARD, {
        a: (word([b, c]), word([c, b])),
        p10: (word([b]), word([d, e])),
        p9: (word([e]), word([p10, p9])),
    })
    semilat = QNet(Theory.SEMILAT, AWKWARD, {
        a: (finset([b, c]), finset([d])),
        p10: (finset([d]), finset([e, p9])),
        p9: (finset([p9]), finset([a, b])),
    })
    return [(cmon, multiset(Theory.CMON, {b: 2, p9: 1})),
            (mon, word([b, c, b])),
            (semilat, finset([b, c, p9]))]


@pytest.mark.parametrize("net,m0", _awkward_nets(), ids=["CMON", "MON", "SEMILAT"])
def test_labels_are_canonical_json_for_awkward_names(net, m0):
    result = reachable(net, m0, 4)
    assert result == reference_reachable(net, m0, 4)
    assert len(result.edges) > 10
    for _, label, _ in result.edges:
        assert label == jsonio.dumps(json.loads(label))


def test_reached_markings_are_shared_objects():
    net = TOKEN_GAME_NETS[2]
    result = reachable(net, multiset(Theory.CMON, {"a": 2}), 4)
    objects = {id(m) for m in result.markings}
    assert all(id(a) in objects and id(b) in objects for a, _, b in result.edges)


def _element(theory, draw, places, max_size):
    letters = draw(st.lists(st.sampled_from(places), max_size=max_size))
    if theory is Theory.CMON:
        return multiset(theory, {p: letters.count(p) for p in places})
    return word(letters) if theory is Theory.MON else finset(letters)


def _scaled(elem, scale):
    return multiset(Theory.CMON, {p: c * scale for p, c in elem.payload})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TOKEN_GAMES), st.data())
def test_random_nets_match_reference(theory, data):
    draw = data.draw
    places = "abc"[:draw(st.integers(1, 3))]
    names = draw(st.lists(st.sampled_from("tuv"), max_size=3, unique=True))
    arcs = {name: (_element(theory, draw, places, 2), _element(theory, draw, places, 2))
            for name in names}
    m0 = _element(theory, draw, places, 3)
    if draw(st.booleans()):
        # A source of m0 and one token more: the first step cannot fire it,
        # later ones may.
        spare = draw(st.sampled_from([n for n in "stuvw" if n not in names]))
        arcs[spare] = (combine(theory, m0, unit(theory, draw(st.sampled_from(places)))),
                       _element(theory, draw, places, 2))
    if theory is Theory.CMON:
        # Large counts: every count times one scale fires the same multisets,
        # and a bulk on a place that no source reads fires nothing new.
        scale = draw(st.sampled_from([1, 10**6, 2**20 - 1, 2**40 + 1]))
        arcs = {name: tuple(_scaled(e, scale) for e in arc) for name, arc in arcs.items()}
        m0 = _scaled(m0, scale)
        unread = [p for p in places if all(p not in dict(src.payload) for src, _ in arcs.values())]
        if unread:
            bulk = {draw(st.sampled_from(unread)): draw(st.sampled_from([10**6, 2**31 - 1]))}
            m0 = combine(theory, m0, multiset(theory, bulk))
    net = QNet(theory, tuple(places), arcs)
    steps = draw(st.integers(0, 4))
    if theory is Theory.CMON and any(src.is_neutral() for src, _ in net.transitions.values()):
        with pytest.raises(UnsupportedOperationError):
            reachable(net, m0, steps)
        return
    want = reference_reachable(net, m0, steps)
    if len(want.edges) > default_budget():
        # A game that fires more transitions than the budget is refused.
        with pytest.raises(QnetError, match="the token game fires more than"):
            reachable(net, m0, steps)
        return
    assert reachable(net, m0, steps) == want


def test_frontier_counts_new_markings_per_round():
    places = tuple(f"p{i}" for i in range(8))
    ring8 = QNet(Theory.CMON, places, {
        f"t{i}": (multiset(Theory.CMON, {places[i]: 1}),
                  multiset(Theory.CMON, {places[(i + 1) % 8]: 1})) for i in range(8)})
    m0 = multiset(Theory.CMON, {p: 1 for p in places[:4]})
    result = reachable(ring8, m0, 8)
    # All 330 placements of four tokens on eight places; the eighth round
    # finds none, so the search saturates exactly at the bound.
    assert result.frontier == (15, 39, 66, 100, 77, 28, 4, 0)
    assert result.saturated and len(result.markings) == 1 + sum(result.frontier) == 330
    assert reachable(ring8, m0, 3).frontier == (15, 39, 66)
    chain = TOKEN_GAME_NETS[2]  # t: a -> b, u: b -> c
    assert reachable(chain, multiset(Theory.CMON, {"a": 1}), 5).frontier == (1, 1, 0)
    assert reachable(chain, multiset(Theory.CMON, {"a": 1}), 0).frontier == ()
    # The frontier is telemetry: results that differ only there are equal.
    assert result == ReachResult(result.start, 8, result.markings, result.edges, True)


# t doubles a's tokens and the chord u moves them to b, which holds a large
# count: 10**6, or 2**20 - 2 so that the start's 2**20 - 1 tokens fill 20
# bits, which u's firings then overflow. c, above b in place order, would
# show a carry out of b's count.
DOUBLING = QNet(Theory.CMON, ("a", "b", "c"), {
    "t": (multiset(Theory.CMON, {"a": 1}), multiset(Theory.CMON, {"a": 2})),
    "u": (multiset(Theory.CMON, {"a": 1}), multiset(Theory.CMON, {"b": 1})),
})


@pytest.mark.parametrize("bulk", [10**6, 2**20 - 2])
def test_counts_never_carry_before_the_budget_refuses(monkeypatch, bulk):
    m0 = multiset(Theory.CMON, {"a": 1, "b": bulk})
    want = reference_reachable(DOUBLING, m0, 3)
    assert max(c for m in want.markings for _, c in m.payload) == bulk + 4
    monkeypatch.setenv("QNET_BUDGET", str(len(want.edges)))
    assert reachable(DOUBLING, m0, 3) == want
    monkeypatch.setenv("QNET_BUDGET", str(len(want.edges) - 1))
    with pytest.raises(QnetError, match=f"more than {len(want.edges) - 1} transitions"):
        reachable(DOUBLING, m0, 3)
    # One step from the bulk: a budget of 3 refuses the third firing.
    monkeypatch.setenv("QNET_BUDGET", "3")
    with pytest.raises(QnetError, match="more than 3 transitions"):
        reachable(DOUBLING, multiset(Theory.CMON, {"a": bulk}), 1)


@pytest.mark.parametrize("width", [3, 10**6, 10**30])
def test_step_layers_at_a_width_far_above_the_marking(width):
    # Three a's fire at most three transitions whatever the width; each
    # layer holds the rest of the marking, the bulk on b included.
    marking = multiset(Theory.CMON, {"a": 3, "b": 2**20 - 1})
    want = []
    for fired in _fired_multisets(DOUBLING, marking):
        rest = occurrences(marking)
        rest["a"] -= sum(fired.values())
        want.append(multiset(Theory.CMON, {**fired, **{"id." + p: c for p, c in rest.items()}}))
    assert len(want) == 9
    assert _step_layers(_context(DOUBLING), marking, width) == sorted(want, key=lambda e: e.payload)


def test_a_wide_semilat_source_builds_no_residual_past_the_budget(monkeypatch):
    # t's source has 2**18 residuals; the budget refuses the sixth firing,
    # and the ones after it are never built.
    places = tuple(f"p{i:02d}" for i in range(18))
    net = QNet(Theory.SEMILAT, places, {"t": (finset(places), finset(places[:1]))})
    monkeypatch.setenv("QNET_BUDGET", "5")
    tracemalloc.start()
    try:
        with pytest.raises(QnetError, match="more than 5 transitions"):
            reachable(net, finset(places), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _brute_firings(need, effect, counts, max_width):
    """Every count sequence in lexicographic order, kept when it is nonempty,
    within the width and funded by ``counts``, with the room it leaves and the
    marking it makes."""
    cap = sum(counts) if max_width is None else max_width
    for ks in itertools.product(range(cap + 1), repeat=len(need)):
        if not any(ks) or (max_width is not None and sum(ks) > max_width):
            continue
        room, out = list(counts), list(counts)
        for j, k in enumerate(ks):
            for p, c in need[j]:
                room[p] -= k * c
            for p, d in effect[j]:
                out[p] += k * d
        if min(room, default=0) >= 0:
            yield tuple((j, k) for j, k in enumerate(ks) if k), tuple(room), tuple(out)


def _vector_tables(arcs, places):
    """The net of ``arcs`` and, for :func:`_brute_firings`, each name-sorted
    transition's source counts (``need``) and target minus source counts
    (``effect``) by place index."""
    net = QNet(Theory.CMON, tuple(places), {
        name: (multiset(Theory.CMON, src), multiset(Theory.CMON, tgt))
        for name, (src, tgt) in arcs.items()})
    names = sorted(arcs)
    need = [tuple((j, arcs[n][0].get(p, 0)) for j, p in enumerate(places)) for n in names]
    effect = [tuple((j, arcs[n][1].get(p, 0) - arcs[n][0].get(p, 0))
                    for j, p in enumerate(places)) for n in names]
    return net, need, effect


def _packed_firings(net, counts, max_width):
    """``_firings`` from the count vector ``counts`` (by sorted place), with
    each packed room and successor read back as a count tuple. A ``max_width``
    of None is the token total, which bounds nothing over nonempty sources."""
    tokens = sum(counts)
    width = tokens if max_width is None else max_width
    packed = _Packed(net, tokens, width)
    root = packed.pack(multiset(Theory.CMON, dict(zip(packed.places, counts))))

    def counts_of(m):
        return tuple(dict(packed.payload(m)).get(p, 0) for p in packed.places)

    for fired, room, out in _firings(packed, root, width):
        yield fired, counts_of(room), counts_of(out)


def test_firings_skip_what_the_root_cannot_fund():
    # u needs three a's of two and never fires; w has an empty source and
    # fires up to the width, as in a bounded layer step.
    net, need, effect = _vector_tables({
        "t": ({"a": 1}, {"b": 1}), "u": ({"a": 3}, {}),
        "v": ({"b": 1}, {"a": 1}), "w": ({}, {"c": 1})}, "abc")
    assert _Packed(net, 3, 2).names == ["t", "u", "v", "w"]
    got = list(_packed_firings(net, [2, 1, 0], 2))
    assert got == [
        (((3, 1),), (2, 1, 0), (2, 1, 1)),
        (((3, 2),), (2, 1, 0), (2, 1, 2)),
        (((2, 1),), (2, 0, 0), (3, 0, 0)),
        (((2, 1), (3, 1)), (2, 0, 0), (3, 0, 1)),
        (((0, 1),), (1, 1, 0), (1, 2, 0)),
        (((0, 1), (3, 1)), (1, 1, 0), (1, 2, 1)),
        (((0, 1), (2, 1)), (1, 0, 0), (2, 1, 0)),
        (((0, 2),), (0, 1, 0), (0, 3, 0)),
    ]
    assert got == list(_brute_firings(need, effect, [2, 1, 0], 2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_firings_match_brute_force_with_unfundable_transitions(data):
    draw = data.draw
    places = "abc"[:draw(st.integers(1, 3))]
    counts = {p: draw(st.integers(0, 2)) for p in places}
    width = draw(st.one_of(st.none(), st.integers(1, 3)))
    funded = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    arcs = {}
    for name, fundable in zip("pqrst", funded):
        # A fundable source fits in counts; any other needs one token more
        # somewhere than the root holds.
        src = {p: draw(st.integers(0, counts[p])) for p in places}
        if not fundable:
            p = draw(st.sampled_from(places))
            src[p] = counts[p] + draw(st.integers(1, 2))
        elif not any(src.values()) and width is None:
            src[draw(st.sampled_from(places))] = 1  # unbounded widths need a source
        arcs[name] = (src, {p: draw(st.integers(0, 2)) for p in places})
    net, need, effect = _vector_tables(arcs, places)
    root = [counts[p] for p in places]
    want = list(_brute_firings(need, effect, root, width))
    assert list(_packed_firings(net, root, width)) == want
