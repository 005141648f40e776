import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from qnets.net import (
    NetMorphism,
    _count_tables,
    _marginal_fiber,
    _pair_name,
    QNet,
    apply_net_functor,
    compose,
    coproduct,
    enumerate_morphisms,
    identity_morphism,
    product,
    validate_morphism,
    validate_net,
)
from qnets.theory import (
    QnetError,
    Theory,
    TheoryArrow,
    TheoryMismatchError,
    UnmappedNameError,
    UnsupportedOperationError,
    finset,
    multiset,
    neutral,
    unit,
    word,
)

from netzoo import cmon, elementary, petri, prenet

def test_validate_net_examples():
    bad = QNet(Theory.CMON, ("a",), {"t": (cmon({"a": 1}), cmon({"b": 2}))})
    assert len(validate_net(bad)) == 1
    assert validate_net(QNet(Theory.CMON, (), {})) == []
    assert validate_net(petri("ab", {"t": ({"a": 1}, {"b": 2})})) == []


def test_validate_morphism_identity():
    net = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    assert validate_morphism(identity_morphism(net)) == []


def test_validate_morphism_counterexample():
    # Oracle: lifting the source {a:1} along g gives {x:1}, but the image
    # transition consumes {x:2}, so exactly the source square must fail.
    p = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    q = petri("xy", {"s": ({"x": 2}, {"y": 2})})
    h = NetMorphism(p, q, {"t": "s"}, {"a": "x", "b": "y"})
    diags = validate_morphism(h)
    assert len(diags) == 2  # target square fails the same way: {y:1} vs {y:2}
    assert any("source square" in d and "'t'" in d for d in diags)


def test_validate_morphism_collapse_is_valid():
    # Both legs agree after collapsing a and b onto c: source {c:2}, target {c:1}.
    p = petri("abc", {"t": ({"a": 1, "b": 1}, {"c": 1})})
    q = petri("c", {"s": ({"c": 2}, {"c": 1})})
    h = NetMorphism(p, q, {"t": "s"}, {"a": "c", "b": "c", "c": "c"})
    assert validate_morphism(h) == []


def test_validate_morphism_partial_maps_raise():
    p = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    with pytest.raises(UnmappedNameError):
        validate_morphism(NetMorphism(p, p, {}, {"a": "a", "b": "b"}))


def test_apply_net_functor_examples():
    pre = prenet("abc", {"t": ("aba", "c")})
    ab = apply_net_functor(TheoryArrow.ABELIANIZE, pre)
    assert ab.theory is Theory.CMON
    assert ab.transitions["t"] == (cmon({"a": 2, "b": 1}), cmon({"c": 1}))
    support = apply_net_functor(TheoryArrow.SUPPORT,
                                petri("abc", {"t": ({"a": 2, "b": 1}, {"c": 1})}))
    assert support.transitions["t"] == (finset("ab"), finset("c"))
    signed = apply_net_functor(TheoryArrow.SIGNED, petri("a", {"t": ({"a": 2}, {})}))
    assert signed.theory is Theory.ABGRP
    assert signed.transitions["t"] == (multiset(Theory.ABGRP, {"a": 2}),
                                       neutral(Theory.ABGRP))
    with pytest.raises(TheoryMismatchError):
        apply_net_functor(TheoryArrow.ABELIANIZE, support)


def test_apply_net_functor_transports_morphisms():
    p = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    q = petri("c", {"s": ({"c": 1}, {"c": 1})})
    h = NetMorphism(p, q, {"t": "s"}, {"a": "c", "b": "c"})
    assert validate_morphism(h) == []
    th = NetMorphism(apply_net_functor(TheoryArrow.SIGNED, p),
                     apply_net_functor(TheoryArrow.SIGNED, q), h.f, h.g)
    assert validate_morphism(th) == []


def test_coproduct_counts_and_injections():
    p = petri("ab", {"t": ({"a": 1}, {"b": 1})})
    q = petri("c", {"s": ({"c": 1}, {"c": 1})})
    out, left, right = coproduct(p, q)
    assert len(out.places) == 3 and len(out.transitions) == 2
    assert validate_net(out) == []
    assert validate_morphism(left) == [] and validate_morphism(right) == []
    empty = QNet(Theory.CMON, (), {})
    merged, inj, _ = coproduct(p, empty)
    assert len(merged.places) == len(p.places)
    assert len(merged.transitions) == len(p.transitions)
    assert validate_morphism(inj) == []


def test_coproduct_universal_property():
    p1 = petri("a", {"t": ({"a": 1}, {"a": 1})})
    p2 = petri("b", {"u": ({"b": 1}, {"b": 1})})
    target = petri("xy", {"s": ({"x": 1}, {"x": 1})})
    out, inj1, inj2 = coproduct(p1, p2)
    for h1 in enumerate_morphisms(p1, target):
        for h2 in enumerate_morphisms(p2, target):
            mediators = [m for m in enumerate_morphisms(out, target)
                         if compose(m, inj1) == h1 and compose(m, inj2) == h2]
            assert len(mediators) == 1


def _tables(rows, cols):
    # Independent contingency-table enumeration (row/column sums over names).
    row_items = sorted(rows.items())
    col_items = sorted(cols.items())
    if sum(rows.values()) != sum(cols.values()):
        return []

    def rec(i, remaining):
        if i == len(row_items):
            if all(v == 0 for v in remaining.values()):
                yield {}
            return
        name, total = row_items[i]

        def cells(j, left, rem, acc):
            if j == len(col_items):
                if left == 0:
                    yield acc, rem
                return
            cname, _ = col_items[j]
            for v in range(min(left, rem[cname]) + 1):
                rem2 = dict(rem)
                rem2[cname] -= v
                yield from cells(j + 1, left - v, rem2,
                                 {**acc, (name, cname): v} if v else acc)

        for acc, rem in cells(0, total, dict(remaining), {}):
            for rest in rec(i + 1, rem):
                yield {**acc, **rest}

    return list(rec(0, dict(cols)))


def test_product_cmon_matches_table_count():
    p = petri("ab", {"t": ({"a": 1, "b": 1}, {"a": 2})})
    q = petri("p", {"s": ({"p": 2}, {"p": 2})})
    out, proj1, proj2 = product(p, q)
    src_tables = _tables({"a": 1, "b": 1}, {"p": 2})
    tgt_tables = _tables({"a": 2}, {"p": 2})
    assert len(out.transitions) == len(src_tables) * len(tgt_tables)
    assert validate_net(out) == []
    assert validate_morphism(proj1) == [] and validate_morphism(proj2) == []


def test_product_refuses_more_transitions_than_the_budget(monkeypatch):
    p = petri("ab", {"t": ({"a": 2, "b": 1}, {"a": 1, "b": 2}), "u": ({"a": 1}, {"b": 1})})
    q = petri("xy", {"s": ({"x": 1, "y": 2}, {"x": 2, "y": 1})})
    size = len(product(p, q)[0].transitions)
    monkeypatch.setenv("QNET_BUDGET", str(size))
    assert len(product(p, q)[0].transitions) == size
    monkeypatch.setenv("QNET_BUDGET", str(size - 1))
    with pytest.raises(UnsupportedOperationError, match=f"more than {size - 1} transitions"):
        product(p, q)


def test_product_skips_a_pair_with_an_empty_fiber_before_refusing():
    # The source fiber of {a,b,c,d} with itself holds 41,503 relations, past
    # the budget, but no relation projects onto both {} and {a}: the pair
    # adds no transitions, whichever side the empty fiber is on.
    wide = elementary("abcd", {"t": ("abcd", "")})
    narrow = elementary("abcd", {"u": ("abcd", "a")})
    assert product(wide, narrow)[0].transitions == {}
    flipped = [elementary("abcd", {"t": (b, a)}) for a, b in (("abcd", ""), ("abcd", "a"))]
    assert product(*flipped)[0].transitions == {}


@pytest.mark.parametrize("left,right,what,name", [
    # Places a,b and a against c and b,c: (a,b) with c and a with (b,c).
    (petri(["a,b", "a"], {}), petri(["c", "b,c"], {}), "places", "(a,b,c)"),
    (petri("a", {"t,u": ({"a": 1}, {"a": 1}), "t": ({"a": 1}, {"a": 1})}),
     petri("b", {"v": ({"b": 1}, {"b": 1}), "u,v": ({"b": 1}, {"b": 1})}),
     "transitions", "(t,u,v)@0"),
])
def test_product_refuses_two_pairs_of_one_name(left, right, what, name):
    with pytest.raises(UnsupportedOperationError,
                       match=re.escape(f"two product {what} are named '{name}'")):
        product(left, right)
    # Without the second colliding name, every pair name is unique.
    for one in (left, right):
        kept = QNet(one.theory, one.places[:1], dict(list(one.transitions.items())[:1]))
        out, proj1, proj2 = product(kept, right if one is left else left)
        assert validate_net(out) == []
        assert validate_morphism(proj1) == [] and validate_morphism(proj2) == []


def _brute_force_tables(rows, cols):
    """Every table of cell values up to its row and column sums, row by row
    in lexicographic order, kept when its margins match."""
    bounds = [min(r, c) for _, r in rows for _, c in cols]
    out = []
    for cells in itertools.product(*(range(b + 1) for b in bounds)):
        grid = [cells[i * len(cols):(i + 1) * len(cols)] for i in range(len(rows))]
        if ([sum(row) for row in grid] == [r for _, r in rows]
                and [sum(col) for col in zip(*grid)] == [c for _, c in cols]):
            out.append({f"({rn},{cn})": v for (rn, _), row in zip(rows, grid)
                        for (cn, _), v in zip(cols, row) if v})
    return out


def test_count_tables_match_brute_force_on_random_margins():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        shape = rng.choice([(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (1, 5), (2, 1)])
        rows = [(f"r{i}", rng.randint(1, 3)) for i in range(shape[0])]
        total = sum(r for _, r in rows)
        if rng.random() < 0.8:  # column sums that cut the row total in parts
            cuts = sorted(rng.sample(range(1, total), min(shape[1], total) - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        else:  # column sums drawn alone, mostly with another total
            sizes = [rng.randint(1, 3) for _ in range(shape[1])]
        cols = [(f"c{j}", c) for j, c in enumerate(sizes)]
        want = _brute_force_tables(rows, cols)
        assert list(_count_tables(rows, cols)) == want, (rows, cols)
        checked += bool(want)
    assert checked > 200


def test_product_of_a_wide_fiber_stays_off_the_call_stack():
    # One row of 1,100 tokens against 1,100 columns of one: one table, found
    # without a frame per cell and without trying cells that cannot complete.
    places = tuple(f"q{i}" for i in range(1100))
    p = petri("p", {"t": ({"p": 1100}, {})})
    q = QNet(Theory.CMON, places, {"u": (cmon({x: 1 for x in places}), cmon({}))})
    out, proj1, proj2 = product(p, q)
    assert list(out.transitions) == ["(t,u)@0"]
    assert out.transitions["(t,u)@0"][0] == cmon({f"(p,{x})": 1 for x in places})
    assert proj1.f == {"(t,u)@0": "t"} and proj2.f == {"(t,u)@0": "u"}


def test_product_mon_unique_pairing():
    p = prenet("a", {"t": ("a", "")})
    q = prenet("x", {"s": ("x", "")})
    out, _, _ = product(p, q)
    assert len(out.transitions) == 1
    (src, tgt), = out.transitions.values()
    assert src == word(["(a,x)"])
    assert tgt == word([])


def test_product_length_mismatch_is_empty():
    p = prenet("a", {"t": ("aa", "")})
    q = prenet("x", {"s": ("x", "")})
    out, _, _ = product(p, q)
    assert len(out.transitions) == 0


def test_product_group_rejected():
    from netzoo import integer_net

    n = integer_net("a", {"t": ({"a": 1}, {})})
    with pytest.raises(UnsupportedOperationError):
        product(n, n)


def test_product_universal_property():
    p1 = petri("a", {"t": ({"a": 1}, {"a": 1})})
    p2 = petri("b", {"u": ({"b": 1}, {"b": 1})})
    source = petri("x", {"s": ({"x": 1}, {"x": 1})})
    out, proj1, proj2 = product(p1, p2)
    for h1 in enumerate_morphisms(source, p1):
        for h2 in enumerate_morphisms(source, p2):
            mediators = [m for m in enumerate_morphisms(source, out)
                         if compose(proj1, m) == h1 and compose(proj2, m) == h2]
            assert len(mediators) == 1


def test_product_semilat_fiber():
    p = elementary("ab", {"t": ("ab", "a")})
    q = elementary("x", {"s": ("x", "x")})
    out, proj1, proj2 = product(p, q)
    assert validate_net(out) == []
    assert validate_morphism(proj1) == [] and validate_morphism(proj2) == []
    # Source fiber: subsets of {a,b}x{x} with full projections = {(a,x),(b,x)}.
    srcs = {arcs[0] for arcs in out.transitions.values()}
    assert srcs == {finset(["(a,x)", "(b,x)"])}


def _brute_force_relations(a, b):
    """Every subset of a x b, kept when it projects onto all of a and b."""
    pairs = list(itertools.product(a.payload, b.payload))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        chosen = [pair for pair, keep in zip(pairs, bits) if keep]
        if {x for x, _ in chosen} == set(a.payload) and {y for _, y in chosen} == set(b.payload):
            yield finset([_pair_name(x, y) for x, y in chosen])


def test_semilat_fiber_matches_brute_force_on_small_arcs():
    sides = ["", "a", "ab", "abc", "bcd"]
    checked = 0
    for x, y in itertools.product(sides, ["", "x", "xy", "(z", "xy1"]):
        got = list(_marginal_fiber(Theory.SEMILAT, finset(x), finset(y)))
        assert len(got) == len(set(got))
        assert set(got) == set(_brute_force_relations(finset(x), finset(y))), (x, y)
        checked += len(got)
    assert checked > 300


def test_semilat_fiber_takes_time_in_its_size():
    # A loop on one place against a loop on 20: one covering relation of 20
    # pairs, among 2^20 subsets the brute-force enumeration would try.
    places = tuple(f"q{i:02d}" for i in range(20))
    wide = elementary(places, {"u": (places, places)})
    start = time.perf_counter()
    out, _, _ = product(elementary("a", {"t": ("a", "a")}), wide)
    assert time.perf_counter() - start < 1.0
    assert out.transitions == {"(t,u)@0": (finset([f"(a,{p})" for p in places]),) * 2}


@settings(max_examples=40)
@given(st.sampled_from(list(TheoryArrow)), st.data())
def test_functoriality_on_random_morphisms(arrow, data):
    from qnets.suites import _pushforward, rand_net
    import random

    rng = random.Random(data.draw(st.integers(0, 10_000)))
    net = rand_net(rng, arrow.source)
    h1 = _pushforward(rng, net, "m")
    h2 = _pushforward(rng, h1.target, "n")
    assert validate_morphism(h1) == [] and validate_morphism(h2) == []
    tnet = apply_net_functor(arrow, net)
    t1 = apply_net_functor(arrow, h1.target)
    t2 = apply_net_functor(arrow, h2.target)
    th1 = NetMorphism(tnet, t1, h1.f, h1.g)
    th2 = NetMorphism(t1, t2, h2.f, h2.g)
    assert validate_morphism(th1) == [] and validate_morphism(th2) == []
    both = compose(h2, h1)
    assert NetMorphism(tnet, t2, both.f, both.g) == compose(th2, th1)


def _enumerate_morphisms_ref(p, q):
    """The enumerator as first written: validate every combination."""
    if p.theory is not q.theory:
        return []
    src_places = list(p.places)
    src_trans = sorted(p.transitions)
    out = []
    for g_imgs in itertools.product(q.places, repeat=len(src_places)):
        g = dict(zip(src_places, g_imgs))
        for f_imgs in itertools.product(sorted(q.transitions), repeat=len(src_trans)):
            h = NetMorphism(p, q, dict(zip(src_trans, f_imgs)), g)
            if not validate_morphism(h):
                out.append(h)
    return out


def _listing(enumerate_fn, p, q):
    """Each morphism with its maps in key order, or what the call raised."""
    try:
        return [(h.source, h.target, list(h.f.items()), list(h.g.items()))
                for h in enumerate_fn(p, q)]
    except QnetError as exc:
        return type(exc).__name__, str(exc)


def _shuffled(rng, net, extra=()):
    """``net`` with ``extra`` transitions added and its transitions in a
    random insertion order, so that order is not the sorted one."""
    items = list(net.transitions.items()) + list(extra)
    rng.shuffle(items)
    return QNet(net.theory, net.places, dict(items))


def test_enumerate_morphisms_matches_validating_every_combination():
    from qnets.suites import _pushforward, rand_elem, rand_net

    theories = list(Theory)
    found = raised = 0
    for i in range(300):
        rng = random.Random(i)
        theory = theories[i % len(theories)]
        p = rand_net(rng, theory, max_places=3, max_trans=3, max_size=2)
        kind = i % 6
        if kind == 5:
            # Arcs over undeclared places: lifting raises at the first bad
            # transition in insertion order, but only when some transition
            # map is tried.
            p = _shuffled(rng, p, [("bad", (unit(theory, "z"), neutral(theory))),
                                   ("worse", (neutral(theory), unit(theory, "y")))])
        image = _pushforward(rng, p if kind != 5 else rand_net(rng, theory), "m").target
        extra = [(f"x{j}", (rand_elem(rng, theory, image.places, 2),
                            rand_elem(rng, theory, image.places, 2)))
                 for j in range(rng.randint(0, 2))]
        q = {0: _shuffled(rng, image, extra),
             1: rand_net(rng, theory, max_places=4, max_trans=4, max_size=2),
             2: QNet(theory, image.places, {}),
             3: rand_net(rng, theories[(i + 1) % len(theories)]),
             4: _shuffled(rng, image),
             5: _shuffled(rng, image, extra) if i % 12 == 5 else QNet(theory, image.places, {}),
             }[kind]
        p = _shuffled(rng, p)
        got = _listing(enumerate_morphisms, p, q)
        assert got == _listing(_enumerate_morphisms_ref, p, q)
        if isinstance(got, list):
            found += len(got)
        else:
            raised += 1
    assert found > 300 and raised > 10


def test_enumerate_morphisms_refuses_past_the_budget_of_place_maps(monkeypatch):
    from qnets.reflexive import add_identities, enumerate_reflexive_morphisms

    # Every one of the 5^5 place maps of five loose places is a morphism.
    five = petri("abcde", {})
    assert len(enumerate_morphisms(five, five)) == 3125
    monkeypatch.setenv("QNET_BUDGET", "3124")
    with pytest.raises(QnetError, match="more than 3124 place maps; QNET_BUDGET"):
        enumerate_morphisms(five, five)
    # Seven places have 823,543 place maps: refused before any is tried, and
    # the reflexive enumeration, built on this one, is refused with it.
    monkeypatch.delenv("QNET_BUDGET")
    seven = petri("abcdefg", {})
    start = time.perf_counter()
    with pytest.raises(QnetError, match="more than 10000 place maps; QNET_BUDGET"):
        enumerate_morphisms(seven, seven)
    with pytest.raises(QnetError, match="more than 10000 place maps"):
        enumerate_reflexive_morphisms(add_identities(seven), add_identities(seven))
    assert time.perf_counter() - start < 1


PLACES_AB = petri("ab", {"t": ({"a": 1}, {"b": 1})})
WORDS_AB = prenet("ab", {"t": ("a", "b")})
# (what is checked, the check, its diagnostics or the exception it raises)
VALIDATOR_TEXTS = [
    ("duplicate places", lambda: validate_net(QNet(Theory.CMON, ("a", "a"), {})),
     ["duplicate place names"]),
    ("arc theory and places",
     lambda: validate_net(QNet(Theory.CMON, ("a",), {"t": (word("a"), cmon({"z": 1}))})),
     ["transition 't' src has theory MON, net is CMON",
      "transition 't' tgt mentions undeclared places ['z']"]),
    ("partial morphism",
     lambda: validate_morphism(NetMorphism(PLACES_AB, PLACES_AB, {}, {"a": "a"})),
     UnmappedNameError("partial morphism: unmapped transitions ['t'], unmapped places ['b']")),
    ("morphism theories",
     lambda: validate_morphism(NetMorphism(PLACES_AB, WORDS_AB, {"t": "t"},
                                           {"a": "a", "b": "b"})),
     ["theory mismatch: CMON vs MON"]),
    ("morphism images",
     lambda: validate_morphism(NetMorphism(PLACES_AB, PLACES_AB, {"t": "s"},
                                           {"a": "a", "b": "z"})),
     ["place 'b' maps to undeclared 'z'", "transition 't' maps to unknown 's'"]),
    ("compose", lambda: compose(identity_morphism(PLACES_AB), identity_morphism(WORDS_AB)),
     TheoryMismatchError("morphisms are not composable")),
    ("coproduct", lambda: coproduct(PLACES_AB, WORDS_AB),
     TheoryMismatchError("coproduct needs a shared theory")),
    ("product", lambda: product(PLACES_AB, WORDS_AB),
     TheoryMismatchError("product needs a shared theory")),
]


@pytest.mark.parametrize("check,want", [case[1:] for case in VALIDATOR_TEXTS],
                         ids=[case[0] for case in VALIDATOR_TEXTS])
def test_validator_texts(check, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            check()
        assert str(info.value) == str(want)
    else:
        assert check() == want
