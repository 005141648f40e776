"""ABGRP processes need no rewrite search.

An internal abelian group in Cat is a two-term chain complex Z^T -> Z^P
(Brown & Spencer, 1976), so an ABGRP process is its source plus its signed
transition occurrence vector. In a layered ABGRP form every two adjacent
layers merge, so ``freecat._greedy`` leaves at most one layer: the signed
occurrences beside a held frame of the source less their sources. Two forms
that pass ``mor_equal``'s endpoint and occurrence checks therefore agree by
greedy form, and the search is never reached. These tests build that normal
form here, from the source and the occurrences alone, and check both facts.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import netzoo
from qnets import freecat
from qnets.freecat import Comp, Gen, Ident, LayeredForm, Oper
from qnets.net import ID_PREFIX
from qnets.theory import Theory, combine, invert, multiset, neutral

TH = Theory.ABGRP

ABGRP_ZOO = [net for name in dir(netzoo) if name.endswith("_NETS")
             for net in getattr(netzoo, name) if net.theory is TH]


def _vec(elem):
    return dict(elem.payload)


def _add(into, counts, k=1):
    for name, c in counts.items():
        into[name] = into.get(name, 0) + k * c


def _occurrences(t):
    """Signed transition counts of a term; an inverse counts negatively."""
    if isinstance(t, Gen):
        return {t.name: 1}
    if isinstance(t, Ident):
        return {}
    parts = [t.before, t.after] if isinstance(t, Comp) else list(t.args)
    out = {}
    for part in parts:
        _add(out, _occurrences(part), -1 if isinstance(t, Oper) and t.op == "invert" else 1)
    return out


def _normal_form(net, source, occ):
    """The source, then one layer firing ``occ`` beside the held rest of the
    source; no layer when no transition occurs."""
    occ = {n: c for n, c in occ.items() if c}
    if not occ:
        return LayeredForm(source, ())
    held = _vec(source)
    for name, c in occ.items():
        _add(held, _vec(net.transitions[name][0]), -c)
    layer = dict(occ)
    _add(layer, {ID_PREFIX + p: c for p, c in held.items()})
    return LayeredForm(source, (multiset(TH, layer),))


def _greedy(t, net):
    form = freecat.layered(t, net)
    ctx = freecat._context(net)
    return ctx.form(form.start, freecat._greedy(ctx.number(form.layers), ctx))


def _fail(*args, **kwargs):
    raise AssertionError("ABGRP equality reached the rewrite search")


# ---------------------------------------------------------------------------
# Typed terms, each with its source and target


def _then(after, before):
    """``after`` after ``before``, with a held frame beside ``before`` that
    makes its target ``after``'s source."""
    frame = combine(TH, after[1], invert(before[2]))
    padded = Oper("combine", (before[0], Ident(frame)))
    return Comp(after[0], padded), combine(TH, before[1], frame), after[2]


def _beside(parts):
    if len(parts) == 1:
        return parts[0]
    src, tgt = neutral(TH), neutral(TH)
    for _, s, t in parts:
        src, tgt = combine(TH, src, s), combine(TH, tgt, t)
    return Oper("combine", tuple(p[0] for p in parts)), src, tgt


def _inverse(part):
    return Oper("invert", (part[0],)), invert(part[1]), invert(part[2])


def _in_sequence(parts):
    """The parts fired one after another, each beside the others' held ends:
    the same morphism as ``_beside(parts)`` by the interchange law."""
    out = None
    for i, (term, _, _) in enumerate(parts):
        done = [Ident(p[2]) for p in parts[:i]]
        rest = [Ident(p[1]) for p in parts[i + 1:]]
        row = done + [term] + rest
        step = Oper("combine", tuple(row)) if len(row) > 1 else term
        out = step if out is None else Comp(step, out)
    return out


def _typed_terms(net):
    names = sorted(net.transitions)
    objs = st.dictionaries(st.sampled_from(net.places), st.integers(-2, 2)).map(
        lambda d: multiset(TH, d))
    leaves = objs.map(lambda x: (Ident(x), x, x))
    if names:
        leaves = st.one_of(leaves, st.sampled_from(names).map(
            lambda n: (Gen(n), *net.transitions[n])))
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(_inverse),
        st.lists(sub, min_size=2, max_size=3).map(_beside),
        st.tuples(sub, sub).map(lambda ab: _then(*ab))), max_leaves=8)


def _zoo_terms(net):
    pieces = [(Gen(n), *net.transitions[n]) for n in sorted(net.transitions)]
    pieces += [_inverse(p) for p in pieces]
    x = multiset(TH, {net.places[0]: 1})
    terms = pieces + [(Ident(x), x, x)]
    for a, b in itertools.product(pieces, repeat=2):
        terms += [_beside([a, b]), _then(a, b), _inverse(_then(a, _beside([b, a])))]
    return terms


# ---------------------------------------------------------------------------
# Tests


def test_the_zoo_has_integer_nets():
    assert len(ABGRP_ZOO) >= 11 and netzoo.EQUALITY_NETS[4] in ABGRP_ZOO


@pytest.mark.parametrize("net", ABGRP_ZOO)
def test_zoo_terms_reduce_to_the_chain_complex_form(net):
    terms = _zoo_terms(net)
    for term, src, tgt in terms:
        assert (freecat.mor_src(term, net), freecat.mor_tgt(term, net)) == (src, tgt)
        assert _greedy(term, net) == _normal_form(net, src, _occurrences(term))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freecat, "_search_connect", _fail)
        for (t1, _, _), (t2, _, _) in itertools.combinations(terms, 2):
            assert not freecat.mor_equal(t1, t2, net).is_unknown


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ABGRP_ZOO).flatmap(lambda net: st.tuples(
    st.just(net), st.lists(_typed_terms(net), min_size=1, max_size=3), st.randoms())))
def test_drawn_terms_reduce_to_the_chain_complex_form(case):
    net, parts, rng = case
    side_by_side = _beside(parts)
    shuffled = parts[:]
    rng.shuffle(shuffled)
    one_by_one = _in_sequence(shuffled)
    assert freecat.mor_src(one_by_one, net) == side_by_side[1]
    for term, src, _ in parts + [side_by_side, (one_by_one, side_by_side[1], None)]:
        assert _greedy(term, net) == _normal_form(net, src, _occurrences(term))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freecat, "_search_connect", _fail)
        assert freecat.mor_equal(side_by_side[0], one_by_one, net).is_equal
        for (t1, _, _), (t2, _, _) in itertools.combinations(parts, 2):
            assert not freecat.mor_equal(t1, t2, net).is_unknown
