"""Process functoriality: pushing terms along a catalog arrow f with
``symmetry.translate_term`` is a functor from the free category on a net N to
the free category on ``apply_net_functor(f, N)``. It keeps every term's
endpoints, read through ``translate``, and it never separates two terms that
N identifies. The catalog square c;b = d;e commutes on MON nets and terms.
"""

from __future__ import annotations

import itertools

import pytest

from qnets import freecat, symmetry
from qnets.net import apply_net_functor
from qnets.theory import Theory, TheoryArrow, translate

import netzoo
from test_verdicts import _mor_terms

MAX_TERMS = 60

ZOO = ("TOKEN_GAME_NETS", "PRE_NETS", "INTEGER_NETS", "GROUP_NETS", "ELEMENTARY_NETS",
       "EQUALITY_NETS", "SYMMETRY_NETS")

# Known unsound verdicts: on the two-loop net (t, u: a -> a), ten pairs that
# CMON decides Equal come out Distinct over SEMILAT, where the rewrite oracle
# finds each of them equal. Over SEMILAT the generator count is no invariant,
# yet the search is capped at the larger side's count, and the path between
# the images needs more generators than either end.
KNOWN_SEPARATED = {("SUPPORT", "EQUALITY_NETS[1]")}


def _cases(known: set = frozenset()):
    for arrow in TheoryArrow:
        for family in ZOO:
            for i, net in enumerate(getattr(netzoo, family)):
                if net.theory is not arrow.source:
                    continue
                label = f"{family}[{i}]"
                marks = [pytest.mark.xfail(strict=True, reason="SEMILAT capped search")] \
                    if (arrow.name, label) in known else []
                yield pytest.param(arrow, net, id=f"{arrow.name}-{label}", marks=marks)


def _translated(arrow, net):
    terms = _mor_terms(net)[:MAX_TERMS]
    ends = [(freecat.mor_src(t, net), freecat.mor_tgt(t, net)) for t in terms]
    return terms, ends, [symmetry.translate_term(arrow, t) for t in terms]


def test_every_arrow_has_a_zoo_net():
    assert {p.values[0] for p in _cases()} == set(TheoryArrow)


@pytest.mark.parametrize("arrow,net", _cases())
def test_translate_term_keeps_endpoints(arrow, net):
    image = apply_net_functor(arrow, net)
    _, ends, moved = _translated(arrow, net)
    for (src, tgt), t in zip(ends, moved):
        assert freecat.mor_src(t, image) == translate(arrow, src)
        assert freecat.mor_tgt(t, image) == translate(arrow, tgt)


@pytest.mark.parametrize("arrow,net", _cases(KNOWN_SEPARATED))
def test_translate_term_never_separates_equal_terms(arrow, net):
    image = apply_net_functor(arrow, net)
    terms, ends, moved = _translated(arrow, net)
    for (a, ea, ta), (b, eb, tb) in itertools.combinations(zip(terms, ends, moved), 2):
        if ea == eb and freecat.mor_equal(a, b, net).is_equal:
            assert not freecat.mor_equal(ta, tb, image).is_distinct, (arrow, net, a, b)


MON_NETS = [pytest.param(net, id=f"{family}[{i}]") for family in ZOO
            for i, net in enumerate(getattr(netzoo, family)) if net.theory is Theory.MON]


@pytest.mark.parametrize("net", MON_NETS)
def test_the_catalog_square_commutes(net):
    # MON -> CMON -> ABGRP (c, then b) and MON -> GRP -> ABGRP (d, then e).
    routes = ((TheoryArrow.ABELIANIZE, TheoryArrow.SIGNED),
              (TheoryArrow.FREE_GROUP, TheoryArrow.GROUP_SIGNED))
    nets = [apply_net_functor(second, apply_net_functor(first, net)) for first, second in routes]
    assert nets[0] == nets[1]
    for t in _mor_terms(net)[:MAX_TERMS]:
        moved = [symmetry.translate_term(second, symmetry.translate_term(first, t))
                 for first, second in routes]
        assert moved[0] == moved[1], t
