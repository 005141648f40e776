"""Pinned equality verdicts: the exact status, reason and witness path of
``sym_equal`` on the braid-axiom and naturality instances of acceptance
criterion 11, over ``PRE_NETS`` and ``SYMMETRY_NETS``, and of ``mor_equal`` on
a fixed sample of term pairs over ``EQUALITY_NETS``.

The expected verdicts are checked in under ``tests/golden/verdicts.jsonl``, one
JSON line per case. To rewrite the file after an intended change, run
``PYTHONPATH=src:tests python tests/test_verdicts.py`` and review the diff.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from qnets import freecat, jsonio, symmetry
from qnets.freecat import Comp, Gen, Ident, Oper
from qnets.theory import Theory, combine, unit, word

from netzoo import EQUALITY_NETS, PRE_NETS, SYMMETRY_NETS, words_up_to

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                        "verdicts.jsonl")


def _sym_cases():
    """(label, net, lhs, rhs): braid squares and unit braidings on words of
    total length at most ``size`` (2 on ``PRE_NETS``, 3 on ``SYMMETRY_NETS``),
    and the naturality square of every transition against each nonempty word
    of length at most 3 that keeps its source within 4 letters."""
    for family, nets, size in (("PRE_NETS", PRE_NETS, 2), ("SYMMETRY_NETS", SYMMETRY_NETS, 3)):
        for i, net in enumerate(nets):
            label = f"{family}[{i}]"
            words = words_up_to(net.places, 3)
            for x in words:
                for y in words:
                    if 0 < x.size() + y.size() <= size:
                        yield (label, net,
                               Comp(symmetry.braiding(y, x), symmetry.braiding(x, y)),
                               Ident(combine(Theory.MON, x, y)))
                if x.size() <= size:
                    yield label, net, symmetry.braiding(x, word("")), Ident(x)
            for name, (src, tgt) in sorted(net.transitions.items()):
                for u in words:
                    if 0 < u.size() and src.size() + u.size() <= 4:
                        yield (label, net,
                               Comp(symmetry.braiding(tgt, u),
                                    Oper("combine", (Gen(name), Ident(u)))),
                               Comp(Oper("combine", (Ident(u), Gen(name))),
                                    symmetry.braiding(src, u)))


def _mor_terms(net):
    """Transitions and place identities, their binary combinations, and the
    well-typed composites of those, in a fixed order."""
    th = net.theory
    leaves = [Gen(n) for n in sorted(net.transitions)]
    if th.ops.group:
        leaves += [Oper("invert", (Gen(n),)) for n in sorted(net.transitions)]
    leaves += [Ident(unit(th, p)) for p in net.places]
    flat = leaves + [Oper("combine", (a, b)) for a, b in itertools.product(leaves, repeat=2)]
    ends = [(freecat.mor_src(t, net), freecat.mor_tgt(t, net)) for t in flat]
    composites = [Comp(a, b) for (a, (sa, _)), (b, (_, tb))
                  in itertools.product(zip(flat, ends), repeat=2) if tb == sa]
    return flat + composites


def _mor_cases(per_net=40):
    """(label, net, lhs, rhs): a seeded sample of term pairs with equal
    endpoints for each net."""
    rng = random.Random(11)
    for i, net in enumerate(EQUALITY_NETS):
        groups: dict = {}
        for t in _mor_terms(net):
            key = jsonio.dumps([jsonio.elem_to_json(freecat.mor_src(t, net)),
                                jsonio.elem_to_json(freecat.mor_tgt(t, net))])
            groups.setdefault(key, []).append(t)
        pairs = [(a, b) for key in sorted(groups)
                 for a, b in itertools.combinations(groups[key], 2)]
        for a, b in rng.sample(pairs, min(per_net, len(pairs))):
            yield f"EQUALITY_NETS[{i}]", net, a, b


def _lines():
    for decide, cases in ((symmetry.sym_equal, _sym_cases()),
                          (freecat.mor_equal, _mor_cases())):
        for label, net, lhs, rhs in cases:
            verdict = decide(lhs, rhs, net)
            yield jsonio.dumps({
                "decide": decide.__name__, "net": label,
                "lhs": jsonio.term_to_json(lhs), "rhs": jsonio.term_to_json(rhs),
                "status": verdict.status, "reason": verdict.reason,
                "witness": list(verdict.witness)})


def test_verdicts_match_pinned_file():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    got = list(_lines())
    assert len(got) == len(expected)
    for line, want in zip(got, expected):
        assert line == want


def test_pinned_file_covers_every_phase():
    with open(EXPECTED, encoding="utf-8") as fh:
        cases = [json.loads(line) for line in fh]
    seen = {(c["decide"], c["reason"]) for c in cases}
    assert {("sym_equal", "identical layered forms"), ("sym_equal", "rewrite path found"),
            ("mor_equal", "greedy canonical forms agree"),
            ("mor_equal", "rewrite path found"),
            ("mor_equal", "generator occurrence counts differ")} <= seen
    assert any(c["witness"] for c in cases if c["decide"] == "sym_equal")


if __name__ == "__main__":
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in _lines())
