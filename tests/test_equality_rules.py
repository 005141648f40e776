"""The equality rule table in ``freecat``: one record per theory, and the
invariants its records claim, checked on every move of the zoo's forms."""

from qnets.freecat import _RULES, _SYMMETRIC, _Rule, _closure, _context, _layered_ctx, _neighbors
from qnets.theory import Theory

import netzoo
from test_verdicts import _mor_terms, _sym_cases

ZOO = ("TOKEN_GAME_NETS", "PRE_NETS", "INTEGER_NETS", "GROUP_NETS", "ELEMENTARY_NETS",
       "EQUALITY_NETS", "SYMMETRY_NETS")


def _vector(form, ctx):
    """A form's occurrence vector: the sum of its layers' vectors."""
    return tuple(map(sum, zip((0,) * len(ctx.names), *map(ctx.occ.__getitem__, form))))


def _check_moves(ctx, rule, forms):
    """Every move from each form, and from each member of its closure within
    its own generator count, keeps the form's support, and its occurrence
    vector if ``rule`` is keyed. Returns the moves checked and whether any
    changed a vector."""
    moves, changed = 0, False
    for form in forms:
        vector = _vector(form, ctx)
        members = _closure(form, ctx, sum(map(ctx.gens.__getitem__, form)), 200) or {form}
        for member in members:
            assert _vector(member, ctx) == vector or not rule.keyed
            for nxt in _neighbors(member, ctx):
                after = _vector(nxt, ctx)
                assert after == vector or not rule.keyed, (ctx.net, member, nxt)
                assert [bool(c) for c in after] == [bool(c) for c in vector], (ctx.net, member, nxt)
                moves += 1
                changed |= after != vector
    return moves, changed


def test_every_theory_has_one_rule():
    assert len(_RULES) == len(Theory) and set(_RULES) == set(Theory)
    assert all(type(rule) is _Rule for rule in [*_RULES.values(), _SYMMETRIC])
    assert _SYMMETRIC.keyed and not _SYMMETRIC.greedy and not _SYMMETRIC.capped


def test_keyed_rules_keep_the_occurrence_vector_on_every_move():
    moves, changed = {}, set()
    for family in ZOO:
        for net in getattr(netzoo, family):
            ctx, rule = _context(net), _RULES[net.theory]
            forms = {_layered_ctx(t, ctx)[1] for t in _mor_terms(net)}
            n, c = _check_moves(ctx, rule, sorted(forms))
            moves[net.theory] = moves.get(net.theory, 0) + n
            if c:
                changed.add(net.theory)
    assert all(moves[theory] > 200 for theory in Theory), moves
    # The one unkeyed rule is needed: a SEMILAT split that fires a letter
    # in both halves changes the vector, though never the support.
    assert changed == {Theory.SEMILAT}


def test_symmetric_moves_keep_the_occurrence_vector():
    moves = 0
    for label, net, lhs, rhs in _sym_cases():
        if label.startswith("PRE_NETS"):
            ctx = _context(net)
            forms = {_layered_ctx(t, ctx, True)[1] for t in (lhs, rhs)}
            moves += _check_moves(ctx, _SYMMETRIC, sorted(forms))[0]
    assert moves > 1000
