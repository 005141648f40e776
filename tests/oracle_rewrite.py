"""Independent exhaustive rewrite-closure oracle for process-term equality.

Everything here is implemented from scratch on plain dicts/tuples/frozensets:
its own layering of terms (sequential whiskering rather than the library's
parallel zip), its own marking arithmetic, and its own merge/split moves. Two
terms are equal iff their layered forms land in the same closure under the
moves. No budgets; intended for small fixtures only.
"""

from __future__ import annotations

from collections import deque

from qnets.freecat import Comp, Gen, Ident, Oper
from qnets.theory import Theory

GEN = "t"
HOLD = "id"

_CAP = 500_000


# --- marking arithmetic on plain data -------------------------------------

def _to_dict(elem) -> dict:
    out = {}
    for p, c in elem.payload:
        out[p] = out.get(p, 0) + c
    return {p: c for p, c in out.items() if c}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _scale(a: dict, n: int) -> dict:
    return {k: v * n for k, v in a.items() if v * n}


def _freeze(a: dict) -> frozenset:
    return frozenset(a.items())


class OracleNet:
    def __init__(self, net):
        self.theory = net.theory
        self.places = list(net.places)
        self.arcs = {}
        for name, (src, tgt) in net.transitions.items():
            if net.theory is Theory.CMON or net.theory is Theory.ABGRP:
                self.arcs[name] = (_to_dict(src), _to_dict(tgt))
            elif net.theory is Theory.MON:
                self.arcs[name] = (tuple(src.payload), tuple(tgt.payload))
            elif net.theory is Theory.SEMILAT:
                self.arcs[name] = (frozenset(src.payload), frozenset(tgt.payload))
            else:
                raise NotImplementedError("oracle does not cover GRP nets")
        # Move caches of :func:`closure`, keyed by frozen layers.
        self.merge_moves: dict = {}
        self.split_moves: dict = {}

    # markings: CMON/ABGRP dict, MON tuple, SEMILAT frozenset
    def marking_of(self, elem):
        if self.theory in (Theory.CMON, Theory.ABGRP):
            return _to_dict(elem)
        if self.theory is Theory.MON:
            return tuple(elem.payload)
        return frozenset(elem.payload)

    def plus(self, a, b):
        if self.theory in (Theory.CMON, Theory.ABGRP):
            return _add(a, b)
        if self.theory is Theory.MON:
            return a + b
        return a | b

    def neg(self, a):
        assert self.theory is Theory.ABGRP
        return _scale(a, -1)

    def sym_src(self, sym):
        kind, name = sym
        if kind == HOLD:
            if self.theory in (Theory.CMON, Theory.ABGRP):
                return {name: 1}
            if self.theory is Theory.MON:
                return (name,)
            return frozenset([name])
        return self.arcs[name][0]

    def sym_tgt(self, sym):
        kind, name = sym
        if kind == HOLD:
            return self.sym_src(sym)
        return self.arcs[name][1]

    def empty(self):
        if self.theory in (Theory.CMON, Theory.ABGRP):
            return {}
        if self.theory is Theory.MON:
            return ()
        return frozenset()

    # layers: CMON/ABGRP dict sym->count, MON tuple of syms, SEMILAT frozenset
    def hold_layer(self, marking):
        if self.theory in (Theory.CMON, Theory.ABGRP):
            return {(HOLD, p): c for p, c in marking.items()}
        if self.theory is Theory.MON:
            return tuple((HOLD, p) for p in marking)
        return frozenset((HOLD, p) for p in marking)

    def layer_plus(self, a, b):
        if self.theory in (Theory.CMON, Theory.ABGRP):
            return _add(a, b)
        if self.theory is Theory.MON:
            return a + b
        return a | b

    def layer_end(self, layer, end) -> object:
        total = self.empty()
        if self.theory in (Theory.CMON, Theory.ABGRP):
            for sym, count in layer.items():
                part = self.sym_src(sym) if end == 0 else self.sym_tgt(sym)
                total = _add(total, _scale(part, count))
            return total
        for sym in layer:
            part = self.sym_src(sym) if end == 0 else self.sym_tgt(sym)
            total = self.plus(total, part)
        return total

    def pure_hold(self, layer) -> bool:
        syms = layer if self.theory not in (Theory.CMON, Theory.ABGRP) else layer.keys()
        return all(kind == HOLD for kind, _ in syms)

    def freeze_layer(self, layer):
        if self.theory in (Theory.CMON, Theory.ABGRP):
            return _freeze(layer)
        return layer

    def thaw_layer(self, frozen):
        if self.theory in (Theory.CMON, Theory.ABGRP):
            return dict(frozen)
        return frozen


# --- independent layering of terms -----------------------------------------

def term_layers(term, onet: OracleNet):
    """Returns (src, tgt, [layer, ...]); whiskers parallel combinations."""
    th = onet.theory
    if isinstance(term, Gen):
        src, tgt = onet.arcs[term.name]
        if th in (Theory.CMON, Theory.ABGRP):
            layer = {(GEN, term.name): 1}
        elif th is Theory.MON:
            layer = ((GEN, term.name),)
        else:
            layer = frozenset([(GEN, term.name)])
        return src, tgt, [layer]
    if isinstance(term, Ident):
        m = onet.marking_of(term.obj)
        return m, m, []
    if isinstance(term, Comp):
        s1, t1, l1 = term_layers(term.before, onet)
        s2, t2, l2 = term_layers(term.after, onet)
        assert t1 == s2, "oracle got an ill-typed composite"
        return s1, t2, l1 + l2
    if isinstance(term, Oper) and term.op == "combine":
        src, tgt, layers = term_layers(term.args[0], onet)
        for arg in term.args[1:]:
            s2, t2, l2 = term_layers(arg, onet)
            layers = ([onet.layer_plus(l, onet.hold_layer(s2)) for l in layers]
                      + [onet.layer_plus(onet.hold_layer(tgt), l) for l in l2])
            src = onet.plus(src, s2)
            tgt = onet.plus(tgt, t2)
        return src, tgt, layers
    if isinstance(term, Oper) and term.op == "invert":
        assert onet.theory is Theory.ABGRP
        src, tgt, layers = term_layers(term.args[0], onet)
        return onet.neg(src), onet.neg(tgt), [_scale(l, -1) for l in layers]
    raise AssertionError(f"oracle cannot layer {term!r}")


def _normal(onet: OracleNet, layers) -> tuple:
    return tuple(onet.freeze_layer(l) for l in layers if not onet.pure_hold(l))


# --- moves ------------------------------------------------------------------

def _gens(onet, layer):
    if onet.theory in (Theory.CMON, Theory.ABGRP):
        return {s: c for s, c in layer.items() if s[0] == GEN}
    if onet.theory is Theory.MON:
        return tuple(s for s in layer if s[0] == GEN)
    return frozenset(s for s in layer if s[0] == GEN)


def _holds_marking(onet, layer):
    if onet.theory in (Theory.CMON, Theory.ABGRP):
        return {s[1]: c for s, c in layer.items() if s[0] == HOLD}
    if onet.theory is Theory.MON:
        return tuple(s[1] for s in layer if s[0] == HOLD)
    return frozenset(s[1] for s in layer if s[0] == HOLD)


def _subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield {items[k] for k in range(len(items)) if mask >> k & 1}


def merges(onet: OracleNet, l1, l2) -> list:
    th = onet.theory
    if th in (Theory.CMON, Theory.ABGRP):
        g1, g2 = _gens(onet, l1), _gens(onet, l2)
        frame = _add(_holds_marking(onet, l1),
                     _scale(onet.layer_end(g2, 0), -1))
        if th is Theory.CMON and any(v < 0 for v in frame.values()):
            return []
        return [_add(_add(g1, g2), onet.hold_layer(frame))]
    if th is Theory.SEMILAT:
        g1, g2 = _gens(onet, l1), _gens(onet, l2)
        i1, i2 = _holds_marking(onet, l1), _holds_marking(onet, l2)
        src_g2 = onet.layer_end(g2, 0)
        tgt_g1 = onet.layer_end(g1, 1)
        out = []
        for w in _subsets(i1 & i2):
            if (w | src_g2) == i1 and (w | tgt_g1) == i2:
                out.append(g1 | g2 | onet.hold_layer(frozenset(w)))
        return out
    return _merge_mon(onet, l1, l2)


def _merge_mon(onet: OracleNet, w1, w2) -> list:
    results = set()

    def rec(i, j, acc):
        if i == len(w1) and j == len(w2):
            results.add(acc)
            return
        if i < len(w1) and j < len(w2) and w1[i][0] == HOLD and w1[i] == w2[j]:
            rec(i + 1, j + 1, acc + (w1[i],))
        if i < len(w1) and w1[i][0] == GEN:
            need = onet.hold_layer(onet.sym_tgt(w1[i]))
            if w2[j:j + len(need)] == need:
                rec(i + 1, j + len(need), acc + (w1[i],))
        if j < len(w2) and w2[j][0] == GEN:
            need = onet.hold_layer(onet.sym_src(w2[j]))
            if w1[i:i + len(need)] == need:
                rec(i + len(need), j + 1, acc + (w2[j],))

    rec(0, 0, ())
    return sorted(results)


def splits(onet: OracleNet, layer) -> list:
    th = onet.theory
    out = []
    if th in (Theory.CMON, Theory.ABGRP):
        gens = _gens(onet, layer)
        held = _holds_marking(onet, layer)
        names = sorted(gens)
        ranges = []
        for name in names:
            c = gens[name]
            sign = 1 if c > 0 else -1
            ranges.append([sign * k for k in range(abs(c) + 1)])
        import itertools

        for pick in itertools.product(*ranges):
            g1 = {n: c for n, c in zip(names, pick) if c}
            g2 = {n: gens[n] - g1.get(n, 0) for n in names if gens[n] - g1.get(n, 0)}
            if not g1 or not g2:
                continue
            l1 = _add(g1, onet.hold_layer(_add(held, onet.layer_end(g2, 0))))
            l2 = _add(g2, onet.hold_layer(_add(held, onet.layer_end(g1, 1))))
            out.append((l1, l2))
        return out
    if th is Theory.SEMILAT:
        import itertools

        gens = sorted(_gens(onet, layer))
        held = _holds_marking(onet, layer)
        for assign in itertools.product("LRB", repeat=len(gens)):
            g1 = frozenset(g for g, a in zip(gens, assign) if a in "LB")
            g2 = frozenset(g for g, a in zip(gens, assign) if a in "RB")
            if not g1 or not g2:
                continue
            l1 = g1 | onet.hold_layer(held | onet.layer_end(g2, 0))
            l2 = g2 | onet.hold_layer(held | onet.layer_end(g1, 1))
            out.append((l1, l2))
        return out
    import itertools

    gen_pos = [k for k, sym in enumerate(layer) if sym[0] == GEN]
    for assign in itertools.product((True, False), repeat=len(gen_pos)):
        early = {pos for pos, fl in zip(gen_pos, assign) if fl}
        if not early or len(early) == len(gen_pos):
            continue
        w1, w2 = [], []
        for k, sym in enumerate(layer):
            if sym[0] == HOLD:
                w1.append(sym)
                w2.append(sym)
            elif k in early:
                w1.append(sym)
                w2.extend(onet.hold_layer(onet.sym_tgt(sym)))
            else:
                w1.extend(onet.hold_layer(onet.sym_src(sym)))
                w2.append(sym)
        out.append((tuple(w1), tuple(w2)))
    return out


def _gens_total(onet: OracleNet, layer) -> int:
    if onet.theory in (Theory.CMON, Theory.ABGRP):
        return sum(abs(c) for sym, c in layer.items() if sym[0] == GEN)
    return sum(1 for sym in layer if sym[0] == GEN)


def _form_total(onet: OracleNet, form) -> int:
    return sum(_gens_total(onet, onet.thaw_layer(l)) for l in form)


def closure(onet: OracleNet, layers, gens_cap: int) -> set:
    """Exhaustive closure over forms carrying at most ``gens_cap`` generator
    occurrences; idempotent duplication is unbounded otherwise. The moves of
    each adjacent pair and each layer are computed once per ``onet``, each
    as its replacement layers and the generators it adds."""
    start = _normal(onet, layers)
    seen = {start}
    queue = deque([(start, _form_total(onet, start))])

    def frozen_moves(old, new) -> list:
        before = sum(_gens_total(onet, l) for l in old)
        return [(tuple(onet.freeze_layer(l) for l in mid),
                 sum(_gens_total(onet, l) for l in mid) - before) for mid in new]

    def merged(l1, l2) -> list:
        if (l1, l2) not in onet.merge_moves:
            old = (onet.thaw_layer(l1), onet.thaw_layer(l2))
            onet.merge_moves[l1, l2] = frozen_moves(
                old, [[] if onet.pure_hold(m) else [m] for m in merges(onet, *old)])
        return onet.merge_moves[l1, l2]

    def split(layer) -> list:
        if layer not in onet.split_moves:
            old = onet.thaw_layer(layer)
            onet.split_moves[layer] = frozen_moves([old], splits(onet, old))
        return onet.split_moves[layer]

    while queue:
        form, total = queue.popleft()
        nexts = []
        for i in range(len(form) - 1):
            nexts += [(form[:i] + mid + form[i + 2:], total + grown)
                      for mid, grown in merged(form[i], form[i + 1])]
        for i, layer in enumerate(form):
            nexts += [(form[:i] + pair + form[i + 1:], total + grown)
                      for pair, grown in split(layer) if total + grown <= gens_cap]
        for key, key_total in nexts:
            if key not in seen:
                seen.add(key)
                if len(seen) > _CAP:
                    raise RuntimeError("oracle closure blew past the safety cap")
                queue.append((key, key_total))
    return seen


def oracle_equal(t1, t2, net) -> bool:
    """Ground-truth equality by exhaustive rewrite closure (capped form space).

    Terms are equal iff their closures meet; one-sided membership would miss
    group cancellations, whose layer-dropping merges have no converse move.
    """
    onet = OracleNet(net)
    s1, g1, l1 = term_layers(t1, onet)
    s2, g2, l2 = term_layers(t2, onet)
    if (s1, g1) != (s2, g2):
        return False
    form1 = _normal(onet, l1)
    form2 = _normal(onet, l2)
    cap = max(_form_total(onet, form1), _form_total(onet, form2))
    return not closure(onet, l1, cap).isdisjoint(closure(onet, l2, cap))
