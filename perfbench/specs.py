"""Seeded workload inputs as plain JSON-ready data, plus the plain-data
marking arithmetic both the generators and the referee use.

Nothing here imports ``qnets``: a query spec names a net, markings and terms
in the same shapes the ``qnet`` CLI reads from files, so the library only ever
sees what :mod:`prepare` builds from these specs.

Markings in plain form: CMON/ABGRP a ``{place: count}`` dict, MON a list of
places (a word), SEMILAT a sorted list of places.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("reach", "equal", "homset", "cli")
SUITES = ("monad", "netfunctor", "adjA", "adjB", "freecat", "symmetry")


# --- plain marking arithmetic ------------------------------------------------

def m_key(theory: str, m) -> tuple:
    """Hashable canonical key of a plain marking."""
    if theory in ("CMON", "ABGRP"):
        return tuple(sorted((p, c) for p, c in m.items() if c))
    if theory == "MON":
        return tuple(m)
    return tuple(sorted(set(m)))


def m_plus(theory: str, a, b):
    if theory in ("CMON", "ABGRP"):
        out = dict(a)
        for p, c in b.items():
            out[p] = out.get(p, 0) + c
        return {p: c for p, c in out.items() if c}
    if theory == "MON":
        return list(a) + list(b)
    return sorted(set(a) | set(b))


def m_minus(a: dict, b: dict) -> dict | None:
    """Count difference ``a - b``; None when some count would go negative."""
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, 0) - c
        if out[p] < 0:
            return None
    return {p: c for p, c in out.items() if c}


def m_scale(a: dict, n: int) -> dict:
    return {p: c * n for p, c in a.items() if c * n}


def empty(theory: str):
    return {} if theory in ("CMON", "ABGRP") else []


def net_spec(theory: str, places, arcs: dict) -> dict:
    """A net in the CLI's file format: ``{"theory", "places", "transitions"}``."""
    return {"theory": theory, "places": list(places),
            "transitions": {n: {"src": s, "tgt": t} for n, (s, t) in arcs.items()}}


def arcs_of(net: dict) -> dict:
    return {n: (a["src"], a["tgt"]) for n, a in net["transitions"].items()}


# --- single firing layers and layered paths (plain data) ---------------------
#
# A layer is a tuple of symbols: ("t", name) for a fired transition and
# ("id", place) for a held token. CMON layers list symbols sorted with
# repetition, SEMILAT layers are sorted and duplicate-free, MON layers are in
# positional order. These are the layers hom-set enumeration draws: one per
# firing step whose source is exactly the current marking.

def step_layers(net: dict, marking, width: int | None) -> list[tuple[tuple, object]]:
    """Every (layer, target marking) firing at least one transition and at
    most ``width`` of them."""
    theory = net["theory"]
    arcs = arcs_of(net)
    names = sorted(arcs)
    out = []
    if theory == "CMON":
        def rec(idx, room, left, fired):
            if idx == len(names):
                if fired:
                    yield dict(fired)
                return
            yield from rec(idx + 1, room, left, fired)
            name = names[idx]
            local, count = room, 0
            while left is None or count < left:
                local = m_minus(local, arcs[name][0])
                if local is None:
                    break
                count += 1
                yield from rec(idx + 1, local, None if left is None else left - count,
                               {**fired, name: count})

        for fired in rec(0, dict(marking), width, {}):
            frame = dict(marking)
            target = {}
            for name, count in fired.items():
                frame = m_minus(frame, m_scale(arcs[name][0], count))
                target = m_plus("CMON", target, m_scale(arcs[name][1], count))
            layer = tuple(sorted([("t", n) for n, c in fired.items() for _ in range(c)]
                                 + [("id", p) for p, c in frame.items() for _ in range(c)]))
            out.append((layer, m_plus("CMON", frame, target)))
    elif theory == "SEMILAT":
        held = set(marking)
        for r in range(1, len(names) + 1):
            if width is not None and r > width:
                break
            for group in itertools.combinations(names, r):
                used = set().union(*(arcs[n][0] for n in group))
                if not used <= held:
                    continue
                produced = set().union(*(arcs[n][1] for n in group))
                extras = sorted(used)
                for bits in itertools.product((False, True), repeat=len(extras)):
                    frame = (held - used) | {p for p, b in zip(extras, bits) if b}
                    layer = tuple(sorted([("t", n) for n in group]
                                         + [("id", p) for p in frame]))
                    out.append((layer, sorted(frame | produced)))
    elif theory == "MON":
        letters = list(marking)

        def rec(pos, left, acc, target):
            if pos == len(letters) and any(kind == "t" for kind, _ in acc):
                out.append((acc, target))
            for name in names:
                if left == 0:
                    break
                src = arcs[name][0]
                if letters[pos:pos + len(src)] == src:
                    rec(pos + len(src), left - 1, acc + (("t", name),),
                        target + list(arcs[name][1]))
            if pos < len(letters):
                rec(pos + 1, left, acc + (("id", letters[pos]),), target + [letters[pos]])

        rec(0, width if width is not None else len(letters) + 1, (), [])
    else:
        raise ValueError(f"no finite firing layers over {theory}")
    unique = {}
    for layer, target in out:
        unique.setdefault(layer, target)
    return sorted(unique.items())


def layered_paths(net: dict, x, max_layers: int, width: int | None,
                  y=None, max_gens: int | None = None) -> list[tuple[tuple, ...]]:
    """Layer sequences from ``x`` of length at most ``max_layers`` (ending at
    ``y`` when given), each firing at most ``max_gens`` transitions in all."""
    theory = net["theory"]
    goal = None if y is None else m_key(theory, y)
    out = []

    def rec(marking, acc, used):
        if goal is None or m_key(theory, marking) == goal:
            out.append(acc)
        if len(acc) == max_layers:
            return
        for layer, target in step_layers(net, marking, width):
            cost = sum(1 for kind, _ in layer if kind == "t")
            if max_gens is None or used + cost <= max_gens:
                rec(target, acc + (layer,), used + cost)

    rec(x, (), 0)
    return out


def path_target(net: dict, x, layers) -> object:
    theory = net["theory"]
    arcs = arcs_of(net)
    m = x
    for layer in layers:
        if theory == "MON":
            m = []
            for kind, name in layer:
                m += list(arcs[name][1]) if kind == "t" else [name]
        else:
            m = empty(theory)
            for kind, name in layer:
                part = arcs[name][1] if kind == "t" else (
                    {name: 1} if theory == "CMON" else [name])
                m = m_plus(theory, m, part)
    return m


# --- term specs ----------------------------------------------------------------
#
# ["gen", t] | ["id", marking] | ["comp", after, before] | ["combine", [args]]
# | ["invert", arg] | ["perm", word, mapping]

def layer_term(theory: str, layer: tuple, rng: random.Random) -> list:
    """One layer as a combine of generators and held identities. Commutative
    theories get a shuffled argument order and a random frame grouping."""
    gens = [["gen", name] for kind, name in layer if kind == "t"]
    if theory == "MON":
        items = [["gen", name] if kind == "t" else ["id", [name]] for kind, name in layer]
    else:
        held = [name for kind, name in layer if kind == "id"]
        if theory == "CMON":
            frames = [{p: held.count(p)} for p in sorted(set(held))]
            if frames and rng.random() < 0.5:
                merged = {}
                for f in frames:
                    merged.update(f)
                frames = [merged]
        else:
            frames = [[p] for p in held]
            if frames and rng.random() < 0.5:
                frames = [sorted(held)]
        items = gens + [["id", f] for f in frames]
        rng.shuffle(items)
    return items[0] if len(items) == 1 else ["combine", items]


def path_term(theory: str, x, layers, rng: random.Random) -> list:
    if not layers:
        return ["id", x]
    term = layer_term(theory, layers[0], rng)
    for layer in layers[1:]:
        term = ["comp", layer_term(theory, layer, rng), term]
    return term


# --- renaming ------------------------------------------------------------------
#
# Seeded queries come from fixed shapes (catalogs drawn once from a fixed
# stream); a seed renames their places and transitions, which reorders every
# name-sorted structure in the library, re-draws term shapes and token
# placements where that keeps the cost, and reorders the queries. The set of
# shapes is fixed so that a pass costs about the same on every seed.

def _renaming(rng: random.Random, names, prefix: str) -> dict:
    fresh = [f"{prefix}{k}" for k in rng.sample(range(20), len(names))]
    return dict(zip(sorted(names), fresh))


def rename_marking(theory: str, m, places: dict):
    if theory in ("CMON", "ABGRP"):
        return {places[p]: c for p, c in m.items()}
    out = [places[p] for p in m]
    return out if theory == "MON" else sorted(out)


def rename_net(net: dict, places: dict, transitions: dict) -> dict:
    theory = net["theory"]
    arcs = {transitions[n]: (rename_marking(theory, s, places), rename_marking(theory, t, places))
            for n, (s, t) in sorted(arcs_of(net).items())}
    return net_spec(theory, sorted(places[p] for p in net["places"]), arcs)


def _rename_layer(layer: tuple, places: dict, transitions: dict) -> tuple:
    return tuple((kind, transitions[n] if kind == "t" else places[n]) for kind, n in layer)


# --- generators ------------------------------------------------------------------

def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    pool = [f"{prefix}{k}" for k in range(10)]
    return sorted(rng.sample(pool, n))


def ring(theory: str, n: int) -> dict:
    places = [f"p{i}" for i in range(n)]
    arcs = {}
    for i in range(n):
        a, b = places[i], places[(i + 1) % n]
        if theory == "CMON":
            arcs[f"t{i}"] = ({a: 1}, {b: 1})
        else:
            arcs[f"t{i}"] = ([a], [b])
    return net_spec(theory, places, arcs)


def _rand_cmon_conservative(rng, places, n_trans, size) -> dict:
    arcs = {}
    for name in _names(rng, "t", n_trans):
        k = rng.randint(1, size)
        src, tgt = {}, {}
        for _ in range(k):
            p = rng.choice(places)
            src[p] = src.get(p, 0) + 1
        for _ in range(k):
            p = rng.choice(places)
            tgt[p] = tgt.get(p, 0) + 1
        arcs[name] = (src, tgt)
    return net_spec("CMON", places, arcs)


def _rand_word_net(rng, places, n_trans, size) -> dict:
    arcs = {}
    for name in _names(rng, "t", n_trans):
        k = rng.randint(1, size)
        arcs[name] = ([rng.choice(places) for _ in range(k)],
                      [rng.choice(places) for _ in range(k)])
    return net_spec("MON", places, arcs)


def _rand_set_net(rng, places, n_trans, size) -> dict:
    arcs = {}
    for name in _names(rng, "t", n_trans):
        arcs[name] = (sorted(rng.sample(places, rng.randint(1, size))),
                      sorted(rng.sample(places, rng.randint(1, size))))
    return net_spec("SEMILAT", places, arcs)


def _ring_with_chords(rng: random.Random, theory: str, n: int, chords: int) -> dict:
    """A ring over ``n`` seeded place names plus ``chords`` random two-place
    transitions; CMON chords conserve tokens, MON chords swap two letters."""
    places = _names(rng, "p", n)
    rng.shuffle(places)
    arcs = {}
    for i in range(n):
        a, b = places[i], places[(i + 1) % n]
        arcs[f"r{i}"] = ({a: 1}, {b: 1}) if theory == "CMON" else ([a], [b])
    for k in range(chords):
        a, b, c, d = (rng.choice(places) for _ in range(4))
        if theory == "CMON":
            arcs[f"c{k}"] = (m_plus("CMON", {a: 1}, {b: 1}), m_plus("CMON", {c: 1}, {d: 1}))
        elif theory == "MON":
            arcs[f"c{k}"] = ([a, b], [b, a])
        else:
            arcs[f"c{k}"] = (sorted({a, b}), [c])
    return net_spec(theory, sorted(places), arcs)


def reach_specs(rng: random.Random) -> list[dict]:
    """Token-game queries: the 8-place ring probe, rings of fixed shapes with
    seeded token placement, and renamed catalog rings with chords."""
    qs = [{"name": "reach.ring8", "op": "reach", "net": ring("CMON", 8),
           "marking": {"p0": 1, "p1": 1, "p2": 1, "p3": 1}, "steps": 8}]
    for k, (n, tokens) in enumerate([(5, 3), (6, 3), (5, 4), (7, 3), (6, 4), (6, 3)]):
        net = ring("CMON", n)
        start = {}
        for _ in range(tokens):
            p = rng.choice(net["places"])
            start[p] = start.get(p, 0) + 1
        qs.append({"name": f"reach.ring.{k}", "op": "reach", "net": net,
                   "marking": start, "steps": n + 1})
    seeded = []
    for k, shape in enumerate(_reach_catalog()):
        net = shape["net"]
        theory = net["theory"]
        places = _renaming(rng, net["places"], "p")
        transitions = _renaming(rng, list(net["transitions"]), "t")
        seeded.append({"name": f"reach.{theory.lower()}.{k}", "op": "reach",
                       "net": rename_net(net, places, transitions),
                       "marking": rename_marking(theory, shape["marking"], places),
                       "steps": shape["steps"]})
    rng.shuffle(seeded)
    return qs + seeded


def _reach_catalog() -> list[dict]:
    """Rings with chords over CMON, MON (letters rotate along the ring;
    chords swap) and SEMILAT, with start markings, drawn once."""
    rng = random.Random("qnets-bench:reach-catalog")
    out = []
    for theory, n, chords, steps in (("CMON", 5, 2, 5), ("MON", 3, 1, 4), ("SEMILAT", 6, 1, 4)):
        for _ in range(31):
            net = _ring_with_chords(rng, theory, n, chords)
            if theory == "CMON":
                start = {}
                for _ in range(3):
                    p = rng.choice(net["places"])
                    start[p] = start.get(p, 0) + 1
            elif theory == "MON":
                start = [rng.choice(net["places"]) for _ in range(5)]
            else:
                start = sorted(rng.sample(net["places"], 2))
            out.append({"net": net, "marking": start, "steps": steps})
    return out


# Equality fixtures: two transitions t, u over places A, B, C.
EQUALITY_SHAPES = {
    "CMON": [{"t": ("A", "B"), "u": ("B", "C")}, {"t": ("A", "A"), "u": ("A", "A")},
             {"t": ("A", "B"), "u": ("B", "A")}],
    "MON": [{"t": ("A", "B"), "u": ("B", "A")}, {"t": ("A", "B"), "u": ("A", "B")},
            {"t": ("A", "A"), "u": ("A", "A")}],
    "SEMILAT": [{"t": ("A", "B"), "u": ("AB", "A")}, {"t": ("A", "B"), "u": ("B", "A")},
                {"t": ("A", "A"), "u": ("A", "B")}],
}


def _shape_net(theory: str, shape: dict) -> dict:
    places = sorted({c for src, tgt in shape.values() for c in src + tgt})
    arcs = {}
    for name, (src, tgt) in shape.items():
        if theory == "CMON":
            arcs[name] = ({p: src.count(p) for p in src}, {p: tgt.count(p) for p in tgt})
        else:
            arcs[name] = (list(src) if theory == "MON" else sorted(set(src)),
                          list(tgt) if theory == "MON" else sorted(set(tgt)))
    return net_spec(theory, places, arcs)


def _gens_count(layers) -> tuple:
    counts: dict[str, int] = {}
    for layer in layers:
        for kind, name in layer:
            if kind == "t":
                counts[name] = counts.get(name, 0) + 1
    return tuple(sorted(counts.items()))


def _spread_pick(items: list, count: int) -> list:
    """``count`` items at evenly spaced positions (all when fewer)."""
    if len(items) <= count:
        return list(items)
    return [items[i * len(items) // count] for i in range(count)]


def _shape_pairs(theory: str, shape: dict) -> list[tuple]:
    """Path pairs with matching endpoints on one fixture shape: per generator
    total (1 to 3), four sharing generator counts (equal, or distinct once
    the closure is exhausted) and two differing in them (decided by the
    invariant)."""
    net = _shape_net(theory, shape)
    starts = []
    for _, (src, _tgt) in sorted(arcs_of(net).items()):
        starts.append(src)
        starts.append(m_plus(theory, src, src) if theory != "SEMILAT" else net["places"])
    groups: dict[tuple, list] = {}
    for x in starts:
        for layers in layered_paths(net, x, 3, None, max_gens=3):
            end = m_key(theory, path_target(net, x, layers))
            groups.setdefault((m_key(theory, x), end), []).append((x, layers))
    strata: dict[tuple, list] = {}
    for _, members in sorted(groups.items()):
        for (x, l1), (_, l2) in itertools.combinations(members, 2):
            if l1 != l2:
                size = max(sum(n for _, n in _gens_count(l)) for l in (l1, l2))
                kind = "same" if _gens_count(l1) == _gens_count(l2) else "differ"
                strata.setdefault((kind, size), []).append((x, l1, l2))
    picked = []
    for (kind, _size), pool in sorted(strata.items()):
        picked += _spread_pick(pool, 4 if kind == "same" else 2)
    return net, picked


def _equality_pairs(rng: random.Random, theory: str, tag: str) -> list[dict]:
    qs = []
    for k, shape in enumerate(EQUALITY_SHAPES[theory]):
        canon, picked = _shape_pairs(theory, shape)
        places = _renaming(rng, canon["places"], "p")
        transitions = _renaming(rng, list(canon["transitions"]), "t")
        net = rename_net(canon, places, transitions)
        for i, (x, l1, l2) in enumerate(picked):
            x = rename_marking(theory, x, places)
            l1, l2 = ([_rename_layer(layer, places, transitions) for layer in l]
                      for l in (l1, l2))
            lhs, rhs = path_term(theory, x, l1, rng), path_term(theory, x, l2, rng)
            if rng.random() < 0.5:
                lhs, rhs = rhs, lhs
            qs.append({"name": f"equal.{tag}.{k}.{i}", "op": "mor_equal",
                       "net": net, "lhs": lhs, "rhs": rhs})
    return qs


def _abgrp_pairs(rng: random.Random, nets: int, per_net: int) -> list[dict]:
    """ABGRP pairs built from generators, inverses, parallel combines and
    borrowing sequential composites, paired within matching endpoints."""
    qs = []
    for k in range(nets):
        places = _names(rng, "p", 2)
        arcs = {}
        for name in _names(rng, "t", 2):
            arcs[name] = ({rng.choice(places): rng.choice([1, 2])},
                          {rng.choice(places): rng.choice([1, 2])})
        net = net_spec("ABGRP", places, arcs)
        ends = {n: (s, t) for n, (s, t) in arcs.items()}
        pieces = []
        for n in sorted(arcs):
            s, t = ends[n]
            pieces.append((["gen", n], s, t))
            pieces.append((["invert", ["gen", n]], m_scale(s, -1), m_scale(t, -1)))
        terms = list(pieces)
        for (a, sa, ta), (b, sb, tb) in itertools.combinations(pieces, 2):
            terms.append((["combine", [a, b]], m_plus("ABGRP", sa, sb), m_plus("ABGRP", ta, tb)))
            terms.append((["combine", [b, a]], m_plus("ABGRP", sb, sa), m_plus("ABGRP", tb, ta)))
        for a, sa, ta in pieces:
            for b, sb, tb in pieces:
                frame = m_plus("ABGRP", ta, m_scale(sb, -1))
                step = ["combine", [b, ["id", frame]]]
                terms.append((["comp", step, a], sa, m_plus("ABGRP", tb, frame)))
        groups: dict[tuple, list] = {}
        for term, s, t in terms:
            groups.setdefault((m_key("ABGRP", s), m_key("ABGRP", t)), []).append(term)
        pairs = [(a, b) for members in groups.values()
                 for a, b in itertools.combinations(members, 2)]
        for i, (lhs, rhs) in enumerate(rng.sample(pairs, min(per_net, len(pairs)))):
            qs.append({"name": f"equal.abgrp.{k}.{i}", "op": "mor_equal",
                       "net": net, "lhs": lhs, "rhs": rhs})
    return qs


def _braid(x: list, y: list) -> list:
    n, m = len(x), len(y)
    return ["perm", x + y, [i + m for i in range(n)] + list(range(m))]


def _sym_specs(rng: random.Random, count: int) -> list[dict]:
    """Braid-axiom, unit, naturality and (distinct) swap-versus-identity
    instances on seeded word nets, in the shape of acceptance criterion 11."""
    qs = []
    for k in range(count):
        places = _names(rng, "p", 3)
        net = _rand_word_net(rng, places, 2, 2)
        arcs = arcs_of(net)
        kind = ("braid_inverse", "braid_unit", "naturality", "swap_vs_identity")[k % 4]
        x = [rng.choice(places) for _ in range(rng.randint(1, 2))]
        y = [rng.choice(places) for _ in range(rng.randint(1, 2))]
        if kind == "braid_inverse":
            lhs, rhs = ["comp", _braid(y, x), _braid(x, y)], ["id", x + y]
        elif kind == "braid_unit":
            lhs, rhs = _braid(x + y, []), ["id", x + y]
        elif kind == "naturality":
            name = rng.choice(sorted(arcs))
            src, tgt = arcs[name]
            lhs = ["comp", _braid(tgt, y), ["combine", [["gen", name], ["id", y]]]]
            rhs = ["comp", ["combine", [["id", y], ["gen", name]]], _braid(src, y)]
        else:
            while x + y == y + x:
                y = [rng.choice(places) for _ in range(rng.randint(1, 2))]
            lhs, rhs = _braid(x, y), ["id", x + y]
        qs.append({"name": f"equal.sym.{kind}.{k}", "op": "sym_equal", "axiom": kind,
                   "net": net, "lhs": lhs, "rhs": rhs})
    return qs


def equal_specs(rng: random.Random) -> list[dict]:
    qs = []
    qs += _equality_pairs(rng, "CMON", "cmon")
    qs += _equality_pairs(rng, "MON", "mon")
    qs += _equality_pairs(rng, "SEMILAT", "semilat")
    qs += _abgrp_pairs(rng, 3, 10)
    qs += _sym_specs(rng, 24)
    return qs


def _homset_catalog() -> list[dict]:
    """Hom-set shapes on two places, drawn once from a fixed stream: the
    paths per hom-set stay in a band so each costs about the same (the dedup
    is quadratic in paths, and SEMILAT comparisons search, so its band is
    narrower)."""
    rng = random.Random("qnets-bench:homset-catalog")
    makers = {
        "CMON": lambda places: _rand_cmon_conservative(rng, places, 2, 1),
        "MON": lambda places: _rand_word_net(rng, places, 2, 1),
        "SEMILAT": lambda places: _rand_set_net(rng, places, 2, 1),
    }
    out = []
    for k in range(48):
        theory = ("CMON", "MON", "SEMILAT")[k % 3]
        low, high = (4, 16) if theory == "SEMILAT" else (8, 40)
        while True:
            places = ["a", "b"]
            net = makers[theory](places)
            if theory == "CMON":
                x = {"a": 1, "b": 1} if rng.random() < 0.5 else {"a": 2}
            elif theory == "MON":
                x = [rng.choice(places) for _ in range(2)]
            else:
                x = [rng.choice(places)]
            layers, width = rng.choice([(3, 1), (3, 2), (4, 1)])
            ends: dict[tuple, list] = {}
            for path in layered_paths(net, x, layers, width):
                end = path_target(net, x, path)
                ends.setdefault(m_key(theory, end), [end, 0])[1] += 1
            fitting = [key for key, (_, n) in sorted(ends.items()) if low <= n <= high]
            if fitting:
                out.append({"net": net, "from": x, "to": ends[rng.choice(fitting)][0],
                            "layers": layers, "width": width})
                break
    return out


def homset_specs(rng: random.Random) -> list[dict]:
    """Hom-set enumerations: the one-place two-loop probe at seven layers plus
    renamed catalog shapes over CMON, MON and SEMILAT at layer bounds 3 to 4,
    width 1 to 2, in seeded order."""
    loop = net_spec("CMON", ["a"], {"t": ({"a": 1}, {"a": 1}), "u": ({"a": 1}, {"a": 1})})
    qs = [{"name": "homset.loop7", "op": "homset", "net": loop,
           "from": {"a": 1}, "to": {"a": 1}, "layers": 7, "width": 1}]
    seeded = []
    for k, shape in enumerate(_homset_catalog()):
        net = shape["net"]
        theory = net["theory"]
        places = _renaming(rng, net["places"], "p")
        transitions = _renaming(rng, list(net["transitions"]), "t")
        seeded.append({"name": f"homset.{theory.lower()}.{k}", "op": "homset",
                       "net": rename_net(net, places, transitions),
                       "from": rename_marking(theory, shape["from"], places),
                       "to": rename_marking(theory, shape["to"], places),
                       "layers": shape["layers"], "width": shape["width"]})
    rng.shuffle(seeded)
    return qs + seeded


def _lattice_net(rng: random.Random) -> dict:
    """ABGRP net whose transition effects all have an even coordinate sum, so
    the reachable differences form a sublattice of index at least two."""
    places = _names(rng, "p", 3)
    arcs = {}
    for name in _names(rng, "t", 2):
        src = {rng.choice(places): rng.choice([1, 2])}
        tgt = {rng.choice(places): rng.choice([1, 2])}
        shift = sum(tgt.values()) - sum(src.values())
        if shift % 2:
            p = rng.choice(places)
            tgt[p] = tgt.get(p, 0) + 1
        arcs[name] = (src, {p: c for p, c in tgt.items() if c})
    return net_spec("ABGRP", places, arcs)


def cli_specs(rng: random.Random, seed: int) -> dict:
    """Subprocess invocations over net files written during set-up. The nets
    and markings are drawn once from a fixed stream and renamed per seed."""
    fixed = random.Random("qnets-bench:cli-catalog")
    nets = {"cmon_a.json": _rand_cmon_conservative(fixed, _names(fixed, "p", 3), 2, 2),
            "cmon_b.json": _rand_cmon_conservative(fixed, _names(fixed, "q", 2), 2, 1),
            "mon.json": _rand_word_net(fixed, _names(fixed, "p", 3), 2, 2),
            "sem.json": _rand_set_net(fixed, _names(fixed, "p", 5), 3, 2),
            "znet.json": _lattice_net(fixed)}
    start_a = {}
    for _ in range(3):
        p = fixed.choice(nets["cmon_a.json"]["places"])
        start_a[p] = start_a.get(p, 0) + 1
    word0 = [fixed.choice(nets["mon.json"]["places"]) for _ in range(5)]
    set0 = sorted(fixed.sample(nets["sem.json"]["places"], 2))
    znet = nets["znet.json"]
    zx = {fixed.choice(znet["places"]): 1}
    zy = dict(zx)
    for s, t in arcs_of(znet).values():
        effect = m_plus("ABGRP", t, m_scale(s, -1))
        zy = m_plus("ABGRP", zy, m_scale(effect, fixed.choice([-2, -1, 1, 2])))
    z_off = m_plus("ABGRP", zy, {znet["places"][0]: 1})

    renames = {}
    for name, net in nets.items():
        renames[name] = _renaming(rng, net["places"], "q" if name == "cmon_b.json" else "p")
        nets[name] = rename_net(net, renames[name], _renaming(rng, list(net["transitions"]), "t"))
    start_a = rename_marking("CMON", start_a, renames["cmon_a.json"])
    word0 = rename_marking("MON", word0, renames["mon.json"])
    set0 = rename_marking("SEMILAT", set0, renames["sem.json"])
    zx, zy, z_off = (rename_marking("ABGRP", m, renames["znet.json"]) for m in (zx, zy, z_off))
    loop = net_spec("CMON", ["a"], {"t": ({"a": 1}, {"a": 1}), "u": ({"a": 1}, {"a": 1})})
    files = {**nets, "loop.json": loop}

    def j(x) -> str:
        return json.dumps(x, sort_keys=True, separators=(",", ":"))

    def cmd(name, argv, **facts) -> dict:
        return {"name": f"cli.{name}", "op": "cli", "argv": argv, **facts}

    qs = [
        cmd("validate.cmon", ["validate", "cmon_a.json"], net="cmon_a.json"),
        cmd("validate.mon", ["validate", "mon.json"], net="mon.json"),
        cmd("validate.semilat", ["validate", "sem.json"], net="sem.json"),
        cmd("translate.a", ["translate", "--via", "a", "cmon_a.json"], net="cmon_a.json", via="a"),
        cmd("translate.b", ["translate", "--via", "b", "cmon_a.json"], net="cmon_a.json", via="b"),
        cmd("translate.c", ["translate", "--via", "c", "mon.json"], net="mon.json", via="c"),
        cmd("translate.d", ["translate", "--via", "d", "mon.json"], net="mon.json", via="d"),
        cmd("reach.cmon", ["reach", "cmon_a.json", "--marking", j(start_a), "--steps", "4"],
            net="cmon_a.json", marking=start_a, steps=4),
        cmd("reach.mon", ["reach", "mon.json", "--marking", j(word0), "--steps", "5"],
            net="mon.json", marking=word0, steps=5),
        cmd("reach.semilat", ["reach", "sem.json", "--marking", j(set0), "--steps", "4"],
            net="sem.json", marking=set0, steps=4),
        cmd("reach.dot", ["reach", "cmon_a.json", "--marking", j(start_a), "--steps", "3",
                          "--dot"], net="cmon_a.json", marking=start_a, steps=3),
        cmd("homset.loop", ["homset", "loop.json", "--from", '{"a":1}', "--to", '{"a":1}',
                            "--layers", "4", "--width", "1"],
            net="loop.json", x={"a": 1}, y={"a": 1}, layers=4, width=1),
        cmd("homgroup.in", ["homgroup", "znet.json", "--from", j(zx), "--to", j(zy)],
            nonempty=True),
        cmd("homgroup.out", ["homgroup", "znet.json", "--from", j(zx), "--to", j(z_off)],
            nonempty=False),
        cmd("lin", ["lin", "cmon_a.json"], net="cmon_a.json"),
        cmd("linsum", ["linsum", "cmon_a.json"], net="cmon_a.json"),
        cmd("product", ["product", "cmon_a.json", "cmon_b.json"],
            net="cmon_a.json", other="cmon_b.json"),
        cmd("coproduct", ["coproduct", "cmon_a.json", "cmon_b.json"],
            net="cmon_a.json", other="cmon_b.json"),
    ]
    qs += [cmd(f"check.{s}", ["check", "--suite", s, "--seed", str(seed)], suite=s)
           for s in SUITES]
    return {"queries": qs, "files": files}


def make_specs(workload: str, seed: int) -> dict:
    """``{"queries": [...], "files": {name: net}}`` for one workload and seed."""
    rng = random.Random(f"qnets-bench:{workload}:{seed}")
    if workload == "cli":
        return cli_specs(rng, seed)
    makers = {"reach": reach_specs, "equal": equal_specs, "homset": homset_specs}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    return {"queries": makers[workload](rng), "files": {}}


def dump_specs(specs: dict) -> bytes:
    return json.dumps(specs, sort_keys=True, separators=(",", ":")).encode()
