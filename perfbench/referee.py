"""Expected answers from code that is independent of the library's algorithms.

- ``reach``: a plain-data token-game BFS for CMON, MON and SEMILAT, with the
  CMON marking set cross-checked against ``tests/oracle_tokengame.py``.
- ``mor_equal``: the exhaustive rewrite closure of ``tests/oracle_rewrite.py``
  (CMON, MON, SEMILAT, ABGRP). GRP has no independent referee, so no GRP
  pair is generated.
- ``sym_equal``: each instance is an axiom of the braiding (inverse, unit,
  naturality), hence equal, or a swap whose endpoints differ, hence distinct.
- ``homset``: class counts from the oracle's closures over independently
  enumerated layered paths.
- ``cli``: each command's output checked against the same referees or
  against closed-form counts.

The oracle modules are imported read-only from the repository's ``tests``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import prepare
import specs as S

TESTS = os.path.join(prepare.ROOT, "tests")


def _oracles():
    if TESTS not in sys.path:
        sys.path.insert(0, TESTS)
    loaded = sys.modules.get("oracle_rewrite")
    if loaded is not None and loaded.Gen is not sys.modules["qnets.freecat"].Gen:
        del sys.modules["oracle_rewrite"]  # rebind to the current ``qnets`` import
    import oracle_rewrite
    import oracle_tokengame

    return oracle_rewrite, oracle_tokengame


# --- token game ---------------------------------------------------------------

def reach(net: dict, m0, steps: int) -> tuple[frozenset, int]:
    """(reachable marking keys, edge count) of the breadth-first token game:
    CMON fires any fundable multiset of transitions, MON and SEMILAT one."""
    theory = net["theory"]
    width = None if theory == "CMON" else 1
    seen = {S.m_key(theory, m0)}
    frontier = [m0]
    edges = 0
    for _ in range(steps):
        nxt = []
        for m in frontier:
            for _layer, m2 in S.step_layers(net, m, width):
                edges += 1
                key = S.m_key(theory, m2)
                if key not in seen:
                    seen.add(key)
                    nxt.append(m2)
        if not nxt:
            break
        frontier = nxt
    if theory == "CMON":
        _, tokengame = _oracles()
        arcs = {n: (dict(s), dict(t)) for n, (s, t) in S.arcs_of(net).items()}
        theirs = {tuple(sorted(m)) for m in tokengame.cmon_reachable(arcs, m0, steps)}
        if theirs != seen:
            raise AssertionError("referee BFS disagrees with oracle_tokengame")
    return frozenset(seen), edges


# --- hom-set classes ------------------------------------------------------------

def homset_classes(q, net_spec: dict, x, y, layers: int, width: int) -> int:
    """Number of process classes among the layered paths from x to y."""
    rewrite, _ = _oracles()
    theory = net_spec["theory"]
    onet = rewrite.OracleNet(prepare.build_net(q, net_spec))

    def oracle_layer(layer):
        if theory == "CMON":
            out = {}
            for sym in layer:
                out[sym] = out.get(sym, 0) + 1
            return out
        return tuple(layer) if theory == "MON" else frozenset(layer)

    def payload(layer):
        # The library's layer payload, to visit forms in its documented
        # (layer count, serialized form) order.
        names = [n if kind == "t" else "id." + n for kind, n in layer]
        if theory == "CMON":
            return tuple(sorted((n, names.count(n)) for n in set(names)))
        return tuple(names) if theory == "MON" else tuple(sorted(names))

    paths = S.layered_paths(net_spec, x, layers, width, y=y)
    paths.sort(key=lambda path: (len(path), tuple(payload(layer) for layer in path)))
    forms = []
    for path in paths:
        raw = [oracle_layer(layer) for layer in path]
        key = rewrite._normal(onet, raw)
        forms.append((raw, key, rewrite._form_total(onet, key)))
    closures: dict[tuple, set] = {}

    def closure(raw, key, cap):
        if (key, cap) not in closures:
            closures[(key, cap)] = rewrite.closure(onet, raw, cap)
        return closures[(key, cap)]

    if theory != "SEMILAT":
        # Merges and splits preserve generator counts and are mutual
        # converses here, so a form's closure at its own cap is its class.
        covered: set = set()
        classes = 0
        for raw, key, total in forms:
            if key not in covered:
                classes += 1
                covered |= closure(raw, key, total)
        return classes
    reps: list = []
    for raw, key, total in forms:
        for rraw, rkey, rtotal in reps:
            cap = max(total, rtotal)
            if not closure(raw, key, cap).isdisjoint(closure(rraw, rkey, cap)):
                break
        else:
            reps.append((raw, key, total))
    return len(reps)


# --- closed forms for the CLI ----------------------------------------------------

def _translate(via: str, theory: str, m):
    if via == "a":
        return sorted(m)
    if via == "b":
        return dict(m)
    if via == "c":
        out = {}
        for p in m:
            out[p] = out.get(p, 0) + 1
        return out
    return [[p, "+"] for p in m]


_TARGET = {"a": "SEMILAT", "b": "ABGRP", "c": "CMON", "d": "GRP"}


def _orderings(m: dict) -> int:
    ways = math.factorial(sum(m.values()))
    for c in m.values():
        ways //= math.factorial(c)
    return ways


def _tables(rows: list[int], cols: list[int]) -> int:
    """Nonnegative integer matrices with the given row and column sums."""
    if sum(rows) != sum(cols):
        return 0
    if not rows:
        return 1
    first, rest = rows[0], rows[1:]
    total = 0
    for split in itertools.product(*(range(c + 1) for c in cols)):
        if sum(split) == first:
            total += _tables(rest, [c - s for c, s in zip(cols, split)])
    return total


def _linearizations(net: dict) -> int:
    total = 1
    for src, tgt in S.arcs_of(net).values():
        total *= _orderings(src) * _orderings(tgt)
    return total


def _product_transitions(a: dict, b: dict) -> int:
    total = 0
    for s1, t1 in S.arcs_of(a).values():
        for s2, t2 in S.arcs_of(b).values():
            total += (_tables(list(s1.values()), list(s2.values()))
                      * _tables(list(t1.values()), list(t2.values())))
    return total


def cli_expect(q, spec: dict, files: dict) -> dict:
    """What a ``qnet`` invocation must print, as facts checked on its stdout."""
    command = spec["argv"][0]
    net = files.get(spec.get("net"))
    if command == "validate":
        return {"json": {"diagnostics": [], "valid": True}}
    if command == "translate":
        via = spec["via"]
        return {"json": {"theory": _TARGET[via], "places": net["places"], "transitions": {
            n: {"src": _translate(via, net["theory"], s), "tgt": _translate(via, net["theory"], t)}
            for n, (s, t) in S.arcs_of(net).items()}}}
    if command == "reach":
        markings, edges = reach(net, spec["marking"], spec["steps"])
        return {"markings": markings, "edges": edges, "theory": net["theory"],
                "dot": "--dot" in spec["argv"]}
    if command == "homset":
        return {"classes": homset_classes(q, net, spec["x"], spec["y"], spec["layers"],
                                          spec["width"])}
    if command == "homgroup":
        return {"json": {"nonempty": spec["nonempty"]}}
    if command == "lin":
        return {"lin": _linearizations(net)}
    if command == "linsum":
        return {"linsum": _linearizations(net) * len(net["transitions"])}
    if command in ("product", "coproduct"):
        other = files[spec["other"]]
        places = len(net["places"]) * len(other["places"]) if command == "product" \
            else len(net["places"]) + len(other["places"])
        transitions = _product_transitions(net, other) if command == "product" \
            else len(net["transitions"]) + len(other["transitions"])
        return {"places": places, "transitions": transitions}
    if command == "check":
        return {"check": True}
    raise ValueError(f"no referee for {command!r}")


def cli_ok(spec: dict, expect: dict, answer: tuple[int, bytes]) -> bool:
    code, stdout = answer
    if code != 0:
        return False
    text = stdout.decode()
    if expect.get("dot"):
        nodes = sum(1 for line in text.splitlines() if "[shape=" in line)
        arrows = sum(1 for line in text.splitlines() if " -> " in line)
        return nodes == len(expect["markings"]) and arrows == expect["edges"]
    data = json.loads(text)
    if "json" in expect:
        return data == expect["json"]
    if "markings" in expect:
        keys = {S.m_key(expect["theory"], m) for m in data["markings"]}
        return keys == expect["markings"] and len(data["edges"]) == expect["edges"]
    if "classes" in expect:
        return len(data["representatives"]) == expect["classes"]
    if "lin" in expect:
        return len(data["linearizations"]) == expect["lin"]
    if "linsum" in expect:
        return len(data["transitions"]) == expect["linsum"]
    if "places" in expect:
        return (len(data["net"]["places"]) == expect["places"]
                and len(data["net"]["transitions"]) == expect["transitions"])
    return data["ok"] is True and all(s["ok"] for s in data["suites"])


# --- per-query expectations ---------------------------------------------------------

def expect(q, spec: dict, files: dict):
    op = spec["op"]
    if op == "reach":
        return reach(spec["net"], spec["marking"], spec["steps"])
    if op == "mor_equal":
        rewrite, _ = _oracles()
        theory = spec["net"]["theory"]
        equal = rewrite.oracle_equal(prepare.build_term(q, theory, spec["lhs"]),
                                     prepare.build_term(q, theory, spec["rhs"]),
                                     prepare.build_net(q, spec["net"]))
        return "equal" if equal else "distinct"
    if op == "sym_equal":
        if spec["axiom"] == "swap_vs_identity":
            # x.y -> y.x against the identity on x.y: the targets differ.
            return "distinct"
        return "equal"
    if op == "homset":
        return homset_classes(q, spec["net"], spec["from"], spec["to"], spec["layers"],
                              spec["width"])
    if op == "cli":
        return cli_expect(q, spec, files)
    raise ValueError(f"no referee for {op!r}")


def matches(spec: dict, expected, answer) -> bool:
    """Whether a query's answer agrees with the referee. An ``unknown``
    equality verdict is undecided, not wrong; ``decided_frac`` reports it."""
    op = spec["op"]
    if op in ("mor_equal", "sym_equal"):
        return answer == expected or answer == "unknown"
    if op == "cli":
        return cli_ok(spec, expected, answer)
    return answer == expected
