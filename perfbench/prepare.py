"""Set-up: import ``qnets``, build library inputs from plain specs, validate
them, and bind each query to the library call it makes.

A prepared query's ``call`` runs the library (or, for ``cli``, the ``qnet``
subprocess) and returns its raw result; ``answer`` turns that result into the
plain value the referee checks, outside the timed region.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass
class Query:
    spec: dict
    call: Callable[[], Any]
    answer: Callable[[Any], Any]
    decided: Callable[[Any], bool] = lambda raw: True


@dataclass
class Prepared:
    workload: str
    queries: list[Query]
    workdir: str | None = None


def fresh_import():
    """Import ``qnets`` from ``src`` anew, dropping any earlier import."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in list(sys.modules):
        if name == "qnets" or name.startswith("qnets."):
            del sys.modules[name]
    importlib.invalidate_caches()
    q = importlib.import_module("qnets")
    if not os.path.abspath(q.__file__).startswith(os.path.join(SRC, "qnets")):
        raise ImportError(f"qnets was imported from {q.__file__}, not from {SRC}")
    return q


def _elem(q, theory, data):
    th = q.Theory(theory)
    if theory in ("CMON", "ABGRP"):
        return q.multiset(th, data)
    if theory == "MON":
        return q.word(data)
    return q.finset(data)


def build_net(q, spec: dict):
    theory = spec["theory"]
    return q.QNet(q.Theory(theory), tuple(spec["places"]),
                  {n: (_elem(q, theory, a["src"]), _elem(q, theory, a["tgt"]))
                   for n, a in spec["transitions"].items()})


def build_term(q, theory: str, t):
    tag = t[0]
    if tag == "gen":
        return q.Gen(t[1])
    if tag == "id":
        return q.Ident(_elem(q, theory, t[1]))
    if tag == "comp":
        return q.Comp(build_term(q, theory, t[1]), build_term(q, theory, t[2]))
    if tag == "combine":
        return q.Oper("combine", tuple(build_term(q, theory, a) for a in t[1]))
    if tag == "invert":
        return q.Oper("invert", (build_term(q, theory, t[1]),))
    if tag == "perm":
        return q.Perm(_elem(q, theory, t[1]), tuple(t[2]))
    raise ValueError(f"unknown term tag {tag!r}")


def plain(elem) -> tuple:
    """Canonical plain key of a library marking (matches ``specs.m_key``)."""
    return tuple(elem.payload)


def _status(verdict) -> str:
    return verdict.status


def prepare(q, workload: str, specs: dict, workdir: str | None = None) -> Prepared:
    """Build and validate every input; for ``cli`` also write the net files."""
    nets: dict[str, Any] = {}

    def net_of(spec: dict):
        key = json.dumps(spec, sort_keys=True)
        if key not in nets:
            net = build_net(q, spec)
            diags = q.validate_net(net)
            if diags:
                raise ValueError(f"generated an invalid net: {diags}")
            nets[key] = net
        return nets[key]

    queries = []
    if workload == "cli":
        os.makedirs(workdir, exist_ok=True)
        for name, spec in specs["files"].items():
            net_of(spec)
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(spec, fh, sort_keys=True)
    for spec in specs["queries"]:
        op = spec["op"]
        if op == "reach":
            net = net_of(spec["net"])
            m0 = _elem(q, spec["net"]["theory"], spec["marking"])
            queries.append(Query(
                spec, lambda net=net, m0=m0, s=spec["steps"]: q.reachable(net, m0, s),
                lambda r: (frozenset(plain(m) for m in r.markings), len(r.edges))))
        elif op in ("mor_equal", "sym_equal"):
            theory = spec["net"]["theory"]
            net = net_of(spec["net"])
            lhs = build_term(q, theory, spec["lhs"])
            rhs = build_term(q, theory, spec["rhs"])
            queries.append(Query(
                spec, lambda op=op, a=lhs, b=rhs, net=net: getattr(q, op)(a, b, net),
                _status, lambda v: not v.is_unknown))
        elif op == "homset":
            theory = spec["net"]["theory"]
            net = net_of(spec["net"])
            x = _elem(q, theory, spec["from"])
            y = _elem(q, theory, spec["to"])
            queries.append(Query(
                spec, lambda net=net, x=x, y=y, s=spec: q.hom_enumerate(
                    net, x, y, s["layers"], s["width"]),
                len))
        elif op == "cli":
            queries.append(Query(
                spec, lambda argv=spec["argv"]: _subprocess(argv, workdir),
                lambda r: r))
        else:
            raise ValueError(f"unknown op {op!r}")
    return Prepared(workload, queries, workdir)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _subprocess(argv: list[str], workdir: str) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "qnets", *argv], cwd=workdir,
                          env=child_env(), capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def cli_in_process(argv: list[str], workdir: str) -> tuple[int, bytes]:
    """Run ``qnet`` in this process, as the subprocess would, for tracing."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = importlib.import_module("qnets.cli").run(argv, stdout=out, stderr=err)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode()
