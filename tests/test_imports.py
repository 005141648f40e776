"""What ``import qnets`` and each ``qnet`` subcommand load.

Each check runs in a fresh interpreter, so the modules it reports are the
ones that import pulled in, not ones an earlier test left in ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from qnets import jsonio

from netzoo import integer_net, petri

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The package's public names by the module that defines them, pinned so that
# loading modules on demand cannot change what ``qnets`` exports.
HOMES = {
    "theory": ("FreeElem", "QnetError", "Theory", "TheoryArrow", "combine", "extend",
               "finset", "invert", "lift", "multiset", "neutral", "signed_word",
               "translate", "unit", "word"),
    "net": ("NetMorphism", "QNet", "apply_net_functor", "compose", "coproduct",
            "enumerate_morphisms", "identity_morphism", "product", "validate_morphism",
            "validate_net"),
    "reflexive": ("GraphMorphism", "QGraph", "ReflexiveMorphism", "ReflexiveQNet",
                  "add_identities", "extend_morphism", "forget_identities", "free_edges",
                  "graph_to_net_transpose", "net_to_graph_transpose", "restrict_morphism",
                  "underlying_reflexive"),
    "freecat": ("Comp", "EqVerdict", "Gen", "Ident", "LayeredForm", "MorTerm", "Oper",
                "hom_enumerate", "hom_nonempty_group", "layered", "layered_to_term",
                "mor_equal", "mor_src", "mor_tgt", "reachable", "reachability_dot",
                "underlying_net"),
    "symmetry": ("Perm", "SymTerm", "braiding", "erase_symmetries", "linearization_sum",
                 "linearizations", "sym_equal", "translate_term"),
}
SUBMODULES = ("freecat", "intlattice", "jsonio", "net", "reflexive", "symmetry", "theory")
PUBLIC = sorted([name for names in HOMES.values() for name in names] + list(SUBMODULES))

CORE = {"qnets", "qnets.theory", "qnets.net", "qnets.jsonio", "qnets.intlattice",
        "qnets.freecat"}
CLI = CORE | {"qnets.cli"}
EVERYTHING = CLI | {"qnets.reflexive", "qnets.symmetry", "qnets.suites"}


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter and decode the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = 'sorted(m for m in sys.modules if m == "qnets" or m.startswith("qnets."))'


def test_import_loads_the_core_only():
    assert set(_fresh(f"import sys, json, qnets; print(json.dumps({_LOADED}))")) == CORE


def test_public_names_are_their_home_module_objects():
    code = f"""
import importlib, json, sys
import qnets
homes = json.loads(sys.argv[1])
lookups = {{}}
for module, names in homes.items():
    home = importlib.import_module("qnets." + module)
    for name in names:
        lookups[name] = getattr(qnets, name) is getattr(home, name)
for name in json.loads(sys.argv[2]):
    lookups[name] = getattr(qnets, name) is sys.modules["qnets." + name]
# A lookup binds nothing in the package: only submodules appear there.
stored = sorted(n for names in homes.values() for n in names if n in vars(qnets))
print(json.dumps([qnets.__all__, lookups, stored]))
"""
    all_, lookups, stored = _fresh(code, json.dumps(HOMES), json.dumps(SUBMODULES))
    assert len(PUBLIC) == 69 and all_ == PUBLIC
    assert lookups == {name: True for name in PUBLIC}
    eager = sorted(HOMES["theory"] + HOMES["net"] + HOMES["freecat"])
    assert stored == eager


def test_star_import_and_dir():
    code = f"""
import json, sys
import qnets
scope = {{}}
exec("from qnets import *", scope)
print(json.dumps([sorted(k for k in scope if k != "__builtins__"), dir(qnets), {_LOADED}]))
"""
    star, listing, loaded = _fresh(code)
    assert star == PUBLIC
    assert set(PUBLIC) <= set(listing) and listing == sorted(listing)
    assert set(loaded) == CORE | {"qnets.reflexive", "qnets.symmetry"}


def test_unknown_name_is_an_attribute_error():
    code = """
import json, qnets
try:
    qnets.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert _fresh(code) == "module 'qnets' has no attribute 'no_such_name'"


@pytest.fixture(scope="module")
def net_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("import_nets")
    nets = {"cmon": petri("ab", {"t": ({"a": 1}, {"b": 1})}),
            "abgrp": integer_net("a", {"t": ({"a": 2}, {})})}
    paths = {}
    for name, net in nets.items():
        paths[name] = str(directory / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(jsonio.net_to_json(net)))
    return paths


# argv with net-file names to substitute, exit code, modules loaded
COMMANDS = [
    pytest.param(["validate", "cmon"], 0, CLI, id="validate"),
    pytest.param(["translate", "--via", "a", "cmon"], 0, CLI, id="translate"),
    pytest.param(["reach", "cmon", "--marking", '{"a":1}', "--steps", "2"], 0, CLI,
                 id="reach"),
    pytest.param(["reach", "cmon", "--marking", '{"a":1}', "--steps", "2", "--dot"], 0, CLI,
                 id="reach_dot"),
    pytest.param(["homset", "cmon", "--from", '{"a":1}', "--to", '{"b":1}', "--layers", "2",
                  "--width", "1"], 0, CLI, id="homset"),
    pytest.param(["homgroup", "abgrp", "--from", '{"a":1}', "--to", "{}"], 0, CLI,
                 id="homgroup"),
    pytest.param(["product", "cmon", "cmon"], 0, CLI, id="product"),
    pytest.param(["coproduct", "cmon", "cmon"], 0, CLI, id="coproduct"),
    pytest.param(["--help"], 0, CLI, id="help"),
    pytest.param(["check", "--suite", "bogus"], 2, CLI, id="bad_suite"),
    pytest.param(["lin", "cmon"], 0, CLI | {"qnets.symmetry"}, id="lin"),
    pytest.param(["linsum", "cmon"], 0, CLI | {"qnets.symmetry"}, id="linsum"),
    pytest.param(["check", "--suite", "freecat", "--cases", "1"], 0, EVERYTHING, id="check"),
]


@pytest.mark.parametrize("argv,code,modules", COMMANDS)
def test_each_subcommand_loads_what_it_uses(argv, code, modules, net_files):
    script = f"""
import contextlib, io, json, sys
from qnets import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]), stdout=io.StringIO(), stderr=io.StringIO())
print(json.dumps([code, {_LOADED}]))
"""
    argv = [net_files.get(arg, arg) for arg in argv]
    got_code, loaded = _fresh(script, json.dumps(argv))
    assert got_code == code
    assert set(loaded) == modules
