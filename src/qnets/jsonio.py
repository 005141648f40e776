"""JSON wire formats for elements, nets, morphisms, graphs, and process terms.

Encodings are strict: parsing accepts only canonical payloads, so every value
emitted by the library re-parses to an identical value.
"""

from __future__ import annotations

import json
from typing import Any

from .theory import CanonicalFormError, FreeElem, QnetError, Theory


def dumps(obj: Any) -> str:
    """Deterministic single-line JSON used by the CLI; output the encoder
    cannot write is a :class:`QnetError`."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:
        # An integer past the interpreter's digit limit for int-to-str
        # conversion (4,300 by default): counts grow by firing.
        raise QnetError(f"output cannot be written as JSON: {exc}") from exc
    except RecursionError as exc:
        # The encoder spends a recursion level per container, against the
        # interpreter's limit up to 3.11 and its own C limit from 3.12, so a
        # deep term runs out of stack. The CLI states one limit of its own.
        raise QnetError("output is nested too deeply to write as JSON") from exc


def elem_to_json(x: FreeElem) -> Any:
    return x.theory.ops.to_json(x.payload)


def elem_from_json(theory: Theory, data: Any) -> FreeElem:
    try:
        return FreeElem(theory, theory.ops.from_json(theory, data))
    except TypeError as exc:
        raise CanonicalFormError(str(exc)) from exc


def net_to_json(net) -> dict:
    return {
        "theory": net.theory.value,
        "places": list(net.places),
        "transitions": {
            name: {"src": elem_to_json(src), "tgt": elem_to_json(tgt)}
            for name, (src, tgt) in net.transitions.items()
        },
    }


def net_from_json(data: Any):
    from .net import QNet

    if not isinstance(data, dict):
        raise QnetError("net JSON must be an object")
    tags = [th.value for th in Theory]
    if data.get("theory") not in tags:
        raise QnetError(f"bad or missing theory tag: expected one of {', '.join(tags)}")
    theory = Theory(data["theory"])
    places = data.get("places", [])
    if not isinstance(places, list) or not all(isinstance(p, str) for p in places):
        raise QnetError("net \"places\" must be an array of strings")
    raw_transitions = data.get("transitions", {})
    if not isinstance(raw_transitions, dict):
        raise QnetError("net \"transitions\" must be an object")
    transitions = {}
    for name, arcs in raw_transitions.items():
        if not isinstance(arcs, dict) or not {"src", "tgt"} <= arcs.keys():
            raise QnetError(f"transition {name!r} must be an object with \"src\" and \"tgt\"")
        transitions[name] = (
            elem_from_json(theory, arcs["src"]),
            elem_from_json(theory, arcs["tgt"]),
        )
    return QNet(theory=theory, places=tuple(places), transitions=transitions)


def morphism_to_json(h) -> dict:
    return {"f": dict(h.f), "g": dict(h.g)}


def reflexive_to_json(r) -> dict:
    data = net_to_json(r.net)
    data["e"] = dict(r.e)
    return data


def reflexive_from_json(data: Any):
    from .reflexive import ReflexiveQNet

    net = net_from_json(data)
    e = data.get("e", {})
    if not isinstance(e, dict) or not all(isinstance(t, str) for t in e.values()):
        raise QnetError("reflexive net \"e\" must be an object of transition names")
    return ReflexiveQNet(net=net, e=dict(e))


def qgraph_to_json(g) -> dict:
    return {
        "theory": g.theory.value,
        "generators": list(g.generators),
        "places": list(g.places),
        "src": {name: elem_to_json(x) for name, x in g.src.items()},
        "tgt": {name: elem_to_json(x) for name, x in g.tgt.items()},
        "ident": {place: elem_to_json(x) for place, x in g.ident.items()},
    }


def term_to_json(t) -> Any:
    from . import freecat

    def leaf(t) -> Any:
        if isinstance(t, freecat.Gen):
            return {"gen": t.name}
        if isinstance(t, freecat.Ident):
            return {"id": elem_to_json(t.obj)}
        if isinstance(t, freecat.Perm):
            return {"perm": {"word": elem_to_json(t.word), "map": list(t.mapping)}}
        raise QnetError(f"not a process term: {t!r}")

    return freecat.fold_term(t, leaf, lambda after, before: {"comp": [after, before]},
                             lambda t, args: {"op": t.op, "args": args})


_TERM_NODE = 'an object keyed by one of "gen", "id", "comp", "op" or "perm"'
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def _bad_term(expected: str, node: Any) -> QnetError:
    """``bad term JSON`` naming what was expected and the node's type, with at
    most four of an object's keys, each cut to 16 characters: the message is
    bounded however large or deep the node is."""
    got = _JSON_TYPES.get(type(node), type(node).__name__)
    if isinstance(node, dict):
        keys = [repr(k[:16] + "..." if len(k) > 16 else k) if isinstance(k, str)
                else type(k).__name__ for k in list(node)[:4]]
        got += f" with keys [{', '.join(keys)}{', ...' if len(node) > 4 else ''}]"
    return QnetError(f"bad term JSON: expected {expected}, got {got}")


def term_from_json(theory: Theory, data: Any):
    """Decode a term through :func:`~qnets.freecat.fold_term`, so deep terms
    stay off the Python call stack: ``expand`` checks each node before its
    children, as written, and returns a leaf, or a ``Comp`` or ``Oper`` whose
    children are still JSON."""
    from . import freecat

    def expand(data: Any):
        if not isinstance(data, dict) or len(data) not in (1, 2):
            raise _bad_term(_TERM_NODE, data)
        if "gen" in data:
            if not isinstance(data["gen"], str):
                raise _bad_term('a string "gen"', data)
            return freecat.Gen(data["gen"])
        if "id" in data:
            return freecat.Ident(elem_from_json(theory, data["id"]))
        if "comp" in data:
            if not isinstance(data["comp"], list) or len(data["comp"]) != 2:
                raise _bad_term('a "comp" array of two terms', data)
            return freecat.Comp(*data["comp"])
        if "op" in data:
            if not isinstance(data["op"], str) or not isinstance(data.get("args"), list):
                raise _bad_term('a string "op" and an "args" array', data)
            return freecat.Oper(data["op"], tuple(data["args"]))
        if "perm" in data:
            perm = data["perm"]
            if (not isinstance(perm, dict) or not {"word", "map"} <= perm.keys()
                    or not isinstance(perm["map"], list)
                    or not all(type(i) is int for i in perm["map"])):
                raise _bad_term('a "perm" object with a "word" and an integer "map" array',
                                data)
            return freecat.Perm(elem_from_json(theory, perm["word"]), tuple(perm["map"]))
        raise _bad_term(_TERM_NODE, data)

    return freecat.fold_term(data, lambda t: t, freecat.Comp, freecat._rebuild_oper,
                             expand=expand)
