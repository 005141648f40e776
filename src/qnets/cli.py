"""Command-line surface.

One JSON object per output stream; errors print one ``{"error": ...}`` line
on stderr and exit 1 for domain errors, 2 for usage errors. Marking arguments
are inline JSON, or ``@path`` to read a file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import freecat, jsonio
from .net import QNet, apply_net_functor, coproduct, product, validate_net
from .theory import QnetError, Theory, TheoryArrow

# The names of ``suites.SUITES``, sorted. Spelled out so that building the
# parser does not import the suites; a test keeps the two in step.
SUITE_NAMES = ("adjA", "adjB", "freecat", "monad", "netfunctor", "symmetry")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QnetError(f"cannot read {path}: {exc}") from exc


# The nesting rule, the same on every interpreter and entry point: JSON read
# or written may nest at most h - 5 arrays and objects deep, h being the
# recursion levels left to the caller. That is Python 3.11's encoder limit
# (one level per container, the Python frames above the C code, and one).
# Its decoder allows one level more, but not under ``python -m`` on 3.10 and
# 3.11, where runpy's call into C takes it; 3.12 on allow more still.
_JSON_FRAMES = 5


def _headroom() -> int:
    """The recursion levels left to the caller: the interpreter's limit less
    the frames on the stack, the caller's included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return sys.getrecursionlimit() - depth


def _nesting(data) -> int:
    """How deeply arrays and objects nest in ``data``, walked one level at a
    time, off the call stack."""
    depth, level = 0, [data]
    while True:
        level = [x.values() if isinstance(x, dict) else x
                 for x in level if isinstance(x, (dict, list, tuple))]
        if not level:
            return depth
        depth += 1
        level = [child for x in level for child in x]


def _parse(text: str, name: str):
    # ValueError covers malformed JSON and integer literals past the digit
    # limit of int(). Up to 3.11, decoding past the nesting rule runs out of
    # stack: RecursionError is the same input error.
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise QnetError(f"{name} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise QnetError(f"{name} is nested too deeply") from exc
    if _nesting(data) > _headroom() - _JSON_FRAMES:
        raise QnetError(f"{name} is nested too deeply")
    return data


def _print(data, stream) -> None:
    """Write ``data`` as one JSON line, refusing output past the nesting rule
    (``jsonio.dumps`` still maps the encoder's own RecursionError)."""
    if _nesting(data) > _headroom() - _JSON_FRAMES:
        raise QnetError("output is nested too deeply to write as JSON")
    print(jsonio.dumps(data), file=stream)


def _load_net(path: str) -> QNet:
    return jsonio.net_from_json(_parse(_read(path), path))


def _checked_net(path: str) -> QNet:
    net = _load_net(path)
    diags = validate_net(net)
    if diags:
        raise QnetError(f"invalid net {path}: " + "; ".join(diags))
    return net


def _load_elem(theory: Theory, raw: str):
    text = _read(raw[1:]) if raw.startswith("@") else raw
    return jsonio.elem_from_json(theory, _parse(text, "marking"))


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None


def _choice(names) -> dict:
    """argparse type and metavar: one of ``names``, with the error worded as
    Python 3.11 words an invalid choice."""

    def parse(raw: str) -> str:
        if raw not in names:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {raw!r} (choose from {', '.join(map(repr, names))})")
        return raw

    return {"type": parse, "metavar": "{" + ",".join(names) + "}"}


def _seed(raw: str) -> int:
    """argparse type: an integer, wrapped to 64 bits."""
    return _int(raw) & (2 ** 64 - 1)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(raw: str) -> int:
        value = _int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so :func:`run` can report it as JSON."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qnet",
        description="Nets over algebraic theories: validation, translation, semantics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net's invariants")
    p.add_argument("net")

    p = sub.add_parser("translate", help="translate a net along a theory arrow")
    p.add_argument("--via", required=True, **_choice([a.value for a in TheoryArrow]))
    p.add_argument("net")

    p = sub.add_parser("reach", help="token-game reachability")
    p.add_argument("net")
    p.add_argument("--marking", required=True)
    p.add_argument("--steps", type=_int_at_least(0), required=True)
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("homset", help="enumerate process classes between markings")
    p.add_argument("net")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="tgt", required=True)
    p.add_argument("--layers", type=_int_at_least(1), required=True)
    p.add_argument("--width", type=_int_at_least(1), required=True)

    p = sub.add_parser("homgroup", help="integer-lattice hom nonemptiness (ABGRP)")
    p.add_argument("net")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="tgt", required=True)

    p = sub.add_parser("lin", help="list the linearizations of a net")
    p.add_argument("net")

    p = sub.add_parser("linsum", help="sum all linearizations into one word net")
    p.add_argument("net")

    p = sub.add_parser("product", help="binary product with projections")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("coproduct", help="binary coproduct with injections")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite", default="all", **_choice(SUITE_NAMES + ("all",)))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cases", type=_int_at_least(1), default=None)
    # Python 3.11's wrapped usage line, stated so that every interpreter
    # prints it; set last, as the subcommands' own usage lines start from it.
    indent = "\n" + " " * len("usage: qnet ")
    parser.usage = indent.join(("%(prog)s [-h]", "{" + ",".join(sub.choices) + "}", "..."))
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        _print({"error": str(exc)}, stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _dispatch(args, stdout)
    except QnetError as exc:
        _print({"error": str(exc)}, stderr)
        return 1


def _dispatch(args, out) -> int:
    # ``symmetry`` and ``suites`` are imported only by the commands that use
    # them, so the others start without compiling them.
    command, code = args.command, 0
    if command == "validate":
        diags = validate_net(_load_net(args.net))
        code = 1 if diags else 0
        data = {"diagnostics": diags, "valid": not diags}
    elif command in ("product", "coproduct"):
        op = product if command == "product" else coproduct
        net, h1, h2 = op(_checked_net(args.left), _checked_net(args.right))
        data = {"net": jsonio.net_to_json(net), "left": jsonio.morphism_to_json(h1),
                "right": jsonio.morphism_to_json(h2)}
    elif command == "check":
        from . import suites

        names = tuple(suites.SUITES) if args.suite == "all" else (args.suite,)
        results = suites.run_suites(names, seed=args.seed, cases=args.cases)
        code = 0 if all(r.ok for r in results) else 1
        data = {"ok": not code, "suites": [{"name": r.name, "cases": r.cases,
                                            "failures": r.failures, "ok": r.ok}
                                           for r in results]}
    else:
        net = _checked_net(args.net)
        if command in ("homset", "homgroup"):
            src, tgt = _load_elem(net.theory, args.src), _load_elem(net.theory, args.tgt)
        if command == "translate":
            data = jsonio.net_to_json(apply_net_functor(TheoryArrow(args.via), net))
        elif command == "reach":
            result = freecat.reachable(net, _load_elem(net.theory, args.marking), args.steps)
            if args.dot:
                out.write(freecat.reachability_dot(result))
                return 0
            data = {"start": jsonio.elem_to_json(result.start), "steps": result.max_steps,
                    "markings": [jsonio.elem_to_json(m) for m in result.markings],
                    "edges": [[jsonio.elem_to_json(a), label, jsonio.elem_to_json(b)]
                              for a, label, b in result.edges]}
        elif command == "homset":
            classes = freecat.hom_enumerate(net, src, tgt, args.layers, args.width)
            data = {"from": jsonio.elem_to_json(src), "to": jsonio.elem_to_json(tgt),
                    "representatives": [jsonio.term_to_json(t) for t in classes]}
        elif command == "homgroup":
            data = {"nonempty": freecat.hom_nonempty_group(net, src, tgt)}
        else:
            from . import symmetry

            if command == "lin":
                data = {"linearizations": [jsonio.net_to_json(n)
                                           for n in symmetry.linearizations(net)]}
            else:
                data = jsonio.net_to_json(symmetry.linearization_sum(net))
    _print(data, out)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        print(end="", flush=True)  # flushes stdout, if fd 1 was open at start
    except BrokenPipeError:
        # The reader closed stdout: on devnull, the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _print({"error": "stdout was closed before the output was written"}, sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
