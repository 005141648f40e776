"""Command-line surface.

One JSON object per output stream; errors print one ``{"error": ...}`` line
on stderr and exit 1 for domain errors, 2 for usage errors. Marking arguments
are inline JSON, or ``@path`` to read a file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import freecat, jsonio
from .net import QNet, apply_net_functor, coproduct, product, validate_net
from .theory import QnetError, Theory, TheoryArrow

# The names of ``suites.SUITES``, sorted. Spelled out so that building the
# parser does not import the suites; a test keeps the two in step.
SUITE_NAMES = ("adjA", "adjB", "freecat", "monad", "netfunctor", "symmetry")


def _load_net(path: str) -> QNet:
    # Decoding deeply nested JSON runs out of stack: RecursionError is an
    # input error here, like malformed JSON.
    try:
        with open(path, encoding="utf-8") as fh:
            return jsonio.net_from_json(json.load(fh))
    except OSError as exc:
        raise QnetError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise QnetError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise QnetError(f"{path} is nested too deeply") from exc


def _checked_net(path: str) -> QNet:
    net = _load_net(path)
    diags = validate_net(net)
    if diags:
        raise QnetError(f"invalid net {path}: " + "; ".join(diags))
    return net


def _load_elem(theory: Theory, raw: str):
    if raw.startswith("@"):
        try:
            with open(raw[1:], encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise QnetError(f"cannot read {raw[1:]}: {exc}") from exc
    try:
        return jsonio.elem_from_json(theory, json.loads(raw))
    except json.JSONDecodeError as exc:
        raise QnetError(f"marking is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise QnetError("marking is nested too deeply") from exc


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
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
    p.add_argument("--via", required=True, choices=[a.value for a in TheoryArrow])
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
    p.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=lambda s: int(s) & (2 ** 64 - 1), default=0)
    p.add_argument("--cases", type=_int_at_least(1), default=None)
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(jsonio.dumps({"error": str(exc)}), file=stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _dispatch(args, stdout)
    except QnetError as exc:
        print(jsonio.dumps({"error": str(exc)}), file=stderr)
        return 1


def _dispatch(args, out) -> int:
    if args.command == "validate":
        net = _load_net(args.net)
        diags = validate_net(net)
        print(jsonio.dumps({"diagnostics": diags, "valid": not diags}), file=out)
        return 0 if not diags else 1

    if args.command == "translate":
        net = _checked_net(args.net)
        translated = apply_net_functor(TheoryArrow(args.via), net)
        print(jsonio.dumps(jsonio.net_to_json(translated)), file=out)
        return 0

    if args.command == "reach":
        net = _checked_net(args.net)
        marking = _load_elem(net.theory, args.marking)
        result = freecat.reachable(net, marking, args.steps)
        if args.dot:
            out.write(freecat.reachability_dot(result))
            return 0
        print(jsonio.dumps({
            "start": jsonio.elem_to_json(result.start),
            "steps": result.max_steps,
            "markings": [jsonio.elem_to_json(m) for m in result.markings],
            "edges": [[jsonio.elem_to_json(a), label, jsonio.elem_to_json(b)]
                      for a, label, b in result.edges],
        }), file=out)
        return 0

    if args.command == "homset":
        net = _checked_net(args.net)
        src = _load_elem(net.theory, args.src)
        tgt = _load_elem(net.theory, args.tgt)
        classes = freecat.hom_enumerate(net, src, tgt, args.layers, args.width)
        # The stdlib JSON encoder spends two recursion levels per composite of
        # a deep representative, so it runs out of stack as deep input does.
        try:
            text = jsonio.dumps({
                "from": jsonio.elem_to_json(src),
                "to": jsonio.elem_to_json(tgt),
                "representatives": [jsonio.term_to_json(t) for t in classes],
            })
        except RecursionError as exc:
            raise QnetError("a hom-set representative is nested too deeply to print") from exc
        print(text, file=out)
        return 0

    if args.command == "homgroup":
        net = _checked_net(args.net)
        src = _load_elem(net.theory, args.src)
        tgt = _load_elem(net.theory, args.tgt)
        print(jsonio.dumps({"nonempty": freecat.hom_nonempty_group(net, src, tgt)}),
              file=out)
        return 0

    # ``symmetry`` and ``suites`` are imported only by the commands that use
    # them, so the others start without compiling them.
    if args.command == "lin":
        from . import symmetry

        net = _checked_net(args.net)
        print(jsonio.dumps({
            "linearizations": [jsonio.net_to_json(n)
                               for n in symmetry.linearizations(net)],
        }), file=out)
        return 0

    if args.command == "linsum":
        from . import symmetry

        net = _checked_net(args.net)
        print(jsonio.dumps(jsonio.net_to_json(symmetry.linearization_sum(net))), file=out)
        return 0

    if args.command in ("product", "coproduct"):
        left = _checked_net(args.left)
        right = _checked_net(args.right)
        op = product if args.command == "product" else coproduct
        net, h1, h2 = op(left, right)
        print(jsonio.dumps({
            "net": jsonio.net_to_json(net),
            "left": jsonio.morphism_to_json(h1),
            "right": jsonio.morphism_to_json(h2),
        }), file=out)
        return 0

    from . import suites

    names = suites.SUITE_ORDER if args.suite == "all" else (args.suite,)
    results = suites.run_suites(names, seed=args.seed, cases=args.cases)
    print(jsonio.dumps({
        "ok": all(r.ok for r in results),
        "suites": [{"name": r.name, "cases": r.cases, "failures": r.failures,
                    "ok": r.ok} for r in results],
    }), file=out)
    return 0 if all(r.ok for r in results) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
