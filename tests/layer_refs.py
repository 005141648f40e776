"""References on layers shared by the differential tests: held frames,
a layer's generator and id parts, and generator counts, built from
``theory.lift`` and ``theory.occurrences`` alone, independent of the tables a
net's context keeps; and the outcome of a call, which the tests compare."""

from qnets import freecat
from qnets.freecat import ID_PREFIX, Perm
from qnets.theory import FreeElem, combine, lift, occurrences


def outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by the caller, not swallowed
        return "raised", type(exc).__name__, str(exc)


def frame_ref(th, marking):
    """The identity layer holding ``marking``, by renaming its places."""
    return lift(th, {p: ID_PREFIX + p for p in marking.atoms()}, marking)


def held_ref(letter, end, ctx):
    """The id letters holding one layer letter's source (``end`` 0) or target
    (1), as a payload."""
    th = ctx.net.theory
    arc = freecat._layer_tgt if end else freecat._layer_src
    return frame_ref(th, arc(FreeElem(th, (letter,)), ctx)).payload


def ids_marking_ref(th, layer):
    """The marking held by the id letters of a layer."""
    ops = th.ops
    return FreeElem(th, ops.spell((p[len(ID_PREFIX):], c)
                                  for p, c in ops.letters(layer.payload)
                                  if p.startswith(ID_PREFIX)))


def gens_part_ref(th, layer):
    """The generator letters of a layer, as a layer."""
    ops = th.ops
    return FreeElem(th, ops.spell((p, c) for p, c in ops.letters(layer.payload)
                                  if not p.startswith(ID_PREFIX)))


def zip_ref(th, a, b):
    """Binary parallel combination: pad the shorter side in front with held
    frames."""
    (start_a, layers_a), (start_b, layers_b) = a, b
    depth = max(len(layers_a), len(layers_b))
    pad_a = (frame_ref(th, start_a),) * (depth - len(layers_a)) + layers_a
    pad_b = (frame_ref(th, start_b),) * (depth - len(layers_b)) + layers_b
    return tuple(combine(th, x, y) for x, y in zip(pad_a, pad_b))


def layer_occurrences(layer):
    """A layer's generator counts by name (signed for groups, zeros and id
    letters left out); none for a permutation."""
    if isinstance(layer, Perm):
        return {}
    return {n: c for n, c in occurrences(layer).items() if not n.startswith(ID_PREFIX)}


def form_occurrences(layers):
    """The generator counts of a sequence of layers, summed by name."""
    totals = {}
    for layer in layers:
        for name, count in layer_occurrences(layer).items():
            totals[name] = totals.get(name, 0) + count
    return {n: c for n, c in totals.items() if c != 0}


def layer_gens(layer):
    """A layer's generator total: the absolute values of its counts, summed."""
    return sum(map(abs, layer_occurrences(layer).values()))


def gens_sum(form):
    """A form's total generator count, summed over its layers."""
    return sum(map(layer_gens, form.layers))
