"""References on layers shared by the differential tests: held frames and
generator counts, built from ``theory.lift`` and ``theory.occurrences`` alone,
independent of the counts a net's context keeps."""

from qnets.freecat import ID_PREFIX, Perm
from qnets.theory import lift, occurrences


def frame_ref(th, marking):
    """The identity layer holding ``marking``, by renaming its places."""
    return lift(th, {p: ID_PREFIX + p for p in marking.atoms()}, marking)


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
