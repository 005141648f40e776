"""Nets marked over a catalog of algebraic theories and their process semantics.

Importing the package loads ``theory``, ``net`` and ``freecat`` (with the
``jsonio`` and ``intlattice`` modules they use) and binds their names here.
The names of ``reflexive`` and ``symmetry`` are looked up on first use
(PEP 562), so a caller that needs neither never compiles them.
"""

from importlib import import_module as _import_module

from .theory import (
    FreeElem,
    QnetError,
    Theory,
    TheoryArrow,
    combine,
    extend,
    finset,
    invert,
    lift,
    multiset,
    neutral,
    signed_word,
    translate,
    unit,
    word,
)
from .net import (
    NetMorphism,
    QNet,
    apply_net_functor,
    compose,
    coproduct,
    enumerate_morphisms,
    identity_morphism,
    product,
    validate_morphism,
    validate_net,
)
from .freecat import (
    Comp,
    EqVerdict,
    Gen,
    Ident,
    LayeredForm,
    MorTerm,
    Oper,
    hom_enumerate,
    hom_nonempty_group,
    layered,
    layered_to_term,
    mor_equal,
    mor_src,
    mor_tgt,
    reachable,
    reachability_dot,
    underlying_net,
)

# Public names of the modules loaded on first use, keyed by module.
_LAZY = {
    "reflexive": (
        "GraphMorphism",
        "QGraph",
        "ReflexiveMorphism",
        "ReflexiveQNet",
        "add_identities",
        "extend_morphism",
        "forget_identities",
        "free_edges",
        "graph_to_net_transpose",
        "net_to_graph_transpose",
        "restrict_morphism",
        "underlying_reflexive",
    ),
    "symmetry": (
        "Perm",
        "SymTerm",
        "braiding",
        "erase_symmetries",
        "linearization_sum",
        "linearizations",
        "sym_equal",
        "translate_term",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_HOME))


def __getattr__(name):
    # Nothing is stored here, so every lookup reads the module's current binding.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
