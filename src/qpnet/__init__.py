"""Qualitative probabilistic networks with numerically verifiable semantics.

``import qpnet`` loads no numpy.  Sign reasoning over a network never needs
it; only the table modules (``dist``, ``dependence``, ``semantics``,
``scenarios``) import it.  Those four are entered in ``sys.modules`` as lazy
modules (``importlib.util.LazyLoader``): each runs on its first attribute
read, so code that looks a module up there, or patches a function in it,
finds it.  The public names are read from their modules on first use
(PEP 562).
"""

import importlib.util
import sys
from importlib.machinery import PathFinder

# the public names of each module
_EXPORTS = {
    "dependence": (
        "ConditionalTable", "InfluenceVerdict", "Verdict", "association_check",
        "influence_sign", "mlrp_check", "prop1_forward", "prop1_witness_search",
        "tp2_check",
    ),
    "dist": ("Cdf", "DominanceOrder", "JointTable", "fsd_compare", "validate"),
    "graph": ("SignedDag", "SignedEdge"),
    "inference": (
        "Mode", "PropagationResult", "QueryResult", "propagate", "query",
        "reduce_vertex", "reverse_edge",
    ),
    "scenarios": (
        "Claim", "CounterexampleReport", "find_counterexample", "parse_claim",
        "sample_factorized", "shuttle_distribution", "shuttle_qpn",
        "table1_fixture",
    ),
    "semantics": ("EPS_CI", "SatisfactionReport", "markov_check", "satisfies_qpn"),
    "signs": ("Sign", "sign_product", "sign_sum"),
    "variables": ("EPS_PROB", "VariableSpec"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def _lazy_module(name: str):
    fullname = f"{__name__}.{name}"
    spec = PathFinder.find_spec(fullname, __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


dist, dependence, semantics, scenarios = (
    _lazy_module(name) for name in ("dist", "dependence", "semantics", "scenarios")
)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
