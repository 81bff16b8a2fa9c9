"""Exact subset-sum concentration and range computations, iterated sumsets,
and verified binomial-moment inequalities.

Only ``errors`` is imported with the package.  Each other public name, and
each layer module, is imported on its first access (PEP 562), so a program
or a CLI command loads only the layers it uses."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .errors import BadParams, BudgetExceeded, CapacityExceeded, InvariantViolated
from .errors import TooLarge, Undecidable

# each layer and the public names it defines
_LAYERS = {
    "frontier": "AuditReport FrontierPoint SweepConfig audit pareto_subset sweep_points",
    "lemmas": "BlockTheory MomentRecord SecondMomentRecord SupRatioBoundReport "
    "SupRatioEstimate TheoremCheck Verdict block_construction block_theory "
    "check_initial_bound check_sup_ratio_bound max_ratio_bound ratio_moment "
    "second_moment_identity sup_ratio_exact sup_ratio_mc tail_check theorem_check",
    "numerics": "PI Add Exp Mul Ordering Rat binomial_row cmp_bound",
    "subsetsum": "ConcentrationReport CubeSet SumProfile as_weights concentration fiber "
    "levy profile profile_dp profile_mitm profile_naive unique_preimages",
    "sumsets": "InjectivityResult MultiSumset check_injectivity density_ratio_max "
    "iterated_sumset partition_total",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in (layer, *names.split())}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_HOME))


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{layer}")
    value = globals()[name] = module if name == layer else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
