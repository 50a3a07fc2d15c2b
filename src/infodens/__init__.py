"""Information-density leakage measures for privacy mechanisms.

Compute and cross-verify the pointwise leakage of finite mechanisms (PMC,
PML, LIP, ALIP, LDP levels), translate guarantees between frameworks, build
standard mechanisms exactly, and certify every closed form against
brute-force adversary searches.
"""

import importlib as _importlib

from . import errors, leakage
from .errors import InfodensError
from .leakage import (
    Guarantee, GuaranteeKind, LeakageProfile, all_guarantee_levels, conditional_pmc, expected_pmc,
    guarantee_level, leakage_profile, max_cost_leakage, max_realizable_cost, pmc, pml,
)
from .probcore import (
    INF, ZERO, Channel, ExtReal, Joint, Pmf, as_level, density_ratio, info_density, max_divergence,
)

#: The home module of each name that loads on first access (PEP 562), so
#: ``import infodens`` and each CLI subcommand load only what they run.
_LAZY = {
    "bounds": (
        "CurveTable", "TranslationResult", "derive_implications", "high_privacy_bound",
        "ldp_to_context", "ldp_to_pmc", "pmc_to_pml", "pml_to_pmc", "sweep_curves",
        "verify_boundedness_equivalence",
    ),
    "documents": ("joint_from_doc", "parse_mechanism_doc"),
    "mechanisms": (
        "BoundedLaw", "GaussianPerturbMechanism", "LaplaceMeanMechanism", "discrete_law",
        "extremal_mechanism", "extremal_mechanism_pmc", "gaussian_tail_bound",
        "randomized_response", "randomized_response_pmc", "uniform_law",
    ),
    "oracles": (
        "CostFunction", "OracleCertificate", "RandomizedFunction", "SearchConfig",
        "achieving_kernel", "brute_force_guesswork_leakage", "certify_pmc", "cost_from_kernel",
        "cost_function_leakage", "guesswork_leakage", "kernel_from_cost",
        "randomized_function_leakage",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("bounds", "mechanisms", "oracles", "properties", "sampling")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

# The eager imports (less the ``probcore`` module), the lazy names and the lazy submodules.
__all__ = sorted(
    [name for name in globals() if not name.startswith("_") and name != "probcore"]
    + [*_HOME, *_SUBMODULES]
)
