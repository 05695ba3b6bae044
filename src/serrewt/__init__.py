"""Minimal weights of mod-p Galois representations: the classical recipe,
the Buzzard-Diamond-Jarvis weight set, and the crystalline-lift weight from
the Breuil-Mezard multiplicity formula, with exhaustive per-prime
verification that the three agree."""

from .errors import (
    InternalInvariantError,
    LevelOneError,
    ParamError,
    UnsupportedPrimeError,
)
from .galois_params import (
    InertialParam,
    Irreducible,
    Reducible,
    enumerate_params,
    normalize_level2,
    parse_param,
)
from .oracle import (
    k_min_search,
    p_regular_classes,
    verify_decomposition,
)
from .recipes import (
    bdj_weight_set,
    bm_multiplicity,
    bm_set,
    k_cris,
    k_min_of_set,
    kisin_mu,
    mu_support,
    serre_k,
    weight_report,
)
from .verify import run_suite
from .weights import (
    SerreWeight,
    VirtualClass,
    decompose_sym,
    k_min_closed,
    sym_class,
)

__version__ = "0.1.0"

__all__ = [
    "InertialParam",
    "InternalInvariantError",
    "Irreducible",
    "LevelOneError",
    "ParamError",
    "Reducible",
    "SerreWeight",
    "UnsupportedPrimeError",
    "VirtualClass",
    "bdj_weight_set",
    "bm_multiplicity",
    "bm_set",
    "decompose_sym",
    "enumerate_params",
    "k_cris",
    "k_min_closed",
    "k_min_of_set",
    "k_min_search",
    "kisin_mu",
    "mu_support",
    "normalize_level2",
    "p_regular_classes",
    "parse_param",
    "run_suite",
    "serre_k",
    "sym_class",
    "verify_decomposition",
    "weight_report",
]
