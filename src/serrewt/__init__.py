"""Minimal weights of mod-p Galois representations: the classical recipe,
the Buzzard-Diamond-Jarvis weight set, and the crystalline-lift weight from
the Breuil-Mezard multiplicity formula, with exhaustive per-prime
verification that the three agree."""

from .errors import InternalInvariantError, ParamError, UnsupportedPrimeError
from .galois_params import (
    InertialParam,
    Irreducible,
    Reducible,
    enumerate_params,
    parse_param,
)
from .oracle import k_min_search, verify_decomposition
from .recipes import (
    bm_multiplicity,
    k_cris,
    kisin_mu,
    mu_support,
    serre_k,
    weight_report,
)
from .verify import run_suite
from .weights import SerreWeight, VirtualClass, decompose_sym, sym_class

__version__ = "0.1.0"

__all__ = [
    "InertialParam",
    "InternalInvariantError",
    "Irreducible",
    "ParamError",
    "Reducible",
    "SerreWeight",
    "UnsupportedPrimeError",
    "VirtualClass",
    "bm_multiplicity",
    "decompose_sym",
    "enumerate_params",
    "k_cris",
    "k_min_search",
    "kisin_mu",
    "mu_support",
    "parse_param",
    "run_suite",
    "serre_k",
    "sym_class",
    "verify_decomposition",
    "weight_report",
]
