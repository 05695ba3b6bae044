"""Finite parameter model for the local Galois data the weight recipes use.

A two-dimensional mod-p representation of the decomposition group at p is
either irreducible or reducible, and all three minimal-weight recipes
consume only the following finite data:

  Irreducible(p, a, b), 0 <= a < b <= p-1:
      restriction to inertia is omega^a (x) diag(omega2^(b-a), omega2^(p(b-a)))
      with omega2 the level-2 fundamental character.  The pair (a, b) is the
      canonical form of the pair of base-p digit strings of the character
      exponent modulo p^2 - 1.

  Reducible(p, twist, ratio, shape, lambda_equal):
      the semisimplification restricted to inertia is
      omega^twist (x) (omega^ratio + 1), with twist and ratio in [0, p-2].
      `shape` records the extension type: "split", generic non-split
      ("nonsplit"), or, when the character ratio is exactly omega
      (ratio = 1 with equal unramified parts), "peu" / "tres" for the two
      ramification classes of non-split extensions.  `lambda_equal` records
      whether the two unramified characters coincide.

Every flag combination the recipes accept is enumerated; no attempt is made
to decide which records arise from genuine global representations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from .errors import InternalInvariantError, LevelOneError, ParamError
from .weights import is_odd_prime

SHAPE_SPLIT = "split"
SHAPE_NONSPLIT = "nonsplit"
SHAPE_PEU = "peu"
SHAPE_TRES = "tres"
SHAPES = (SHAPE_SPLIT, SHAPE_NONSPLIT, SHAPE_PEU, SHAPE_TRES)


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ParamError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True, order=True)
class Irreducible:
    """Level-2 (irreducible) local parameter: 0 <= a < b <= p-1."""

    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        _require_odd_prime(self.p)
        if not (isinstance(self.a, int) and isinstance(self.b, int) and 0 <= self.a < self.b <= self.p - 1):
            raise ParamError(
                f"irreducible parameter needs 0 <= a < b <= p-1, got ({self.a}, {self.b})"
            )


@dataclass(frozen=True, order=True)
class Reducible:
    """Level-1 (reducible) local parameter.

    shape "peu"/"tres" is only meaningful when the character ratio is
    exactly omega, i.e. ratio = 1 and lambda_equal.  A non-split extension
    at ratio 1 with equal unramified characters is necessarily one of the
    two, so shape "nonsplit" is rejected there.
    """

    p: int
    twist: int
    ratio: int
    shape: str
    lambda_equal: bool

    def __post_init__(self) -> None:
        _require_odd_prime(self.p)
        if not (isinstance(self.twist, int) and 0 <= self.twist <= self.p - 2):
            raise ParamError(f"twist {self.twist} outside [0, {self.p - 2}]")
        if not (isinstance(self.ratio, int) and 0 <= self.ratio <= self.p - 2):
            raise ParamError(f"ratio {self.ratio} outside [0, {self.p - 2}]")
        if self.shape not in SHAPES:
            raise ParamError(f"unknown shape {self.shape!r}")
        if self.shape in (SHAPE_PEU, SHAPE_TRES):
            if self.ratio != 1 or not self.lambda_equal:
                raise ParamError(
                    "peu/tres require ratio 1 and equal unramified characters"
                )
        if self.shape == SHAPE_NONSPLIT and self.ratio == 1 and self.lambda_equal:
            raise ParamError(
                "a non-split extension with ratio omega and equal unramified "
                "characters must be labelled peu or tres"
            )


InertialParam = Union[Irreducible, Reducible]


def normalize_level2(p: int, e: int) -> Tuple[int, int]:
    """Canonical (a, b), 0 <= a < b <= p-1, for the character pair {e, pe}.

    The exponent e is taken modulo p^2 - 1.  Replacing e by pe (the
    Frobenius conjugate) gives the same answer.  Raises LevelOneError when
    p+1 divides e, i.e. when the character has level 1, and ParamError
    when e is not an int.
    """
    _require_odd_prime(p)
    if not isinstance(e, int):
        raise ParamError(f"exponent e must be an int, got {e!r}")
    return _normalize_level2(p, e)


def _normalize_level2(p: int, e: int) -> Tuple[int, int]:
    """normalize_level2 at a p known to be an odd prime, unchecked."""
    e %= p * p - 1
    if e % (p + 1) == 0:
        raise LevelOneError(f"exponent {e} is divisible by p+1 = {p + 1}")
    a, b = divmod(e, p)
    if a > b:
        e = (p * e) % (p * p - 1)
        a, b = divmod(e, p)
    # equal digits would mean e = a(p+1), excluded above
    if not a < b:
        raise InternalInvariantError(f"exponent {e} at p={p} gave digits ({a}, {b})")
    return a, b


def enumerate_params(p: int) -> List[InertialParam]:
    """All inertial parameters at p, in a fixed documented order.

    First the irreducibles, (a, b) lexicographic; then the reducibles by
    (twist, ratio, lambda_equal in (True, False)), each cell contributing
    Split followed by the non-split entries (Peu then Tres at the cell
    ratio=1 / lambda_equal, a single generic non-split entry elsewhere).
    Totals: p(p-1)/2 irreducible and (p-1)(4(p-1)+1) reducible records.
    p is tested once, and the records, valid by construction, are built
    unchecked: each is filled through its __dict__, by field name.
    """
    _require_odd_prime(p)
    new, out = object.__new__, []
    for a in range(p - 1):
        for b in range(a + 1, p):
            out.append(rec := new(Irreducible))
            rec.__dict__.update(p=p, a=a, b=b)
    for m in range(p - 1):
        for r in range(p - 1):
            for lam in (True, False):
                nonsplit = (SHAPE_PEU, SHAPE_TRES) if r == 1 and lam else (SHAPE_NONSPLIT,)
                for shape in (SHAPE_SPLIT, *nonsplit):
                    out.append(rec := new(Reducible))
                    rec.__dict__.update(p=p, twist=m, ratio=r, shape=shape, lambda_equal=lam)
    return out


def param_to_dict(param: InertialParam) -> Dict[str, object]:
    if isinstance(param, Irreducible):
        return {"p": param.p, "type": "irreducible", "a": param.a, "b": param.b}
    return {
        "p": param.p,
        "type": "reducible",
        "twist": param.twist,
        "ratio": param.ratio,
        "shape": param.shape,
        "lambda_equal": param.lambda_equal,
    }


def parse_param(text: str) -> InertialParam:
    """Parse a parameter from its JSON text form, validating all invariants."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParamError(f"parameter record must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "irreducible":
        expected = {"p", "type", "a", "b"}
    elif kind == "reducible":
        expected = {"p", "type", "twist", "ratio", "shape", "lambda_equal"}
    else:
        raise ParamError(f"type must be 'irreducible' or 'reducible', got {kind!r}")
    if set(obj) != expected:
        raise ParamError(
            f"fields {sorted(set(obj) ^ expected)} unexpected or missing for type {kind}"
        )
    def want(key, types):
        v = obj[key]
        if (types is int and isinstance(v, bool)) or not isinstance(v, types):
            raise ParamError(f"field {key!r} has the wrong type")
        return v
    if kind == "irreducible":
        return Irreducible(want("p", int), want("a", int), want("b", int))
    shape = want("shape", str)
    lam = obj["lambda_equal"]
    if not isinstance(lam, bool):
        raise ParamError("field 'lambda_equal' must be a boolean")
    return Reducible(want("p", int), want("twist", int), want("ratio", int), shape, lam)
