"""Exception types shared across the package.

The library is the only validator of its input, and every rejection is a
ValueError: one of the two subclasses below, or a plain ValueError (say,
N < 0, a weight outside its range or an unknown check).  Each input is
checked once, where it enters, under one int rule: an int is an int that
is not a bool (weights._is_int).  decompose_sym, sym_class and
verify_decomposition check p and N, and the fold, its caches and the scans
check nothing.  A record checks its own fields; parse_param checks only
the JSON envelope (an object, a str type naming a record class, exactly
its fields).  The CLI maps any ValueError from a library call to exit 2,
a usage error, and InternalInvariantError, a breached invariant, to exit 3.
"""


class ParamError(ValueError):
    """An inertial parameter record violates the schema or a type invariant."""


class UnsupportedPrimeError(ValueError):
    """Raised by run_suite for 2 or a non-prime, by the CLI for a -p range
    that contains 2, and by is_odd_prime at or above its Miller-Rabin bound.
    Elsewhere a non-prime p is a plain ValueError (decompose_sym,
    SerreWeight) or, in a parameter record, a ParamError."""


class InternalInvariantError(RuntimeError):
    """A condition that should be impossible by the underlying theorems was
    observed; this always indicates an implementation bug, not bad input."""
