"""Capability limits for exhaustive enumeration, overridable via environment.

Every brute-force search in the package is guarded: if the enumeration would
exceed the relevant limit we raise CapabilityError.  Sweeps are counted up
front; the one best-first fault search (``variants.first_fault``), which
runs the criticality, ``verify_ft`` and giant-component checks, counts the
fault sets it visits.  Defaults are sized for desk-scale instances; each
can be overridden with an environment variable, the only setting for it.
"""

import os
from math import comb

from .errors import CapabilityError, InputError

DEFAULT_MAX_FAULT_SETS = 2_000_000
DEFAULT_MAX_SUBSET_PAIRS = 5_000_000
DEFAULT_EXACT_CUT_LIMIT = 18
DEFAULT_MAX_ENUM_VERTICES = 16

_ENV_PREFIX = "SCC_PRESERVE_"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"bad integer in ${_ENV_PREFIX}{name}: {raw!r}") from None


def max_fault_sets() -> int:
    return _env_int("MAX_FAULT_SETS", DEFAULT_MAX_FAULT_SETS)


def max_subset_pairs() -> int:
    return _env_int("MAX_SUBSET_PAIRS", DEFAULT_MAX_SUBSET_PAIRS)


def exact_cut_limit() -> int:
    return _env_int("EXACT_CUT_LIMIT", DEFAULT_EXACT_CUT_LIMIT)


def max_enum_vertices() -> int:
    return _env_int("MAX_ENUM_VERTICES", DEFAULT_MAX_ENUM_VERTICES)


def fault_set_count(m: int, k: int) -> int:
    """Number of edge subsets of size at most k out of m edges."""
    return sum(comb(m, i) for i in range(0, min(k, m) + 1))


def guard_fault_sets(m: int, k: int) -> None:
    cap = max_fault_sets()
    count = fault_set_count(m, k)
    if count > cap:
        raise CapabilityError(
            f"fault-set enumeration needs {count} subsets (m={m}, k={k}), "
            f"limit is {cap}"
        )


def guard_side_enumeration(n: int) -> None:
    cap = max_enum_vertices()
    if n > cap:
        raise CapabilityError(
            f"2^n side enumeration infeasible for n={n} (limit n <= {cap})"
        )
