"""Capability limits for exhaustive enumeration, overridable via environment.

Every brute-force search in the package is guarded: if the enumeration would
exceed the relevant limit we raise CapabilityError.  Every fault-set
question (criticality, ``verify_ft``, giant components, color families and
1-bounded-degree matchings) runs on the one best-first search
``variants.first_fault``, which counts the fault sets it visits; the side
enumerations and the subset pairs of ``is_unbreakable`` are counted up
front.  Defaults are sized for desk-scale instances; each can be overridden
with an environment variable, the only setting for it.
"""

import os

from .errors import CapabilityError, InputError

DEFAULT_MAX_FAULT_SETS = 2_000_000
DEFAULT_MAX_SUBSET_PAIRS = 5_000_000
DEFAULT_EXACT_CUT_LIMIT = 18
DEFAULT_MAX_ENUM_VERTICES = 16
MAX_GRAPH_VERTICES = 200_000

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


def guard_side_enumeration(n: int) -> None:
    cap = max_enum_vertices()
    if n > cap:
        raise CapabilityError(
            f"2^n side enumeration infeasible for n={n} (limit n <= {cap})"
        )


def guard_graph_size(n: int) -> None:
    """The one vertex cap of generated and loaded graphs (not overridable)."""
    if n > MAX_GRAPH_VERTICES:
        raise CapabilityError(f"{n} vertices exceed the limit of {MAX_GRAPH_VERTICES}")
