"""Runtime counterparts of the static invariants.

The lint rules check what is visible in the source; these contracts check
the same paper invariants on live values — row-stochastic trust matrices
(Eqs. 3/5/6/7) and weight simplexes (Eqs. 1/7) — at the pipeline's choke
points.  They are **off by default** and enabled either with the
``REPRO_CHECK_INVARIANTS=1`` environment variable or programmatically via
:func:`set_contracts_enabled` / :func:`checking_invariants`, so the hot
path pays a single boolean check when disabled.

Static rule and runtime check live in one subsystem on purpose: NUM002
tells you a *literal* weight tuple is off the simplex at lint time;
:func:`assert_simplex` tells you a *computed* one is off at run time.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import (Collection, Iterable, Iterator, Mapping, Optional, Tuple,
                    Union)

__all__ = [
    "ContractViolation",
    "contracts_enabled",
    "set_contracts_enabled",
    "checking_invariants",
    "assert_simplex",
    "assert_row_stochastic",
    "assert_matrices_equal",
    "check_simplex",
    "check_row_stochastic",
    "check_matrices_equal",
]

_ENV_FLAG = "REPRO_CHECK_INVARIANTS"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Tristate programmatic override; ``None`` defers to the environment.
_override: Optional[bool] = None


class ContractViolation(AssertionError):
    """A paper invariant failed on live values."""


def contracts_enabled() -> bool:
    """Whether the runtime contracts are active."""
    if _override is not None:
        return _override
    return os.environ.get(_ENV_FLAG, "").strip().lower() in _TRUTHY


def set_contracts_enabled(enabled: Optional[bool]) -> None:
    """Force contracts on/off; ``None`` restores the environment default."""
    global _override
    _override = enabled


@contextlib.contextmanager
def checking_invariants(enabled: bool = True) -> Iterator[None]:
    """Scoped enable/disable — ``with checking_invariants(): ...``."""
    global _override
    previous = _override
    _override = enabled
    try:
        yield
    finally:
        _override = previous


# --------------------------------------------------------------------- #
# Unconditional assertions                                              #
# --------------------------------------------------------------------- #

RowSource = Union[
    Mapping[str, Mapping[str, float]],
    Iterable[Tuple[str, Mapping[str, float]]],
]


def assert_simplex(weights: Iterable[float], *, name: str = "weights",
                   tol: float = 1e-9) -> None:
    """Require every weight in [0, 1] and the sum to equal 1 (± ``tol``).

    Raises :class:`ContractViolation` otherwise.  Covers the Eq. 1
    (eta, rho) and Eq. 7 (alpha, beta, gamma) constraints — and any future
    extension dimension set.
    """
    values = list(weights)
    if not values:
        raise ContractViolation(f"{name}: empty weight tuple")
    for position, value in enumerate(values):
        if not 0.0 - tol <= value <= 1.0 + tol:
            raise ContractViolation(
                f"{name}[{position}] = {value!r} outside [0, 1]")
    total = math.fsum(values)
    if abs(total - 1.0) > tol:
        raise ContractViolation(
            f"{name} sum to {total!r}, must sum to 1 (simplex)")


def _iter_row_values(matrix: RowSource
                     ) -> Iterable[Tuple[str, Collection[float]]]:
    row_values = getattr(matrix, "row_values", None)
    if callable(row_values):  # duck-typed TrustMatrix: no row is copied
        return row_values()
    rows = matrix.items() if isinstance(matrix, Mapping) else matrix
    return ((row_id, row.values()) for row_id, row in rows)


def assert_row_stochastic(matrix: RowSource, *, name: str = "matrix",
                          tol: float = 1e-9, strict: bool = True) -> None:
    """Require each non-empty row to sum to 1 (``strict``) or at most 1.

    Accepts a :class:`~repro.core.matrix.TrustMatrix` (anything with a
    ``row_values()`` iterator, which the array form answers from slices of
    its data), a mapping-of-mappings, or an iterable of ``(row_id, row)``
    pairs.  The integrated TM is checked with
    ``strict=False`` because rows are deliberately *sub*-stochastic when a
    dimension's store is absent (see ``build_one_step_matrix``); the
    per-dimension FM/DM/UM matrices are checked strictly.
    """
    for row_id, values in _iter_row_values(matrix):
        if not values:
            continue
        total = math.fsum(values)
        negative = [value for value in values if value < -tol]
        if negative:
            raise ContractViolation(
                f"{name}[{row_id!r}] has negative entries: {negative[:3]}")
        if strict:
            if abs(total - 1.0) > tol:
                raise ContractViolation(
                    f"{name}[{row_id!r}] sums to {total!r}, must sum to 1 "
                    "(row-stochastic, Eqs. 3/5/6)")
        elif total > 1.0 + tol:
            raise ContractViolation(
                f"{name}[{row_id!r}] sums to {total!r} > 1 "
                "(must be sub-stochastic, Eq. 7)")


def assert_matrices_equal(actual: object, expected: object, *,
                          name: str = "matrix") -> None:
    """Require two trust matrices to be *exactly* equal (``==``, no tol).

    The incremental pipeline's hard bar: a patched matrix must be
    bit-identical to a full rebuild.  On mismatch the error names up to
    three differing entries so the divergent row is findable.
    """
    if actual == expected:
        return
    details = ""
    actual_rows = getattr(actual, "row_view", None)
    expected_iter = getattr(expected, "iter_row_views", None)
    if callable(actual_rows) and callable(expected_iter):
        differing = []
        for i, row in expected.iter_row_views():  # type: ignore[attr-defined]
            other = actual.row_view(i)  # type: ignore[attr-defined]
            for j, value in row.items():
                if other.get(j) != value:
                    differing.append((i, j, other.get(j), value))
        for i, row in actual.iter_row_views():  # type: ignore[attr-defined]
            other = expected.row_view(i)  # type: ignore[attr-defined]
            for j, value in row.items():
                if j not in other:
                    differing.append((i, j, value, None))
        samples = ", ".join(
            f"({i!r},{j!r}): got {got!r}, want {want!r}"
            for i, j, got, want in differing[:3])
        details = f" — {len(differing)} differing entries, e.g. {samples}"
    raise ContractViolation(
        f"{name}: incremental result differs from full rebuild{details}")


# --------------------------------------------------------------------- #
# Flag-guarded wrappers (what instrumented call sites use)              #
# --------------------------------------------------------------------- #


def check_simplex(weights: Iterable[float], *, name: str = "weights",
                  tol: float = 1e-9) -> None:
    """:func:`assert_simplex`, but a no-op unless contracts are enabled."""
    if contracts_enabled():
        assert_simplex(weights, name=name, tol=tol)


def check_row_stochastic(matrix: RowSource, *, name: str = "matrix",
                         tol: float = 1e-9, strict: bool = True) -> None:
    """:func:`assert_row_stochastic`, gated on :func:`contracts_enabled`."""
    if contracts_enabled():
        assert_row_stochastic(matrix, name=name, tol=tol, strict=strict)


def check_matrices_equal(actual: object, expected: object, *,
                         name: str = "matrix") -> None:
    """:func:`assert_matrices_equal`, gated on :func:`contracts_enabled`."""
    if contracts_enabled():
        assert_matrices_equal(actual, expected, name=name)
