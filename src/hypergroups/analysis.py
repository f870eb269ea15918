"""One ring under analysis: the invariants that more than one stage reads.

A RingAnalysis holds a ring at one tolerance and solver seed.  Each cached
property is computed on first use and then shared, so one analysis validates
the ring, builds its constituent relation `support`, builds its character
table, reads its FP column and order n(H), checks the FP column as an exact
character, builds its dual, aligns the dual's characters, and finds the
table's zero pattern once.  The FP column, 0 in canonical order, is the one
normalizing character: the dual is built there, its basis element j is the
table's column j.  The dual is itself a ring under analysis, `dual`, at the
same tolerance and seed: its flags, character table and orders are read from
it, and the double dual is `dual.dual`, the dual of the dual at its all-ones
column.  Every stage (structure, dual, Burnside, Galois, criteria) takes the
analysis, so none reads the ring at another tolerance, and reads the same
flag set, constituent relation, tables, dual, grouplikes and verdicts; the
double-dual check reads the FP column `d`, and both Burnside verdicts read
the one `zero_pattern`.

The character-side readers (kernels, centers, perps, grouplike characters, the
values of P and P-hat) read one normalized table nu[i, j] = mu_j(x_i)/d_i and
one agreement test "mu_j(x_i) = d_i", `Tolerance.agrees` at the scale 1 + d_i,
held here as `normalized`, `fp_agreement` and `modulus_agreement`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .burnside import vanishing_elements
from .core import FlagSet, FusionData, _constituents, exact_character, regular_element
from .dual import dual_hypergroup
from .errors import CrossCheckFailed
from .spectra import CharacterTable, _match_columns, character_table, order, verify_fp_value
from .structure import (
    CentralSeries,
    SubHypergroup,
    adjoint,
    central_series,
    grouplike_indices,
)
from .tolerance import DEFAULT_TOL, ROUTE_SLACK, VALUE_SLACK, Tolerance, snap_array, snap_value

__all__ = ["RingAnalysis"]


def _matches_grouplikes(found: set, grouplike) -> tuple:
    """(verdict, witness): whether `found` is exactly the grouplike set, else
    the smallest index in one but not the other."""
    diff = found.symmetric_difference(grouplike)
    return (False, min(diff)) if diff else (True, None)


class RingAnalysis:
    """The invariants of `data` at tolerance `tol` and solver seed `seed`,
    each computed once.

    Every integrality verdict reads one exact certificate: `exact_d`, or the
    FP value `exact_fp` (behind `fpdim` and `dim_squares`), an int or
    Fraction on an exact tensor only when certified, else a float; on a
    floating tensor the values are bounded-denominator snaps.  The Burnside
    verdict (rows of `zero_pattern` holding a zero) and the dual-Burnside
    verdict (its zero-free columns) read one zero pattern of the table.

    `d` is the FP column (column 0 of `table`; NotNormalizable without one),
    `dual` the analysis of the dual at it, whose basis element j is the
    table's column j, and `dual_match` the column of `dual.table` at each
    primal basis element."""

    def __init__(self, data: FusionData, tol: Tolerance = DEFAULT_TOL, seed: int = 0):
        self.data = data
        self.tol = tol
        self.seed = seed

    @cached_property
    def flags(self) -> FlagSet:
        return self.data.flags_at(self.tol)

    @cached_property
    def support(self) -> np.ndarray:
        """S[i, j, k]: x_k is a constituent of x_i x_j at the analysis
        tolerance (read-only; see `core._constituents`)."""
        return _constituents(self.data, self.tol)

    @cached_property
    def table(self) -> CharacterTable:
        return character_table(self.data, tol=self.tol, seed=self.seed)

    @cached_property
    def d(self) -> np.ndarray:
        return self.table.fp_dims()

    @cached_property
    def normalized(self) -> np.ndarray:
        """nu[i, j] = mu_j(x_i) / d_i: the table on the normalized basis."""
        return self.table.values / self.d[:, None]

    @cached_property
    def fp_agreement(self) -> np.ndarray:
        """[i, j]: mu_j(x_i) = d_i within tolerance (i in ker mu_j)."""
        return self.tol.agrees(self.table.values, self.d[:, None])

    @cached_property
    def modulus_agreement(self) -> np.ndarray:
        """[i, j]: |mu_j(x_i)| = d_i within tolerance (j in Z(x_i))."""
        return self.tol.agrees(np.abs(self.table.values), self.d[:, None])

    @cached_property
    def n_h(self) -> float:
        return order(self.table)

    @cached_property
    def exact_d(self) -> list | None:
        """The FP column as ints and Fractions, else None: on an exact tensor
        when it is exactly a character, on a floating one when it snaps."""
        if self.data.is_exact:
            return exact_character(self.data, self.d, self.tol)
        snapped = snap_array(self.d, self.tol)
        return None if snapped is None else snapped.tolist()

    def exact_fp(self, x) -> int | Fraction | float:
        """The FP value sum_k x_k d_k of the element with coordinates `x`: an
        int or Fraction when certified, else the float.

        On an exact tensor it is read off `exact_d` when that exists, else is
        x_0 when x is a multiple of the unit, else is the snap of the float
        confirmed by `verify_fp_value`.  On a floating tensor it is the snap.
        """
        value = float(np.dot(np.array(x, dtype=float), self.d))
        if not self.data.is_exact:
            return snap_value(value, self.tol)
        if self.exact_d is not None:
            exact = sum(xk * dk for xk, dk in zip(x, self.exact_d))
        elif not any(x[1:]):
            exact = x[0]
        else:
            exact = snap_value(value, self.tol)
            if isinstance(exact, float) or not verify_fp_value(self.data, x, exact, self.tol):
                return value
        return int(exact) if exact.denominator == 1 else exact

    @cached_property
    def fpdim(self) -> int | Fraction | float:
        """FPdim(H) = n(H), the FP value of I(1): exact when certified, else
        the float n(H)."""
        value = self.exact_fp(regular_element(self.data).coords)
        return self.n_h if isinstance(value, float) else value

    @cached_property
    def dim_squares(self) -> list:
        """d_i^2, the FP value of x_i x_{i*} (the row tensor[i, i*]): exact
        when certified, else the float."""
        rows = self.data.tensor[np.arange(self.data.rank), self.data.involution]
        return [self.exact_fp(row.tolist()) for row in rows]

    @cached_property
    def grouplikes(self) -> tuple:
        """Indices with x x* supported on the unit alone; with an FP column the
        normalizable criterion h_i d_i d_{i*} = 1 must pick the same set."""
        g = grouplike_indices(self)
        if self.table.fp_index is not None:
            hdd = self.table.h * self.d * self.d[list(self.data.involution)]
            alt = tuple(np.flatnonzero(np.abs(hdd - 1.0) <= VALUE_SLACK * self.tol.zero(1.0)).tolist())
            if alt != g:
                raise CrossCheckFailed(
                    f"grouplike sets disagree: tensor {g} vs h*d*d {alt}"
                )
        return g

    @cached_property
    def grouplike_chars(self) -> tuple:
        """Characters with maximal formal codegree n_j = n(H); the value test
        |mu_j(x_i)| = d_i for all i (the intersection of the centers Z(x_i))
        must pick the same set."""
        by_codegree = tuple(np.flatnonzero(self.tol.agrees(self.table.codegrees, self.n_h)).tolist())
        by_values = tuple(np.flatnonzero(self.modulus_agreement.all(axis=0)).tolist())
        if by_codegree != by_values:
            raise CrossCheckFailed(
                f"grouplike characters: codegree test {by_codegree} vs value test {by_values}"
            )
        return by_codegree

    @cached_property
    def zero_pattern(self) -> np.ndarray:
        """[i, j]: mu_j(x_i) = 0, i.e. |mu_j(x_i)| <= tol.zero(max_i |mu_j(x_i)|).
        Burnside reads its rows that hold a zero, dual-Burnside its zero-free
        columns."""
        values = np.abs(self.table.values)
        return values <= self.tol.zero(values.max(axis=0))

    @cached_property
    def vanishing(self) -> tuple:
        return vanishing_elements(self)

    @cached_property
    def burnside(self) -> tuple:
        """(verdict, witness): the non-vanishing elements are the grouplikes."""
        nonvanishing = set(range(self.data.rank)) - set(self.vanishing)
        return _matches_grouplikes(nonvanishing, self.grouplikes)

    @cached_property
    def dual_burnside(self) -> tuple:
        """(verdict, witness): the zero-free characters are the grouplike ones."""
        zero_free = set(np.flatnonzero(~self.zero_pattern.any(axis=0)).tolist())
        return _matches_grouplikes(zero_free, self.grouplike_chars)

    @cached_property
    def adjoint(self) -> SubHypergroup:
        return adjoint(self)

    @cached_property
    def series(self) -> CentralSeries:
        return central_series(self)

    @cached_property
    def dual(self) -> RingAnalysis:
        """The analysis of the dual, at the analysis's tolerance and seed."""
        return RingAnalysis(dual_hypergroup(self), self.tol, self.seed)

    @property
    def orders_hat(self) -> np.ndarray:
        """h-hat_j = n(H)/n_j (Lemma 2.6), which `dual_hypergroup` checks the
        dual tensor's own orders against."""
        return self.n_h / self.table.codegrees

    @cached_property
    def dual_match(self) -> np.ndarray:
        """dual_match[i]: the column of the dual's character table that is
        evaluation at x_i / d_i, the row `normalized[i]` over the dual basis.
        It aligns the dual's canonical character order with the primal basis."""
        rows = self.normalized
        return _match_columns(
            self.dual.table.values,
            rows,
            ROUTE_SLACK * self.tol.zero(1.0 + np.abs(rows).max()),
            lambda i, resid: "dual alignment: cannot align dual character"
            f" for basis element {i} (residual {resid:.3e})",
        )
