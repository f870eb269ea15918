"""Structure-constant data for hypergroups and fusion rings.

The central object is FusionData: a rank, an involution of the basis, and the
m x m x m tensor with tensor[i, j, k] the coefficient of basis element k in the
product of elements i and j.  Index 0 is always the unit.

Scalars are plain Python numbers.  Exact tensors hold int / Fraction entries in
an object-dtype array (promotion is integer -> rational); floating tensors hold
float64.  Promotion to float is one-way: floats only ever enter through the
spectral code, never by mutating an exact ring.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    AxiomViolation,
    DimensionMismatch,
    InvalidRescale,
    NotNormalizable,
)
from .tolerance import DEFAULT_TOL, Tolerance, snap_value

__all__ = [
    "FusionData",
    "FlagSet",
    "Element",
    "orders",
    "validate",
    "multiply",
    "tau_pairing",
    "rescale",
    "normalize",
    "basis_element",
    "exact_character",
    "regular_element",
    "scalar_kind",
]


def _coerce_scalar(x):
    """Normalize a raw entry to int, Fraction (reduced) or finite float."""
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not np.isfinite(x):
            raise ValueError(f"non-finite scalar {x!r}")
        return x
    if isinstance(x, numbers.Rational):
        return _coerce_scalar(Fraction(x))
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def scalar_kind(value) -> str:
    """One of 'integer', 'rational', 'float'."""
    if isinstance(value, int):
        return "integer"
    if isinstance(value, Fraction):
        return "rational"
    if isinstance(value, float):
        return "float"
    raise TypeError(f"not a library scalar: {type(value).__name__}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class FusionData:
    """A hypergroup presented by its structure-constant tensor.

    Immutable after construction.  `tensor` is (m, m, m) with
    tensor[i, j, k] = N_{ij}^k and index 0 the unit of the basis.
    """

    def __init__(self, name: str, involution, tensor):
        entries = [_coerce_scalar(x) for x in np.asarray(tensor, dtype=object).ravel()]
        m3 = len(entries)
        m = round(m3 ** (1 / 3))
        if m**3 != m3:
            raise DimensionMismatch(f"tensor with {m3} entries is not a cube")
        self.name = name
        self.rank = m
        self.involution = tuple(int(i) for i in involution)
        if len(self.involution) != m:
            raise DimensionMismatch(
                f"involution length {len(self.involution)} != rank {m}"
            )
        if any(x != int(x) or not (0 <= x < m) for x in self.involution):
            raise DimensionMismatch("involution entries out of range")
        self.is_exact = not any(isinstance(x, float) for x in entries)
        if self.is_exact:
            arr = np.empty((m, m, m), dtype=object)
            arr.ravel()[:] = entries
        else:
            arr = np.array([float(x) for x in entries], dtype=np.float64).reshape(
                m, m, m
            )
        self.tensor = _freeze(arr)
        self._float_tensor = None
        self._flags = {}
        self._support = {}

    def float_tensor(self) -> np.ndarray:
        """float64 view of the tensor (cached)."""
        if self._float_tensor is None:
            if self.is_exact:
                self._float_tensor = _freeze(
                    np.array(
                        [float(x) for x in self.tensor.ravel()], dtype=np.float64
                    ).reshape(self.tensor.shape)
                )
            else:
                self._float_tensor = self.tensor
        return self._float_tensor

    @property
    def scalar_kind(self) -> str:
        if not self.is_exact:
            return "float"
        if any(isinstance(x, Fraction) for x in self.tensor.ravel()):
            return "rational"
        return "integer"

    def left_matrix(self, i: int) -> np.ndarray:
        """Matrix of left multiplication by basis element i: L[k, j] = N_{ij}^k."""
        return self.tensor[i].T

    def left_matrices_float(self) -> np.ndarray:
        """(m, m, m) stack, entry [i] the float left-multiplication matrix of x_i."""
        return self.float_tensor().transpose(0, 2, 1)

    @property
    def flags(self) -> "FlagSet":
        return self.flags_at(DEFAULT_TOL)

    def flags_at(self, tol: Tolerance) -> "FlagSet":
        """validate(self, tol), run once per tolerance; exact tensors validate
        identically at every tolerance, so they run it once."""
        key = None if self.is_exact else tol
        if key not in self._flags:
            self._flags[key] = validate(self, tol)
        return self._flags[key]

    def support_at(self, tol: Tolerance) -> np.ndarray:
        """The constituent relation as a read-only boolean (m, m, m) array:
        S[i, j, k] says x_k is a constituent of x_i x_j.  S = N > 0 on exact
        tensors and N > tol.zero(1 + max|N|) on floating ones; built once per
        tolerance, and once for an exact tensor."""
        key = None if self.is_exact else tol
        if key not in self._support:
            self._support[key] = _freeze(_constituents(self, tol))
        return self._support[key]

    def with_name(self, name: str) -> "FusionData":
        other = FusionData.__new__(FusionData)
        other.__dict__.update(self.__dict__)
        other.name = name
        return other

    def __repr__(self):
        return f"FusionData({self.name!r}, rank={self.rank}, kind={self.scalar_kind})"


def _constituents(data: FusionData, tol: Tolerance) -> np.ndarray:
    if data.is_exact:
        return data.tensor > 0
    return data.tensor > tol.zero(1.0 + float(np.abs(data.tensor).max()))


@dataclass(frozen=True)
class FlagSet:
    symmetric: bool
    normalized: bool
    real: bool
    rational: bool
    real_non_negative: bool
    abelian: bool
    fusion_ring: bool
    h_integral: bool

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class Element:
    """Coordinates of an algebra element in the standard basis."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(_coerce_scalar(c) for c in self.coords)
        )

    @property
    def is_exact(self) -> bool:
        return not any(isinstance(c, float) for c in self.coords)

    def float_coords(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords], dtype=np.float64)

    def __len__(self):
        return len(self.coords)


def basis_element(data: FusionData, i: int) -> Element:
    coords = [0] * data.rank
    coords[i] = 1
    return Element(tuple(coords))


def regular_element(data: FusionData) -> Element:
    """I(1) = sum_i h_i x_i x_{i*}; exact (Fractions) on exact tensors."""
    m = data.rank
    inv = data.involution
    hs = orders(data)
    if data.is_exact:
        coords = [Fraction(0)] * m
        for i in range(m):
            row = data.tensor[i, inv[i]]
            for k in range(m):
                if row[k] != 0:
                    coords[k] += Fraction(hs[i]) * Fraction(row[k])
        return Element(tuple(coords))
    N = data.float_tensor()
    coords = np.einsum("i,ik->k", np.array(hs, dtype=float), N[np.arange(m), inv, :])
    return Element(tuple(float(c) for c in coords))


def orders(data: FusionData) -> list:
    """h_i = 1 / N_{i,i*}^0, the order of each basis element."""
    hs = []
    for i in range(data.rank):
        n = data.tensor[i, data.involution[i], 0]
        if n == 0:
            raise AxiomViolation("involution", (i, data.involution[i], 0), "N_{ii*}^0 = 0")
        hs.append(Fraction(1, 1) / Fraction(n) if not isinstance(n, float) else 1.0 / n)
    return hs


def integer_form(*arrays, terms: int) -> tuple[int, list[np.ndarray]]:
    """Clear the denominators of exact (int / Fraction) arrays together.

    Returns (L, [L * a for a in arrays]) with L the lcm of every denominator.
    An equation whose terms are all products of the same number of entries
    holds for the cleared arrays exactly when it holds for the originals.
    The cleared arrays are int64 when no sum of `terms` products of two
    cleared entries can overflow (terms * B**2 < 2**62, B the largest of L and
    the cleared magnitudes), else object arrays of Python ints.
    """
    flats = [list(np.asarray(a, dtype=object).ravel()) for a in arrays]
    scale = math.lcm(*{x.denominator for flat in flats for x in flat})
    cleared = [[x.numerator * (scale // x.denominator) for x in flat] for flat in flats]
    bound = max(scale, *(max(map(abs, c), default=0) for c in cleared))
    dtype = np.int64 if terms * bound * bound < 2**62 else object
    return scale, [
        np.array(c, dtype=dtype).reshape(np.shape(a)) for c, a in zip(cleared, arrays)
    ]


def bracketings(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of associativity for every basis triple, indexed [i, j, k, q]:
    sum_p N_{ij}^p N_{pk}^q and sum_p N_{jk}^p N_{ip}^q."""
    lhs = np.tensordot(tensor, tensor, axes=(2, 0))
    rhs = np.tensordot(tensor, tensor, axes=(2, 1)).transpose(2, 0, 1, 3)
    return lhs, rhs


def validate(data: FusionData, tol: Tolerance = DEFAULT_TOL) -> FlagSet:
    """Check every hypergroup axiom and compute the flag set by tensor inspection.

    Raises AxiomViolation (with the first failing index tuple) or
    DimensionMismatch.  Exact tensors are checked exactly on their integer
    form; floating tensors are checked within `tol`.
    """
    m = data.rank
    N = data.tensor
    inv = data.involution
    if N.shape != (m, m, m):
        raise DimensionMismatch(f"tensor shape {N.shape} != ({m}, {m}, {m})")
    if sorted(inv) != list(range(m)):
        raise AxiomViolation("involution", (0,), "not a permutation")
    if inv[0] != 0:
        raise AxiomViolation("involution", (0,), "involution must fix the unit")
    for i in range(m):
        if inv[inv[i]] != i:
            raise AxiomViolation("involution", (i,), "not an involution")
    if data.is_exact:
        return _validate_exact(data)

    scale = float(max(abs(float(x)) for x in N.ravel())) if m else 0.0

    # unit laws: tensor[0, j, k] = tensor[j, 0, k] = delta_{jk}
    for j in range(m):
        for k in range(m):
            want = 1 if j == k else 0
            if abs(N[0, j, k] - want) > tol.zero(scale):
                raise AxiomViolation("unit", (0, j, k))
            if abs(N[j, 0, k] - want) > tol.zero(scale):
                raise AxiomViolation("unit", (j, 0, k))

    # Def 1.1: N_{ij}^0 = 0 unless j = i*, and N_{i,i*}^0 > 0
    for i in range(m):
        for j in range(m):
            e = N[i, j, 0]
            if j == inv[i]:
                if not e > tol.zero(scale):
                    raise AxiomViolation("involution", (i, j, 0), "N_{ii*}^0 <= 0")
            elif abs(e) > tol.zero(scale):
                raise AxiomViolation("involution", (i, j, 0), "N_{ij}^0 != 0 off involution")

    # associativity: sum_p N_{ij}^p N_{pk}^q = sum_p N_{jk}^p N_{ip}^q
    lhs, rhs = bracketings(N)
    assoc_scale = max(scale * scale * m, scale)
    bad = np.argwhere(np.abs(lhs - rhs) > tol.zero(assoc_scale))
    if len(bad):
        i, j, k, q = (int(t) for t in bad[0])
        raise AxiomViolation("associativity", (i, j, k, q))

    return _compute_flags(data, tol, scale)


def _first(mask: np.ndarray) -> tuple | None:
    """Row-major first True index of a boolean array, or None."""
    hits = np.flatnonzero(mask)
    if not len(hits):
        return None
    return tuple(int(t) for t in np.unravel_index(hits[0], mask.shape))


def _validate_exact(data: FusionData) -> FlagSet:
    """validate on C = L * N, the integer form of an exact tensor.

    Each law names the index tuple that an element-by-element scan in the
    order written first finds failing."""
    m = data.rank
    inv = np.array(data.involution, dtype=np.intp)
    L, (C,) = integer_form(data.tensor, terms=m)
    diag = np.arange(m)

    # unit laws: C[0, j, k] = C[j, 0, k] = L delta_{jk}; (0, j, k) before (j, 0, k)
    unit = np.zeros((m, m), dtype=C.dtype)
    unit[diag, diag] = L
    left, right = C[0] != unit, C[:, 0] != unit
    hit = _first(left | right)
    if hit is not None:
        j, k = hit
        raise AxiomViolation("unit", (0, j, k) if left[j, k] else (j, 0, k))

    # Def 1.1: N_{ij}^0 = 0 unless j = i*, and N_{i,i*}^0 > 0
    col0 = C[:, :, 0]
    on_inv = np.zeros((m, m), dtype=bool)
    on_inv[diag, inv] = True
    hit = _first(np.where(on_inv, col0 <= 0, col0 != 0))
    if hit is not None:
        i, j = hit
        if on_inv[i, j]:
            raise AxiomViolation("involution", (i, j, 0), "N_{ii*}^0 <= 0")
        raise AxiomViolation("involution", (i, j, 0), "N_{ij}^0 != 0 off involution")

    # associativity; both sides scale by L^2
    lhs, rhs = bracketings(C)
    hit = _first(lhs != rhs)
    if hit is not None:
        raise AxiomViolation("associativity", hit)

    rn = bool((C >= 0).all())
    # N_{ii*}^0 = c / L with c > 0, so 1 / N_{ii*}^0 = L / c
    unit_coeffs = col0[diag, inv]
    return FlagSet(
        symmetric=bool((col0 == col0.T).all()),
        normalized=bool((C.sum(axis=2) == L).all()),
        real=True,
        rational=True,
        real_non_negative=rn,
        abelian=bool((C == C.transpose(1, 0, 2)).all()),
        fusion_ring=rn and L == 1 and bool((unit_coeffs == 1).all()),
        h_integral=bool((L % unit_coeffs == 0).all()),
    )


def _compute_flags(data: FusionData, tol: Tolerance, scale: float) -> FlagSet:
    """Flag set of a floating tensor, within `tol`."""
    m = data.rank
    N = data.tensor
    inv = data.involution
    symmetric = all(
        abs(N[a, b, 0] - N[b, a, 0]) <= tol.zero(scale)
        for a in range(m)
        for b in range(m)
    )
    normalized = all(
        abs(float(N[a, b, :].sum()) - 1.0) <= tol.zero(max(scale, 1.0) * m)
        for a in range(m)
        for b in range(m)
    )
    rn = all(x >= -tol.zero(scale) for x in N.ravel())
    h_integral = all(
        abs(1.0 / float(N[i, inv[i], 0]) - round(1.0 / float(N[i, inv[i], 0])))
        <= tol.zero(1.0 / float(N[i, inv[i], 0]))
        for i in range(m)
    )
    abelian = bool((np.abs(N - N.transpose(1, 0, 2)) <= tol.zero(scale)).all())
    return FlagSet(
        symmetric=symmetric,
        normalized=normalized,
        real=True,
        rational=False,
        real_non_negative=rn,
        abelian=abelian,
        fusion_ring=False,
        h_integral=h_integral,
    )


def multiply(data: FusionData, x: Element, y: Element) -> Element:
    """Product of two elements; exact whenever both inputs and the tensor are exact."""
    m = data.rank
    if len(x) != m or len(y) != m:
        raise DimensionMismatch("element length != rank")
    if data.is_exact and x.is_exact and y.is_exact:
        coords = [0] * m
        for i, xi in enumerate(x.coords):
            if xi == 0:
                continue
            for j, yj in enumerate(y.coords):
                if yj == 0:
                    continue
                row = data.tensor[i, j]
                for k in range(m):
                    if row[k] != 0:
                        coords[k] = coords[k] + xi * yj * row[k]
        return Element(tuple(coords))
    N = data.float_tensor()
    out = np.einsum("i,j,ijk->k", x.float_coords(), y.float_coords(), N)
    return Element(tuple(float(v) for v in out))


def tau_pairing(data: FusionData, x: Element, y: Element):
    """tau(x y*) = sum_i x_i y_i / h_i (real scalars, so y* permutes coordinates)."""
    m = data.rank
    if len(x) != m or len(y) != m:
        raise DimensionMismatch("element length != rank")
    inv = data.involution
    ystar = Element(tuple(y.coords[inv[i]] for i in range(m)))
    return multiply(data, x, ystar).coords[0]


def rescale(data: FusionData, alphas) -> FusionData:
    """New tensor for the rescaled basis y_i = x_i / alpha_i.

    Requires alpha_0 = 1, every alpha_i nonzero, and alpha_{i*} = alpha_i
    (scalars here are real, so conjugation is the identity).
    """
    m = data.rank
    alphas = [_coerce_scalar(a) for a in alphas]
    if len(alphas) != m:
        raise DimensionMismatch("alpha length != rank")
    if alphas[0] != 1:
        raise InvalidRescale("alpha_0 must be 1")
    if any(a == 0 for a in alphas):
        raise InvalidRescale("alphas must be nonzero")
    for i in range(m):
        if alphas[data.involution[i]] != alphas[i]:
            raise InvalidRescale("alpha_{i*} must equal conj(alpha_i)")
    exact = data.is_exact and not any(isinstance(a, float) for a in alphas)
    if exact:
        # with one denominator for N and alpha, N_ij^k a_k / (a_i a_j) is
        # C_ij^k w_k / (w_i w_j) on the cleared C and w
        _, (C, w) = integer_form(data.tensor, alphas, terms=1)
        num = (C * w[None, None, :]).ravel().tolist()
        den = np.broadcast_to(w[:, None, None] * w[None, :, None], C.shape).ravel().tolist()
        new = np.array(
            [Fraction(n, d) if n else 0 for n, d in zip(num, den)], dtype=object
        ).reshape(m, m, m)
    else:
        a = np.array([float(x) for x in alphas])
        new = data.float_tensor() * a[None, None, :] / (a[:, None, None] * a[None, :, None])
    return FusionData(f"{data.name}/rescaled", data.involution, new)


def exact_character(data: FusionData, values, tol: Tolerance = DEFAULT_TOL) -> list | None:
    """`values` snapped to rationals when they all snap and satisfy the
    character equation sum_k N_ij^k v_k = v_i v_j exactly (exact tensor);
    None otherwise."""
    snapped = [snap_value(float(v), tol) for v in values]
    if any(isinstance(s, float) for s in snapped):
        return None
    # with one denominator for N and v, both sides scale by its square
    _, (C, w) = integer_form(data.tensor, snapped, terms=data.rank)
    return snapped if (C @ w == np.outer(w, w)).all() else None


def normalize(data: FusionData, mu1_values, tol: Tolerance = DEFAULT_TOL) -> FusionData:
    """Rescale by a non-vanishing character so every row sum of the tensor is 1.

    `mu1_values` is the value vector of the normalizing character (a character
    table column).  When the tensor is exact and the values snap to rationals
    that satisfy the character equation exactly, the result stays exact.
    """
    m = data.rank
    vals = list(np.asarray(mu1_values).ravel())
    if len(vals) != m:
        raise DimensionMismatch("character vector length != rank")
    floats = [complex(v) for v in vals]
    if any(abs(v.imag) > tol.zero(abs(v)) for v in floats):
        raise NotNormalizable("normalizing character must be real-valued here")
    reals = [v.real for v in floats]
    if any(abs(v) <= tol.zero(1.0) for v in reals):
        bad = min(range(m), key=lambda i: abs(reals[i]))
        raise NotNormalizable(f"character vanishes on basis element {bad}")

    snapped = exact_character(data, reals, tol) if data.is_exact else None
    if snapped is not None:
        if all(s == 1 for s in snapped):
            return data
        return rescale(data, snapped).with_name(f"{data.name}/normalized")
    # rescale compares its scalars exactly: check the float column within tol,
    # then hand it an exact 1 at the unit and equal values at i and i*
    inv = data.involution
    if abs(reals[0] - 1.0) > tol.zero(1.0):
        raise NotNormalizable(f"normalizing character is {reals[0]!r} at the unit")
    for i in range(m):
        if abs(reals[i] - reals[inv[i]]) > tol.zero(abs(reals[i])):
            raise NotNormalizable(f"character values at {i} and {inv[i]} differ")
    alphas = [1] + [(reals[i] + reals[inv[i]]) / 2 for i in range(1, m)]
    return rescale(data, alphas).with_name(f"{data.name}/normalized")
