"""Structure-constant data for hypergroups and fusion rings.

The central object is FusionData: a rank, an involution of the basis, and the
m x m x m tensor with tensor[i, j, k] the coefficient of basis element k in the
product of elements i and j.  Index 0 is always the unit.

Scalars are plain Python numbers.  Exact tensors hold int / Fraction entries in
an object-dtype array (promotion is integer -> rational); floating tensors hold
float64.  Promotion to float is one-way: floats only ever enter through the
spectral code, never by mutating an exact ring.  Exact arithmetic reads one
form of the ring, `FusionData.integer_tensor()` = (L, C = L N): a vector is
cleared on its own by `integer_form` and contracted with C on Python ints.
A FusionData holds only the tensor, its float and integer forms and the flags
of `validate`, which `load` runs before any analysis exists; the constituent
relation (`_constituents`) at a tolerance is held by the ring's RingAnalysis.

Construction coerces scalars by dtype: integer and bool arrays become Python
ints and float arrays float64, one whole-array call each, as does object input
whose entries are all int, Fraction or float.  Only object input that mixes in
other types (numpy scalars, other rationals) goes entry by entry.
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
from .tolerance import DEFAULT_TOL, Tolerance, snap_array

__all__ = [
    "FusionData",
    "FlagSet",
    "Element",
    "orders",
    "validate",
    "multiply",
    "rescale",
    "normalize",
    "basis_element",
    "involution_of",
    "exact_character",
    "regular_element",
    "prime_factorization",
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


def _entries(tensor) -> tuple[np.ndarray, str]:
    """A fresh flat array of the tensor's entries under the `_coerce_scalar`
    rules, and their scalar kind.

    Integer and bool arrays become Python ints and float arrays float64, one
    call each.  Object input is sorted by its set of entry types: int,
    Fraction and float entries convert as a whole, with only the Fractions
    visited to turn denominator 1 into int; any other type sends every entry
    through `_coerce_scalar`.
    """
    arr = tensor if isinstance(tensor, np.ndarray) else np.array(tensor, dtype=object)
    if arr.dtype.kind in "biu":
        # a bool array would keep bools in the object array
        ints = arr.astype(np.int8) if arr.dtype == bool else arr
        return ints.astype(object).ravel(), "integer"
    if arr.dtype.kind == "f":
        return _finite(arr.astype(np.float64).ravel()), "float"
    flat = np.array(arr, dtype=object).ravel()
    types = set(map(type, flat))
    if not types <= {int, Fraction, float}:
        flat = np.array([_coerce_scalar(x) for x in flat], dtype=object)
        types = set(map(type, flat))
    if float in types:
        return _finite(flat.astype(np.float64)), "float"
    if Fraction not in types:
        return flat, "integer"
    fracs = np.flatnonzero(np.frompyfunc(type, 1, 1)(flat) == Fraction)
    whole = fracs[np.array([x.denominator == 1 for x in flat[fracs]], dtype=bool)]
    flat[whole] = [x.numerator for x in flat[whole]]
    return flat, "integer" if len(whole) == len(fracs) else "rational"


def _finite(flat: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(flat))
    if len(bad):
        raise ValueError(f"non-finite scalar {float(flat[bad[0]])!r}")
    return flat


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class FusionData:
    """A hypergroup presented by its structure-constant tensor.

    Immutable after construction.  `tensor` is (m, m, m) with
    tensor[i, j, k] = N_{ij}^k and index 0 the unit of the basis.
    """

    def __init__(self, name: str, involution, tensor):
        flat, self._kind = _entries(tensor)
        m = round(len(flat) ** (1 / 3))
        if m == 0 or m**3 != len(flat):
            raise DimensionMismatch(f"tensor with {len(flat)} entries is not a nonempty cube")
        self.name = name
        self.rank = m
        involution = tuple(involution)
        if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in involution):
            raise DimensionMismatch(f"involution {list(involution)} has a non-integer entry")
        self.involution = tuple(int(i) for i in involution)
        if len(self.involution) != m:
            raise DimensionMismatch(
                f"involution length {len(self.involution)} != rank {m}"
            )
        if any(not (0 <= x < m) for x in self.involution):
            raise DimensionMismatch("involution entries out of range")
        self.is_exact = self._kind != "float"
        self.tensor = _freeze(flat.reshape(m, m, m))
        self._float_tensor = None
        self._integer_tensor = None
        self._flags = {}

    def float_tensor(self) -> np.ndarray:
        """float64 view of the tensor (cached)."""
        if self._float_tensor is None:
            self._float_tensor = (
                _freeze(self.tensor.astype(np.float64)) if self.is_exact else self.tensor
            )
        return self._float_tensor

    def integer_tensor(self) -> tuple[int, np.ndarray]:
        """(L, C = L * N), the integer form `integer_form(tensor, terms=rank)`
        of an exact tensor (cached): the one exact form of the ring."""
        if self._integer_tensor is None:
            scale, cleared = integer_form(self.tensor, terms=self.rank)
            self._integer_tensor = scale, _freeze(cleared)
        return self._integer_tensor

    @property
    def scalar_kind(self) -> str:
        return self._kind

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

    def with_name(self, name: str) -> "FusionData":
        other = FusionData.__new__(FusionData)
        other.__dict__.update(self.__dict__)
        other.name = name
        return other

    def __repr__(self):
        return f"FusionData({self.name!r}, rank={self.rank}, kind={self.scalar_kind})"


def _constituents(data: FusionData, tol: Tolerance) -> np.ndarray:
    """The constituent relation as a read-only boolean (m, m, m) array:
    S[i, j, k] says x_k is a constituent of x_i x_j, that is, N_ij^k is
    nonzero.  S = N != 0 on exact tensors and |N| > tol.zero(1 + max|N|) on
    floating ones; on RN data, which has no entry below -tol.zero(max|N|),
    this is N > 0 within tol."""
    if data.is_exact:
        return _freeze(data.tensor != 0)
    magnitude = np.abs(data.tensor)
    return _freeze(magnitude > tol.zero(1.0 + float(magnitude.max())))


@dataclass(frozen=True)
class FlagSet:
    # no `real` flag: FusionData rejects complex scalars, so every tensor is real
    symmetric: bool
    normalized: bool
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


def check_length(data: FusionData, *elements) -> None:
    """Raise DimensionMismatch unless each element (an Element or a sequence
    of coordinates) has one coordinate per basis element."""
    if any(len(x) != data.rank for x in elements):
        raise DimensionMismatch("element length != rank")


def _bad_indices(rank: int, indices) -> list:
    """The entries of `indices` that name no basis element: an index is an
    integer 0 <= i < rank, so a negative index does not wrap, and a float or
    a bool is not an index."""
    return [i for i in indices
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < rank]


def check_indices(data: FusionData, indices) -> None:
    """Raise DimensionMismatch unless each index names a basis element."""
    outside = _bad_indices(data.rank, indices)
    if outside:
        shown = ", ".join(map(str, outside))
        raise DimensionMismatch(f"indices [{shown}] are out of range for rank {data.rank}")


def basis_element(data: FusionData, i: int) -> Element:
    check_indices(data, [i])
    coords = [0] * data.rank
    coords[i] = 1
    return Element(tuple(coords))


def regular_element(data: FusionData, indices=None) -> Element:
    """I_S(1) = sum_{i in S} h_i x_i x_{i*} = sum_{i in S} N_{ii*} / N_{ii*}^0
    over the set S of basis indices (default: all, giving I(1); a repeated
    index counts once); exact on an exact tensor, where it is
    sum_{i in S} C_{ii*} / C_{ii*}^0 (L cancels)."""
    if indices is not None:
        check_indices(data, indices)
    idx = np.arange(data.rank) if indices is None else np.asarray(sorted(set(indices)), dtype=int)
    pairs = idx, np.array(data.involution)[idx]
    rows = (data.integer_tensor()[1] if data.is_exact else data.tensor)[pairs]
    if not rows[:, 0].all():
        i = idx[rows[:, 0] == 0][0]
        raise AxiomViolation("involution", (int(i), data.involution[i], 0), "N_{ii*}^0 = 0")
    if not data.is_exact:
        return Element(tuple(np.einsum("i,ik->k", 1.0 / rows[:, 0], rows).tolist()))
    rows = rows.astype(object)
    den = math.lcm(*rows[:, 0].tolist())
    return Element(tuple(Fraction(n, den) for n in (den // rows[:, 0]) @ rows))


def involution_of(unit_column: np.ndarray, threshold=0, error=None) -> tuple:
    """Def 1.1: i* is the one j with |N_{ij}^0| > threshold, read from
    unit_column[i, j] = N_{ij}^0 (threshold 0, exact, on an integer tensor).
    A row with any other number of such j raises error(i, hits), by default
    an AxiomViolation."""
    inv = []
    for i, row in enumerate(np.abs(unit_column) > threshold):
        hits = np.flatnonzero(row).tolist()
        if len(hits) != 1:
            if error is None:
                raise AxiomViolation("involution", (i,), f"N_{{ij}}^0 != 0 for j in {hits}")
            raise error(i, hits)
        inv.append(hits[0])
    return tuple(inv)


def orders(data: FusionData) -> list:
    """h_i = 1 / N_{i,i*}^0, the order of each basis element."""
    hs = []
    for i in range(data.rank):
        n = data.tensor[i, data.involution[i], 0]
        if n == 0:
            raise AxiomViolation("involution", (i, data.involution[i], 0), "N_{ii*}^0 = 0")
        hs.append(Fraction(1, 1) / Fraction(n) if not isinstance(n, float) else 1.0 / n)
    return hs


def prime_factorization(n: int) -> dict:
    """{p: e} with n = prod p^e, by trial division."""
    n = int(n)
    if n <= 0:
        raise ValueError("need a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """comp[v]: the connected component of v in the graph on range(n) with the
    edges a[e] - b[e], numbered in the order of the components' least members.

    Each vertex's label starts as itself; every pass lowers both ends of each
    edge to the lower label and then replaces each label by its own label
    (pointer jumping), until nothing changes, when each label is the least
    member of its component.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if (new == label).all():
            return (np.cumsum(label == np.arange(n)) - 1)[label]
        label = new


def integer_form(array, terms: int | None = None) -> tuple[int, np.ndarray]:
    """(L, L * a) for an exact (int / Fraction) array a, L the lcm of its
    denominators, as Python ints.  Given `terms`, the cleared array is int64
    when no sum of `terms` products of two cleared entries can overflow
    (terms * B**2 < 2**62, B the largest of L and the cleared magnitudes).
    """
    flat = np.asarray(array, dtype=object).ravel().tolist()
    scale = math.lcm(*{x.denominator for x in flat})
    cleared = [x.numerator * (scale // x.denominator) for x in flat]
    bound = max([scale, *map(abs, cleared)])
    small = terms is not None and terms * bound * bound < 2**62
    return scale, np.array(cleared, dtype=np.int64 if small else object).reshape(np.shape(array))


def bracketings(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of associativity for every basis triple, indexed [i, j, k, q]:
    sum_p N_{ij}^p N_{pk}^q and sum_p N_{jk}^p N_{ip}^q.

    An int64 tensor with m B^2 < 2^53 (B its largest magnitude) is multiplied
    in float64, on BLAS, and both sides come back as float64 holding the exact
    integers.  Each product of two entries is an integer of magnitude at most
    B^2, and any partial sum of the m products, in whatever order BLAS adds
    them, at most m B^2 < 2^53.  Every integer of magnitude at most 2^53 is a
    float64, and an IEEE operation whose exact result is representable returns
    it, so no product or sum rounds.  From 2^53 up the product stays int64
    (or object, for an object tensor).
    """
    if tensor.dtype == np.int64:
        bound = max(1, int(tensor.max()), -int(tensor.min()))
        if tensor.shape[0] * bound * bound < 2**53:
            tensor = tensor.astype(np.float64)
    lhs = np.tensordot(tensor, tensor, axes=(2, 0))
    rhs = np.tensordot(tensor, tensor, axes=(2, 1)).transpose(2, 0, 1, 3)
    return lhs, rhs


def validate(data: FusionData, tol: Tolerance = DEFAULT_TOL) -> FlagSet:
    """Check every hypergroup axiom and compute the flag set by tensor inspection.

    Raises AxiomViolation (with the first failing index tuple) or
    DimensionMismatch.  One pass checks both kinds of tensor on an array A
    with unit value `one`: an exact tensor on its integer form (A = L * N,
    one = L) with every zero test exact, a floating tensor on A = N, one = 1,
    within tol.zero at a fixed scale per law: s = max|N|, max(s^2 m, s) for
    associativity and max(s, 1) m for the row sums of `normalized`.  Each law
    names the index tuple that an element-by-element scan in the order
    written first finds failing.
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
    exact = data.is_exact
    if exact:
        one, A = data.integer_tensor()
        s, eps = 0, lambda scale: 0
    else:
        one, A = 1.0, N
        s, eps = float(np.abs(N).max()), tol.zero
    zero = eps(s)
    diag = np.arange(m)

    # unit laws: A[0, j, k] = A[j, 0, k] = one delta_{jk}; (0, j, k) before (j, 0, k)
    unit = np.zeros((m, m), dtype=A.dtype)
    unit[diag, diag] = one
    left = np.abs(A[0] - unit) > zero
    right = np.abs(A[:, 0] - unit) > zero
    hit = _first(left | right)
    if hit is not None:
        j, k = hit
        raise AxiomViolation("unit", (0, j, k) if left[j, k] else (j, 0, k))

    # Def 1.1: N_{ij}^0 = 0 unless j = i*, and N_{i,i*}^0 > 0
    col0 = A[:, :, 0]
    on_inv = np.zeros((m, m), dtype=bool)
    on_inv[diag, inv] = True
    hit = _first(np.where(on_inv, col0 <= zero, np.abs(col0) > zero))
    if hit is not None:
        i, j = hit
        if on_inv[i, j]:
            raise AxiomViolation("involution", (i, j, 0), "N_{ii*}^0 <= 0")
        raise AxiomViolation("involution", (i, j, 0), "N_{ij}^0 != 0 off involution")

    # associativity; on the integer form both sides scale by L^2
    lhs, rhs = bracketings(A)
    hit = _first(lhs != rhs if exact else np.abs(lhs - rhs) > eps(max(s * s * m, s)))
    if hit is not None:
        raise AxiomViolation("associativity", hit)

    rn = bool((A >= -zero).all())
    unit_coeffs = col0[diag, inv]
    if exact:
        # N_{ii*}^0 = c / L with c > 0, so h_i = 1 / N_{ii*}^0 = L / c
        h_integral = (one % unit_coeffs == 0).all()
    else:
        h = 1.0 / unit_coeffs
        h_integral = (np.abs(h - np.round(h)) <= tol.zero(h)).all()
    return FlagSet(
        symmetric=bool((np.abs(col0 - col0.T) <= zero).all()),
        normalized=bool((np.abs(A.sum(axis=2) - one) <= eps(max(s, 1.0) * m)).all()),
        rational=exact,
        real_non_negative=rn,
        abelian=bool((np.abs(A - A.transpose(1, 0, 2)) <= zero).all()),
        fusion_ring=rn and exact and one == 1 and bool((unit_coeffs == 1).all()),
        h_integral=bool(h_integral),
    )


def _first(mask: np.ndarray) -> tuple | None:
    """Row-major first True index of a boolean array, or None."""
    hits = np.flatnonzero(mask)
    if not len(hits):
        return None
    return tuple(int(t) for t in np.unravel_index(hits[0], mask.shape))


def multiply(data: FusionData, x: Element, y: Element) -> Element:
    """Product of two elements; exact whenever both inputs and the tensor are exact."""
    check_length(data, x, y)
    if data.is_exact and x.is_exact and y.is_exact:
        # x = u / Dx, y = v / Dy, N = C / L: x y = sum_ij u_i v_j C_ij / (L Dx Dy)
        L, C = data.integer_tensor()
        (dx, u), (dy, v) = integer_form(x.coords), integer_form(y.coords)
        i, j = np.flatnonzero(u), np.flatnonzero(v)
        num = v[j] @ np.tensordot(u[i], C[np.ix_(i, j)], axes=(0, 0))
        return Element(tuple(Fraction(n, L * dx * dy) for n in num))
    N = data.float_tensor()
    out = np.einsum("i,j,ijk->k", x.float_coords(), y.float_coords(), N)
    return Element(tuple(float(v) for v in out))


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
        # N = C / L and alpha = w / D: N_ij^k a_k / (a_i a_j) = D C_ij^k w_k / (L w_i w_j)
        L, C = data.integer_tensor()
        D, w = integer_form(alphas)
        num = (C * (D * w)[None, None, :]).ravel().tolist()
        den = np.broadcast_to(L * w[:, None, None] * w[None, :, None], C.shape).ravel().tolist()
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
    snapped = snap_array(values, tol)
    if snapped is None:
        return None
    snapped = snapped.tolist()
    # N = C / L and v = w / D: sum_k C_ij^k w_k / (L D) = w_i w_j / D^2
    L, C = data.integer_tensor()
    D, w = integer_form(snapped)
    return snapped if (D * (C @ w) == L * np.outer(w, w)).all() else None


def normalizing_column(values, involution, tol: Tolerance = DEFAULT_TOL) -> list:
    """The real parts of a normalizing character's value vector, checked
    within tol: the values are real, nonzero, 1 at the unit and equal at i
    and i* (else NotNormalizable)."""
    m = len(involution)
    floats = [complex(v) for v in np.asarray(values).ravel()]
    if len(floats) != m:
        raise DimensionMismatch("character vector length != rank")
    if any(abs(v.imag) > tol.zero(abs(v)) for v in floats):
        raise NotNormalizable("normalizing character must be real-valued here")
    reals = [v.real for v in floats]
    if any(abs(v) <= tol.zero(1.0) for v in reals):
        bad = min(range(m), key=lambda i: abs(reals[i]))
        raise NotNormalizable(f"character vanishes on basis element {bad}")
    if abs(reals[0] - 1.0) > tol.zero(1.0):
        raise NotNormalizable(f"normalizing character is {reals[0]!r} at the unit")
    for i in range(m):
        if abs(reals[i] - reals[involution[i]]) > tol.zero(abs(reals[i])):
            raise NotNormalizable(f"character values at {i} and {involution[i]} differ")
    return reals


def normalize(data: FusionData, mu1_values, tol: Tolerance = DEFAULT_TOL) -> FusionData:
    """Rescale by a non-vanishing character so every row sum of the tensor is 1.

    `mu1_values` is the value vector of the normalizing character (a character
    table column), checked by `normalizing_column`.  When the tensor is exact
    and the values snap to rationals that satisfy the character equation
    exactly, the result stays exact.
    """
    reals = normalizing_column(mu1_values, data.involution, tol)
    snapped = exact_character(data, reals, tol) if data.is_exact else None
    if snapped is not None:
        if all(s == 1 for s in snapped):
            return data
        return rescale(data, snapped).with_name(f"{data.name}/normalized")
    # rescale compares its scalars exactly: hand it an exact 1 at the unit and
    # equal values at i and i*
    inv = data.involution
    alphas = [1] + [(reals[i] + reals[inv[i]]) / 2 for i in range(1, data.rank)]
    return rescale(data, alphas).with_name(f"{data.name}/normalized")
