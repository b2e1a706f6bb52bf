"""Geometry and power calculus of the arrowhead light cone and its tube.

A coordinate vector x = (x_1, ..., x_m), m = 2n-1, is identified with the
symmetric arrowhead matrix whose diagonal is (x_1, ..., x_n) and whose last
row and column carry the border entries x_{2n-1}, ..., x_{n+1} (the border
partner of diagonal slot j is x_{2n-j}).  The open cone consists of the
vectors with x_1, ..., x_{n-1} > 0 and positive determinant, equivalently
positive definiteness of the matrix.  The determinant factors through the
Schur complement

    D(x) = x_n - sum_{j<n} x_{2n-j}^2 / x_j,

so the leading principal minors are M_k = x_1 ... x_k for k < n and
M_n = M_{n-1} D.

Power functions are minor-power products

    delta_power(y, s) = prod_k M_k^{s_k - s_{k+1}} * M_n^{s_n}
                      = prod_{j<n} y_j^{s_j} * D^{s_n},

and their complex extension replaces y by z/i = y - ix with the principal
branch taken minor by minor (never distributed across factors of a product,
which would not be branch-safe).

All array functions broadcast over leading batch axes; the integration
oracles feed them million-row batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BranchCutError, ConeDomainError, InvalidInputError)
from .indices import MultiIndex

BOUNDARY_RTOL = 1e-14


def order_from_dim(m: int) -> int:
    """Cone order n from ambient dimension m = 2n - 1."""
    if m < 1 or m % 2 == 0:
        raise InvalidInputError(f"ambient dimension must be odd and positive, got {m}")
    return (m + 1) // 2


def _as_coords(x) -> np.ndarray:
    arr = np.asarray(getattr(x, "coords", x), dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    order_from_dim(arr.shape[-1])
    return arr


def _entries(s) -> np.ndarray:
    """Exponent entries applied literally, whatever the convention tag."""
    if isinstance(s, MultiIndex):
        return s.values
    return np.atleast_1d(np.asarray(s, dtype=float))


def assemble_arrowhead(x) -> np.ndarray:
    """Arrowhead matrix of a coordinate vector; batched over leading axes."""
    arr = _as_coords(x)
    m = arr.shape[-1]
    n = order_from_dim(m)
    mat = np.zeros(arr.shape[:-1] + (n, n), dtype=arr.dtype)
    idx = np.arange(n)
    mat[..., idx, idx] = arr[..., :n]
    for j in range(1, n):
        mat[..., j - 1, n - 1] = arr[..., 2 * n - j - 1]
        mat[..., n - 1, j - 1] = arr[..., 2 * n - j - 1]
    return mat


def border_reversed(x: np.ndarray) -> np.ndarray:
    """Border entries ordered by diagonal partner: (x_{2n-1}, ..., x_{n+1})."""
    arr = _as_coords(x)
    n = order_from_dim(arr.shape[-1])
    return arr[..., n:][..., ::-1]


def schur_complement(x) -> np.ndarray:
    """D(x) = x_n - sum_j x_{2n-j}^2 / x_j. No domain check."""
    return _schur(_as_coords(x))


def _schur(arr: np.ndarray) -> np.ndarray:
    """schur_complement in the dtype of ``arr``, real or complex."""
    n = order_from_dim(arr.shape[-1])
    if n == 1:
        return arr[..., 0]
    u = arr[..., n:][..., ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return arr[..., n - 1] - np.sum(u * u / arr[..., : n - 1], axis=-1)


def _arrowhead_minors(arr: np.ndarray) -> np.ndarray:
    """Leading minors x_1 ... x_k (k < n) and x_1 ... x_{n-1} D, in the
    dtype of ``arr``."""
    n = order_from_dim(arr.shape[-1])
    out = np.empty(arr.shape[:-1] + (n,), dtype=arr.dtype)
    out[..., : n - 1] = np.cumprod(arr[..., : n - 1], axis=-1)
    # a named D: the inline temporary may be multiplied in place, which
    # rounds the complex product differently in the last bit
    dc = _schur(arr)
    out[..., n - 1] = out[..., n - 2] * dc if n > 1 else dc
    return out


def leading_minors(x) -> np.ndarray:
    """All n leading principal minors via the product/Schur factorization."""
    return _arrowhead_minors(_as_coords(x))


def leading_minors_dense(x) -> np.ndarray:
    """Leading minors by dense determinants; the independent check path."""
    mat = assemble_arrowhead(x)
    n = mat.shape[-1]
    out = np.empty(mat.shape[:-2] + (n,), dtype=mat.dtype)
    for k in range(1, n + 1):
        out[..., k - 1] = np.linalg.det(mat[..., :k, :k])
    return out


def is_in_cone(x) -> np.ndarray | bool:
    """Strict open-cone membership. Total on real vectors, zero tolerance."""
    arr = _as_coords(x)
    n = order_from_dim(arr.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        diag_ok = np.all(arr[..., : n - 1] > 0.0, axis=-1)
        d = schur_complement(arr)
        ok = diag_ok & np.where(np.isfinite(d), d > 0.0, False)
    if ok.ndim == 0:
        return bool(ok)
    return ok


def require_cone(x) -> np.ndarray:
    arr = _as_coords(x)
    if not np.all(is_in_cone(arr)):
        raise ConeDomainError("point is not inside the open cone")
    return arr


def log_delta_power(coords: np.ndarray, s: np.ndarray,
                    d: np.ndarray | None = None) -> np.ndarray:
    """log of delta_power for batch coordinates known to be interior.

    No domain or length check.  Pass the exact Schur coordinate ``d`` when
    available; recomputing it from assembled coordinates cancels
    catastrophically at large borders.
    """
    n = order_from_dim(coords.shape[-1])
    if d is None:
        d = schur_complement(coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = s[-1] * np.log(d) if s[-1] != 0.0 else np.zeros(np.shape(d))
        if n > 1:
            out = out + np.sum(s[: n - 1] * np.log(coords[..., : n - 1]),
                               axis=-1)
    return out


def delta_power(y, s) -> np.ndarray | float:
    """Minor power function: prod_{j<n} y_j^{s_j} * D(y)^{s_n}.

    Exponent entries are applied literally as given, whichever convention
    the caller tagged them with.  Raises on points outside the open cone.
    """
    arr = require_cone(y)
    n = order_from_dim(arr.shape[-1])
    ent = _entries(s)
    if ent.shape != (n,):
        raise InvalidInputError(f"exponent vector must have length {n}, got {ent.shape}")
    out = np.exp(log_delta_power(arr, ent))
    return float(out) if np.ndim(out) == 0 else out


def minor_exponents(s) -> np.ndarray:
    """Exponent per minor: e_k = s_k - s_{k+1} for k < n, e_n = s_n."""
    ent = _entries(s)
    e = ent.copy()
    e[:-1] -= ent[1:]
    return e


def delta_transform_parts(t) -> tuple[np.ndarray, np.ndarray]:
    """(q, t_n) of the delta transform, batched; no domain check.

    q_j = 4 t_j - t_{2n-j}^2 / t_n.  On the open cone every q_j is positive
    (4 t_j t_n > t_{2n-j}^2 follows from positive definiteness of the 2x2
    principal submatrix on rows j, n).  The composite minor convention used
    by the closed forms is M_k = q_1 ... q_k for k < n and
    M_n = t_n * q_1 ... q_{n-1}.
    """
    arr = _as_coords(t)
    n = order_from_dim(arr.shape[-1])
    tn = arr[..., n - 1]
    if n == 1:
        q = np.empty(arr.shape[:-1] + (0,))
    else:
        u = border_reversed(arr)
        q = 4.0 * arr[..., : n - 1] - u * u / tn[..., None]
    return q, tn


# ---------------------------------------------------------------------------
# complex side
# ---------------------------------------------------------------------------

def complex_minors(zeta: np.ndarray) -> np.ndarray:
    """Leading minors of the complex arrowhead built on ``zeta``."""
    return _arrowhead_minors(np.asarray(zeta, dtype=complex))


def schur_real_part(v, u) -> np.ndarray:
    """Re S of the complex Schur complement S at zeta = v - i u.

    M_n = M_{n-1} S, and Re S does not depend on u_n.  Written as
    D(v) + sum_j (v_{2n-j} u_j - v_j u_{2n-j})^2 / (v_j (v_j^2 + u_j^2)),
    it is at least D(v) > 0 for v in the open cone, and free of the
    cancellation that Re(zeta_n - sum zeta_{2n-j}^2 / zeta_j) suffers at
    large |u|.  ``u`` broadcasts against ``v``.
    """
    v = _as_coords(v)
    u = np.asarray(u, dtype=float)
    n = order_from_dim(v.shape[-1])
    out = schur_complement(v)
    if n == 1:
        return out + np.zeros(u.shape[:-1])
    vd, ud = v[..., : n - 1], u[..., : n - 1]
    cross = border_reversed(v) * ud - vd * u[..., n:][..., ::-1]
    return out + np.sum(cross * cross / (vd * (vd * vd + ud * ud)), axis=-1)


def assert_off_branch_cut(minors: np.ndarray) -> None:
    """Reject minors on the closed negative real axis (index is 1-based)."""
    on_cut = (minors.real <= 0.0) & (minors.imag == 0.0)
    if np.any(on_cut):
        flat = np.argwhere(on_cut)
        k = int(flat[0][-1])
        bad = minors[tuple(flat[0])]
        raise BranchCutError(k + 1, bad)


def complex_power_from_minors(minors: np.ndarray, e) -> np.ndarray:
    """prod_k minor_k^{e_k} with the principal branch per minor."""
    ex = np.atleast_1d(np.asarray(e, dtype=float))
    assert_off_branch_cut(minors)
    return np.exp(np.sum(ex * np.log(minors), axis=-1))


def complex_power_P(z, s) -> np.ndarray | complex:
    """P^s(z) = minor-power product at z/i, principal branch per minor.

    At x = 0 this reduces exactly to delta_power(y, s).
    """
    zeta = z.zeta if isinstance(z, TubePoint) else np.asarray(z, dtype=complex)
    ent = _entries(s)
    n = order_from_dim(zeta.shape[-1])
    if ent.shape != (n,):
        raise InvalidInputError(f"exponent vector must have length {n}, got {ent.shape}")
    out = complex_power_from_minors(complex_minors(zeta), minor_exponents(ent))
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# canonical coordinates
# ---------------------------------------------------------------------------

def canonical_to_coords(y: np.ndarray, u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Map canonical (y_1..y_{n-1}, u_1..u_{n-1}, D) to cone coordinates.

    x_j = y_j, x_n = D + sum u_j^2 / y_j, x_{2n-j} = u_j.  The map is
    unit-Jacobian and its image is exactly the open cone, which is what makes
    it the right chart for sampling and iterated quadrature.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    k = y.shape[-1]
    n = k + 1
    out = np.empty(np.broadcast_shapes(y.shape[:-1], u.shape[:-1], d.shape) + (2 * n - 1,))
    out[..., : n - 1] = y
    out[..., n - 1] = d + (np.sum(u * u / y, axis=-1) if k else 0.0)
    out[..., n:] = u[..., ::-1]
    return out


def coords_to_canonical(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = _as_coords(x)
    n = order_from_dim(arr.shape[-1])
    return arr[..., : n - 1].copy(), border_reversed(arr).copy(), schur_complement(arr)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConePoint:
    """Validated point of the open cone.

    Construction rejects points outside the cone as well as numerically
    boundary cases (D within BOUNDARY_RTOL of zero relative to the
    coordinate scale), which would poison downstream powers.
    """

    coords: tuple

    @classmethod
    def from_coords(cls, coords) -> "ConePoint":
        arr = np.asarray(coords, dtype=float)
        if arr.ndim != 1:
            raise InvalidInputError("ConePoint takes a single coordinate vector")
        order_from_dim(arr.shape[-1])
        if not is_in_cone(arr):
            raise ConeDomainError("coordinates are not inside the open cone")
        d = float(schur_complement(arr))
        scale = float(np.max(np.abs(arr)))
        if abs(d) < BOUNDARY_RTOL * scale:
            raise ConeDomainError(
                f"boundary point: Schur complement {d} below tolerance "
                f"{BOUNDARY_RTOL * scale}")
        return cls(tuple(float(v) for v in arr))

    @property
    def n(self) -> int:
        return order_from_dim(len(self.coords))

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class TubePoint:
    """Point z = x + i y of the tube with y in the open cone."""

    real_part: tuple
    imag_part: ConePoint

    @classmethod
    def make(cls, x, y) -> "TubePoint":
        yp = y if isinstance(y, ConePoint) else ConePoint.from_coords(y)
        xr = np.asarray(x, dtype=float)
        if xr.ndim != 1 or xr.shape[0] != len(yp.coords):
            raise InvalidInputError("real part and cone part must share dimension")
        return cls(tuple(float(v) for v in xr), yp)

    @property
    def n(self) -> int:
        return self.imag_part.n

    @property
    def x(self) -> np.ndarray:
        return np.asarray(self.real_part, dtype=float)

    @property
    def y(self) -> np.ndarray:
        return self.imag_part.values

    @property
    def zeta(self) -> np.ndarray:
        """Coordinates of z/i = y - i x."""
        return self.y - 1j * self.x


def minors(y) -> np.ndarray:
    """Leading minors of a cone point (domain-checked public entry point)."""
    arr = require_cone(y)
    return leading_minors(arr)
