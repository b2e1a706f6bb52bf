"""Importance-sampling laws over the cone and the tube, in canonical coordinates.

The canonical chart (y_1..y_{n-1}, u_1..u_{n-1}, D) has unit Jacobian and
image exactly the open cone, so a product law there is a cone law with an
exactly computable density and no rejection step.  Radial coordinates
(the y_j and D) use either a Gamma law (for exponentially decaying
integrands) or a beta-prime law (for polynomially decaying ones, where a
Gamma proposal would have catastrophically thin tails).  Border coordinates
u_j are sampled conditionally on (y_j, D) with Gaussian or Cauchy laws whose
location and scale may depend on them.  Real parts use one Student-t body
(Cauchy at its default df = 1, as the kernels decay only polynomially in
x), one draw and log-density for all three laws; they differ only in the
loc and scale read from the context and in ``CauchyLaw``'s df.  A spec may
mark the law of x_n integrated (a ``None`` entry): where an identity
integrates x_n in closed form, nothing is drawn for it.

Dominance is the preset designer's responsibility: the chosen law must have
tails at least as heavy as the integrand along every coordinate, which the
cone and tube presets read off the registry's ``Decay`` on every radial
axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import log_gamma
from .errors import InvalidInputError
from .geometry import canonical_to_coords

LOG_2PI = math.log(2.0 * math.pi)
LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class RadialLaw:
    """Law for a positive canonical coordinate.

    kind = "gamma": shape a, rate b (scale ignored).
    kind = "betaprime": shape a, tail b, scale s; density
        (y/s)^(a-1) (1 + y/s)^(-a-b) / (s B(a, b)), tail ~ y^(-b-1).
    """

    kind: str
    a: float
    b: float
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gamma", "betaprime"):
            raise InvalidInputError(f"unknown radial law {self.kind!r}")
        if not (self.a > 0 and self.b > 0 and self.scale > 0):
            raise InvalidInputError("radial law parameters must be positive")

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.kind == "gamma":
            return rng.standard_gamma(self.a, size=count) / self.b
        g1 = rng.standard_gamma(self.a, size=count)
        g2 = rng.standard_gamma(self.b, size=count)
        return self.scale * g1 / g2

    def logpdf(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "gamma":
            return ((self.a - 1.0) * np.log(y) - self.b * y
                    + self.a * math.log(self.b) - log_gamma(self.a))
        t = y / self.scale
        log_beta = (log_gamma(self.a) + log_gamma(self.b)
                    - log_gamma(self.a + self.b))
        return ((self.a - 1.0) * np.log(t) - (self.a + self.b) * np.log1p(t)
                - math.log(self.scale) - log_beta)


@dataclass(frozen=True)
class BorderLaw:
    """Conditional law of a border coordinate u_j given its diagonal y_j and
    D; kind "gaussian" or "cauchy", location mu1 * y, scale s0 + s1 sqrt(y)
    or, where ``b`` is set, s1 sqrt((D + d_b) y (y + b)): the power density's
    own conditional scale (``identities._power_proposal``).
    """

    kind: str
    mu1: float = 0.0
    s0: float = 0.0
    s1: float = 1.0
    b: float | None = None
    d_b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "cauchy"):
            raise InvalidInputError(f"unknown border law {self.kind!r}")

    def loc_scale(self, y: np.ndarray, d: np.ndarray):
        if self.b is None:
            return self.mu1 * y, self.s0 + self.s1 * np.sqrt(y)
        return self.mu1 * y, self.s1 * np.sqrt((d + self.d_b) * y * (y + self.b))

    def sample(self, rng: np.random.Generator, y: np.ndarray, d: np.ndarray) -> np.ndarray:
        loc, sc = self.loc_scale(y, d)
        if self.kind == "gaussian":
            return loc + sc * rng.standard_normal(size=y.shape)
        return loc + sc * rng.standard_cauchy(size=y.shape)

    def logpdf(self, u: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
        loc, sc = self.loc_scale(y, d)
        t = (u - loc) / sc
        if self.kind == "gaussian":
            return -0.5 * t * t - np.log(sc) - 0.5 * LOG_2PI
        return -np.log1p(t * t) - np.log(sc) - LOG_PI


class _Cauchy:
    """The one body of the real-part laws: loc + scale * t(df), Cauchy at
    df = 1.

    Each law reads its loc and scale from the context, ``x`` the (count, m)
    real coordinates drawn so far and ``v`` the imaginary parts (None on a
    slice), through ``_loc_scale``.
    """

    df = 1.0
    _log = staticmethod(np.log)

    def sample(self, rng: np.random.Generator, x, v=None) -> np.ndarray:
        loc, sc = self._loc_scale(x, v)
        if self.df == 1.0:
            return loc + sc * rng.standard_cauchy(size=x.shape[0])
        return loc + sc * rng.standard_t(self.df, size=x.shape[0])

    def logpdf(self, xk: np.ndarray, x, v=None) -> np.ndarray:
        loc, sc = self._loc_scale(x, v)
        t = (xk - loc) / sc
        if self.df == 1.0:
            return -np.log1p(t * t) - self._log(sc) - LOG_PI
        nu = self.df
        return (log_gamma((nu + 1.0) / 2.0) - log_gamma(nu / 2.0)
                - 0.5 * math.log(nu * math.pi) - self._log(sc)
                - (nu + 1.0) / 2.0 * np.log1p(t * t / nu))


@dataclass(frozen=True)
class CauchyLaw(_Cauchy):
    """Static Student-t law of ``df`` degrees for one real-part coordinate."""

    center: float
    scale: float
    df: float = 1.0
    # np.log rounds some scalars (1.05, say) differently from math.log
    _log = staticmethod(math.log)

    def _loc_scale(self, x, v):
        return self.center, self.scale


@dataclass(frozen=True)
class ConditionalCauchyLaw(_Cauchy):
    """Cauchy law for a border real coordinate given its diagonal x[ref]:
    loc mu * x[ref], scale s1 * hypot(c, x[ref]) (``identities._L25_sampler``).
    """

    ref: int
    mu: float
    c: float
    s1: float

    def _loc_scale(self, x, v):
        xr = x[:, self.ref]
        return self.mu * xr, self.s1 * np.hypot(self.c, xr)


@dataclass(frozen=True)
class VCauchyLaw(_Cauchy):
    """Cauchy law for a tube real coordinate, scaled by the imaginary part.

    The kernels' widths in x track the imaginary coordinates, so the
    proposal scale must follow the sampled cone part or the importance
    ratios acquire catastrophic tails: scale = offset + v[ref1] (diagonal
    form) or offset + sqrt(v[ref1] * v[ref2]) (border form, ref2 set).
    """

    ref1: int
    ref2: int | None
    offset: float

    def _loc_scale(self, x, v):
        if self.ref2 is None:
            return 0.0, self.offset + v[:, self.ref1]
        return 0.0, self.offset + np.sqrt(v[:, self.ref1] * v[:, self.ref2])


@dataclass(frozen=True)
class SamplerSpec:
    """Complete importance law: cone part plus optional tube real part.

    radial has length n (the y_j laws, then D's) and border n-1, or both are
    empty where only real parts are drawn; real has length m = 2n-1.  A real
    law reads only the diagonals before x_n, so x_n's may be ``None``:
    integrated, neither drawn nor weighted (``integrating_last_real``).
    """

    n: int
    radial: tuple = ()
    border: tuple = ()
    real: tuple | None = None

    def __post_init__(self):
        cone = (len(self.radial), len(self.border))
        if cone != (self.n, self.n - 1) and (any(cone) or self.real is None):
            raise InvalidInputError("sampler law counts do not match the order n")
        if self.real is not None and len(self.real) != 2 * self.n - 1:
            raise InvalidInputError("real-part law count must equal 2n-1")

    def integrating_last_real(self) -> "SamplerSpec":
        """This spec with the law of x_n marked integrated."""
        real = list(self.real)
        real[self.n - 1] = None
        return replace(self, real=tuple(real))


def sample_cone(spec: SamplerSpec, count: int, rng: np.random.Generator):
    """Draw cone points; returns (coords (count, m), d (count,), logpdf (count,)).

    Every returned point lies in the open cone by construction; d is the
    exact Schur-complement coordinate (recomputing it from the assembled
    coordinates cancels catastrophically when a border draw is huge).
    """
    n = spec.n
    y = np.empty((count, n - 1))
    logpdf = np.zeros(count)
    for j in range(n - 1):
        y[:, j] = spec.radial[j].sample(rng, count)
        logpdf += spec.radial[j].logpdf(y[:, j])
    d = spec.radial[n - 1].sample(rng, count)
    logpdf += spec.radial[n - 1].logpdf(d)
    u = np.empty((count, n - 1))
    for j in range(n - 1):
        u[:, j] = spec.border[j].sample(rng, y[:, j], d)
        logpdf += spec.border[j].logpdf(u[:, j], y[:, j], d)
    coords = canonical_to_coords(y, u, d)
    return coords, d, logpdf


def _sample_real(spec: SamplerSpec, count: int, rng: np.random.Generator,
                 vcoords: np.ndarray | None = None):
    """(x, logpdf) of the real parts; an integrated law has no column, and
    no law reads a column past it, so the rest shift down by one."""
    if spec.real is None:
        raise InvalidInputError("sampler spec has no real-part laws")
    laws = [law for law in spec.real if law is not None]
    x = np.empty((count, len(laws)))
    logpdf = np.zeros(count)
    for k, law in enumerate(laws):  # diagonals precede their borders
        x[:, k] = law.sample(rng, x, vcoords)
        logpdf += law.logpdf(x[:, k], x, vcoords)
    return x, logpdf


def sample_tube(spec: SamplerSpec, count: int, rng: np.random.Generator):
    """Draw tube points; returns (x (count, m), vcoords (count, m), logpdf),
    x without the x_n column where the spec integrates it."""
    vcoords, _, logpdf = sample_cone(spec, count, rng)
    x, logpdf_x = _sample_real(spec, count, rng, vcoords)
    return x, vcoords, logpdf + logpdf_x


def sample_slice(spec: SamplerSpec, count: int, rng: np.random.Generator):
    """Draw only real parts (horizontal slice); returns (x, logpdf), x as in
    ``sample_tube``."""
    return _sample_real(spec, count, rng)
