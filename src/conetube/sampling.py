"""Importance-sampling laws over the cone and the tube, in canonical coordinates.

The canonical chart (y_1..y_{n-1}, u_1..u_{n-1}, D) has unit Jacobian and
image exactly the open cone, so a product law there is a cone law with an
exactly computable density and no rejection step.  Radial coordinates
(the y_j and D) use either a Gamma law (for exponentially decaying
integrands) or a beta-prime law (for polynomially decaying ones, where a
Gamma proposal would have catastrophically thin tails).  Border coordinates
u_j are sampled conditionally on y_j with Gaussian or Cauchy laws whose
location and scale may depend on y_j.  Tube real parts use Cauchy laws (the
kernels decay only polynomially in x), one draw and log-density for all
three; they differ only in the loc and scale read from the context.

Dominance is the preset designer's responsibility: the chosen law must have
tails at least as heavy as the integrand along every coordinate, which the
identity presets arrange from the closed-form exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Conditional law of a border coordinate u_j given its diagonal y_j.

    Location mu0 + mu1 * y, scale s0 + s1 * sqrt(y); kind "gaussian" or
    "cauchy".
    """

    kind: str
    mu0: float = 0.0
    mu1: float = 0.0
    s0: float = 0.0
    s1: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "cauchy"):
            raise InvalidInputError(f"unknown border law {self.kind!r}")

    def loc_scale(self, y: np.ndarray):
        return self.mu0 + self.mu1 * y, self.s0 + self.s1 * np.sqrt(y)

    def sample(self, rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
        loc, sc = self.loc_scale(y)
        if self.kind == "gaussian":
            return loc + sc * rng.standard_normal(size=y.shape)
        return loc + sc * rng.standard_cauchy(size=y.shape)

    def logpdf(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        loc, sc = self.loc_scale(y)
        t = (u - loc) / sc
        if self.kind == "gaussian":
            return -0.5 * t * t - np.log(sc) - 0.5 * LOG_2PI
        return -np.log1p(t * t) - np.log(sc) - LOG_PI


class _Cauchy:
    """The one Cauchy body of the tube real-part laws: loc + scale * C(0, 1).

    Each law reads its loc and scale from the context, ``x`` the (count, m)
    real coordinates drawn so far and ``v`` the imaginary parts (None on a
    slice), through ``_loc_scale``.
    """

    _log = staticmethod(np.log)

    def sample(self, rng: np.random.Generator, x, v=None) -> np.ndarray:
        loc, sc = self._loc_scale(x, v)
        return loc + sc * rng.standard_cauchy(size=x.shape[0])

    def logpdf(self, xk: np.ndarray, x, v=None) -> np.ndarray:
        loc, sc = self._loc_scale(x, v)
        t = (xk - loc) / sc
        return -np.log1p(t * t) - self._log(sc) - LOG_PI


@dataclass(frozen=True)
class CauchyLaw(_Cauchy):
    """Static Cauchy law for one real-part coordinate of the tube."""

    center: float
    scale: float
    # np.log rounds some scalars (1.05, say) differently from math.log
    _log = staticmethod(math.log)

    def _loc_scale(self, x, v):
        return self.center, self.scale


@dataclass(frozen=True)
class ConditionalCauchyLaw(_Cauchy):
    """Cauchy law for a border real coordinate, widened with its diagonal.

    The kernel moduli grow only linearly along border directions that track
    a large diagonal coordinate, so the border proposal scale follows
    sqrt(|diag|): scale = s0 + s1 * sqrt(hypot(c, x_diag)), x_diag = x[ref].
    """

    ref: int
    c: float
    s0: float
    s1: float

    def _loc_scale(self, x, v):
        return 0.0, self.s0 + self.s1 * np.sqrt(np.hypot(self.c, x[:, self.ref]))


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

    radial has length n (the y_j laws followed by the D law); border has
    length n-1; real, when present, has length m = 2n-1.
    """

    n: int
    radial: tuple
    border: tuple
    real: tuple | None = None

    def __post_init__(self):
        if len(self.radial) != self.n or len(self.border) != self.n - 1:
            raise InvalidInputError("sampler law counts do not match the order n")
        if self.real is not None and len(self.real) != 2 * self.n - 1:
            raise InvalidInputError("real-part law count must equal 2n-1")


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
        u[:, j] = spec.border[j].sample(rng, y[:, j])
        logpdf += spec.border[j].logpdf(u[:, j], y[:, j])
    coords = canonical_to_coords(y, u, d)
    return coords, d, logpdf


def _sample_real(spec: SamplerSpec, count: int, rng: np.random.Generator,
                 vcoords: np.ndarray | None = None):
    if spec.real is None:
        raise InvalidInputError("sampler spec has no real-part laws")
    x = np.empty((count, 2 * spec.n - 1))
    logpdf = np.zeros(count)
    for k, law in enumerate(spec.real):  # diagonals precede their borders
        x[:, k] = law.sample(rng, x, vcoords)
        logpdf += law.logpdf(x[:, k], x, vcoords)
    return x, logpdf


def sample_tube(spec: SamplerSpec, count: int, rng: np.random.Generator):
    """Draw tube points; returns (x (count, m), vcoords (count, m), logpdf)."""
    vcoords, _, logpdf = sample_cone(spec, count, rng)
    x, logpdf_x = _sample_real(spec, count, rng, vcoords)
    return x, vcoords, logpdf + logpdf_x


def sample_slice(spec: SamplerSpec, count: int, rng: np.random.Generator):
    """Draw only real parts (horizontal slice); returns (x, logpdf)."""
    return _sample_real(spec, count, rng)
