"""Importance-sampling laws over the cone and the tube, in canonical coordinates.

The canonical chart (y_1..y_{n-1}, u_1..u_{n-1}, D) has unit Jacobian and
image exactly the open cone, so a product law there is a cone law with an
exactly computable density and no rejection step.  Radial coordinates
(the y_j and D) use either a Gamma law (for exponentially decaying
integrands) or a beta-prime law (for polynomially decaying ones, where a
Gamma proposal would have catastrophically thin tails).  Border coordinates
u_j are sampled conditionally on y_j with Gaussian or Cauchy laws whose
location and scale may depend on y_j; tube real parts use per-coordinate
Cauchy laws, since the kernels decay only polynomially in x and Gaussian
proposals would under-sample the tails.

Dominance is the preset designer's responsibility: the chosen law must have
tails at least as heavy as the integrand along every coordinate, which the
identity presets arrange from the closed-form exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

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
                    + self.a * math.log(self.b) - gammaln(self.a))
        t = y / self.scale
        return ((self.a - 1.0) * np.log(t) - (self.a + self.b) * np.log1p(t)
                - math.log(self.scale) - betaln(self.a, self.b))


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

    def _loc_scale(self, y: np.ndarray):
        return self.mu0 + self.mu1 * y, self.s0 + self.s1 * np.sqrt(y)

    def sample(self, rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
        loc, sc = self._loc_scale(y)
        if self.kind == "gaussian":
            return loc + sc * rng.standard_normal(size=y.shape)
        return loc + sc * rng.standard_cauchy(size=y.shape)

    def logpdf(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        loc, sc = self._loc_scale(y)
        t = (u - loc) / sc
        if self.kind == "gaussian":
            return -0.5 * t * t - np.log(sc) - 0.5 * LOG_2PI
        return -np.log1p(t * t) - np.log(sc) - LOG_PI


@dataclass(frozen=True)
class CauchyLaw:
    """Static Cauchy law for one real-part coordinate of the tube."""

    center: float
    scale: float

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.center + self.scale * rng.standard_cauchy(size=count)

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        t = (x - self.center) / self.scale
        return -np.log1p(t * t) - math.log(self.scale) - LOG_PI


@dataclass(frozen=True)
class ConditionalCauchyLaw:
    """Cauchy law for a border real coordinate, widened with its diagonal.

    The kernel moduli grow only linearly along border directions that track
    a large diagonal coordinate, so the border proposal scale follows
    sqrt(|diag|): scale = s0 + s1 * sqrt(hypot(c, x_diag)).
    """

    ref: int
    c: float
    s0: float
    s1: float

    def _scale(self, xref: np.ndarray) -> np.ndarray:
        return self.s0 + self.s1 * np.sqrt(np.hypot(self.c, xref))

    def sample(self, rng: np.random.Generator, xref: np.ndarray) -> np.ndarray:
        return self._scale(xref) * rng.standard_cauchy(size=xref.shape)

    def logpdf(self, x: np.ndarray, xref: np.ndarray) -> np.ndarray:
        sc = self._scale(xref)
        t = x / sc
        return -np.log1p(t * t) - np.log(sc) - LOG_PI


@dataclass(frozen=True)
class VCauchyLaw:
    """Cauchy law for a tube real coordinate, scaled by the imaginary part.

    The kernels' widths in x track the imaginary coordinates, so the
    proposal scale must follow the sampled cone part or the importance
    ratios acquire catastrophic tails: scale = offset + v[ref1] (diagonal
    form) or offset + sqrt(v[ref1] * v[ref2]) (border form, ref2 set).
    """

    ref1: int
    ref2: int | None
    offset: float

    def _scale(self, vcoords: np.ndarray) -> np.ndarray:
        if self.ref2 is None:
            base = vcoords[:, self.ref1]
        else:
            base = np.sqrt(vcoords[:, self.ref1] * vcoords[:, self.ref2])
        return self.offset + base

    def sample(self, rng: np.random.Generator, vcoords: np.ndarray) -> np.ndarray:
        return self._scale(vcoords) * rng.standard_cauchy(size=vcoords.shape[0])

    def logpdf(self, x: np.ndarray, vcoords: np.ndarray) -> np.ndarray:
        sc = self._scale(vcoords)
        t = x / sc
        return -np.log1p(t * t) - np.log(sc) - LOG_PI


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
    m = 2 * spec.n - 1
    x = np.empty((count, m))
    logpdf = np.zeros(count)
    for k in range(m):  # diagonals precede the borders that reference them
        law = spec.real[k]
        if isinstance(law, VCauchyLaw):
            if vcoords is None:
                raise InvalidInputError(
                    "imaginary-part-scaled laws need a tube sampler")
            x[:, k] = law.sample(rng, vcoords)
            logpdf += law.logpdf(x[:, k], vcoords)
        elif isinstance(law, ConditionalCauchyLaw):
            xref = x[:, law.ref]
            x[:, k] = law.sample(rng, xref)
            logpdf += law.logpdf(x[:, k], xref)
        else:
            x[:, k] = law.sample(rng, count)
            logpdf += law.logpdf(x[:, k])
    return x, logpdf


def sample_tube(spec: SamplerSpec, count: int, rng: np.random.Generator):
    """Draw tube points; returns (x (count, m), vcoords (count, m), logpdf)."""
    if spec.real is None:
        raise InvalidInputError("sampler spec has no real-part laws")
    vcoords, _, logpdf = sample_cone(spec, count, rng)
    x, logpdf_x = _sample_real(spec, count, rng, vcoords)
    return x, vcoords, logpdf + logpdf_x


def sample_slice(spec: SamplerSpec, count: int, rng: np.random.Generator):
    """Draw only real parts (horizontal slice); returns (x, logpdf)."""
    if spec.real is None:
        raise InvalidInputError("sampler spec has no real-part laws")
    return _sample_real(spec, count, rng)
