"""Closed-form right-hand sides of the integral identities, with machine-
checkable left-hand sides.

Eight identities are registered:

    L23_1   cone Laplace transform of a plain minor power
    L23_2   inverse transform / kernel form of L23_1
    COR1_1  L23_1 at the shifted index
    COR1_2  L23_2 at the shifted index, without the next-to-top minor factor
    L24     cone integral of a shifted power against a shifted-power translate
    L25     horizontal-slice integral of a kernel modulus
    L26     tube integral of a product of two kernels against a power weight
    L27     tube integral of a kernel modulus against a power weight

Each corollary is its lemma at the shifted index: every border offset 3/2
becomes (n+1)/2 = 3/2 + (n-2)/2, C1 and C2 become C3 and C4, and COR1_2
also drops the next-to-top minor factor; one builder per transform makes both.

Each identity is split into a constant and a constant-free *structure* (the
product of powers the closed form predicts); closed = constant x structure.
The structure carries the forced content (the homogeneity exponents) and is
what the lambda-scaling oracle checks; the stated composite constants are
kept as given, and each audit record carries its fitted constant (LHS /
structure) beside the stated one.  Each registered identity also builds its
own left-hand-side integrand and a matched importance-sampling law, so the
numeric oracle can audit it without identity-specific code.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import constants as C
from .errors import InvalidInputError
from .geometry import (TubePoint, border_reversed, canonical_to_coords,
                       complex_minors, complex_power_from_minors,
                       delta_transform_parts, log_delta_power, minor_exponents,
                       order_from_dim, require_cone, row_sum,
                       schur_complement, schur_real_part)
from .indices import Convention, bold_values, plain_values, read_index
from .sampling import (BorderLaw, CauchyLaw, ConditionalCauchyLaw,
                       RadialLaw, SamplerSpec, VCauchyLaw)

IDENTITY_IDS = ("L23_1", "L23_2", "COR1_1", "COR1_2", "L24", "L25", "L26", "L27")

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi
REAL_PAD = 0.3  # floor added to every tube real-part Cauchy scale (not the slice's)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return row_sum(a * b)


def _abs_complex_power(zeta: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """|minor power| at z/i coordinates; moduli only, branch-free."""
    mins = complex_minors(zeta)
    e = minor_exponents(entries)
    return np.exp(row_sum(e * np.log(np.abs(mins))))


# ---------------------------------------------------------------------------
# structures (constant-free closed-form factors)
# ---------------------------------------------------------------------------

def _structure_laplace(n, s, t, shifted: bool):
    q, tn = delta_transform_parts(np.asarray(t, dtype=float))
    logval = (-s[-1] - (n + 1.0) / 2.0) * np.log(tn)
    return np.exp(logval + row_sum((-s[: n - 1] - C.border_offset(n, shifted))
                                   * np.log(q)))


def _structure_kernel(n, s, z: TubePoint, shifted: bool):
    """The shifted form reads the bold index and has no next-to-top factor."""
    ent = bold_values(s, n) if shifted else np.asarray(s, dtype=float)
    e = minor_exponents(-ent)
    e[-1] += -(n + 1.0)
    if not shifted and n >= 2:
        e[n - 2] += n - 2.0
    return complex_power_from_minors(complex_minors(z.zeta), e)


def _real_structure(y, expo) -> float:
    """Delta^expo(y) at a cone point y: the structure of L24, L25 and L27."""
    return float(np.exp(log_delta_power(np.asarray(y, dtype=float), expo)))


def _zeta_diff(z: TubePoint, xi: TubePoint) -> np.ndarray:
    """Coordinates of (z - conj(xi)) / i = (y_z + y_xi) - i (x_z - x_xi)."""
    return (z.y + xi.y) - 1j * (z.x - xi.x)


def _structure_L26(n, l, r, eta, z: TubePoint, xi: TubePoint):
    expo = bold_values(l, n) - bold_values(r, n) - bold_values(eta, n)
    e = minor_exponents(expo)
    e[-1] += n + 1.0  # positive trailing exponent; the oracle adjudicates it
    return complex_power_from_minors(complex_minors(_zeta_diff(z, xi)), e)


# ---------------------------------------------------------------------------
# integrands and sampler presets
# ---------------------------------------------------------------------------

def _clip(x, lo):
    return float(max(x, lo))


def _laplace_rates(n, t, c):
    """Rates of exp(-c y.t) along the canonical axes (y_1..y_{n-1}, D), the
    border coordinates completed to a square: c q_j / 4, then c t_n."""
    q, tn = delta_transform_parts(np.asarray(t, dtype=float))
    return [float(c / 4.0 * q[j]) for j in range(n - 1)] + [float(c * tn)]


def _cone_laplace_preset(n, t, decays, c):
    """Gamma/Gaussian law matched to exp(-c y.t) on the cone: each gamma
    shape is its axis's ``Decay`` zero index, each rate the exponent's."""
    t = np.asarray(t, dtype=float)
    tn, u = t[n - 1], t[n:][::-1]
    radial = [RadialLaw("gamma", _clip(dec.zero_index, 0.35), b)
              for dec, b in zip(decays, _laplace_rates(n, t, c))]
    border = [BorderLaw("gaussian", mu1=float(-u[j] / (2.0 * tn)),
                        s1=float(math.sqrt(1.0 / (2.0 * c * tn))))
              for j in range(n - 1)]
    return SamplerSpec(n=n, radial=tuple(radial), border=tuple(border))


def _betaprime_radial(zero_exp, decays):
    """Beta-prime laws on the ``Decay`` scales, matched to y^zero_exp near
    0, whose tail index is 0.75 times the ``Decay``'s on each axis, so the
    weights have finite variance (at least 1/4, which binds only near a
    divergent integral)."""
    return tuple(RadialLaw("betaprime", _clip(a + 1.0, 0.4),
                           _clip(0.75 * dec.tail_index, 0.25),
                           _clip(dec.scale, 1e-6))
                 for a, dec in zip(zero_exp, decays))


def _power_proposal(n, zero_exp, decays, b, widths=None, real=None) -> SamplerSpec:
    """The cone part for y^eta Delta^-(eta + gap)(y + b) (``_power_decay``),
    with real-part laws ``real``: ``_betaprime_radial``'s radials, and Cauchy
    borders at u_j = y_j u_bj / b_j, where D(y + b) is least.  Given (y_j, D)
    the density reads u_j through (A + K_j (u_j - c_j)^2)^-rho, A = D + D(b),
    K_j = b_j / (y_j (y_j + b_j)) (``_L24_integrand``), rho = eta_n + gap_n:
    a Student-t law of nu = 2 rho - 1 degrees (floored at 1/4, as the radial
    tails are) and scale sqrt(A / (K_j nu)), which is the border's scale,
    or else 0.3 + widths_j sqrt(y_j).  eta_n is the last zero exponent and
    gap_n - (n+1)/2 D's tail index."""
    slopes = border_reversed(b) / b[: n - 1]
    if widths is not None:
        border = tuple(BorderLaw("cauchy", mu1=float(m), s0=0.3, s1=float(w))
                       for m, w in zip(slopes, widths))
    else:
        nu = _clip(2.0 * (zero_exp[-1] + decays[-1].tail_index) + n, 0.25)
        border = tuple(BorderLaw("cauchy", mu1=float(m), s1=1.0 / math.sqrt(bj * nu),
                                 b=float(bj), d_b=decays[-1].scale)
                       for m, bj in zip(slopes, b[: n - 1]))
    return SamplerSpec(n=n, radial=_betaprime_radial(zero_exp, decays),
                       border=border, real=real)


# ---------------------------------------------------------------------------
# point kinds: how an identity's evaluation point is read from a config,
# written to a report, dilated, drawn at random and anchored
# ---------------------------------------------------------------------------

def unit_cone_vector(n: int) -> np.ndarray:
    e = np.zeros(2 * n - 1)
    e[:n] = 1.0
    return e


def unit_tube_point(n: int) -> TubePoint:
    return TubePoint.make(np.zeros(2 * n - 1), unit_cone_vector(n))


def random_cone_vector(n: int, rng: np.random.Generator,
                       lo: float = 0.6, hi: float = 1.8) -> np.ndarray:
    y = rng.uniform(lo, hi, size=n - 1)
    d = rng.uniform(lo, hi)
    u = rng.uniform(-0.4, 0.4, size=n - 1) * np.sqrt(y * d)
    return canonical_to_coords(y, u, np.asarray(d))


def random_tube_point(n: int, rng: np.random.Generator,
                      x_scale: float = 0.25) -> TubePoint:
    x = rng.uniform(-x_scale, x_scale, size=2 * n - 1)
    return TubePoint.make(x, random_cone_vector(n, rng))


def _read_vector(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2 * n - 1,) or not np.all(np.isfinite(arr)):
        raise InvalidInputError(
            f"expected a finite {2 * n - 1}-vector, got {value!r}")
    return arr


def _read_tube(obj, n: int) -> TubePoint:
    return TubePoint.make(_read_vector(obj["x"], n), _read_vector(obj["y"], n))


def _tube_payload(z: TubePoint) -> dict:
    return {"x": z.x.tolist(), "y": z.y.tolist()}


def _scale_tube(z: TubePoint, lam) -> TubePoint:
    return TubePoint.make(z.x * lam, z.y * lam)


def _cone_size(y) -> float:
    """The mean diagonal entry of a cone vector: positive, and it scales
    with the vector."""
    y = np.asarray(y, dtype=float)
    return float(np.mean(y[: order_from_dim(y.shape[-1])]))


@dataclass(frozen=True)
class PointKind:
    """How an identity's evaluation point is read, written, dilated and drawn."""

    parse: callable              # (config object, n) -> point
    payload: callable            # point -> JSON-ready dict (inverse of parse)
    scale: callable              # (point, lam) -> dilated point
    random: callable             # (n, rng) -> random point
    reference: callable          # n -> unit reference point
    order: callable              # point -> n; raises on a point of another kind
    size: callable               # point -> positive length, lam x under scale


def _tube(point) -> TubePoint:
    if isinstance(point, TubePoint):
        return point
    raise InvalidInputError("expected a TubePoint")


def _pair_order(pt) -> int:
    if not (isinstance(pt, (tuple, list)) and len(pt) == 2):
        raise InvalidInputError("expected a pair (z, xi) of TubePoints")
    z, xi = _tube(pt[0]), _tube(pt[1])
    if z.n != xi.n:
        raise InvalidInputError("z and xi must share the same order")
    return z.n


def _cone_order(pt) -> int:
    try:
        coords = np.asarray(getattr(pt, "coords", pt), dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"expected a cone coordinate vector, got {pt!r}") from None
    return order_from_dim(require_cone(coords).shape[-1])


def cone_vector(key: str) -> PointKind:
    """A cone coordinate vector, given in a config under ``key`` or "point"."""
    return PointKind(
        parse=lambda obj, n: require_cone(
            _read_vector(obj.get(key, obj.get("point")), n)),
        payload=lambda pt: {"point": np.asarray(pt, dtype=float).tolist()},
        scale=lambda pt, lam: np.asarray(pt, dtype=float) * lam,
        random=random_cone_vector,
        reference=unit_cone_vector,
        order=_cone_order,
        size=_cone_size)


def tube_point(x_scale: float = 0.25) -> PointKind:
    """One tube point {"x", "y"}, optionally nested under "z"; random real
    parts are uniform on [-x_scale, x_scale]."""
    return PointKind(
        parse=lambda obj, n: _read_tube(obj.get("z", obj), n),
        payload=_tube_payload,
        scale=_scale_tube,
        random=lambda n, rng: random_tube_point(n, rng, x_scale),
        reference=unit_tube_point,
        order=lambda z: _tube(z).n,
        size=lambda z: _cone_size(z.y))


TUBE_PAIR = PointKind(
    parse=lambda obj, n: (_read_tube(obj["z"], n), _read_tube(obj["xi"], n)),
    payload=lambda pt: {"z": _tube_payload(pt[0]), "xi": _tube_payload(pt[1])},
    scale=lambda pt, lam: (_scale_tube(pt[0], lam), _scale_tube(pt[1], lam)),
    random=lambda n, rng: (random_tube_point(n, rng), random_tube_point(n, rng)),
    reference=lambda n: (unit_tube_point(n), unit_tube_point(n)),
    order=_pair_order,
    size=lambda pt: 0.5 * (_cone_size(pt[0].y) + _cone_size(pt[1].y)))


# along one quadrature axis, the integrand's marginal mass beyond R axis scales
# falls like R^-tail_index, within 1/R scales of 0 like R^-zero_index (None on
# a real axis); an index for several regions is the smallest of theirs
Decay = namedtuple("Decay", "scale zero_index tail_index")


@dataclass(frozen=True)
class IdentityDef:
    """One registered identity: everything identity-specific lives here."""

    id: str
    label: str
    domain: str                  # integration domain: "cone" | "slice" | "tube"
    param_names: tuple
    convention: Convention       # the convention closed_form reads indices in
    complex_valued: bool
    range_check: callable        # (n, params) -> list of (ok, message)
    structure: callable          # (n, params, point) -> value
    stated_constant: callable    # (n, params) -> float
    integrand: callable          # (n, params, point) -> batch callable
    sampler: callable            # (n, params, point) -> SamplerSpec
    point: PointKind
    random_params: callable      # (n, rng) -> in-range params
    decay: callable              # (n, params, point) -> one Decay per window
    # sigma: at the point dilated by lam (``point.scale``) the integration
    # variable w moves to lam^sigma w; -1 where the integrand pairs w with
    # the point as (w|point), +1 where w moves with the point
    dilation: int
    dual_region: callable | None = None  # integrand over the dual cone, if any
    reduction: callable | None = None  # (n, params, point) -> callable | None

    def regions(self, n: int) -> tuple:
        """The regions the left-hand side is integrated over at order n: the
        domain, then the dual cone where border doubling reaches it.  That
        is n <= 2, where every symmetric matrix is an arrowhead."""
        dual = ("dual",) if self.dual_region is not None and n <= 2 else ()
        return (self.domain,) + dual


def _low_index(n, rng, hi, shifted=True) -> np.ndarray:
    """Random index just above C3's lower bounds (C1's unless ``shifted``), below hi."""
    return rng.uniform(C.laplace_bounds(n, shifted) + 0.4, hi)


# -- L23 / COR1: one builder per transform; C.c* is looked up when called --

def _laplace_integrand(n, s, t, shifted):
    t = np.asarray(t, dtype=float)
    ent = bold_values(s, n) if shifted else s

    def f(ycoords, d=None):
        return np.exp(-FOUR_PI * _dot(ycoords, t)
                      + log_delta_power(ycoords, ent, d))
    return f


def _laplace_decay(n, t, zero_indices, c):
    """Exponential tails on the scales 1 / _laplace_rates of the cone axes."""
    return tuple(Decay(1.0 / b, a, math.inf)
                 for a, b in zip(zero_indices, _laplace_rates(n, t, c)))


def _laplace_identity(id, label, shifted) -> IdentityDef:
    def decay(n, p, pt):  # zero indices s_j + border, s_n + 1: s above its bounds
        return _laplace_decay(n, pt, p["s"] - C.laplace_bounds(n, shifted), FOUR_PI)
    return IdentityDef(
        id=id, label=label, domain="cone", param_names=("s",),
        convention=Convention.PLAIN, complex_valued=False,
        range_check=lambda n, p: (C.c3_range if shifted else C.c1_range)(n, p["s"]),
        structure=lambda n, p, pt: _structure_laplace(n, p["s"], pt, shifted),
        stated_constant=lambda n, p: (C.c3 if shifted else C.c1)(n, p["s"]),
        integrand=lambda n, p, pt: _laplace_integrand(n, p["s"], pt, shifted),
        sampler=lambda n, p, pt: _cone_laplace_preset(n, pt, decay(n, p, pt), FOUR_PI),
        point=cone_vector("t"),
        random_params=lambda n, rng: {"s": _low_index(n, rng, 1.5, shifted)},
        decay=decay,
        dilation=-1,
    )


def _kernel_integrand(n, s, z: TubePoint, shifted, dual=False):
    """Inverse-transform integrand over t, as a cone-domain batch callable.

    By default it integrates over the cone itself (the literal claim);
    dual=True integrates over the dual cone under the coordinate
    pairing, which is where the forward transform is actually finite.  At
    n <= 2 the dual cone is the image of the cone under doubling the border
    coordinates, so it is reached from cone samples by that substitution
    (Jacobian 2^(n-1)); at n = 1 the two regions coincide.  At n = 3 the
    doubled cone is not the dual cone, so ``regions`` lists no dual there.
    On the doubled cone q = 4 t_1 - (2u)^2 / t_n cancels where t_1 is large
    and D small; exactly, it is 4 t_1 D / t_n, computed from D.
    """
    border_exp = s[: n - 1] + C.border_offset(n, shifted)
    top_exp = s[-1] + (n + 1.0) / 2.0
    inv_const = 1.0 / (C.c3(n, s) if shifted else C.c1(n, s))
    jac = 2.0 ** (n - 1) if dual else 1.0
    x, y = z.x, z.y

    def f(tcoords, d=None):
        t = tcoords
        if dual:
            t = tcoords.copy(order="K")
            t[..., n:] *= 2.0
            tn = t[..., n - 1]
            d = schur_complement(tcoords) if d is None else d
            q = 4.0 * t[..., : n - 1] * (d / tn)[..., None]
        else:
            q, tn = delta_transform_parts(t)
        logmag = (top_exp * np.log(tn) - TWO_PI * _dot(t, y)
                  + row_sum(border_exp * np.log(q)))
        phase = TWO_PI * _dot(t, x)
        return jac * inv_const * np.exp(logmag) * np.exp(1j * phase)
    return f


def _kernel_decay(n, s, y, shifted):
    """The modulus is exp(-2 pi t.y) t_n^a prod_j q_j^b_j, a = s_n + (n+1)/2,
    b_j = s_j + border.  In the chart u_j = sqrt(y_j) v_j, t_n = D + |v|^2
    and q_j = y_j (4 - v_j^2 / t_n) lies in [3 y_j, 4 y_j] on the cone, so
    y_j has zero index b_j + 3/2.  Near D = 0, (D + |v|^2)^a integrated
    over small v has index a + (n+1)/2 (at n = 1, t_n = D); at n >= 2 the
    integrand does not vanish on the cone, so 1 if less.  On the dual cone
    (n = 2), q = 4 t_1 D / t_n adds b_1 + 1.  Every tail is exponential."""
    border = C.border_offset(n, shifted)
    d_zero = [s[-1] + (n + 1.0)] + ([1.0] if n >= 2 else [])
    if n == 2:  # the dual cone
        d_zero.append(s[0] + (border + 1.0))
    return _laplace_decay(n, y, [*(s[:-1] + (border + 1.5)), min(d_zero)], TWO_PI)


def _kernel_identity(id, label, shifted) -> IdentityDef:
    def decay(n, p, pt):
        return _kernel_decay(n, p["s"], pt.y, shifted)
    return IdentityDef(
        id=id, label=label, domain="cone", param_names=("s",),
        convention=Convention.PLAIN, complex_valued=True,
        range_check=lambda n, p: (C.c4_range if shifted else C.c2_range)(n, p["s"]),
        structure=lambda n, p, pt: _structure_kernel(n, p["s"], pt, shifted),
        stated_constant=lambda n, p: (C.c4 if shifted else C.c2)(n, p["s"]),
        integrand=lambda n, p, pt: _kernel_integrand(n, p["s"], pt, shifted),
        sampler=lambda n, p, pt: _cone_laplace_preset(n, pt.y, decay(n, p, pt), TWO_PI),
        point=tube_point(x_scale=0.15),
        random_params=lambda n, rng: {"s": _low_index(n, rng, 1.2, shifted)},
        decay=decay,
        dilation=-1,
        dual_region=lambda n, p, pt: _kernel_integrand(n, p["s"], pt, shifted,
                                                       dual=True),
    )


# -- L24 --------------------------------------------------------------------

def _L24_integrand(n, r, eta, b):
    """Given the exact D = D(y), D(y + b) is taken in its exact form
    D + D(b) + sum_j k_j (u_j / y_j - b_u_j / b_j)^2, k_j = y_j b_j / (y_j + b_j),
    a sum of positive terms; assembled from y + b, it cancels at large u."""
    b = np.asarray(b, dtype=float)
    rb, eb = bold_values(r, n), bold_values(eta, n)
    bd, d_b = b[: n - 1], float(schur_complement(b))
    b_slope = border_reversed(b) / bd

    def f(ycoords, d=None):
        d_yb = None
        if d is not None:
            y = ycoords[..., : n - 1]
            t = border_reversed(ycoords) / y - b_slope
            d_yb = d + d_b + row_sum(y * bd / (y + bd) * t * t)
        return np.exp(log_delta_power(ycoords + b, -rb, d_yb)
                      + log_delta_power(ycoords, eb, d))
    return f


def _L24_reduction(r, eta, b):
    """L24 at n = 2 with the border coordinate u integrated in closed form:
    a batch callable f(y_1, D) over arrays that broadcast together.

    u enters only through D(y + b) = A + k (u - c)^2, with A = D + D(b),
    k = b_1 / (y_1 (y_1 + b_1)) and c = y_1 b_3 / b_1, and
    int (A + k t^2)^-rho dt = sqrt(pi) Gamma(rho - 1/2) / Gamma(rho)
    k^(-1/2) A^(1/2 - rho) at rho = r_2 leaves the density
    C (y_1 + b_1)^(1/2 - r_1) y_1^(eta_1 + 1/2) D^eta_2 A^(1/2 - r_2),
    C = sqrt(pi / b_1) Gamma(r_2 - 1/2) / Gamma(r_2).  A is a sum of
    positive terms, so nothing cancels.  The density is a product of a
    y_1 factor and a D factor, so each log is taken on its own axis.
    """
    b = np.asarray(b, dtype=float)
    rb, eb = bold_values(r, 2), bold_values(eta, 2)
    rho = float(rb[1])
    log_c = (0.5 * math.log(math.pi / b[0]) + math.lgamma(rho - 0.5)
             - math.lgamma(rho))
    d_b = float(schur_complement(b))

    def f(y1, d):
        return np.exp((log_c + (0.5 - rb[0]) * np.log(y1 + b[0])
                       + (eb[0] + 0.5) * np.log(y1))
                      + (eb[1] * np.log(d) + (0.5 - rho) * np.log(d + d_b)))
    return f


def _power_decay(n, gap, eta, b):
    """The indices of the cone density y^eta Delta^-(eta + gap)(y + b), in
    bold values.  The u_j enter only through D(y + b) = A + sum_j K_j
    (u_j - c_j)^2, A = D + D(b), K_j = b_j / (y_j (y_j + b_j)), so the n - 1
    border integrals are Gaussian-type (as in ``_L24_reduction``) and leave
    prod_j K_j^(-1/2) A^((n-1)/2 - eta_n - gap_n): a product of
    y_j^(eta_j + 1/2) (y_j + b_j)^(1/2 - eta_j - gap_j) on each y_j, indices
    eta_j + 3/2 and gap_j - 2 on the scale b_j, and of
    D^eta_n A^((n-1)/2 - eta_n - gap_n) on D, indices eta_n + 1 and
    gap_n - (n+1)/2 on the scale D(b)."""
    return tuple(map(Decay, [*b[: n - 1], float(schur_complement(b))],
                     [*(eta[:-1] + 1.5), eta[-1] + 1.0],
                     [*(gap[:-1] - 2.0), gap[-1] - (n + 1.0) / 2.0]))


def _L24_decay(n, r, eta, b):
    """L24's integrand is ``_power_decay``'s density at gap = bold r - bold eta."""
    eb = bold_values(eta, n)
    return _power_decay(n, bold_values(r, n) - eb, eb, b)


def _random_L24(n, rng):
    eta = _low_index(n, rng, 1.0)
    gap_lower, r_lower = C.c5_bounds(n)
    u = rng.uniform(0.4, 1.6, size=n)
    r = eta + (gap_lower + u)
    r[-1] = max(eta[-1] + gap_lower[-1], r_lower[-1], 0.75) + u[-1]
    return {"r": r, "eta": eta}


def _mk_L24():
    return IdentityDef(
        id="L24", label="shifted power against translate", domain="cone",
        param_names=("r", "eta"), convention=Convention.SHIFTED, complex_valued=False,
        range_check=lambda n, p: C.c5_range(n, p["r"], p["eta"]),
        # mixed convention: plain eta minus bold r, then the global (n+1)/2
        structure=lambda n, p, pt: _real_structure(
            pt, p["eta"] - bold_values(p["r"], n) + (n + 1.0) / 2.0),
        stated_constant=lambda n, p: C.c5(n, p["r"], p["eta"]),
        integrand=lambda n, p, pt: _L24_integrand(n, p["r"], p["eta"], pt),
        sampler=lambda n, p, pt: _power_proposal(
            n, bold_values(p["eta"], n), _L24_decay(n, p["r"], p["eta"], pt), pt),
        point=cone_vector("b"),
        random_params=_random_L24,
        decay=lambda n, p, pt: _L24_decay(n, p["r"], p["eta"], pt),
        dilation=1,
        reduction=lambda n, p, pt: (  # derived at n = 2 only
            _L24_reduction(p["r"], p["eta"], pt) if n == 2 else None),
    )


# -- L25 --------------------------------------------------------------------

def _L25_integrand(n, r, v):
    v = np.asarray(v, dtype=float)
    rb = bold_values(r, n)

    def f(u):
        return _abs_complex_power(v - 1j * u, -rb)
    return f


def _log_slice_fact(rho, a):
    """log of the n = 1 slice fact
    int |a - it|^-rho dt = sqrt(pi) Gamma((rho-1)/2) / Gamma(rho/2) a^(1-rho)."""
    log_c = (0.5 * math.log(math.pi) + math.lgamma((rho - 1.0) / 2.0)
             - math.lgamma(rho / 2.0))
    return log_c + (1.0 - rho) * np.log(a)


def L25_constant(n, rb) -> float:
    """C(n, bold r), L25's LHS over Delta^(-bold r + J)(v), J = (3/2, ...,
    3/2, (n+1)/2).  In ``_log_L25_reduced``, A = D(v) + sum_j K_j (u_{2n-j}
    - c_j)^2 with K_j = v_j / |v_j - i u_j|^2, so the borders leave pi^((n-1)/2)
    Gamma(rho - (n+1)/2) / Gamma(rho - 1) D(v)^((n+1)/2 - rho) prod_j |v_j -
    i u_j| / sqrt(v_j), rho = bold r_n, and each u_j the slice fact at bold
    r_j - 1.  Finite exactly for bold r_j > 2 (j < n) and rho > (n+1)/2."""
    # lgamma of a negative non-integer is log|Gamma|, not an error
    C._check(C._bounds("bold r", rb, C._lower(n, 2.0, (n + 1.0) / 2.0)))
    rho = float(rb[-1])
    return math.exp(sum(_log_slice_fact(x - 1.0, 1.0) for x in rb[:-1])
                    + _log_slice_fact(rho, 1.0) + (n - 1.0) / 2.0 * math.log(math.pi)
                    + math.lgamma(rho - (n + 1.0) / 2.0) - math.lgamma(rho - 1.0))


def _log_L25_reduced(n, r):
    """(v, u) -> log of L25's integrand |Delta^(-bold r)(v - iu)| with u_n
    integrated in closed form; u holds the other 2n - 2 real coordinates,
    and v and u broadcast over batch axes.

    M_n = M_{n-1} S, and the complex Schur complement S is affine in u_n
    with slope -i while A = Re S > 0 does not depend on it.  With e =
    minor_exponents(-bold r) and rho = -e_n, the n = 1 slice fact at A
    leaves prod_{k<n} |M_k|^e_k |M_{n-1}|^e_n times it, where |M_k| is
    prod_{j<=k} |v_j - i u_j|.  Moduli only, so no branch is involved.
    """
    e = minor_exponents(-bold_values(r, n))
    rho = -e[-1]
    lead = e[: n - 1].copy()
    if n > 1:
        lead[-1] += e[-1]
    # sum_k lead_k log|M_k| = sum_j weight_j log|v_j - i u_j|
    weight = np.cumsum(lead[::-1])[::-1]

    def log_f(v, u):
        out = _log_slice_fact(rho, schur_real_part(v, u))
        if n > 1:
            log_mod = np.log(np.hypot(v[..., : n - 1], u[..., : n - 1]))
            out = out + row_sum(weight * log_mod)
        return out
    return log_f


def _L25_reduction(n, r, v):
    """L25 with u_n integrated in closed form: a batch callable over the
    other 2n - 2 real coordinates (``_log_L25_reduced`` at v)."""
    v = np.asarray(v, dtype=float)
    log_f = _log_L25_reduced(n, r)
    return lambda u: np.exp(log_f(v, u))


def _L25_decay(n, r, v):
    """At n = 2 the reduced integrand over (u_1, u_3) falls like |u|^-r_1
    along every ray and like |u_3|^(2 - 2 r_2) along the u_3 axis: on
    either axis the mass beyond R falls like R^-min(r_1 - 2, 2 r_2 - 3)."""
    if n == 1:
        return (Decay(v[0], None, r[0] - 1.0),)
    if n > 2:
        raise InvalidInputError(f"L25 states no Decay at n = {n}")
    d = max(float(schur_complement(v)), 0.25 * v[1])
    tail = min(r[0] - 2.0, 2.0 * r[1] - 3.0)
    return tuple(Decay(s, None, tail)
                 for s in (float(v[0]), math.sqrt(float(v[0]) * d)))


def _L25_sampler(n, r, v):
    """The slice's laws, each read off ``_log_L25_reduced`` as
    ``L25_constant`` integrates it, rho = bold r_n: u_j (j < n) Student-t
    of nu_j = bold r_j - 2 degrees on scale v_j / sqrt(nu_j), its marginal;
    u_n, where drawn, the n = 1 slice fact's, nu = rho - 1 on v_n / sqrt(nu);
    border x_{2n-j} Cauchy at c_j = v_{2n-j} u_j / v_j on its conditional
    scale sqrt(D(v) |v_j - i u_j|^2 / (v_j nu_b)), nu_b = 2 rho - 3.  Each
    nu is floored at 1/20: at 1/4, r_1 = 2.05 reads up to 12% low."""
    v, rb = np.asarray(v, dtype=float), bold_values(r, n)
    nu = [_clip(x, 0.05) for x in [*(rb[:-1] - 2.0), rb[-1] - 1.0, 2.0 * rb[-1] - 3.0]]
    d = float(schur_complement(v))
    laws = [CauchyLaw(0.0, float(v[j] / math.sqrt(nu[j])), df=nu[j]) for j in range(n)]
    for k in range(n + 1, 2 * n):  # coordinate x_k pairs diagonal j = 2n - k
        vj = float(v[2 * n - k - 1])
        laws.append(ConditionalCauchyLaw(ref=2 * n - k - 1, mu=float(v[k - 1]) / vj,
                                         c=vj, s1=math.sqrt(d / (vj * nu[n]))))
    return SamplerSpec(n=n, real=tuple(laws))


def _random_L25(n, rng):
    return {"r": np.concatenate([rng.uniform(1.9, 3.5, size=n - 1),
                                 rng.uniform((n + 1) / 2.0 + 0.5,
                                             (n + 1) / 2.0 + 2.5, size=1)])}


def _mk_L25():
    return IdentityDef(
        id="L25", label="horizontal slice of kernel modulus", domain="slice",
        param_names=("r",), convention=Convention.SHIFTED, complex_valued=False,
        range_check=lambda n, p: C.c6_range(n, p["r"]),
        structure=lambda n, p, pt: _real_structure(
            pt, -bold_values(p["r"], n) + (n + 1.0) / 2.0),
        stated_constant=lambda n, p: C.c6(n, p["r"]),
        integrand=lambda n, p, pt: _L25_integrand(n, p["r"], pt),
        sampler=lambda n, p, pt: _L25_sampler(n, p["r"], pt),
        point=cone_vector("v"),
        random_params=_random_L25,
        decay=lambda n, p, pt: _L25_decay(n, p["r"], np.asarray(pt, dtype=float)),
        dilation=1,
        reduction=lambda n, p, pt: _L25_reduction(n, p["r"], pt),
    )


# -- L26 --------------------------------------------------------------------

def _L26_integrand(n, l, r, eta, point):
    z, xi = point
    lb, rb, eb = bold_values(l, n), bold_values(r, n), bold_values(eta, n)
    er, ee = minor_exponents(-rb), minor_exponents(-eb)
    xz, yz, xxi, yxi = z.x, z.y, xi.x, xi.y

    def f(u, v):
        zeta1 = (yz + v) - 1j * (xz - u)     # (z - conj(w))/i
        zeta2 = (v + yxi) - 1j * (u - xxi)   # (w - conj(xi))/i
        kern = (complex_power_from_minors(complex_minors(zeta1), er)
                * complex_power_from_minors(complex_minors(zeta2), ee))
        return np.exp(log_delta_power(v, lb)) * kern
    return f


def _principal_log(re, im):
    """log(re + i im) on the principal branch from two real passes, a
    fraction of the cost of numpy's complex log."""
    return np.log(np.hypot(re, im)) + 1j * np.arctan2(im, re)


def _L26_reduction(n, l, r, eta, z: TubePoint, xi: TubePoint):
    """L26 at n <= 2 with u_n integrated in closed form: f(v, x) over the
    imaginary parts v and the real parts x other than x_n (none at n = 1).

    With zeta = (z - conj(w))/i and zeta' = (w - conj(xi))/i, M_n = zeta_1 S
    at n = 2, S the complex Schur complement.  Re zeta_1 > 0 and Re S > 0
    keep arg zeta_1 + arg S inside (-pi, pi), so on the principal branch
    M_n^e = zeta_1^e S^e, and the kernel is zeta_1^(e_1 + e_2) S^e_2, e =
    minor_exponents(-bold r); likewise zeta' with eta.  S = S_1 + i u_n and
    S' = S_2 - i u_n, S_1 and S_2 at u_n = 0, and the Beta convolution
    int (a - it)^-eta (b + it)^-r dt = 2 pi Gamma(r + eta - 1)
    / (Gamma(r) Gamma(eta)) (a + b)^(1 - r - eta) (Re a, Re b > 0,
    principal branches) at rho = r_n + eta_n, bold, leaves that at
    a + b = S_1 + S_2 = (y_z + y_xi + 2v - i(x_z - x_xi))_n
    - sum of zeta_b^2 / zeta_1 over both kernels, times v^l.  At n = 3,
    M_{n-1} = zeta_1 zeta_2 is a product of two factors whose args with
    arg S can leave (-pi, pi), so no reduction is derived there.
    """
    lb, rb, eb = bold_values(l, n), bold_values(r, n), bold_values(eta, n)
    rho = float(rb[-1] + eb[-1])
    log_c = (math.log(TWO_PI) + math.lgamma(rho - 1.0) - math.lgamma(rb[-1])
             - math.lgamma(eb[-1]))
    zeta = _zeta_diff(z, xi)[n - 1]
    yz, xz, yx, xx = z.y, z.x, xi.y, xi.x

    def f(v, x=None):
        s = zeta + 2.0 * v[..., n - 1]
        out = log_delta_power(v, lb) + log_c
        if n == 2:  # diagonals a, borders b; e_1 + e_2 = -bold r_1, -bold eta_1
            v1, vb, u1, ub = v[..., 0], v[..., 2], x[..., 0], x[..., 1]
            re1, im1 = yz[0] + v1, u1 - xz[0]
            re2, im2 = v1 + yx[0], xx[0] - u1
            b1 = (yz[2] + vb) + 1j * (ub - xz[2])
            b2 = (vb + yx[2]) + 1j * (xx[2] - ub)
            s = s - (b1 * b1 / (re1 + 1j * im1) + b2 * b2 / (re2 + 1j * im2))
            out = out - (rb[0] * _principal_log(re1, im1)
                         + eb[0] * _principal_log(re2, im2))
        return np.exp(out + (1.0 - rho) * np.log(s))
    return f


def _tube_v_real_laws(n, centers, offsets):
    """Real-part laws whose scales track the sampled imaginary part.

    The laws are centred at 0; each center is folded into its offset so
    the scale still covers it.
    """
    shift = [abs(float(c)) for c in centers]
    laws = [VCauchyLaw(ref1=j, ref2=None,
                       offset=float(offsets[j] + REAL_PAD) + shift[j])
            for j in range(n)]
    for k in range(n + 1, 2 * n):  # coordinate x_k pairs diagonal j = 2n - k
        j = 2 * n - k
        off = math.sqrt(offsets[j - 1] * offsets[n - 1]) + REAL_PAD
        laws.append(VCauchyLaw(ref1=j - 1, ref2=n - 1,
                               offset=float(off) + shift[k - 1]))
    return tuple(laws)


def _tube_decay(n, k, l, y):
    """The tube's ``Decay`` on the radial axes of v for the weight v^l
    against kernel moduli of total bold exponent k at imaginary part y.
    Integrating the real parts is the slice identity, which leaves
    v^l Delta^(-k + J)(y + v), J = (3/2, ..., 3/2, (n+1)/2) the Jacobian
    exponents of the diagonal congruences: ``_power_decay``'s density at
    eta = bold l, gap = k - bold l - J.  Far out the two kernels of L26
    both act as one of exponent k = bold r + bold eta.  Each tail is the
    difference k - bold l minus constants, which at n = 1 is exact."""
    lb = bold_values(l, n)
    jac = np.append(np.full(n - 1, 1.5), (n + 1.0) / 2.0)
    return _power_decay(n, (k - lb) - jac, lb, y)


def tube_proposal(n, zero_exp, decays, y, centers) -> SamplerSpec:
    """Proposal for a power weight against kernel moduli on the tube.

    ``_power_proposal`` at b = y (``_tube_decay``), border widths
    sqrt(max(y_n, 0.3)) until the n = 3 Schur check is consistent; real
    parts whose Cauchy scales track the sampled imaginary part, on y_1..y_n.
    """
    widths = [math.sqrt(max(y[n - 1], 0.3))] * (n - 1)
    return _power_proposal(n, zero_exp, decays, y, widths,
                           real=_tube_v_real_laws(n, centers, y[:n]))


def _random_L26(n, rng):
    l = _low_index(n, rng, 0.8)
    _, r_lower, eta_lower = C.c7_index_bounds(n)
    eta = rng.uniform(eta_lower + 0.4, eta_lower + 2.0)
    r = rng.uniform(r_lower + 0.4, n + 2.0)
    r += np.maximum(C.c7_bounds(n) - (r + eta - l) + 0.4, 0.0)
    return {"l": l, "r": r, "eta": eta}


def _mk_L26():
    def decay(n, p, pt):  # at the mean imaginary part of z and xi
        return _tube_decay(n, bold_values(p["r"], n) + bold_values(p["eta"], n),
                           p["l"], 0.5 * (pt[0].y + pt[1].y))
    return IdentityDef(
        id="L26", label="tube kernel product", domain="tube",
        param_names=("l", "r", "eta"), convention=Convention.SHIFTED,
        complex_valued=True,
        range_check=lambda n, p: C.c7_range(n, p["l"], p["r"], p["eta"]),
        structure=lambda n, p, pt: _structure_L26(n, p["l"], p["r"], p["eta"], *pt),
        stated_constant=lambda n, p: C.c7(n, p["l"], p["r"], p["eta"]),
        integrand=lambda n, p, pt: _L26_integrand(n, p["l"], p["r"], p["eta"], pt),
        sampler=lambda n, p, pt: tube_proposal(
            n, bold_values(p["l"], n), decay(n, p, pt),
            0.5 * (pt[0].y + pt[1].y), 0.5 * (pt[0].x + pt[1].x)),
        point=TUBE_PAIR,
        random_params=_random_L26,
        decay=decay,
        dilation=1,
        reduction=lambda n, p, pt: (  # derived at n <= 2
            _L26_reduction(n, p["l"], p["r"], p["eta"], *pt) if n <= 2 else None),
    )


# -- L27 --------------------------------------------------------------------

def _L27_integrand(n, l, r, z: TubePoint):
    lb, rb = bold_values(l, n), bold_values(r, n)
    xz, yz = z.x, z.y

    def f(u, v):
        zeta = (yz + v) - 1j * (xz - u)
        return np.exp(log_delta_power(v, lb)) * _abs_complex_power(zeta, -rb)
    return f


def _L25_on_tube(n, l, r, z: TubePoint):
    """L27's reduction, L25's carried to the tube: f(v, x) = v^l times
    L25's reduced integrand at A = y_z + v and real parts x_z - x, x the
    real parts other than x_n (none at n = 1).  The kernel modulus
    |Delta(A - i(x_z - u))| is L25's integrand at A, and x_n -> x_z,n - x_n
    keeps the measure."""
    lb = bold_values(l, n)
    log_slice = _log_L25_reduced(n, r)
    yz, xz = z.y, np.concatenate((z.x[: n - 1], z.x[n:]))

    def f(v, x=None):
        u = xz if x is None else xz - x
        return np.exp(log_delta_power(v, lb) + log_slice(yz + v, u))
    return f


def _random_L27(n, rng):
    l = _low_index(n, rng, 0.8)
    r = l + (C.c8_bounds(n)[1] + rng.uniform(0.4, 1.5, size=n))
    return {"l": l, "r": r}


def _mk_L27():
    def decay(n, p, pt):
        return _tube_decay(n, bold_values(p["r"], n), p["l"], pt.y)
    return IdentityDef(
        id="L27", label="tube kernel modulus", domain="tube",
        param_names=("l", "r"), convention=Convention.SHIFTED, complex_valued=False,
        range_check=lambda n, p: C.c8_range(n, p["l"], p["r"]),
        structure=lambda n, p, pt: _real_structure(
            pt.y, (p["l"] - p["r"]) + (n + 1.0)),
        stated_constant=lambda n, p: C.c8(n, p["l"], p["r"]),
        integrand=lambda n, p, pt: _L27_integrand(n, p["l"], p["r"], pt),
        sampler=lambda n, p, pt: tube_proposal(
            n, bold_values(p["l"], n), decay(n, p, pt), pt.y, pt.x),
        point=tube_point(),
        random_params=_random_L27,
        decay=decay,
        dilation=1,
        reduction=lambda n, p, pt: _L25_on_tube(n, p["l"], p["r"], pt),
    )


IDENTITIES = {d.id: d for d in (
    _laplace_identity("L23_1", "cone Laplace transform, plain power", False),
    _kernel_identity("L23_2", "inverse transform kernel, plain power", False),
    _laplace_identity("COR1_1", "cone Laplace transform, shifted power", True),
    _kernel_identity("COR1_2", "inverse transform kernel, shifted power", True),
    _mk_L24(), _mk_L25(), _mk_L26(), _mk_L27())}


def get_identity(identity_id: str) -> IdentityDef:
    try:
        return IDENTITIES[identity_id]
    except KeyError:
        raise InvalidInputError(
            f"unknown identity {identity_id!r}; known: {sorted(IDENTITIES)}") from None


def read_params(identity_id: str, n: int, params: dict) -> dict:
    """The plain n-vectors of ``params``, whose keys must be exactly the
    identity's ``param_names``."""
    names = get_identity(identity_id).param_names
    if not isinstance(params, dict) or set(params) != set(names):
        raise InvalidInputError(f"{identity_id} takes exactly the params "
                                f"{sorted(names)}, got {params!r}")
    return {k: plain_values(v, n) for k, v in params.items()}


def read_inputs(identity_id: str, params: dict, point):
    """(registry entry, n, plain params) of ``params`` at ``point``; raises
    on a point of another kind or a wrong key set."""
    ident = get_identity(identity_id)
    n = ident.point.order(point)
    return ident, n, read_params(identity_id, n, params)


def check_params(identity_id: str, n: int, params: dict) -> None:
    C._check(get_identity(identity_id).range_check(
        n, read_params(identity_id, n, params)))


def kernel_region_integrand(identity_id: str, params: dict, point,
                            region: str):
    """LHS integrand over a region that ``regions`` lists after the domain."""
    ident, n, p = read_inputs(identity_id, params, point)
    if region not in ident.regions(n)[1:]:
        raise InvalidInputError(f"{identity_id} at n = {n} has no {region!r} "
                                f"region; it has {list(ident.regions(n))}")
    return ident.dual_region(n, p, point)


def closed_value(identity_id: str, params: dict, point,
                 constant: float | None = None):
    """constant x structure for one identity; stated constant by default."""
    ident, n, p = read_inputs(identity_id, params, point)
    C._check(ident.range_check(n, p))
    cst = ident.stated_constant(n, p) if constant is None else constant
    return cst * ident.structure(n, p, point)


def structure_value(identity_id: str, params: dict, point):
    ident, n, p = read_inputs(identity_id, params, point)
    return ident.structure(n, p, point)


# ---------------------------------------------------------------------------
# the public closed form: indices in the identity's convention
# ---------------------------------------------------------------------------

def closed_form(identity_id: str, point, indices: dict,
                constant: float | None = None):
    """closed_value at ``indices`` read in the identity's ``convention``, as
    a float, or as a complex for a complex-valued identity."""
    ident = get_identity(identity_id)
    params = {k: read_index(v, ident.convention, k) for k, v in indices.items()}
    cast = complex if ident.complex_valued else float
    return cast(closed_value(identity_id, params, point, constant))


# ---------------------------------------------------------------------------
# randomized in-range configurations (drives audits and oracle suites)
# ---------------------------------------------------------------------------

def random_params(identity_id: str, n: int, rng: np.random.Generator) -> dict:
    """In-range parameters with safety margins from every range boundary.

    Margins keep the importance laws square-integrable (e.g. L24's border
    weights need bold r_n > 3/4, and the last exponent of r stays above
    1.05), which the dominance notes in the samplers assume.
    """
    return get_identity(identity_id).random_params(n, rng)


def random_point(identity_id: str, n: int, rng: np.random.Generator):
    return get_identity(identity_id).point.random(n, rng)
