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

Each identity is split into a constant and a constant-free *structure*
(the product of powers the closed form predicts); closed = constant x
structure.  The structure carries the scientifically forced content (the
homogeneity exponents) and is what the lambda-scaling oracle checks; the
stated composite constants are kept as given and may be overridden by an
oracle-calibrated value where the composition is wrong.  Each registered identity also knows how to build its own
left-hand-side integrand and a matched importance-sampling law, so the
numeric oracle can audit it without identity-specific code.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import constants as C
from .errors import InvalidInputError
from .geometry import (TubePoint, canonical_to_coords,
                       complex_minors, complex_power_from_minors,
                       delta_transform_parts, log_delta_power, minor_exponents,
                       order_from_dim, require_cone, schur_complement,
                       schur_real_part)
from .indices import Convention, bold_values, plain_values, read_index
from .sampling import (BorderLaw, CauchyLaw, ConditionalCauchyLaw,
                       RadialLaw, SamplerSpec, VCauchyLaw)

IDENTITY_IDS = ("L23_1", "L23_2", "COR1_1", "COR1_2", "L24", "L25", "L26", "L27")

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi
REAL_PAD = 0.3  # floor added to every real-part Cauchy scale


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=-1)


def _abs_complex_power(zeta: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """|minor power| at z/i coordinates; moduli only, branch-free."""
    mins = complex_minors(zeta)
    e = minor_exponents(entries)
    return np.exp(np.sum(e * np.log(np.abs(mins)), axis=-1))


def _border(n, shifted) -> float:
    """Border offset of the transform identities: 3/2, or (n+1)/2 shifted."""
    return (n + 1.0) / 2.0 if shifted else 1.5


# ---------------------------------------------------------------------------
# structures (constant-free closed-form factors)
# ---------------------------------------------------------------------------

def _structure_laplace(n, s, t, shifted: bool):
    q, tn = delta_transform_parts(np.asarray(t, dtype=float))
    logval = (-s[-1] - (n + 1.0) / 2.0) * np.log(tn)
    if n > 1:
        logval = logval + np.sum((-s[: n - 1] - _border(n, shifted)) * np.log(q),
                                 axis=-1)
    return np.exp(logval)


def _structure_kernel(n, s, z: TubePoint, shifted: bool):
    """The shifted form reads the bold index and has no next-to-top factor."""
    ent = bold_values(s, n) if shifted else np.asarray(s, dtype=float)
    e = minor_exponents(-ent)
    e[-1] += -(n + 1.0)
    if not shifted and n >= 2:
        e[n - 2] += n - 2.0
    return complex_power_from_minors(complex_minors(z.zeta), e)


def _structure_L24(n, r, eta, b):
    # mixed-convention exponent: plain eta minus shifted r, then the
    # (n+1)/2 global power
    expo = eta - bold_values(r, n)
    expo = expo + (n + 1.0) / 2.0
    bb = np.asarray(b, dtype=float)
    return float(np.exp(log_delta_power(bb, expo)))


def _structure_L25(n, r, v):
    expo = -bold_values(r, n) + (n + 1.0) / 2.0
    return float(np.exp(log_delta_power(np.asarray(v, dtype=float), expo)))


def _zeta_diff(z: TubePoint, xi: TubePoint) -> np.ndarray:
    """Coordinates of (z - conj(xi)) / i = (y_z + y_xi) - i (x_z - x_xi)."""
    return (z.y + xi.y) - 1j * (z.x - xi.x)


def _structure_L26(n, l, r, eta, z: TubePoint, xi: TubePoint):
    expo = bold_values(l, n) - bold_values(r, n) - bold_values(eta, n)
    e = minor_exponents(expo)
    e[-1] += n + 1.0  # positive trailing exponent; the oracle adjudicates it
    return complex_power_from_minors(complex_minors(_zeta_diff(z, xi)), e)


def _structure_L27(n, l, r, z: TubePoint):
    expo = (l - r) + (n + 1.0)
    return float(np.exp(log_delta_power(z.y, expo)))


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


def _cone_laplace_preset(n, t, shapes, c):
    """Gamma/Gaussian law exactly matched to exp(-c y.t) on the cone."""
    t = np.asarray(t, dtype=float)
    tn = t[n - 1]
    u = t[n:][::-1] if n > 1 else np.empty(0)
    radial = [RadialLaw("gamma", _clip(a, 0.35), b)
              for a, b in zip(shapes, _laplace_rates(n, t, c))]
    border = [BorderLaw("gaussian", mu1=float(-u[j] / (2.0 * tn)),
                        s1=float(math.sqrt(1.0 / (2.0 * c * tn))))
              for j in range(n - 1)]
    return SamplerSpec(n=n, radial=tuple(radial), border=tuple(border))


def _tube_real_laws(n, centers, diag_scales):
    """Real-part laws from n diagonal length scales.

    Diagonals get static Cauchy laws; each border coordinate gets a law
    conditioned on its diagonal partner, because the kernel moduli decay
    only linearly along directions where a border tracks a large diagonal.
    """
    laws = []
    for j in range(n):
        laws.append(CauchyLaw(float(centers[j]), float(diag_scales[j] + REAL_PAD)))
    for k in range(n + 1, 2 * n):  # coordinate x_k pairs diagonal j = 2n - k
        j = 2 * n - k
        s1 = math.sqrt(diag_scales[n - 1]) + REAL_PAD
        laws.append(ConditionalCauchyLaw(ref=j - 1,
                                         c=float(diag_scales[j - 1]),
                                         s0=REAL_PAD, s1=float(s1)))
    return tuple(laws)


def _betaprime_radial(n, zero_exp, tail_exp, scales):
    """Beta-prime laws matched to y^zero_exp near 0 and y^-(tail_exp) at infinity.

    The proposal tail is deliberately fattened by 1.25 so the importance
    ratio stays square-integrable when the integrand sits at its stated
    convergence margin.
    """
    laws = []
    for j in range(n):
        a = _clip(zero_exp[j] + 1.0, 0.4)
        b = _clip(tail_exp[j] - 1.25, 0.5)
        laws.append(RadialLaw("betaprime", a, b, _clip(scales[j], 1e-6)))
    return laws


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


@dataclass(frozen=True)
class PointKind:
    """How an identity's evaluation point is read, written, dilated and drawn."""

    parse: callable              # (config object, n) -> point
    payload: callable            # point -> JSON-ready dict (inverse of parse)
    scale: callable              # (point, lam) -> dilated point
    random: callable             # (n, rng) -> random point
    reference: callable          # n -> unit reference point
    order: callable              # point -> n; raises on a point of another kind


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
        order=_cone_order)


def tube_point(x_scale: float = 0.25) -> PointKind:
    """One tube point {"x", "y"}, optionally nested under "z"; random real
    parts are uniform on [-x_scale, x_scale]."""
    return PointKind(
        parse=lambda obj, n: _read_tube(obj.get("z", obj), n),
        payload=_tube_payload,
        scale=_scale_tube,
        random=lambda n, rng: random_tube_point(n, rng, x_scale),
        reference=unit_tube_point,
        order=lambda z: _tube(z).n)


TUBE_PAIR = PointKind(
    parse=lambda obj, n: (_read_tube(obj["z"], n), _read_tube(obj["xi"], n)),
    payload=lambda pt: {"z": _tube_payload(pt[0]), "xi": _tube_payload(pt[1])},
    scale=lambda pt, lam: (_scale_tube(pt[0], lam), _scale_tube(pt[1], lam)),
    random=lambda n, rng: (random_tube_point(n, rng), random_tube_point(n, rng)),
    reference=lambda n: (unit_tube_point(n), unit_tube_point(n)),
    order=_pair_order)


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
    dual_region: callable | None = None  # integrand over the dual cone, if any
    reduction: callable | None = None  # (n, params, point) -> callable | None

    def regions(self, n: int) -> tuple:
        """The regions the left-hand side is integrated over at order n: the
        domain, then the dual cone where border doubling reaches it.  That
        is n <= 2, where every symmetric matrix is an arrowhead."""
        dual = ("dual",) if self.dual_region is not None and n <= 2 else ()
        return (self.domain,) + dual


def _low_index(n, rng, hi, shifted=True) -> np.ndarray:
    """Random index just inside its lower range bounds, entries below hi."""
    lo = 0.4 - _border(n, shifted)
    return np.concatenate([rng.uniform(lo, hi, size=n - 1),
                           rng.uniform(-0.6, hi, size=1)])


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


def _laplace_shapes(n, s, shifted):  # the gamma shapes: s_j + border, s_n + 1
    return np.concatenate([s[:-1] + _border(n, shifted), s[-1:] + 1.0])


def _laplace_identity(id, label, shifted) -> IdentityDef:
    return IdentityDef(
        id=id, label=label, domain="cone", param_names=("s",),
        convention=Convention.PLAIN, complex_valued=False,
        range_check=lambda n, p: (C.c3_range if shifted else C.c1_range)(n, p["s"]),
        structure=lambda n, p, pt: _structure_laplace(n, p["s"], pt, shifted),
        stated_constant=lambda n, p: (C.c3 if shifted else C.c1)(n, p["s"]),
        integrand=lambda n, p, pt: _laplace_integrand(n, p["s"], pt, shifted),
        sampler=lambda n, p, pt: _cone_laplace_preset(
            n, pt, _laplace_shapes(n, p["s"], shifted), FOUR_PI),
        point=cone_vector("t"),
        random_params=lambda n, rng: {"s": _low_index(n, rng, 1.5, shifted)},
        decay=lambda n, p, pt: _laplace_decay(
            n, pt, _laplace_shapes(n, p["s"], shifted), FOUR_PI),
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
    border_exp = s[: n - 1] + _border(n, shifted)
    top_exp = s[-1] + (n + 1.0) / 2.0
    inv_const = 1.0 / (C.c3(n, s) if shifted else C.c1(n, s))
    jac = 2.0 ** (n - 1) if dual else 1.0
    x, y = z.x, z.y

    def f(tcoords, d=None):
        t = tcoords
        if dual:
            t = tcoords.copy()
            t[..., n:] *= 2.0
            tn = t[..., n - 1]
            d = schur_complement(tcoords) if d is None else d
            q = 4.0 * t[..., : n - 1] * (d / tn)[..., None]
        else:
            q, tn = delta_transform_parts(t)
        logmag = top_exp * np.log(tn) - TWO_PI * _dot(t, y)
        if n > 1:
            logmag = logmag + np.sum(border_exp * np.log(q), axis=-1)
        phase = TWO_PI * _dot(t, x)
        return jac * inv_const * np.exp(logmag) * np.exp(1j * phase)
    return f


def _kernel_decay(n, s, y):
    """The modulus is exp(-2 pi t.y) t_n^(s_n + (n+1)/2) q^(s_1 + 3/2).  At
    n = 2, near D = 0 it does not vanish on the cone (index 1, or s_2 + 3
    if less) and has index min(s_1 + 5/2, s_2 + 3) on the dual cone."""
    zero = [s[0] + 2.0] if n == 1 else [s[0] + 3.0,
                                        min(1.0, s[0] + 2.5, s[1] + 3.0)]
    return _laplace_decay(n, y, zero, TWO_PI)


def _kernel_identity(id, label, shifted) -> IdentityDef:
    return IdentityDef(
        id=id, label=label, domain="cone", param_names=("s",),
        convention=Convention.PLAIN, complex_valued=True,
        range_check=lambda n, p: (C.c4_range if shifted else C.c2_range)(n, p["s"]),
        structure=lambda n, p, pt: _structure_kernel(n, p["s"], pt, shifted),
        stated_constant=lambda n, p: (C.c4 if shifted else C.c2)(n, p["s"]),
        integrand=lambda n, p, pt: _kernel_integrand(n, p["s"], pt, shifted),
        sampler=lambda n, p, pt: _cone_laplace_preset(n, pt.y, np.concatenate(
            [p["s"][:-1] + (_border(n, shifted) + 1.0),
             p["s"][-1:] + (n + 3.0) / 2.0]), TWO_PI),
        point=tube_point(x_scale=0.15),
        random_params=lambda n, rng: {"s": _low_index(n, rng, 1.2, shifted)},
        decay=lambda n, p, pt: _kernel_decay(n, p["s"], pt.y),
        dual_region=lambda n, p, pt: _kernel_integrand(n, p["s"], pt, shifted,
                                                       dual=True),
    )


# -- L24 --------------------------------------------------------------------

def _L24_integrand(n, r, eta, b):
    b = np.asarray(b, dtype=float)
    rb, eb = bold_values(r, n), bold_values(eta, n)

    def f(ycoords, d=None):
        return np.exp(log_delta_power(ycoords + b, -rb)
                      + log_delta_power(ycoords, eb, d))
    return f


def _L24_sampler(n, r, eta, b):
    b = np.asarray(b, dtype=float)
    eb = bold_values(eta, n)
    d_b = float(schur_complement(b))
    scales = np.concatenate([b[: n - 1], [d_b]])
    radial = _betaprime_radial(n, eb, r - eta, scales)
    u_b = b[n:][::-1] if n > 1 else np.empty(0)
    border = [BorderLaw("cauchy", mu0=float(-u_b[j]),
                        s0=0.3, s1=float(math.sqrt((d_b + 0.5) * (1.0 + b[j]) / b[j])))
              for j in range(n - 1)]
    return SamplerSpec(n=n, radial=tuple(radial), border=tuple(border))


def _L24_decay(n, r, eta, b):
    """At n = 2, D(y + b) = A + k (u / y_1 - b_3 / b_1)^2 with A = D + D(b),
    k = y_1 b_1 / (y_1 + b_1); u integrates out to the (y_1, D) density
    (y_1 + b_1)^(1/2 - r_1) y_1^(eta_1 + 1/2) D^eta_2 A^(1/2 - r_2)."""
    if n == 1:
        return (Decay(b[0], eta[0] + 1.0, r[0] - eta[0] - 1.0),)
    return (Decay(b[0], eta[0] + 1.5, r[0] - eta[0] - 2.0),
            Decay(float(schur_complement(b)), eta[1] + 1.0, r[1] - eta[1] - 1.5))


def _random_L24(n, rng):
    eta = _low_index(n, rng, 1.0)
    r = eta.copy()
    r[:-1] += n + rng.uniform(0.4, 1.6, size=n - 1)
    r[-1] = max(eta[-1] + (n + 1) / 2.0, 0.0, 0.75) + rng.uniform(0.4, 1.6)
    return {"r": r, "eta": eta}


def _mk_L24():
    return IdentityDef(
        id="L24", label="shifted power against translate", domain="cone",
        param_names=("r", "eta"), convention=Convention.SHIFTED, complex_valued=False,
        range_check=lambda n, p: C.c5_range(n, p["r"], p["eta"]),
        structure=lambda n, p, pt: _structure_L24(n, p["r"], p["eta"], pt),
        stated_constant=lambda n, p: C.c5(n, p["r"], p["eta"]),
        integrand=lambda n, p, pt: _L24_integrand(n, p["r"], p["eta"], pt),
        sampler=lambda n, p, pt: _L24_sampler(n, p["r"], p["eta"], pt),
        point=cone_vector("b"),
        random_params=_random_L24,
        decay=lambda n, p, pt: _L24_decay(n, p["r"], p["eta"], pt),
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


def _L25_reduction(n, r, v):
    """L25 with u_n integrated in closed form: a batch callable over the
    real coordinates left.

    M_n = M_{n-1} S, and the complex Schur complement S is affine in u_n
    with slope -i while A = Re S > 0 does not depend on it.  With e =
    minor_exponents(-bold r) and rho = -e_n, the n = 1 slice fact at A
    leaves prod_{k<n} |M_k|^e_k |M_{n-1}|^e_n times it, at u_n = 0.
    """
    v = np.asarray(v, dtype=float)
    rb = bold_values(r, n)
    e = minor_exponents(-rb)
    rho = -e[-1]
    lead = e[: n - 1].copy()
    if n > 1:
        lead[-1] += e[-1]

    def f(w):
        u = np.insert(w, n - 1, 0.0, axis=-1)
        out = _log_slice_fact(rho, schur_real_part(v, u))
        if n > 1:
            log_mod = np.log(np.hypot(v[: n - 1], u[..., : n - 1]))
            out = out + np.sum(lead * np.cumsum(log_mod, axis=-1), axis=-1)
        return np.exp(out)
    return f


def _L25_decay(n, r, v):
    """At n = 2 the reduced integrand over (u_1, u_3) falls like |u|^-r_1
    along every ray and like |u_3|^(2 - 2 r_2) along the u_3 axis: on
    either axis the mass beyond R falls like R^-min(r_1 - 2, 2 r_2 - 3)."""
    if n == 1:
        return (Decay(v[0], None, r[0] - 1.0),)
    d = max(float(schur_complement(v)), 0.25 * v[1])
    tail = min(r[0] - 2.0, 2.0 * r[1] - 3.0)
    return tuple(Decay(s, None, tail)
                 for s in (float(v[0]), math.sqrt(float(v[0]) * d)))


def _L25_sampler(n, r, v):
    v = np.asarray(v, dtype=float)
    diag = v[:n].copy()
    diag[n - 1] = max(float(schur_complement(v)), diag[n - 1] * 0.5)
    radial = [RadialLaw("gamma", 1.0, 1.0)] * n          # unused placeholders
    border = [BorderLaw("gaussian")] * (n - 1)
    real = _tube_real_laws(n, np.zeros(2 * n - 1), diag)
    return SamplerSpec(n=n, radial=tuple(radial), border=tuple(border), real=real)


def _random_L25(n, rng):
    return {"r": np.concatenate([rng.uniform(1.9, 3.5, size=n - 1),
                                 rng.uniform((n + 1) / 2.0 + 0.5,
                                             (n + 1) / 2.0 + 2.5, size=1)])}


def _mk_L25():
    return IdentityDef(
        id="L25", label="horizontal slice of kernel modulus", domain="slice",
        param_names=("r",), convention=Convention.SHIFTED, complex_valued=False,
        range_check=lambda n, p: C.c6_range(n, p["r"]),
        structure=lambda n, p, pt: _structure_L25(n, p["r"], pt),
        stated_constant=lambda n, p: C.c6(n, p["r"]),
        integrand=lambda n, p, pt: _L25_integrand(n, p["r"], pt),
        sampler=lambda n, p, pt: _L25_sampler(n, p["r"], pt),
        point=cone_vector("v"),
        random_params=_random_L25,
        decay=lambda n, p, pt: _L25_decay(n, p["r"], np.asarray(pt, dtype=float)),
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


def _L26_reduction(l, r, eta, z: TubePoint, xi: TubePoint):
    """L26 at n = 1 with u integrated in closed form: a cone integrand over v.

    The kernels are (b + iu)^-r (a - iu)^-eta, Re a, Re b > 0, and the Beta
    convolution int (a - it)^-eta (b + it)^-r dt = 2 pi Gamma(r + eta - 1)
    / (Gamma(r) Gamma(eta)) (a + b)^(1 - r - eta) (principal branches) leaves
    that at a + b = (y_z + y_xi + 2v) - i (x_z - x_xi), times v^l.
    """
    rho = float(r[0] + eta[0])
    log_c = (math.log(TWO_PI) + math.lgamma(rho - 1.0) - math.lgamma(r[0])
             - math.lgamma(eta[0]))
    zeta = _zeta_diff(z, xi)[0]

    def f(v):
        return np.exp(log_delta_power(v, l) + log_c
                      + (1.0 - rho) * np.log(zeta + 2.0 * v[..., 0]))
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


def tube_proposal(n, zero_exp, tail_exp, scales, centers) -> SamplerSpec:
    """Proposal for a power weight against kernel moduli on the tube.

    Beta-prime radials matched to the weight near 0 and the tail exponents
    at infinity, on the diagonal length ``scales``; Cauchy borders; real
    parts whose Cauchy scales track the sampled imaginary part.
    """
    radial = _betaprime_radial(n, zero_exp, tail_exp, scales)
    border = [BorderLaw("cauchy", s0=0.3,
                        s1=float(math.sqrt(max(scales[n - 1], 0.3))))
              for _ in range(n - 1)]
    real = _tube_v_real_laws(n, centers, scales)
    return SamplerSpec(n=n, radial=tuple(radial), border=tuple(border), real=real)


def _L26_sampler(n, l, r, eta, point):
    z, xi = point
    lb = bold_values(l, n)
    tail = (r + eta - l) - (n + 1.0) / 2.0
    diag = 0.5 * (z.y[:n] + xi.y[:n])
    centers_diag = 0.5 * (z.x + xi.x)
    return tube_proposal(n, lb, tail, diag, centers_diag)


def _random_L26(n, rng):
    l = _low_index(n, rng, 0.8)
    eta = np.concatenate([rng.uniform(n + 0.4, n + 2.0, size=n - 1),
                          rng.uniform((n + 1) / 2.0 + 0.4, (n + 1) / 2.0 + 2.0,
                                      size=1)])
    r = np.concatenate([rng.uniform((n - 1) / 2.0 + 0.4, n + 2.0, size=n - 1),
                        rng.uniform(0.4, n + 2.0, size=1)])
    gap_j = (3 * n + 1) / 2.0 - (r[:-1] + eta[:-1] - l[:-1])
    r[:-1] += np.maximum(gap_j + 0.4, 0.0)
    gap_n = (n + 1.0) - (r[-1] + eta[-1] - l[-1])
    r[-1] += max(gap_n + 0.4, 0.0)
    return {"l": l, "r": r, "eta": eta}


def _mk_L26():
    return IdentityDef(
        id="L26", label="tube kernel product", domain="tube",
        param_names=("l", "r", "eta"), convention=Convention.SHIFTED,
        complex_valued=True,
        range_check=lambda n, p: C.c7_range(n, p["l"], p["r"], p["eta"]),
        structure=lambda n, p, pt: _structure_L26(n, p["l"], p["r"], p["eta"], *pt),
        stated_constant=lambda n, p: C.c7(n, p["l"], p["r"], p["eta"]),
        integrand=lambda n, p, pt: _L26_integrand(n, p["l"], p["r"], p["eta"], pt),
        sampler=lambda n, p, pt: _L26_sampler(n, p["l"], p["r"], p["eta"], pt),
        point=TUBE_PAIR,
        random_params=_random_L26,
        decay=lambda n, p, pt: (Decay(0.5 * (pt[0].y[0] + pt[1].y[0]),
                                      p["l"][0] + 1.0,
                                      p["r"][0] + p["eta"][0] - p["l"][0] - 2.0),),
        reduction=lambda n, p, pt: (  # derived at n = 1 only
            _L26_reduction(p["l"], p["r"], p["eta"], *pt) if n == 1 else None),
    )


# -- L27 --------------------------------------------------------------------

def _L27_integrand(n, l, r, z: TubePoint):
    lb, rb = bold_values(l, n), bold_values(r, n)
    xz, yz = z.x, z.y

    def f(u, v):
        zeta = (yz + v) - 1j * (xz - u)
        return np.exp(log_delta_power(v, lb)) * _abs_complex_power(zeta, -rb)
    return f


def _L27_reduction(l, r, z: TubePoint):
    """L27 at n = 1 with u integrated in closed form: a cone integrand over v.

    The kernel modulus is |A - i(x - u)|^-r with A = y + v, so the n = 1
    slice fact leaves its value at A, times the weight v^l.
    """
    def f(v):
        return np.exp(log_delta_power(v, l)
                      + _log_slice_fact(r[0], z.y[0] + v[..., 0]))
    return f


def _L27_sampler(n, l, r, z: TubePoint):
    lb = bold_values(l, n)
    tail = (r - l) - (n + 1.0) / 2.0
    return tube_proposal(n, lb, tail, z.y[:n], z.x)


def _random_L27(n, rng):
    l = _low_index(n, rng, 0.8)
    r = l.copy()
    r[:-1] += (3 * n + 1) / 2.0 + rng.uniform(0.4, 1.5, size=n - 1)
    r[-1] += n + 1 + rng.uniform(0.4, 1.5)
    return {"l": l, "r": r}


def _mk_L27():
    return IdentityDef(
        id="L27", label="tube kernel modulus", domain="tube",
        param_names=("l", "r"), convention=Convention.SHIFTED, complex_valued=False,
        range_check=lambda n, p: C.c8_range(n, p["l"], p["r"]),
        structure=lambda n, p, pt: _structure_L27(n, p["l"], p["r"], pt),
        stated_constant=lambda n, p: C.c8(n, p["l"], p["r"]),
        integrand=lambda n, p, pt: _L27_integrand(n, p["l"], p["r"], pt),
        sampler=lambda n, p, pt: _L27_sampler(n, p["l"], p["r"], pt),
        point=tube_point(),
        random_params=_random_L27,
        decay=lambda n, p, pt: (Decay(pt.y[0], p["l"][0] + 1.0,
                                      p["r"][0] - p["l"][0] - 2.0),),
        reduction=lambda n, p, pt: (  # derived at n = 1 only
            _L27_reduction(p["l"], p["r"], pt) if n == 1 else None),
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

    Margins keep the importance laws square-integrable (e.g. the last
    exponent of L24's r stays above 1.05 so the Cauchy border proposal has
    finite variance), which the dominance notes in the samplers assume.
    """
    return get_identity(identity_id).random_params(n, rng)


def random_point(identity_id: str, n: int, rng: np.random.Generator):
    return get_identity(identity_id).point.random(n, rng)
