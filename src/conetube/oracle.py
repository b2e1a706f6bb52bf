"""Brute-force evaluation of the identity left-hand sides, with error bars.

Two oracle families:

* Monte Carlo importance sampling in the canonical cone chart (plus Cauchy
  real parts on the tube).  On the slice at n = 2 and 3 and on the tube at
  n = 2 it integrates the registry's ``reduction``, x_n in closed form:
  no x_n is drawn, and the estimate is exact conditional Monte Carlo
  (Rao-Blackwell), of the same mean and no larger variance, over 2n - 2
  real coordinates.  Deterministic for a fixed seed: the sample
  stream is split into fixed-size chunks, chunk k is generated from
  SeedSequence((seed, k)), and partial sums are reduced in chunk order.
  The CONETUBE_THREADS workers go, through ``parallel_map``, to the
  outermost independent unit: the records of an audit, else the chunks of
  an estimate made on its own (the scaling lab's norms at n = 3, the Schur
  check, library calls); at one thread it is a plain loop.  No value
  depends on that schedule, so reports are byte-identical for every worker
  count.  A chunk is weighted in row blocks of BLOCK draws, which bounds
  the integrand's temporaries; every value is elementwise and the chunk is
  reduced over the whole buffer, so the blocks change no bit.

* Quadrature in the same canonical coordinates: one trapezoid driver,
  blocked like the chunks.  Every n = 1 integral is a one-axis pass (over
  d on the cone, u on the slice, v on the tube, whose ``reduction``
  integrates u in closed form); at n = 2 a tensor integrates the cone
  (3-D, or 2-D over (y_1, D) where a ``reduction`` integrates u_1, as
  L24's does) and the slice (2-D; its ``reduction`` integrates u_2).  The
  tube at n >= 2 and everything at n >= 3 is Monte Carlo only.  This is
  the high-precision path behind the analytic acceptance suite, constant
  calibration and the scaling lab's norms at n <= 2.

``verify_identity`` compares an oracle estimate against the closed form and
classifies the outcome.  A value disagreement triggers the lambda-scaling
test, which compares the left-hand side's ratio under point dilation
against the constant-free structure prediction; that separates "the stated
constant is off" (EXPONENT_CONFIRMED_CONSTANT_MISMATCH, fitted ratio
recorded) from "the stated exponent structure is wrong" (MISMATCH).  The
ratio is not estimated: the substitution w -> lam^sigma w fixes it,
LHS(lam p) = lam^(sigma dim) int f(lam^sigma w; lam p) dw, and the Delta-powers
are homogeneous under the cone's dilations, so it is read off the
integrand at fixed chart points.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, InvalidInputError, OracleRejectedError
from .geometry import canonical_to_coords
from .identities import (get_identity, check_params,
                         kernel_region_integrand, read_inputs, read_params)
from .sampling import SamplerSpec, sample_cone, sample_slice, sample_tube

CHUNK = 1 << 16
BLOCK = 1 << 13  # values per integrand call; bounds its temporaries
TENSOR_MAX_EVALS = 1.5e8  # a finer tensor step above this node count is skipped
SCALING_LAMS = (0.5, 2.0, 4.0)  # dilations of the lambda-scaling test
READOFF_POINTS = 64  # chart points the lambda-test reads the integrand at
READOFF_SPREAD = 1e-8  # the largest relative spread of a covariant read-off
MAX_HALF = 80.0  # a window end reaches at most ~e^80 axis scales
REAL_HALF = math.asinh(1.0e10) + 1.0  # a sinh axis reaching 1e10 scales
STEPS = (0.25, 0.125, 0.0625)  # the trapezoid steps, halved in turn
# a window's nodes end less than a step past its end; a positive window
# ending at LOG_MAX keeps every node e^u below the largest double
LOG_MAX = math.log(sys.float_info.max) - STEPS[0]
ROUNDING_ULPS = 4.0  # rounding allowance: this many ulp of sum |f w|
QUAD_REL_TOL = 1e-8  # quadrature's relative tolerance unless one is asked
NONFINITE_LIMIT = 1e-3
# the orders at which Monte Carlo integrates a domain's ``reduction``.  At
# n = 1 it keeps the full integrand, an independent check of the reductions
# that quadrature integrates there.  The tube waits at n = 3 for the Schur
# check, which reads L27 only: its bold pairs meet plain residuals there,
# and the narrower bar exposes the slip (max z 2.2 to 4.9 at 120,000 draws)
MC_REDUCED_ORDERS = {"slice": (2, 3), "tube": (2,)}

CONFIRMED = "CONFIRMED"
CONSTANT_MISMATCH = "EXPONENT_CONFIRMED_CONSTANT_MISMATCH"
MISMATCH = "MISMATCH"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class IntegralEstimate:
    value: complex | float
    std_error: float
    samples: int
    method: str
    nonfinite: int = 0


def _thread_count() -> int:
    """CONETUBE_THREADS, 1 when unset, capped at the CPU count.

    Any value other than a positive integer raises InvalidInputError.
    """
    raw = os.environ.get("CONETUBE_THREADS", "1")
    try:
        requested = int(raw) if raw.isdecimal() else 0
    except ValueError:  # more digits than int() converts
        requested = 0
    if requested < 1:
        raise InvalidInputError(
            f"CONETUBE_THREADS must be a positive integer, got {raw!r}")
    return min(requested, os.cpu_count() or 1)


_WORKER = threading.local()  # ``inside`` is set on parallel_map's threads


def _mark_worker() -> None:
    _WORKER.inside = True


def parallel_map(fn, items) -> list:
    """``[fn(x) for x in items]``, in item order, over ``_thread_count()``
    threads.

    At one thread, with fewer than two items, or when called from one of
    its own workers, it is that plain loop on the calling thread: the
    outermost caller gets the threads, and pools never nest.  An item that
    raises surfaces the exception of the first failing item in item order.
    """
    items = list(items)
    workers = min(_thread_count(), len(items))
    if workers < 2 or getattr(_WORKER, "inside", False):
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers,
                            initializer=_mark_worker) as pool:
        return list(pool.map(fn, items))


def _chunk_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                                        spawn_key=(k,)))


def _number(value) -> complex | float:
    """A Python float, or a complex if the imaginary part is nonzero."""
    if isinstance(value, complex) and value.imag != 0.0:
        return complex(value)
    return float(value.real)


def _mc_reduce(partials, count, method):
    total = sum(p[0] for p in partials)
    total_sq = sum(p[1] for p in partials)
    bad = sum(p[2] for p in partials)
    n_eff = count - bad
    if bad > NONFINITE_LIMIT * count:
        raise OracleRejectedError(bad / count)
    if n_eff < 2:
        raise OracleRejectedError(1.0, "no finite samples")
    mean = total / n_eff
    var = max(float((total_sq - n_eff * abs(mean) ** 2) / (n_eff - 1)), 0.0)
    return IntegralEstimate(value=_number(mean),
                            std_error=math.sqrt(var / n_eff), samples=count,
                            method=method, nonfinite=bad)


def _in_blocks(evaluate, rows: int, width: int = 1) -> np.ndarray:
    """``evaluate(s)`` over consecutive row slices ``s`` of ``range(rows)``,
    stacked into one buffer.

    A slice holds ``max(1, BLOCK // width)`` rows of ``width`` values each,
    which bounds the temporaries of one call.  Every value is elementwise,
    so the buffer equals ``evaluate(slice(0, rows))`` bit for bit.
    """
    step = max(1, BLOCK // width)
    buf = None
    for i in range(0, rows, step):
        vals = evaluate(slice(i, i + step))
        if buf is None:
            buf = np.empty((rows,) + vals.shape[1:], dtype=vals.dtype)
        buf[i:i + step] = vals
    return buf


def _mc_run(sample, integrand, spec: SamplerSpec, count: int, seed: int,
            method: str) -> IntegralEstimate:
    """Draw ``count`` points by ``sample``, weight the integrand at them."""
    if count < 2:
        raise InvalidInputError(
            f"sample count must be at least 2 for an error bar, got {count}")
    n_chunks = (count + CHUNK - 1) // CHUNK
    sizes = [CHUNK] * (n_chunks - 1) + [count - CHUNK * (n_chunks - 1)]

    def weighted(size, rng):
        # the draws are freed on return, before the chunk is reduced
        *args, logpdf = sample(spec, size, rng)
        return _in_blocks(lambda b: integrand(*(a[b] for a in args))
                          * np.exp(-logpdf[b]), size)

    def work(k):
        rng = _chunk_rng(seed, k)
        # non-finite values are counted and zeroed below, not warned about
        with np.errstate(invalid="ignore", over="ignore"):
            vals = weighted(sizes[k], rng)
        finite = np.isfinite(vals)
        bad = int(vals.shape[0] - np.count_nonzero(finite))
        if bad:
            vals = np.where(finite, vals, 0.0)
        return np.sum(vals), np.sum(np.abs(vals) ** 2), bad

    return _mc_reduce(parallel_map(work, range(n_chunks)), count, method)


def mc_integrate_cone(integrand, spec: SamplerSpec, count: int,
                      seed: int) -> IntegralEstimate:
    """Importance-sampling estimate of a cone integral; integrand f(coords, d)."""
    return _mc_run(sample_cone, integrand, spec, count, seed, "MC_CONE")


def mc_integrate_tube(integrand, spec: SamplerSpec, count: int,
                      seed: int) -> IntegralEstimate:
    """Importance-sampling estimate of a tube integral; integrand f(x, v),
    x without x_n where ``spec`` integrates it."""
    return _mc_run(sample_tube, integrand, spec, count, seed, "MC_TUBE")


def mc_integrate_slice(integrand, spec: SamplerSpec, count: int,
                       seed: int) -> IntegralEstimate:
    """Importance-sampling estimate over a horizontal slice; integrand f(u),
    u as x in ``mc_integrate_tube``."""
    return _mc_run(sample_slice, integrand, spec, count, seed, "MC_SLICE")


# ---------------------------------------------------------------------------
# vectorized trapezoid quadrature (n <= 2)
# ---------------------------------------------------------------------------
#
# Each axis is transformed to make the integrand smooth and rapidly decaying:
# positive coordinates via x = e^u (handles the integrable x^s singularity at
# 0 and exponential or polynomial decay at infinity), real coordinates via
# x = scale * sinh(u).  The transformed integrand is then double-exponentially
# flat at the window ends, where the trapezoid rule converges geometrically in
# the step; the error estimate is the change under step halving.  Every
# window comes from the registry's ``decay``, one ``Decay`` per windowed
# axis, through ``_half_width`` at each end; the mass each window leaves
# outside is added to the error.


def _outside(index: float, half: float) -> float:
    """The relative mass beyond a window end at half-width ``half``, where
    the mass beyond R axis scales falls like R^-index: R = e^(half - 1),
    and all of it for a window end within one e-fold of the scale."""
    return math.exp(-index * (half - 1.0)) if half > 1.0 else 1.0


def _half_width(index: float, rel_tol: float) -> tuple:
    """Half-width H of a window end whose outside mass falls like R^-index
    at R axis scales, and the relative mass left outside.

    H reaches R > e^(H - 1) scales (sinh H on a real axis, e^H or e^-H on a
    positive one), until the mass is below rel_tol / 100: at least 1e10
    scales, at most half-width MAX_HALF, where the leftover is reported.
    """
    if not index > 0.0:
        raise AccuracyError(
            f"the integral diverges (decay index {index:.3g} <= 0)")
    index = float(index)  # a Python float: an overflow is inf, unwarned
    half = min(max(REAL_HALF, 1.0 + math.log(100.0 / rel_tol) / index),
               MAX_HALF)
    return half, _outside(index, half)


def _window(dec, rel_tol: float) -> tuple:
    """The axis of one ``Decay`` and the relative mass it leaves outside:
    a real axis when ``zero_index`` is None, else a positive one, whose
    upper end stops at LOG_MAX, the mass beyond it left outside."""
    hi, left = _half_width(dec.tail_index, rel_tol)
    if dec.zero_index is None:
        return ("real", dec.scale, -hi, hi), left
    lo, low_left = _half_width(dec.zero_index, rel_tol)
    mid = math.log(dec.scale)
    if mid + hi > LOG_MAX:
        hi = LOG_MAX - mid
        left = _outside(float(dec.tail_index), hi)
    return ("pos", mid - lo, mid + hi), left + low_left


def _axis_nodes(axis, h):
    kind = axis[0]
    if kind == "pos":
        _, lo, hi = axis
        u = np.arange(lo, hi + h, h)
        x = np.exp(u)
        w = h * x
    elif kind == "lin":
        _, lo, hi = axis
        x = np.arange(lo, hi + h, h)
        w = np.full_like(x, h)
    else:
        _, scale, lo, hi = axis
        u = np.arange(lo, hi + h, h)
        x = scale * np.sinh(u)
        w = h * scale * np.cosh(u)
    return x, w


def _tensor_pass(f_axes, axes, h):
    """(sum of f w, sum of |f w|) over the tensor nodes at step h."""
    if len(axes) == 3:  # a two-axis pass over the last two axes per node
        total, size = 0.0 + 0.0j, 0.0
        for x, w in zip(*_axis_nodes(axes[0], h)):
            plane, plane_size = _tensor_pass(lambda a, b: f_axes(
                np.full((a.shape[0], b.shape[1]), x), a, b), axes[1:], h)
            total += w * plane
            size += w * plane_size
        return total, size
    (x0, w0), *rest = (_axis_nodes(axis, h) for axis in axes)
    if not rest:
        vals = _in_blocks(lambda b: f_axes(x0[b]) * w0[b], x0.shape[0])
    else:
        (x1, w1), = rest
        # one sum over the whole plane keeps the unblocked summation order
        vals = _in_blocks(
            lambda b: f_axes(x0[b, None], x1[None, :]) * (w0[b, None] * w1[None, :]),
            x0.shape[0], x1.shape[0])
    return complex(np.sum(vals)), float(np.sum(np.abs(vals)))


def _trapezoid(f_axes, axes, rel_tol):
    """Iterated trapezoid on transformed axes with step-halving control.

    ``axes`` entries are ("pos", log_lo, log_hi), ("lin", lo, hi) or
    ("real", scale, lo, hi); ``f_axes`` takes one broadcastable array per
    axis and may be complex-valued.  Returns (complex value, error
    estimate): the change under the last halving plus ROUNDING_ULPS ulp of
    the sum of |f w|, the rounding the sum can carry.  Steps whose tensor
    would exceed TENSOR_MAX_EVALS nodes are skipped.  A non-finite value
    raises AccuracyError; the overflows and invalid operations that make it
    are not warned about.
    """
    prev = None
    value = None
    err = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for h in STEPS:
            # every axis kind ends (lo, hi)
            cost = math.prod((axis[-1] - axis[-2]) / h for axis in axes)
            if cost > TENSOR_MAX_EVALS and prev is not None:
                break
            value, size = _tensor_pass(f_axes, axes, h)
            if not np.isfinite(value):
                raise AccuracyError("quadrature produced a non-finite value")
            if prev is not None:
                err = abs(value - prev)
                if err <= rel_tol * max(abs(value), 1e-300):
                    break
            prev = value
    return value, err + ROUNDING_ULPS * sys.float_info.epsilon * size


def tensor_quad(f_axes, axes, rel_tol):
    """``_trapezoid`` on an n = 2 tensor: a profile tells it from n = 1."""
    return _trapezoid(f_axes, axes, rel_tol)


def quad_supported(identity_id: str, n: int) -> bool:
    """Quadrature reaches the tube at n = 1, the cone and the slice at n <= 2."""
    return n <= (1 if get_identity(identity_id).domain == "tube" else 2)


def _lhs_integrand(identity_id: str, n: int, p: dict, point, region):
    """The LHS integrand over ``region``; None or the domain is the domain."""
    ident = get_identity(identity_id)
    if region in (None, ident.domain):
        return ident.integrand(n, p, point)
    return kernel_region_integrand(identity_id, p, point, region)


def _quad_problem(ident, n: int, p: dict, point, region, rel_tol: float):
    """(f_axes, axes, leftover mass) of one LHS: a window per ``decay``.

    A ``reduction`` is integrated wherever it leaves an axis: on the tube
    at n = 1 and at n = 2, where it leaves the slice (u_1, u_3) and the
    cone (y_1, D), which it takes as two arrays.  The n = 2 cone without
    one (the Laplace and kernel pairs) integrates (y_1, tau, D) with u_1 =
    loc(y_1) + scale(y_1) tau, its Gaussian border law standardized, so one
    grid resolves the ridge at every y_1.
    """
    f = _lhs_integrand(ident.id, n, p, point, region)  # checks the region
    reduced = (ident.reduction(n, p, point) if ident.reduction is not None
               and (n == 2 or ident.domain == "tube") else None)
    windows = [_window(dec, rel_tol) for dec in ident.decay(n, p, point)]
    axes = [axis for axis, _ in windows]
    left = sum(out for _, out in windows)
    if ident.domain != "cone" or n == 1:
        g = f if reduced is None else reduced
        return (lambda *xs: g(np.stack(np.broadcast_arrays(*xs), axis=-1)),
                axes, left)
    if reduced is not None:
        return reduced, axes, left
    blaw = ident.sampler(n, p, point).border[0]
    axes.insert(1, ("lin", -12.0, 12.0))

    def f_axes(y1, tau, d):
        y1b, taub, db = np.broadcast_arrays(y1, tau, d)
        loc, scl = blaw.loc_scale(y1b, db)
        u1b = (loc + scl * taub)[..., None]
        return f(canonical_to_coords(y1b[..., None], u1b, db), db) * scl
    return f_axes, axes, left


def quad_iterated(identity_id: str, params: dict, point,
                  rel_tol: float = QUAD_REL_TOL,
                  region: str | None = None) -> IntegralEstimate:
    """Trapezoid quadrature of one identity LHS in canonical coordinates."""
    ident, n, p = read_inputs(identity_id, params, point)
    if not quad_supported(identity_id, n):
        raise InvalidInputError(
            f"quadrature supports cone/slice domains at n <= 2 and tube at n = 1; "
            f"{identity_id} at n = {n} is out of reach")
    # a divergent integral has no quadrature; Monte Carlo takes any params
    check_params(identity_id, n, p)
    f_axes, axes, left = _quad_problem(ident, n, p, point, region, rel_tol)
    val, err = (_trapezoid if n == 1 else tensor_quad)(f_axes, axes, rel_tol)
    err += left * abs(val)
    if abs(val) > 0 and err > 100 * rel_tol * abs(val):
        raise AccuracyError(
            f"quadrature reached only relative error {err / abs(val):.2e} "
            f"(target {rel_tol:.1e})")
    return IntegralEstimate(value=_number(val), std_error=float(err),
                            samples=1, method="QUAD_ITERATED")


# ---------------------------------------------------------------------------
# oracle dispatch, calibration, verification
# ---------------------------------------------------------------------------

def oracle_estimate(identity_id: str, params: dict, point, budget: int,
                    seed: int, method: str = "auto",
                    region: str | None = None) -> IntegralEstimate:
    """One LHS estimate by the requested oracle ("mc", "quad" or "auto").

    "auto" is quadrature at n = 1, which it reaches on every domain, and
    Monte Carlo above.  Monte Carlo integrates the registry's ``reduction``
    at its domain's MC_REDUCED_ORDERS (slice n = 2, 3; tube n = 2): the spec
    then draws no x_n, and a tube reduction takes (v, x).
    """
    ident, n, p = read_inputs(identity_id, params, point)
    if method == "auto":
        method = "quad" if n == 1 else "mc"
    if method == "quad":
        return quad_iterated(identity_id, params, point, region=region)
    if method != "mc":
        raise InvalidInputError(f"unknown oracle method {method!r}")
    f = _lhs_integrand(identity_id, n, p, point, region)
    spec = ident.sampler(n, p, point)
    reduced = (ident.reduction(n, p, point) if ident.reduction is not None
               and n in MC_REDUCED_ORDERS.get(ident.domain, ()) else None)
    if reduced is not None:
        spec = spec.integrating_last_real()
        f = reduced if ident.domain == "slice" else lambda x, v: reduced(v, x)
    # built per call, so the entry points are looked up when it runs
    mc = {"cone": mc_integrate_cone, "slice": mc_integrate_slice,
          "tube": mc_integrate_tube}[ident.domain]
    return mc(f, spec, budget, seed)


_CALIBRATION_CACHE: dict = {}
_CALIBRATION_SEED = 20_260_809


def calibrated_constant(identity_id: str, n: int, params: dict,
                        budget: int = 2_000_000):
    """Oracle-fitted constant: LHS / structure at the unit reference point.

    Quadrature-backed wherever quadrature reaches, to the relative
    tolerance it asks (1e-9 at n = 1, 1e-6 at n = 2); elsewhere MC of
    ``budget`` draws from the fixed seed 20,260,809, with MC noise of the
    recorded relative size.  Cached per (identity, n, params); a key
    outside the convergence range raises and is not cached.
    """
    ident = get_identity(identity_id)
    p = read_params(identity_id, n, params)
    key = (identity_id, n, tuple(sorted((k, tuple(v.tolist()))
                                        for k, v in p.items())))
    if key in _CALIBRATION_CACHE:
        return _CALIBRATION_CACHE[key]
    check_params(identity_id, n, p)  # a divergent integral has no constant
    ref = ident.point.reference(n)
    est = (quad_iterated(identity_id, p, ref, rel_tol=1e-9 if n == 1 else 1e-6)
           if quad_supported(identity_id, n) else
           oracle_estimate(identity_id, p, ref, budget, _CALIBRATION_SEED,
                           method="mc"))
    struct = ident.structure(n, p, ref)
    value = est.value / struct
    if isinstance(value, complex) and abs(value.imag) < 1e-9 * abs(value):
        value = value.real
    _CALIBRATION_CACHE[key] = value
    return value


@dataclass
class ScalingCheck:
    lam: float
    ratio: complex | float  # LHS(lam p) / LHS(p), read off; NaN if unread
    predicted: complex | float  # structure(lam p) / structure(p)
    sigma: float  # the spread of the ratio over the chart points
    passed: bool
    points: int  # the chart points where both values are finite and nonzero


@dataclass
class AuditRecord:
    """Outcome of one identity verification at one parameter/point pair."""

    identity: str
    n: int
    params: dict
    point: object
    lhs: IntegralEstimate
    rhs_stated: complex | float
    structure: complex | float
    fitted_constant: complex | float
    z_score: float
    status: str
    region: str  # the region integrated: the domain, or dual
    scaling: list = field(default_factory=list)
    scaling_pass: bool | None = None

    @property
    def degree_defect(self) -> float | None:
        """log(ratio / predicted) / log lam, averaged over the lambda-test:
        the degree by which the structure misses the left-hand side's
        homogeneity.  None where no lambda-test ran or a check read no
        ratio."""
        defects = []
        for c in self.scaling:
            q = abs(c.ratio) / abs(c.predicted) if c.predicted else math.nan
            defects.append(math.log(q) / math.log(c.lam) if q > 0 else math.nan)
        if not defects or not all(map(math.isfinite, defects)):
            return None
        return sum(defects) / len(defects)


def _weyl(count: int, dim: int) -> np.ndarray:
    """The first ``count`` points of the R_d Weyl sequence in (0, 1)^dim,
    steps by the powers of the root of g^(dim+1) = g + 1 (M. Roberts'
    generalized golden ratio): spread evenly, and drawn from no random
    stream."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = g ** -np.arange(1.0, dim + 1)
    return (0.5 + np.arange(1, count + 1)[:, None] * alpha) % 1.0


def _chart_points(domain: str, n: int, size: float) -> tuple:
    """READOFF_POINTS integrand arguments at length ``size``, and the real
    dimension of the integration variable: (coords, D) of cone points on
    the cone, real parts on the slice, (real parts, imaginary parts) on the
    tube.  A cone point comes from the canonical chart, its y_j and D
    within e^(+-2) of ``size`` and its border u_j within sqrt(y_j D); a real
    part lies within 2 ``size`` of 0."""
    m = 2 * n - 1
    dim = 2 * m if domain == "tube" else m
    grid = _weyl(READOFF_POINTS, dim) - 0.5

    def cone(c):
        y, d = np.exp(4.0 * c[:, : n - 1]), np.exp(4.0 * c[:, m - 1])
        u = 2.0 * c[:, n - 1: m - 1] * np.sqrt(y * d[:, None])
        return size * canonical_to_coords(y, u, d), size * d

    if domain == "cone":
        return cone(grid), dim
    if domain == "slice":
        return (4.0 * size * grid,), dim
    return (4.0 * size * grid[:, :m], cone(grid[:, m:])[0]), dim


def _scaling_checks(ident, n: int, p: dict, point, region: str,
                    struct) -> list:
    """The lambda-test, read off the integrand's dilation covariance.

    At each chart point w, lam^(sigma dim) f(lam^sigma w; lam p) / f(w; p)
    is LHS(lam p) / LHS(p) wherever the integrand is homogeneous, as every
    registered one is; the full integrand is read, never a ``reduction``.
    The points sit at the point's size^sigma, so a point dilated far from
    1 neither under- nor overflows them.  A check reads the mean ratio over
    the points where both values are finite and nonzero and its spread;
    it fails when fewer than half of the points are read or the relative
    spread exceeds READOFF_SPREAD (the integrand is not covariant), and
    otherwise passes when the ratio is within max(3 sigma, 1e-6 |predicted|)
    of the structure's, ``predicted``.
    """
    sign = ident.dilation
    args, dim = _chart_points(ident.domain, n, ident.point.size(point) ** sign)
    with np.errstate(all="ignore"):  # an unread value is counted, not warned
        base = _lhs_integrand(ident.id, n, p, point, region)(*args)
    checks = []
    for lam in SCALING_LAMS:
        scaled = ident.point.scale(point, lam)
        f = _lhs_integrand(ident.id, n, p, scaled, region)
        with np.errstate(all="ignore"):
            ratios = (lam ** (sign * dim)
                      * f(*(a * lam ** sign for a in args)) / base)
        ratios = ratios[np.isfinite(ratios) & (ratios != 0)]
        predicted = ident.structure(n, p, scaled) / struct
        ratio, spread, ok = math.nan, math.nan, False
        if 2 * ratios.size >= READOFF_POINTS:
            mean = np.mean(ratios)
            spread = float(np.sqrt(np.mean(np.abs(ratios - mean) ** 2)))
            ratio = _number(complex(mean))
            ok = (spread <= READOFF_SPREAD * abs(ratio)
                  and abs(ratio - predicted) <= max(3.0 * spread,
                                                    1e-6 * abs(predicted)))
        checks.append(ScalingCheck(lam=lam, ratio=ratio, predicted=predicted,
                                   sigma=spread, passed=bool(ok),
                                   points=int(ratios.size)))
    return checks


def verify_identity(identity_id: str, params: dict, point, budget: int = 200_000,
                    seed: int = 0, method: str = "auto",
                    region: str | None = None) -> AuditRecord:
    """Estimate one identity LHS and classify it against the closed form.

    Statuses: CONFIRMED (value agrees within 3 standard errors),
    EXPONENT_CONFIRMED_CONSTANT_MISMATCH (value off, dilation scaling
    agrees), MISMATCH (scaling off too), INCONCLUSIVE (error bar exceeds a
    quarter of the value scale, nothing can be concluded).  ``region`` is
    one of the identity's ``regions``, its domain by default.
    """
    ident, n, p = read_inputs(identity_id, params, point)
    region = region or ident.domain
    check_params(identity_id, n, p)

    lhs = oracle_estimate(identity_id, p, point, budget, seed, method=method,
                          region=region)
    struct = ident.structure(n, p, point)
    cstated = ident.stated_constant(n, p)
    rhs = cstated * struct
    fitted = lhs.value / struct if struct != 0 else math.nan

    scale = max(abs(rhs), abs(lhs.value))
    sigma = lhs.std_error if lhs.std_error > 0 else 1e-300
    # exactly matched samplers can drive sigma to float noise; agreement at
    # float precision is agreement, whatever the error bar says
    if abs(lhs.value - rhs) <= 1e-9 * scale:
        z = 0.0
    else:
        z = abs(lhs.value - rhs) / sigma

    record = AuditRecord(identity=identity_id, n=n, params=p, point=point,
                         lhs=lhs, rhs_stated=rhs, structure=struct,
                         fitted_constant=fitted, z_score=float(z), status="",
                         region=region)
    if sigma > 0.25 * scale and scale > 0:
        record.status = INCONCLUSIVE
        return record
    if z <= 3.0:  # also where the estimate and the closed form are both 0
        record.status = CONFIRMED
        return record

    if lhs.value == 0:  # an estimate of 0 gives no verdict to adjudicate
        raise OracleRejectedError(0.0, f"{identity_id}: the left-hand side "
                                  "estimate is 0; the lambda-test has no scale")
    record.scaling = _scaling_checks(ident, n, p, point, region, struct)
    record.scaling_pass = all(c.passed for c in record.scaling)
    record.status = CONSTANT_MISMATCH if record.scaling_pass else MISMATCH
    return record
