"""The weighted tube-kernel operator and its norm-scaling laboratory.

The operator under study maps f to

    T f(z) = delta^a(Im z) * integral over the tube of
             delta^b(Im w) f(w) / P^c(z - conj(w)) dV(w)

with all exponent vectors taken in the shifted convention.  The laboratory
builds the rational test family

    f_R(w) = delta^l(Im w) / P^r(w + iR).

The weighted p-norm of f_R and the weighted q-norm of its image under T
are pure powers of the R_j.  Fitting log-norm against log R_j, with the
norms by quadrature at n <= 2 and by Monte Carlo at n = 3, recovers those
exponents empirically; the difference of the f_R and T f_R
slopes vanishes exactly when the parameter vector c sits on the forced
linear relation returned by :func:`necessary_exponent_condition`, and the
experiment measures how far off it is otherwise.

R is embedded into the cone on the diagonal coordinates with zero borders,
the only embedding under which the per-R_j power structure of the norms
emerges.

Every integral lemma is taken from its entry in the identity registry, and
this module keeps only what the registry does not state.  The image T f_R
is delta^a(Im z) times the two-kernel identity (L26) at xi = iR and the
parameters :func:`_image_params`, so its closed form and its Monte Carlo
estimate are that identity's ``closed_value`` and ``oracle_estimate``.
The norm ranges are the kernel-modulus identity's (L27), and the norm
estimates are the translate identity's (L24) left-hand side, by
``oracle_estimate``, after the slice identity (L25) has integrated out the
real part with its closed-form constant: no norm calibrates a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, InfeasibleError, InvalidInputError,
                     OracleRejectedError)
from .identities import L25_constant, check_params
from .indices import (Convention, MultiIndex, bold_values, plain_values,
                      read_index, shift_index)
from .oracle import QUAD_REL_TOL, oracle_estimate, quad_supported


@dataclass(frozen=True)
class ParameterSet:
    """Operator parameters (n, p, q, alpha, beta, a, b, c), all plain."""

    n: int
    p: float
    q: float
    alpha: tuple
    beta: tuple
    a: tuple
    b: tuple
    c: tuple

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("n must be >= 1")
        if not (1.0 < self.p <= self.q):
            raise InvalidInputError("need 1 < p <= q < infinity")
        for name in ("alpha", "beta", "a", "b", "c"):
            v = tuple(float(x) for x in np.atleast_1d(getattr(self, name)))
            if len(v) != self.n:
                raise InvalidInputError(f"{name} must have length n = {self.n}")
            object.__setattr__(self, name, v)

    def vec(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name), dtype=float)

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class TestFunctionFR:
    """Rational test function: exponents l, r (shifted) and the shift vector R."""

    l: MultiIndex
    r: MultiIndex
    R: tuple

    def __post_init__(self):
        if self.l.convention is not Convention.SHIFTED \
                or self.r.convention is not Convention.SHIFTED:
            raise InvalidInputError("l and r must be shifted-convention indices")
        R = tuple(float(x) for x in np.atleast_1d(self.R))
        if len(R) != self.l.n or any(x <= 0 for x in R):
            raise InvalidInputError("R must be a positive vector of length n")
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.l.n

    def l_plain(self) -> np.ndarray:
        return plain_values(self.l)

    def r_plain(self) -> np.ndarray:
        return plain_values(self.r)

    def with_R(self, R) -> "TestFunctionFR":
        return TestFunctionFR(self.l, self.r, tuple(R))


def make_test_function(n: int, l_plain, r_plain, R) -> TestFunctionFR:
    if any(np.shape(np.atleast_1d(v)) != (n,) for v in (l_plain, r_plain, R)):
        raise InvalidInputError(f"l, r and R must have length n = {n}")
    return TestFunctionFR(shift_index(MultiIndex(tuple(np.atleast_1d(l_plain)))),
                          shift_index(MultiIndex(tuple(np.atleast_1d(r_plain)))),
                          tuple(np.atleast_1d(R)))


def embed_R(R, n: int) -> np.ndarray:
    """Place R on the diagonal coordinates with zero borders."""
    R = np.atleast_1d(np.asarray(R, dtype=float))
    if R.shape != (n,) or np.any(R <= 0):
        raise InvalidInputError("R must be a positive vector of length n")
    out = np.zeros(2 * n - 1)
    out[:n] = R
    return out


# ---------------------------------------------------------------------------
# exponent bookkeeping and norm ranges
# ---------------------------------------------------------------------------

def necessary_exponent_condition(params: ParameterSet) -> np.ndarray:
    """The forced c: a + b + (n+1) + (beta + n + 1)/q - (alpha + n + 1)/p."""
    n = params.n
    return (params.vec("a") + params.vec("b") + (n + 1.0)
            + (params.vec("beta") + n + 1.0) / params.q
            - (params.vec("alpha") + n + 1.0) / params.p)


def f_R_norm_exponents(params: ParameterSet, tf: TestFunctionFR) -> np.ndarray:
    """e_j = l_j - r_j + (alpha_j + n + 1)/p, plain arithmetic."""
    n = params.n
    return (tf.l_plain() - tf.r_plain()
            + (params.vec("alpha") + n + 1.0) / params.p)


def Tf_R_norm_exponents(params: ParameterSet, tf: TestFunctionFR) -> np.ndarray:
    """a + b - c + l - r + (n+1) + (beta + n + 1)/q, plain arithmetic."""
    n = params.n
    return (params.vec("a") + params.vec("b") - params.vec("c")
            + tf.l_plain() - tf.r_plain() + (n + 1.0)
            + (params.vec("beta") + n + 1.0) / params.q)


def _image_params(params: ParameterSet, tf: TestFunctionFR) -> dict:
    """Plain two-kernel (L26) parameters of T f_R: (l, r, eta) = (b + l, c, r)."""
    return {"l": params.vec("b") + tf.l_plain(), "r": params.vec("c"),
            "eta": tf.r_plain()}


def _f_R_norm_params(params: ParameterSet, tf: TestFunctionFR) -> dict:
    """Plain kernel-modulus (L27) parameters of f_R's p-norm: (p l + alpha, p r)."""
    return {"l": params.p * tf.l_plain() + params.vec("alpha"),
            "r": params.p * tf.r_plain()}


def _image_norm_params(params: ParameterSet, tf: TestFunctionFR) -> dict:
    """Plain kernel-modulus (L27) parameters of the image's q-norm:
    (q a + beta, q (r + c - l - b - (n+1)))."""
    q = params.q
    return {"l": q * params.vec("a") + params.vec("beta"),
            "r": q * (tf.r_plain() + params.vec("c") - tf.l_plain()
                      - params.vec("b") - (params.n + 1.0))}


def check_norm_ranges(params: ParameterSet, tf: TestFunctionFR) -> None:
    """Raise ConvergenceDomainError unless every integral of the experiment
    is finite: f_R's p-norm (L27 at (p l + alpha, p r)), the image T f_R
    (L26 at :func:`_image_params`) and the image's q-norm (L27 at
    :func:`_image_norm_params`, the pair derived from the actual image
    exponents rather than the stated display, which subtracts b twice)."""
    n = params.n
    check_params("L27", n, _f_R_norm_params(params, tf))
    check_params("L26", n, _image_params(params, tf))
    check_params("L27", n, _image_norm_params(params, tf))


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def _reduced_norm(n, weight_bold, kernel_bold, R, power, budget, seed, method):
    """The weighted norm with the real part integrated analytically.

    The x-integral of |P^{-kernel}| at fixed v is the slice identity's
    closed-form constant ``L25_constant`` times delta^{-kernel + (n+1)/2}
    (v+R), its exact structure at n <= 2; what is left is the translate
    identity's (L24) left-hand side at b = R, by ``oracle_estimate`` with
    ``method`` ("quad" at rel_tol QUAD_REL_TOL, or "mc" with ``budget``
    draws from ``seed``).  Returns (norm, error): a one-sigma error by
    Monte Carlo, a bound by quadrature.
    """
    cst = L25_constant(n, kernel_bold)
    p = {"r": read_index(kernel_bold - (n + 1.0) / 2.0, Convention.SHIFTED),
         "eta": read_index(weight_bold, Convention.SHIFTED)}
    est = oracle_estimate("L24", p, embed_R(R, n), budget, seed, method=method)
    value = cst * est.value
    if not value > 0:
        raise OracleRejectedError(est.nonfinite / est.samples,
                                  f"norm estimate {value} is not positive")
    norm = value ** (1.0 / power)
    return float(norm), float(norm * est.std_error / (power * est.value))


def f_R_norm_mc(params: ParameterSet, tf: TestFunctionFR, budget: int,
                seed: int, method: str = "mc") -> tuple[float, float]:
    """(norm, error) of the weighted p-norm of f_R, by Monte Carlo unless
    ``method`` is "quad"."""
    n, p = params.n, params.p
    weight = p * tf.l.values + bold_values(params.vec("alpha"), n)
    kernel = p * tf.r.values
    return _reduced_norm(n, weight, kernel, np.asarray(tf.R), p, budget, seed,
                         method)


def Tf_R_norm_mc(params: ParameterSet, tf: TestFunctionFR, budget: int,
                 seed: int, method: str = "mc") -> tuple[float, float]:
    """(norm, error) of the weighted q-norm of the closed image, by Monte
    Carlo unless ``method`` is "quad".

    Drops the overall image constant; slope fits are invariant under it and
    the constant itself is audited elsewhere.
    """
    n, q = params.n, params.q
    check_params("L26", n, _image_params(params, tf))
    weight = (q * bold_values(params.vec("a"), n)
              + bold_values(params.vec("beta"), n))
    M = (bold_values(params.vec("c"), n) + bold_values(tf.r_plain(), n)
         - bold_values(params.vec("b") + tf.l_plain(), n))
    kernel = q * (M - (n + 1.0))
    return _reduced_norm(n, weight, kernel, np.asarray(tf.R), q, budget, seed,
                         method)


# ---------------------------------------------------------------------------
# the norm-scaling experiment
# ---------------------------------------------------------------------------

def fit_loglog(xs, ys, sigmas) -> tuple[float, float]:
    """Weighted least-squares slope of log y against log x, with slope error.

    The slope error is a standard error when ``sigmas`` are one-sigma
    errors (Monte Carlo norms).  Quadrature norms carry error bounds
    instead: the fit then weights by those bounds, and its slope error is
    the same propagation of them, not a standard error.
    """
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    if len(np.unique(xs)) < 2:
        raise InfeasibleError("slope fit needs two distinct grid points")
    logy = np.log(ys)
    sig_log = np.maximum(sig / ys, 1e-12)
    w = 1.0 / sig_log ** 2
    xbar = np.sum(w * xs) / np.sum(w)
    ybar = np.sum(w * logy) / np.sum(w)
    sxx = np.sum(w * (xs - xbar) ** 2)
    slope = np.sum(w * (xs - xbar) * (logy - ybar)) / sxx
    return float(slope), float(1.0 / math.sqrt(sxx))


@dataclass
class CoordinateScaling:
    coordinate: int
    R_values: tuple
    f_norms: tuple
    f_sigmas: tuple
    Tf_norms: tuple
    Tf_sigmas: tuple
    f_slope: float
    f_slope_se: float
    Tf_slope: float
    Tf_slope_se: float
    f_analytic: float
    Tf_analytic: float

    @property
    def slope_difference(self) -> float:
        return self.Tf_slope - self.f_slope


@dataclass
class ScalingReport:
    method: dict  # how the norms were obtained: its name and its setting
    coordinates: list = field(default_factory=list)


def scaling_experiment(params: ParameterSet, tf: TestFunctionFR, R_grid,
                       budget: int, seed: int,
                       coordinates=None) -> ScalingReport:
    """Fit f_R and T f_R norm slopes against each R_j over a geometric grid.

    One coordinate is varied at a time with the others pinned at the test
    function's base R.  Requires two distinct grid points.  The norms are
    taken by quadrature where it reaches L24 (n <= 2) and by Monte Carlo
    elsewhere.  A norm whose quadrature cannot certify QUAD_REL_TOL (a
    tail too slow for its window) is drawn instead, and ``report.method``
    counts it; ``budget`` and ``seed`` are read only by Monte Carlo.
    """
    R_grid = [float(x) for x in R_grid]
    if len(set(R_grid)) < 2:
        raise InfeasibleError("R grid must contain two distinct points "
                              "(slope fit is under-determined)")
    n = params.n
    method = "quad" if quad_supported("L24", n) else "mc"
    drawn = 0  # norms quadrature could not certify, drawn instead

    def norm(norm_fn, tfi, s):
        nonlocal drawn
        if method == "quad":
            try:
                return norm_fn(params, tfi, budget, s, "quad")
            except AccuracyError:
                drawn += 1
        return norm_fn(params, tfi, budget, s, "mc")

    coords = list(range(n)) if coordinates is None else list(coordinates)
    e_f = f_R_norm_exponents(params, tf)
    e_Tf = Tf_R_norm_exponents(params, tf)
    report = ScalingReport(method=(
        {"name": "QUAD_ITERATED", "rel_tol": QUAD_REL_TOL} if method == "quad"
        else {"name": "MC_CONE", "budget": int(budget)}))
    base_R = np.asarray(tf.R, dtype=float)
    for ci, j in enumerate(coords):
        fn, fs, tn_, ts = [], [], [], []
        for gi, val in enumerate(R_grid):
            R = base_R.copy()
            R[j] = val
            tfi = tf.with_R(R)
            s = seed + 7919 * (ci * len(R_grid) + gi)
            nf, sf = norm(f_R_norm_mc, tfi, s)
            nt, st = norm(Tf_R_norm_mc, tfi, s + 3571)
            fn.append(nf); fs.append(sf); tn_.append(nt); ts.append(st)
        slope_f, se_f = fit_loglog(R_grid, fn, fs)
        slope_t, se_t = fit_loglog(R_grid, tn_, ts)
        report.coordinates.append(CoordinateScaling(
            coordinate=j, R_values=tuple(R_grid),
            f_norms=tuple(fn), f_sigmas=tuple(fs),
            Tf_norms=tuple(tn_), Tf_sigmas=tuple(ts),
            f_slope=slope_f, f_slope_se=se_f,
            Tf_slope=slope_t, Tf_slope_se=se_t,
            f_analytic=float(e_f[j]), Tf_analytic=float(e_Tf[j])))
    if drawn:
        report.method["fallback"] = {"name": "MC_CONE", "budget": int(budget),
                                     "norms": drawn}
    return report
