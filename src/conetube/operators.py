"""The weighted tube-kernel operator and its norm-scaling laboratory.

The operator under study maps f to

    T f(z) = delta^a(Im z) * integral over the tube of
             delta^b(Im w) f(w) / P^c(z - conj(w)) dV(w)

with all exponent vectors taken in the shifted convention.  The laboratory
builds the rational test family

    f_R(w) = delta^l(Im w) / P^r(w + iR),

whose weighted p-norm and whose image under T have closed forms that are
pure powers of the R_j.  Fitting log-norm against log R_j by Monte Carlo
recovers those exponents empirically; the difference of the f_R and T f_R
slopes vanishes exactly when the parameter vector c sits on the forced
linear relation returned by :func:`necessary_exponent_condition`, and the
experiment measures how far off it is otherwise.

R is embedded into the cone on the diagonal coordinates with zero borders,
the only embedding under which the per-R_j power structure of the norms
emerges.

Every integral lemma is taken from its entry in the identity registry:
the image T f_R and its Monte Carlo proposal are the two-kernel identity
(L26) at xi = iR, the norm ranges are the kernel-modulus identity's (L27),
and the norm estimates are the translate identity's (L24) left-hand side
after the slice identity (L25) has integrated out the real part.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InvalidInputError, OracleRejectedError
from .geometry import (TubePoint, complex_minors, complex_power_from_minors,
                       log_delta_power, minor_exponents)
from .identities import check_params, closed_value, get_identity
from .indices import (Convention, MultiIndex, bold_values, plain_values,
                      read_index)
from .oracle import (IntegralEstimate, mc_integrate_cone,
                     mc_integrate_tube)


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
    from .indices import shift_index
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
# admissibility and exponent bookkeeping
# ---------------------------------------------------------------------------

def _lr_lower_bounds(params: ParameterSet):
    """Lower bounds of the test-family admissibility system, per coordinate.

    Returns (l_low, r_low, gap_low): l_j > l_low_j, r_j > r_low_j and
    r_j - l_j > gap_low_j.
    """
    n, p = params.n, params.p
    al, b, c = params.vec("alpha"), params.vec("b"), params.vec("c")
    l_low = np.empty(n)
    r_low = np.empty(n)
    gap = np.empty(n)
    for j in range(n - 1):
        l_low[j] = max(-(n + 1.0) / (2.0 * p) - al[j] / p, -b[j] - 0.5)
        r_low[j] = float(n)
        gap[j] = max(al[j] / p + (3.0 * n + 1.0) / (2.0 * p),
                     (3.0 * n + 1.0) / 2.0 + b[j] - c[j])
    l_low[n - 1] = max(-1.0 / p - al[n - 1] / p, -b[n - 1] - 1.0)
    r_low[n - 1] = (n + 1.0) / 2.0
    gap[n - 1] = max((al[n - 1] + n + 1.0) / p, n + 1.0 + b[n - 1] - c[n - 1])
    return l_low, r_low, gap


def check_admissible(params: ParameterSet, l_plain, r_plain) -> list:
    l = plain_values(l_plain, params.n)
    r = plain_values(r_plain, params.n)
    l_low, r_low, gap = _lr_lower_bounds(params)
    bad = []
    for j in range(params.n):
        if not l[j] > l_low[j]:
            bad.append(f"l[{j + 1}] > {l_low[j]:.6g} (got {l[j]:.6g})")
        if not r[j] > r_low[j]:
            bad.append(f"r[{j + 1}] > {r_low[j]:.6g} (got {r[j]:.6g})")
        if not r[j] - l[j] > gap[j]:
            bad.append(f"r[{j + 1}] - l[{j + 1}] > {gap[j]:.6g} "
                       f"(got {r[j] - l[j]:.6g})")
    return bad


def admissible_lr(params: ParameterSet) -> tuple[MultiIndex, MultiIndex]:
    """Deterministic admissible pair: every lower bound + 1, every gap + 1."""
    from .indices import shift_index
    l_low, r_low, gap = _lr_lower_bounds(params)
    if not np.all(np.isfinite(l_low) & np.isfinite(r_low) & np.isfinite(gap)):
        raise InfeasibleError("non-finite admissibility bounds",
                              binding=[str(l_low), str(r_low), str(gap)])
    l = l_low + 1.0
    r = np.maximum(r_low, l + gap) + 1.0
    bad = check_admissible(params, l, r)
    if bad:
        raise InfeasibleError("constructed pair violates its own system",
                              binding=bad)
    return (shift_index(MultiIndex(tuple(l))), shift_index(MultiIndex(tuple(r))))


def image_norm_conditions(params: ParameterSet, tf: "TestFunctionFR") -> dict:
    """Finiteness conditions for the image norm: stated vs derived forms.

    The stated display subtracts b_j twice in its second inequality; the
    derived form applies the kernel-modulus identity's preconditions to the
    actual image exponents (q a + beta against q (r + c - l - b - (n+1))).
    Both are evaluated verbatim and any satisfaction gap is reported, not
    patched.
    """
    n, q = params.n, params.q
    a, b, c = params.vec("a"), params.vec("b"), params.vec("c")
    be = params.vec("beta")
    l, r = tf.l_plain(), tf.r_plain()
    stated, derived = [], []
    for j in range(n):
        off_lo = (n + 1.0) / 2.0 if j < n - 1 else 1.0
        off_hi = (3.0 * n + 1.0) / 2.0 if j < n - 1 else n + 1.0
        m1 = q * a[j] + be[j] + off_lo
        m2s = (c[j] - b[j] - a[j] - (n + 1.0) + r[j] - b[j] - l[j]
               - be[j] / q - off_hi / q)
        stated.append((f"stated:lower[{j + 1}]", bool(m1 > 0), float(m1)))
        stated.append((f"stated:gap[{j + 1}]", bool(m2s > 0), float(m2s)))
        l_eff = q * a[j] + be[j]
        r_eff = q * (r[j] + c[j] - l[j] - b[j] - (n + 1.0))
        d1 = l_eff + off_lo
        d2 = r_eff - l_eff - off_hi
        derived.append((f"derived:lower[{j + 1}]", bool(d1 > 0), float(d1)))
        derived.append((f"derived:gap[{j + 1}]", bool(d2 > 0), float(d2)))
    gaps = [s[0] for s, d in zip(stated, derived) if s[1] != d[1]]
    return {"stated": stated, "derived": derived, "gaps": gaps}


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


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def f_R_eval(w: TubePoint, tf: TestFunctionFR) -> complex:
    """f_R(w) = delta^l(Im w) / P^r(w + iR), shifted exponents."""
    return complex(_f_R_batch(tf)(w.x, w.y))


def _f_R_batch(tf: TestFunctionFR):
    n = tf.n
    lb, rb = tf.l.values, tf.r.values
    Remb = embed_R(tf.R, n)

    def f(x, v):
        zeta = (v + Remb) - 1j * x
        return (np.exp(log_delta_power(v, lb))
                / complex_power_from_minors(complex_minors(zeta),
                                            minor_exponents(rb)))
    return f


def _image_params(params: ParameterSet, tf: TestFunctionFR) -> dict:
    """Plain two-kernel (L26) parameters of T f_R: (l, r, eta) = (b + l, c, r)."""
    return {"l": params.vec("b") + tf.l_plain(), "r": params.vec("c"),
            "eta": tf.r_plain()}


def _f_R_norm_params(params: ParameterSet, tf: TestFunctionFR) -> dict:
    """Plain kernel-modulus (L27) parameters of f_R's p-norm: (p l + alpha, p r)."""
    return {"l": params.p * tf.l_plain() + params.vec("alpha"),
            "r": params.p * tf.r_plain()}


def apply_T_closed(z: TubePoint, params: ParameterSet, tf: TestFunctionFR,
                   constant: float | None = None) -> complex:
    """Closed-form image of f_R under T: delta^a(Im z) times the two-kernel
    tube identity at xi = iR."""
    n = params.n
    xi = TubePoint.make(np.zeros(2 * n - 1), embed_R(tf.R, n))
    a_part = math.exp(float(log_delta_power(
        z.y, bold_values(params.vec("a"), n))))
    return complex(a_part * closed_value("L26", _image_params(params, tf),
                                         (z, xi), constant))


@dataclass(frozen=True)
class FRNormClosed:
    exponents: tuple
    log_constant_p: float     # log of the p-th power stated constant
    constant_stated: float     # the closed-form norm constant C'

    def log_norm(self, R) -> float:
        return (self.log_constant_p
                + float(np.sum(np.asarray(self.exponents)
                               * np.log(np.atleast_1d(R)))))

    def value(self, R) -> float:
        return math.exp(self.log_norm(R))


def f_R_norm_closed(params: ParameterSet, tf: TestFunctionFR,
                    constant: float | None = None) -> FRNormClosed:
    """Exponent vector and closed-form value of the weighted p-norm of f_R.

    The finiteness condition is the kernel-modulus identity's range at the
    weighted pair (p*l + alpha, p*r).
    """
    n, p = params.n, params.p
    weighted = _f_R_norm_params(params, tf)
    check_params("L27", n, weighted)
    cst = get_identity("L27").stated_constant(n, weighted) \
        if constant is None else constant
    e = f_R_norm_exponents(params, tf)
    return FRNormClosed(exponents=tuple(e), log_constant_p=math.log(cst) / p,
                        constant_stated=cst ** (1.0 / p))


def check_norm_ranges(params: ParameterSet, tf: TestFunctionFR) -> None:
    """Raise ConvergenceDomainError unless both norms of the experiment are
    finite: f_R's (L27 at (p l + alpha, p r)), the closed image's (L26 at
    the image parameters) and the image's q-norm (L27 at the derived pair
    of :func:`image_norm_conditions`)."""
    n, q = params.n, params.q
    check_params("L27", n, _f_R_norm_params(params, tf))
    check_params("L26", n, _image_params(params, tf))
    check_params("L27", n, {
        "l": q * params.vec("a") + params.vec("beta"),
        "r": q * (tf.r_plain() + params.vec("c") - tf.l_plain()
                  - params.vec("b") - (n + 1.0))})


# ---------------------------------------------------------------------------
# Monte Carlo application and norms
# ---------------------------------------------------------------------------

def _slice_constant(n: int, bold_kernel: np.ndarray) -> float:
    """Calibrated slice-integral constant for a bold kernel exponent vector.

    The x-integral of a kernel modulus at fixed imaginary part is the
    horizontal-slice identity; its constant is oracle-calibrated (the
    stated composite is off) and cached, so it is one fixed number across
    an R-grid and cancels from every slope fit.
    """
    from .oracle import calibrated_constant
    return float(np.real(calibrated_constant(
        "L25", n, {"r": read_index(bold_kernel, Convention.SHIFTED)})))


def _reduced_norm_mc(n, weight_bold, kernel_bold, R, power, budget, seed):
    """MC of the weighted norm with the real part integrated analytically.

    The x-integral of |P^{-kernel}| at fixed v is the verified slice
    closed form C * delta^{-kernel}(v+R) * det(v+R)^{(n+1)/2}; what is left
    is the translate identity's (L24) left-hand side at b = R, estimated
    with its matched sampler.  Returns (norm, sigma).
    """
    Remb = embed_R(R, n)
    cst = _slice_constant(n, kernel_bold)
    ident = get_identity("L24")
    p = {"r": read_index(kernel_bold - (n + 1.0) / 2.0, Convention.SHIFTED),
         "eta": read_index(weight_bold, Convention.SHIFTED)}
    f = ident.integrand(n, p, Remb)
    est = mc_integrate_cone(lambda y, d=None: cst * f(y, d),
                            ident.sampler(n, p, Remb), budget, seed)
    if not est.value > 0:
        raise OracleRejectedError(est.nonfinite / est.samples,
                                  f"norm estimate {est.value} is not positive")
    norm = est.value ** (1.0 / power)
    return float(norm), float(norm * est.std_error / (power * est.value))


def f_R_norm_mc(params: ParameterSet, tf: TestFunctionFR, budget: int,
                seed: int) -> tuple[float, float]:
    """MC estimate (norm, sigma) of the weighted p-norm of f_R."""
    n, p = params.n, params.p
    weight = p * tf.l.values + bold_values(params.vec("alpha"), n)
    kernel = p * tf.r.values
    return _reduced_norm_mc(n, weight, kernel, np.asarray(tf.R), p, budget,
                            seed)


def Tf_R_norm_mc(params: ParameterSet, tf: TestFunctionFR, budget: int,
                 seed: int) -> tuple[float, float]:
    """MC estimate (norm, sigma) of the weighted q-norm of the closed image.

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
    return _reduced_norm_mc(n, weight, kernel, np.asarray(tf.R), q, budget,
                            seed)


def _kernel_transform_mc(z: TubePoint, params: ParameterSet, f, outer_bold,
                         inner_bold, budget: int, seed: int,
                         tf: TestFunctionFR) -> IntegralEstimate:
    """MC of delta^outer(Im z) * integral of delta^inner(Im w) f(w) / P^c(z - conj w).

    ``f`` is a batch callable f(x, v); the proposal is the two-kernel
    identity's (L26) at the image parameters of the test function ``tf``,
    with xi = iR.
    """
    n = params.n
    xi = TubePoint.make(np.zeros(2 * n - 1), embed_R(tf.R, n))
    spec = get_identity("L26").sampler(n, _image_params(params, tf), (z, xi))
    outer = math.exp(float(log_delta_power(z.y, outer_bold)))
    ec = minor_exponents(bold_values(params.vec("c"), n))
    xz, yz = z.x, z.y

    def integrand(x, v):
        zeta = (yz + v) - 1j * (xz - x)
        kern = complex_power_from_minors(complex_minors(zeta), ec)
        return np.exp(log_delta_power(v, inner_bold)) * f(x, v) / kern

    est = mc_integrate_tube(integrand, spec, budget, seed)
    return dataclasses.replace(est, value=outer * est.value,
                               std_error=outer * est.std_error)


def apply_T_numeric(z: TubePoint, params: ParameterSet, f, budget: int,
                    seed: int, tf: TestFunctionFR) -> IntegralEstimate:
    """MC image: delta^a(Im z) * integral of delta^b(Im w) f(w) / P^c(z - conj w)."""
    n = params.n
    return _kernel_transform_mc(z, params, f, bold_values(params.vec("a"), n),
                                bold_values(params.vec("b"), n), budget, seed,
                                tf)


def dual_operator_eval(z: TubePoint, params: ParameterSet, f, budget: int,
                       seed: int, tf: TestFunctionFR) -> IntegralEstimate:
    """MC value of the dual image: delta^(b-alpha) weight outside,
    delta^(a+beta) inside, same kernel."""
    n = params.n
    outer = bold_values(params.vec("b"), n) - bold_values(params.vec("alpha"), n)
    inner = bold_values(params.vec("a"), n) + bold_values(params.vec("beta"), n)
    return _kernel_transform_mc(z, params, f, outer, inner, budget, seed, tf)


# ---------------------------------------------------------------------------
# the norm-scaling experiment
# ---------------------------------------------------------------------------

def fit_loglog(xs, ys, sigmas) -> tuple[float, float]:
    """Weighted least-squares slope of log y against log x, with slope error."""
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
    coordinates: list = field(default_factory=list)


def scaling_experiment(params: ParameterSet, tf: TestFunctionFR, R_grid,
                       budget: int, seed: int,
                       coordinates=None) -> ScalingReport:
    """Fit f_R and T f_R norm slopes against each R_j over a geometric grid.

    One coordinate is varied at a time with the others pinned at the test
    function's base R.  Requires two distinct grid points.
    """
    R_grid = [float(x) for x in R_grid]
    if len(set(R_grid)) < 2:
        raise InfeasibleError("R grid must contain two distinct points "
                              "(slope fit is under-determined)")
    n = params.n
    coords = list(range(n)) if coordinates is None else list(coordinates)
    e_f = f_R_norm_exponents(params, tf)
    e_Tf = Tf_R_norm_exponents(params, tf)
    report = ScalingReport()
    base_R = np.asarray(tf.R, dtype=float)
    for ci, j in enumerate(coords):
        fn, fs, tn_, ts = [], [], [], []
        for gi, val in enumerate(R_grid):
            R = base_R.copy()
            R[j] = val
            tfi = tf.with_R(R)
            s = seed + 7919 * (ci * len(R_grid) + gi)
            nf, sf = f_R_norm_mc(params, tfi, budget, s)
            nt, st = Tf_R_norm_mc(params, tfi, budget, s + 3571)
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
    return report
