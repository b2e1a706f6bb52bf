"""Parameter-region classification and the Schur-test witness machinery.

Two condition sets are evaluated per parameter vector: the necessary set
(two strict inequalities per coordinate plus the forced linear relation on
c) and the sufficient set (per-coordinate inequalities plus c_j > n and the
same relation).  ``classify`` combines them; a point satisfying the
sufficient set while strictly violating a necessary condition is flagged
CONFLICT, which is a reportable inconsistency of the two condition sets
rather than a bug (a thin slab of such points exists for n >= 2 in the
beta/a inequalities).

The witness construction picks the splitting exponent t in the admissible
interval and, per coordinate, an exponent r_j in the intersection of two
open intervals (A_j, B_j) and (C_j, D_j) encoding the convergence of the
two Schur integrals; l_j is then forced by an exact linear identity.  The
A_n endpoint carries a -1/p' term that is easy to drop: without it the
intersection is empty for perfectly admissible parameters (including the
worked example), while with it A < B and C < D are exactly the t-interval
bounds and A < D, C < B are exactly the j = n sufficient conditions.  For
j < n the same construction is applied with the offsets (1, n+1) replaced
by ((n+1)/2, (3n+1)/2), the j < n convergence margins of the kernel-modulus
identity; this generalization is validated numerically by
``schur_numeric_check`` rather than trusted.

Each of the two Schur integrals is the left-hand side of the
kernel-modulus identity (L27) at the witness exponents, so
``schur_numeric_check`` estimates it through the identity registry with
the same integrand and matched proposal the identity audit uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, WitnessConstructionError
from .geometry import log_delta_power
from .identities import random_tube_point
from .indices import Convention, bold_values, read_index
from .oracle import oracle_estimate
from .operators import ParameterSet, necessary_exponent_condition

EQUALITY_TOL = 1e-9
BOUNDARY_TOL = 1e-12

BOUNDED = "BOUNDED"
UNBOUNDED = "UNBOUNDED"
UNDETERMINED = "UNDETERMINED"
CONFLICT = "CONFLICT"


@dataclass(frozen=True)
class Condition:
    """One evaluated condition: positive margin means satisfied.

    For equality conditions the margin is the signed residual and
    ``satisfied`` means |margin| <= tolerance.
    """

    id: str
    satisfied: bool
    margin: float
    kind: str = "inequality"     # or "equality"

    @property
    def boundary(self) -> bool:
        return self.kind == "inequality" and abs(self.margin) <= BOUNDARY_TOL


@dataclass
class Breakdown:
    conditions: list = field(default_factory=list)

    def add_strict(self, cid: str, margin: float):
        self.conditions.append(Condition(cid, bool(margin > 0.0), float(margin)))

    def add_equality(self, cid: str, residual: float, tol: float = EQUALITY_TOL):
        self.conditions.append(Condition(cid, abs(residual) <= tol,
                                         float(residual), kind="equality"))

    @property
    def passed(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    @property
    def strictly_violated(self) -> bool:
        return any((not c.satisfied) and not c.boundary for c in self.conditions)

    def failed_ids(self) -> list:
        return [c.id for c in self.conditions if not c.satisfied]


# a huge finite parameter overflows a margin to +-inf, which is its sign
@np.errstate(over="ignore", invalid="ignore")
def theorem1_necessary(params: ParameterSet) -> Breakdown:
    """Necessary conditions: weight inequalities plus the forced c."""
    n, p, q = params.n, params.p, params.q
    al, be = params.vec("alpha"), params.vec("beta")
    a, b, c = params.vec("a"), params.vec("b"), params.vec("c")
    req = necessary_exponent_condition(params)
    out = Breakdown()
    for j in range(n):
        off = (n + 1.0) / 2.0 if j < n - 1 else 1.0
        out.add_strict(f"nec:a[{j + 1}]q < beta[{j + 1}]+{off:g}",
                       be[j] + off + a[j] * q)
        out.add_strict(f"nec:alpha[{j + 1}]+{off:g} < p(b[{j + 1}]+{off:g})",
                       p * (b[j] + off) - (al[j] + off))
        out.add_equality(f"nec:c[{j + 1}] equality", c[j] - req[j])
    return out


@np.errstate(over="ignore", invalid="ignore")
def theorem2_sufficient(params: ParameterSet) -> Breakdown:
    """Sufficient conditions: c_j > n, weight inequalities, forced c."""
    n, p, q = params.n, params.p, params.q
    al, be = params.vec("alpha"), params.vec("beta")
    a, b, c = params.vec("a"), params.vec("b"), params.vec("c")
    req = necessary_exponent_condition(params)
    half = (1.0 / (2.0 * q) + 1.0 / (2.0 * p)) * (1.0 - n)
    out = Breakdown()
    for j in range(n):
        out.add_strict(f"suf:c[{j + 1}] > n", c[j] - n)
        if j < n - 1:
            out.add_strict(
                f"suf:alpha[{j + 1}]+1 < p(half+b[{j + 1}]+(n+1)/2)",
                p * (half + b[j] + (n + 1.0) / 2.0) - (al[j] + 1.0))
            out.add_strict(
                f"suf:beta[{j + 1}]+1 > q(half-a[{j + 1}])",
                be[j] + 1.0 - q * (half - a[j]))
        else:
            out.add_strict(f"suf:alpha[{j + 1}]+1 < p(b[{j + 1}]+1)",
                           p * (b[j] + 1.0) - (al[j] + 1.0))
            out.add_strict(f"suf:a[{j + 1}]q < beta[{j + 1}]+1",
                           be[j] + 1.0 + a[j] * q)
        out.add_equality(f"suf:c[{j + 1}] equality", c[j] - req[j])
    return out


@dataclass
class ClassificationResult:
    verdict: str
    theorem1: Breakdown
    theorem2: Breakdown


def classify(params: ParameterSet) -> ClassificationResult:
    """BOUNDED / UNBOUNDED / UNDETERMINED / CONFLICT from the two breakdowns.

    Equality-boundary failures of the necessary set are classified
    UNDETERMINED, never UNBOUNDED.  CONFLICT marks parameters where the
    sufficient set passes while a necessary condition strictly fails.
    """
    t1 = theorem1_necessary(params)
    t2 = theorem2_sufficient(params)
    if t2.passed:
        verdict = CONFLICT if t1.strictly_violated else BOUNDED
    elif t1.strictly_violated:
        verdict = UNBOUNDED
    else:
        verdict = UNDETERMINED
    return ClassificationResult(verdict=verdict, theorem1=t1, theorem2=t2)


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurWitness:
    t: float
    t_interval: tuple
    r: tuple
    l: tuple
    c_prime: float
    endpoints: tuple            # per coordinate: dict with A, B, C, D
    identity_residuals: tuple   # per coordinate: (res1, res2)
    inequality_margins: tuple   # per coordinate: (m1, m2, m3, m4), all > 0


def t_interval(params: ParameterSet) -> tuple[float, float]:
    n, p, q = params.n, params.p, params.q
    c = params.vec("c")
    # a zero or tiny c_j leaves the interval undefined: NaN or infinite ends
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo = float(np.max(n / c - n / (p * c)))
        hi = float(np.min(1.0 - n / (q * c)))
    return lo, hi


def schur_witness(params: ParameterSet) -> SchurWitness:
    """Deterministic witness (t, r, l): midpoints of the admissible intervals.

    Raises WitnessConstructionError, carrying all four endpoints, if any
    interval or intersection is empty; for parameters passing the
    sufficient set that would falsify the construction's nonemptiness
    claims and is a reportable finding.
    """
    if not theorem2_sufficient(params).passed:
        raise InvalidInputError(
            "witness construction requires the sufficient conditions to hold")
    n, q = params.n, params.q
    pp = params.p_conj
    al, be = params.vec("alpha"), params.vec("beta")
    a, b, c = params.vec("a"), params.vec("b"), params.vec("c")

    lo, hi = t_interval(params)
    if not lo < hi:
        raise WitnessConstructionError(
            f"empty t-interval ({lo}, {hi})", endpoints={"t_lo": lo, "t_hi": hi})
    t = 0.5 * (lo + hi)

    r = np.empty(n)
    l = np.empty(n)
    endpoints = []
    residuals = []
    margins = []
    X = c - b - a + al
    for j in range(n):
        lo_off = (n + 1.0) / 2.0 if j < n - 1 else 1.0
        hi_off = (3.0 * n + 1.0) / 2.0 if j < n - 1 else n + 1.0
        A = -(lo_off + al[j]) / pp + t * (al[j] - b[j])
        B = t * (c[j] - b[j] + al[j]) - (al[j] + hi_off) / pp
        Cj = ((n + 1.0) - lo_off) / q + (t - 1.0) * (c[j] - b[j] + al[j])
        D = (1.0 - t) * (b[j] - al[j]) + ((n + 1.0) - hi_off) / q
        endpoints.append({"A": A, "B": B, "C": Cj, "D": D})
        lo_r, hi_r = max(A, Cj), min(B, D)
        if not lo_r < hi_r:
            raise WitnessConstructionError(
                f"empty interval intersection at coordinate {j + 1}: "
                f"({A}, {B}) cap ({Cj}, {D})",
                endpoints={"j": j + 1, "A": A, "B": B, "C": Cj, "D": D, "t": t})
        r[j] = 0.5 * (lo_r + hi_r)
        l[j] = r[j] + (1.0 - t) * X[j] - (be[j] + n + 1.0) / q

        res1 = -t * pp * X[j] + pp * r[j] + al[j] + n + 1.0 - pp * l[j]
        res2 = (q * (a[j] - c[j] + b[j] - al[j])
                + t * q * (c[j] - a[j] - b[j] + al[j])
                + q * l[j] + be[j] + n + 1.0 - q * r[j])
        residuals.append((float(res1), float(res2)))

        m1 = t * pp * (b[j] - al[j]) + pp * r[j] + al[j] + lo_off
        m2 = t * pp * c[j] - t * pp * (b[j] - al[j]) - pp * r[j] - al[j] - hi_off
        m3 = q * (1.0 - t) * a[j] + q * l[j] + be[j] + lo_off
        m4 = q * (1.0 - t) * c[j] - (q * (1.0 - t) * a[j] + q * l[j] + be[j]) - hi_off
        margins.append((float(m1), float(m2), float(m3), float(m4)))

    return SchurWitness(t=float(t), t_interval=(lo, hi),
                        r=tuple(float(v) for v in r),
                        l=tuple(float(v) for v in l),
                        c_prime=float(np.min(c)),
                        endpoints=tuple(endpoints),
                        identity_residuals=tuple(residuals),
                        inequality_margins=tuple(margins))


# ---------------------------------------------------------------------------
# numeric validation of a witness
# ---------------------------------------------------------------------------

@dataclass
class SchurRatioSet:
    which: str                   # "first" or "second"
    ratios: tuple
    sigmas: tuple
    mean: float
    max_z: float
    consistent: bool


@dataclass
class SchurCheckReport:
    first: SchurRatioSet
    second: SchurRatioSet

    @property
    def passed(self) -> bool:
        return self.first.consistent and self.second.consistent


def _ratio_consistency(ratios, sigmas) -> tuple[float, float, bool]:
    ratios = np.asarray(ratios, dtype=float)
    if np.all(ratios == 0.0):
        return 0.0, 0.0, True
    sigmas = np.maximum(np.asarray(sigmas, dtype=float), 1e-300)
    w = 1.0 / sigmas ** 2
    mean = float(np.sum(w * ratios) / np.sum(w))
    z = float(np.max(np.abs(ratios - mean) / sigmas))
    return mean, z, z <= 3.0


def schur_numeric_check(params: ParameterSet, witness: SchurWitness,
                        sample_count: int = 5, budget: int = 200_000,
                        seed: int = 0) -> SchurCheckReport:
    """Check point-independence of the two Schur integral ratios by MC.

    At ``sample_count`` random points the two integrals, each the
    left-hand side of the kernel-modulus identity (L27), are estimated
    through the identity registry and divided by the predicted witness
    powers; each family of ratios must be constant within 3 combined
    standard errors.  The constant ratios are the two Schur comparison
    constants and come back in the report.
    """
    n, q = params.n, params.q
    pp = params.p_conj
    t = witness.t
    rng = np.random.default_rng(seed)
    al_b = bold_values(params.vec("alpha"), n)
    be_b = bold_values(params.vec("beta"), n)
    a_b = bold_values(params.vec("a"), n)
    b_b = bold_values(params.vec("b"), n)
    c_b = bold_values(params.vec("c"), n)
    r_b = bold_values(np.asarray(witness.r), n)
    l_b = bold_values(np.asarray(witness.l), n)

    # per integral: weight, kernel, outer power, predicted power, seed offset
    integrals = (
        # first: weight t p'(b - alpha) + p' r + alpha, kernel t p' c
        (t * pp * (b_b - al_b) + pp * r_b + al_b, t * pp * c_b,
         t * pp * a_b, pp * l_b, 1),
        # second: weight q(1-t) a + q l + beta, kernel q(1-t) c
        (q * (1.0 - t) * a_b + q * l_b + be_b, q * (1.0 - t) * c_b,
         q * (1.0 - t) * (b_b - al_b), q * r_b, 57))
    ratios, sigmas = ([], []), ([], [])
    for i in range(sample_count):
        z = random_tube_point(n, rng, x_scale=0.4)
        for k, (weight, kernel, outer_e, phi_e, offset) in enumerate(integrals):
            est = oracle_estimate(
                "L27", {"l": read_index(weight, Convention.SHIFTED),
                        "r": read_index(kernel, Convention.SHIFTED)},
                z, budget, seed + 101 * i + offset, method="mc")
            outer = math.exp(float(log_delta_power(z.y, outer_e)))
            phi = math.exp(float(log_delta_power(z.y, phi_e)))
            ratios[k].append(outer * est.value / phi)
            sigmas[k].append(outer * est.std_error / phi)

    first, second = (
        SchurRatioSet(which, tuple(r), tuple(s), *_ratio_consistency(r, s))
        for which, r, s in zip(("first", "second"), ratios, sigmas))
    return SchurCheckReport(first=first, second=second)


# ---------------------------------------------------------------------------
# random admissible parameter sets
# ---------------------------------------------------------------------------

def random_sufficient_params(n: int, rng: np.random.Generator) -> ParameterSet:
    """Random parameter set passing the sufficient conditions.

    Weights are drawn nonnegative and p in (1.2, 2], q in [p, 3.2]; over
    these ranges the witness intervals are provably nonempty, which keeps
    the construction suite deterministic.  c is set by the forced relation,
    and draws failing c_j > n are rejected.
    """
    for _ in range(1000):
        p = float(rng.uniform(1.2, 2.0))
        q = float(rng.uniform(p, 3.2))
        alpha = rng.uniform(0.0, 2.0, size=n)
        beta = rng.uniform(0.0, 2.0, size=n)
        a = rng.uniform(0.0, 1.5, size=n)
        b = rng.uniform(0.0, 1.5, size=n)
        params = ParameterSet(n=n, p=p, q=q, alpha=tuple(alpha),
                              beta=tuple(beta), a=tuple(a), b=tuple(b),
                              c=(1.0,) * n)
        c = necessary_exponent_condition(params)
        params = ParameterSet(n=n, p=p, q=q, alpha=tuple(alpha),
                              beta=tuple(beta), a=tuple(a), b=tuple(b),
                              c=tuple(c))
        if theorem2_sufficient(params).passed:
            return params
    raise InvalidInputError("could not draw a sufficient parameter set")
