"""The eight explicit Gamma-ratio constants of the closed-form identities.

C1 and C3 normalize the cone Laplace transforms of plain and shifted minor
powers; C2 and C4 normalize the inverse transforms (the kernel identities);
C5-C8 are composites built from the first four:

    C5(r, eta) = C4(r)^-1 C4(eta) C4(r - eta)
    C6(r)      = 2^(2n - 1 - sum r) C4(r/2)^-1 C4(r)
    C7(l,r,eta)= C4(r)^-1 C4(eta)^-1 C3(l) C4(r + l - eta)
    C8(l, r)   = C6(r) C5(r, l)

All formulas take the *plain* component values of their indices; shifted
bookkeeping is the caller's business.  Evaluation runs in log space
(exponent sums in 2 and pi overflow quickly at n = 3), with the Gamma
*ratios* of C2/C4 reduced to rising-factorial polynomials so that values
remain defined, with the correct sign, for the negative index ranges the
kernel identities allow.

Several composite constants are known to disagree with independent numeric
evaluation of their identities (the compositions inherit a 2pi/4pi rescale
slip); the package therefore treats these values as the stated constants
and pairs them with oracle-calibrated ones at the identity layer.  Composition
*identities* between the constants hold by construction and are audited to
1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import ConvergenceDomainError, InvalidInputError
from .indices import plain_values

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)


def _vec(s, n=None) -> np.ndarray:
    v = plain_values(s, n)
    if n is not None and v.shape != (n,):
        raise InvalidInputError(f"index must have length {n}")
    return v


def _check(violations) -> None:
    bad = [msg for ok, msg in violations if not ok]
    if bad:
        raise ConvergenceDomainError(bad)


def _poch_ratio(x: float, k: int) -> float:
    """Gamma(x + k) / Gamma(x) as the rising factorial x (x+1) ... (x+k-1).

    Defined (with sign) wherever the product is, which is everywhere; this
    is what keeps C2/C4 meaningful on the negative part of their ranges.
    """
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


# ---------------------------------------------------------------------------
# C1 .. C4
# ---------------------------------------------------------------------------

def c1_range(n: int, s) -> list:
    v = _vec(s, n)
    checks = [(v[-1] > -1.0, f"s[{n}] > -1 (got {v[-1]})")]
    checks += [(v[j] > -1.5, f"s[{j + 1}] > -3/2 (got {v[j]})") for j in range(n - 1)]
    return checks


def c1(n: int, s) -> float:
    """Normalizer of the cone Laplace transform of a plain minor power."""
    v = _vec(s, n)
    _check(c1_range(n, s))
    logval = gammaln(v[-1] + 1.0) + np.sum(gammaln(v[:-1] + 1.5))
    logval -= (2.0 * v[-1] + n + 1.0) * LOG2
    logval -= (np.sum(v) + (3.0 * n - 1.0) / 2.0) * LOGPI
    return float(np.exp(logval))


def c2_range(n: int, s) -> list:
    v = _vec(s, n)
    checks = [(v[-1] > -(n + 1.0), f"s[{n}] > -(n+1) (got {v[-1]})")]
    checks += [(v[j] > -2.5, f"s[{j + 1}] > -5/2 (got {v[j]})") for j in range(n - 1)]
    return checks


def c2(n: int, s) -> float:
    """Normalizer of the inverse transform (kernel identity, plain index)."""
    v = _vec(s, n)
    _check(c2_range(n, s))
    logval = (np.sum(v) + n - 1.0) * LOG2 + (1.0 - 2.0 * n) * LOGPI
    poly = _poch_ratio(v[-1] + 1.0, n)
    for j in range(n - 1):
        poly *= v[j] + 1.5
    return float(poly * np.exp(logval))


def c3_range(n: int, s) -> list:
    v = _vec(s, n)
    checks = [(v[-1] > -1.0, f"s[{n}] > -1 (got {v[-1]})")]
    checks += [(v[j] > -(n + 1.0) / 2.0, f"s[{j + 1}] > -(n+1)/2 (got {v[j]})")
               for j in range(n - 1)]
    return checks


def c3(n: int, s) -> float:
    """Shifted-index analogue of c1."""
    v = _vec(s, n)
    _check(c3_range(n, s))
    logval = gammaln(v[-1] + 1.0) + np.sum(gammaln(v[:-1] + (n + 1.0) / 2.0))
    logval -= (2.0 * v[-1] + n + 1.0) * LOG2
    logval -= (np.sum(v) + (n * n + 1.0) / 2.0) * LOGPI
    return float(np.exp(logval))


def c4_range(n: int, s) -> list:
    v = _vec(s, n)
    checks = [(v[-1] > -(n + 1.0), f"s[{n}] > -(n+1) (got {v[-1]})")]
    checks += [(v[j] > -(n + 3.0) / 2.0, f"s[{j + 1}] > -(n+3)/2 (got {v[j]})")
               for j in range(n - 1)]
    return checks


def c4(n: int, s) -> float:
    """Shifted-index analogue of c2."""
    _check(c4_range(n, s))
    return _c4_formula(n, _vec(s, n))


def _c4_formula(n: int, v: np.ndarray) -> float:
    """The C4 Gamma ratio without its range check; defined for every v."""
    logval = (np.sum(v) + n * (n - 1.0) / 2.0) * LOG2 + (1.0 - 2.0 * n) * LOGPI
    poly = _poch_ratio(v[-1] + 1.0, n)
    for j in range(n - 1):
        poly *= v[j] + (n + 1.0) / 2.0
    return float(poly * np.exp(logval))


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def c5_range(n: int, r, eta) -> list:
    rv, ev = _vec(r, n), _vec(eta, n)
    checks = [
        (rv[-1] > ev[-1] + (n + 1.0) / 2.0,
         f"r[{n}] > eta[{n}] + (n+1)/2 (got {rv[-1]} vs {ev[-1] + (n + 1) / 2})"),
        (ev[-1] > -1.0, f"eta[{n}] > -1 (got {ev[-1]})"),
        (rv[-1] > 0.0, f"r[{n}] > 0 (got {rv[-1]})"),
    ]
    for j in range(n - 1):
        checks += [
            (rv[j] > ev[j] + n, f"r[{j + 1}] > eta[{j + 1}] + n (got {rv[j]})"),
            (ev[j] > -(n + 1.0) / 2.0, f"eta[{j + 1}] > -(n+1)/2 (got {ev[j]})"),
            (rv[j] > (1.0 - n) / 2.0, f"r[{j + 1}] > (1-n)/2 (got {rv[j]})"),
        ]
    return checks


def c5(n: int, r, eta) -> float:
    rv, ev = _vec(r, n), _vec(eta, n)
    _check(c5_range(n, r, eta))
    return c4(n, ev) * c4(n, rv - ev) / c4(n, rv)


def c6_range(n: int, r) -> list:
    rv = _vec(r, n)
    checks = [(rv[-1] > (n + 1.0) / 2.0, f"r[{n}] > (n+1)/2 (got {rv[-1]})")]
    checks += [(rv[j] > 1.5, f"r[{j + 1}] > 3/2 (got {rv[j]})") for j in range(n - 1)]
    return checks


def c6(n: int, r) -> float:
    rv = _vec(r, n)
    _check(c6_range(n, r))
    scale = math.exp((2.0 * n - 1.0 - float(np.sum(rv))) * LOG2)
    return scale * c4(n, rv) / c4(n, rv / 2.0)


def c7_range(n: int, l, r, eta) -> list:
    lv, rv, ev = _vec(l, n), _vec(r, n), _vec(eta, n)
    checks = [
        (lv[-1] > -1.0, f"l[{n}] > -1 (got {lv[-1]})"),
        (rv[-1] > 0.0, f"r[{n}] > 0 (got {rv[-1]})"),
        (ev[-1] > (n + 1.0) / 2.0, f"eta[{n}] > (n+1)/2 (got {ev[-1]})"),
        (rv[-1] + ev[-1] - lv[-1] > n + 1.0,
         f"r[{n}] + eta[{n}] - l[{n}] > n+1 (got {rv[-1] + ev[-1] - lv[-1]})"),
    ]
    for j in range(n - 1):
        checks += [
            (lv[j] > -(n + 1.0) / 2.0, f"l[{j + 1}] > -(n+1)/2 (got {lv[j]})"),
            (rv[j] > (n - 1.0) / 2.0, f"r[{j + 1}] > (n-1)/2 (got {rv[j]})"),
            (ev[j] > float(n), f"eta[{j + 1}] > n (got {ev[j]})"),
            (rv[j] + ev[j] - lv[j] > (3.0 * n + 1.0) / 2.0,
             f"r[{j + 1}] + eta[{j + 1}] - l[{j + 1}] > (3n+1)/2 "
             f"(got {rv[j] + ev[j] - lv[j]})"),
        ]
    return checks


def c7(n: int, l, r, eta) -> float:
    lv, rv, ev = _vec(l, n), _vec(r, n), _vec(eta, n)
    _check(c7_range(n, l, r, eta))
    # r + l - eta may leave C4's own range inside C7's; c7_range is the gate
    return c3(n, lv) * _c4_formula(n, rv + lv - ev) / (c4(n, rv) * c4(n, ev))


def c8_range(n: int, l, r) -> list:
    lv, rv = _vec(l, n), _vec(r, n)
    checks = [
        (lv[-1] > -1.0, f"l[{n}] > -1 (got {lv[-1]})"),
        (rv[-1] - lv[-1] > n + 1.0,
         f"r[{n}] - l[{n}] > n+1 (got {rv[-1] - lv[-1]})"),
    ]
    for j in range(n - 1):
        checks += [
            (lv[j] > -(n + 1.0) / 2.0, f"l[{j + 1}] > -(n+1)/2 (got {lv[j]})"),
            (rv[j] - lv[j] > (3.0 * n + 1.0) / 2.0,
             f"r[{j + 1}] - l[{j + 1}] > (3n+1)/2 (got {rv[j] - lv[j]})"),
        ]
    return checks


def c8(n: int, l, r) -> float:
    # the second factor's collapsed subscript is read as the two-index
    # composite at (r, l)
    lv, rv = _vec(l, n), _vec(r, n)
    _check(c8_range(n, l, r))
    return c6(n, rv) * (c4(n, lv) * c4(n, rv - lv) / c4(n, rv))


# ---------------------------------------------------------------------------
# direct (non-log) evaluation, for the log-vs-direct audit
# ---------------------------------------------------------------------------

def c1_direct(n: int, s) -> float:
    v = _vec(s, n)
    num = math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        num *= math.gamma(v[j] + 1.5)
    return num / (2.0 ** (2.0 * v[-1] + n + 1.0)
                  * math.pi ** (float(np.sum(v)) + (3.0 * n - 1.0) / 2.0))


def c3_direct(n: int, s) -> float:
    v = _vec(s, n)
    num = math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        num *= math.gamma(v[j] + (n + 1.0) / 2.0)
    return num / (2.0 ** (2.0 * v[-1] + n + 1.0)
                  * math.pi ** (float(np.sum(v)) + (n * n + 1.0) / 2.0))


def c2_direct(n: int, s) -> float:
    v = _vec(s, n)
    out = 2.0 ** (float(np.sum(v)) + n - 1.0) * math.pi ** (1.0 - 2.0 * n)
    out *= math.gamma(v[-1] + n + 1.0) / math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        out *= math.gamma(v[j] + 2.5) / math.gamma(v[j] + 1.5)
    return out


def c4_direct(n: int, s) -> float:
    v = _vec(s, n)
    out = 2.0 ** (float(np.sum(v)) + n * (n - 1.0) / 2.0) * math.pi ** (1.0 - 2.0 * n)
    out *= math.gamma(v[-1] + n + 1.0) / math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        out *= math.gamma(v[j] + (n + 3.0) / 2.0) / math.gamma(v[j] + (n + 1.0) / 2.0)
    return out


# ---------------------------------------------------------------------------
# composition audit
# ---------------------------------------------------------------------------

@dataclass
class AuditReport:
    n: int
    trials: int
    entries: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    def record(self, name, rel_err, ok, detail=""):
        self.entries.append({"check": name, "rel_err": rel_err, "ok": bool(ok),
                             "detail": detail})
        if not ok:
            self.mismatches.append(self.entries[-1])

    @property
    def passed(self) -> bool:
        return not self.mismatches


def audit_constant_identities(n: int, trials: int = 1000, seed: int = 0,
                              rel_tol: float = 1e-12) -> AuditReport:
    """Re-verify the composite constants against factor-wise evaluation.

    Samples random in-range index tuples, recomputes each composition from
    independently evaluated factors, and records relative errors.  Also
    checks that the plain and shifted Laplace constants coincide at n = 2,
    where the shift offset vanishes.  Mismatches become report entries, not
    exceptions.
    """
    rng = np.random.default_rng(seed)
    report = AuditReport(n=n, trials=trials)

    def rand_eta():
        e = rng.uniform(-0.5, 2.0, size=n)
        e[:-1] = rng.uniform(-(n + 1) / 2.0 + 0.3, 2.0, size=n - 1)
        return e

    worst = {"C5": 0.0, "C7": 0.0, "C8": 0.0}
    for _ in range(trials):
        eta = rand_eta()
        r = eta + np.concatenate([rng.uniform(n + 0.3, n + 3.0, size=n - 1),
                                  rng.uniform((n + 1) / 2.0 + 0.3, n + 3.0, size=1)])
        l = rand_eta()
        l[-1] = rng.uniform(-0.7, 1.5)

        val = c5(n, r, eta)
        ref = c4(n, eta) * c4(n, r - eta) / c4(n, r)
        worst["C5"] = max(worst["C5"], abs(val - ref) / abs(ref))

        eta7 = np.concatenate([rng.uniform(n + 0.3, n + 2.0, size=n - 1),
                               rng.uniform((n + 1) / 2.0 + 0.3, n + 2.0, size=1)])
        r7 = np.concatenate([rng.uniform((n - 1) / 2.0 + 0.3, n + 2.0, size=n - 1),
                             rng.uniform(0.3, n + 2.0, size=1)])
        gap = np.concatenate([np.maximum((3 * n + 1) / 2.0 - r7[:-1] - eta7[:-1], 0.0) + 0.3,
                              np.maximum(n + 1.0 - r7[-1:] - eta7[-1:], 0.0) + 0.3])
        l7 = r7 + eta7 - gap - rng.uniform(0.0, 1.0, size=n)
        l7 = np.minimum(l7, np.concatenate([rng.uniform(-1.0, 2.0, size=n - 1),
                                            rng.uniform(-0.7, 2.0, size=1)]))
        try:
            val = c7(n, l7, r7, eta7)
            ref = c3(n, l7) * c4(n, r7 + l7 - eta7) / (c4(n, r7) * c4(n, eta7))
            if ref != 0.0:
                worst["C7"] = max(worst["C7"], abs(val - ref) / abs(ref))
        except ConvergenceDomainError:
            pass

        l8 = rand_eta()
        r8 = l8 + np.concatenate([rng.uniform((3 * n + 1) / 2.0 + 0.3, 3.0 * n, size=n - 1),
                                  rng.uniform(n + 1.3, 3.0 * n, size=1)])
        r8[:-1] = np.maximum(r8[:-1], 1.8)
        r8[-1] = max(r8[-1], (n + 1) / 2.0 + 0.3)
        val = c8(n, l8, r8)
        ref = c6(n, r8) * c4(n, l8) * c4(n, r8 - l8) / c4(n, r8)
        worst["C8"] = max(worst["C8"], abs(val - ref) / abs(ref))

    for name, err in worst.items():
        report.record(f"{name} composition", err, err <= rel_tol)

    if n == 2:
        worst13 = 0.0
        for _ in range(min(trials, 200)):
            s = np.array([rng.uniform(-1.2, 2.0), rng.uniform(-0.8, 2.0)])
            a, b = c1(2, s), c3(2, s)
            worst13 = max(worst13, abs(a - b) / abs(b))
        report.record("C1 == C3 at n=2 (zero shift)", worst13, worst13 <= rel_tol)

    return report
