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

Every convergence range is a list of ``_bounds(label, values, lower)``
checks values_j > lower_j, ``lower`` an n-vector with one bound on the
first n - 1 entries and one on the n-th; composites form r + eta - l, r - l
or eta + lower first.  A violation names its entry and numeric bound, as in
``eta[1] > 2 (got 2.0)``.  The ``*_bounds`` accessors own the stated bound
vectors that the range checks, the Schur witness and the random draws read.

Several composite constants are known to disagree with independent numeric
evaluation of their identities (the compositions inherit a 2pi/4pi rescale
slip); they are kept as the stated constants, and each audit record
carries its fitted constant (LHS / structure) beside the stated one.  The
tests check C1-C4 against direct Gamma-function evaluation, and C5-C8
against products of those direct references.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceDomainError
from .indices import plain_values

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)


def _check(violations) -> None:
    bad = [msg for ok, msg in violations if not ok]
    if bad:
        raise ConvergenceDomainError(bad)


def _lower(n: int, lead: float, last: float) -> np.ndarray:
    """The n-vector of lower bounds: ``lead`` on the first n - 1 entries and
    ``last`` on the n-th."""
    return np.append(np.full(n - 1, float(lead)), float(last))


def _bounds(label: str, values, lower) -> list:
    """The checks values[j] > lower[j], each naming its entry and bound."""
    return [(x > lo, f"{label}[{j + 1}] > {lo:g} (got {x})")
            for j, (x, lo) in enumerate(zip(values, lower))]


def border_offset(n: int, shifted: bool) -> float:
    """The transform pair's border offset: 3/2, or (n+1)/2 where shifted."""
    return (n + 1.0) / 2.0 if shifted else 1.5


def laplace_bounds(n: int, shifted: bool) -> np.ndarray:
    """C1's lower bound on s, or C3's if ``shifted`` (L24's on eta, L26/L27's on l)."""
    return _lower(n, -border_offset(n, shifted), -1.0)


def _poch_ratio(x: float, k: int) -> float:
    """Gamma(x + k) / Gamma(x) as the rising factorial x (x+1) ... (x+k-1).

    Defined (with sign) wherever the product is, which is everywhere; this
    is what keeps C2/C4 meaningful on the negative part of their ranges.
    """
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def log_gamma(x: float) -> float:
    """log|Gamma(x)| for x > 0, inf past the double range (where
    math.lgamma raises OverflowError)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _inf_past_range(formula):
    """``formula`` with a float overflow giving inf without a numpy
    warning: a constant past the double range is inf, and the verdict that
    uses it reports it."""
    @functools.wraps(formula)
    def quiet(*args):
        with np.errstate(over="ignore"):
            return formula(*args)
    return quiet


# ---------------------------------------------------------------------------
# C1 .. C4
# ---------------------------------------------------------------------------

@_inf_past_range
def _laplace_normalizer(n: int, v: np.ndarray, shifted: bool) -> float:
    """C1, or C3 where ``shifted``, at plain values v without its range
    check; h is their border offset."""
    h = border_offset(n, shifted)
    logval = log_gamma(v[-1] + 1.0) + sum(log_gamma(x + h) for x in v[:-1])
    if logval == math.inf:  # log-gamma outgrows the linear terms below
        return math.inf
    logval -= (2.0 * v[-1] + n + 1.0) * LOG2
    logval -= (np.sum(v) + ((n - 1.0) * h + 1.0)) * LOGPI
    return float(np.exp(logval))


@_inf_past_range
def _kernel_ratio(n: int, v: np.ndarray, shifted: bool) -> float:
    """The C2 Gamma ratio, or C4's where ``shifted``, at plain values v
    without its range check; defined for every v.  Its power of 2 is
    sum v + (n - 1)(h - 1/2) at the border offset h, rounded as each
    constant has always rounded it (the two differ in the last bit at n = 2)."""
    h = border_offset(n, shifted)
    log2 = (np.sum(v) + n * (n - 1.0) / 2.0 if shifted
            else np.sum(v) + n - 1.0)
    logval = log2 * LOG2 + (1.0 - 2.0 * n) * LOGPI
    poly = _poch_ratio(v[-1] + 1.0, n)
    for j in range(n - 1):
        poly *= v[j] + h
    return float(poly * np.exp(logval))


def c1_range(n: int, s) -> list:
    return _bounds("s", plain_values(s, n), laplace_bounds(n, False))


def c1(n: int, s) -> float:
    """Normalizer of the cone Laplace transform of a plain minor power."""
    _check(c1_range(n, s))
    return _laplace_normalizer(n, plain_values(s, n), False)


def c2_range(n: int, s) -> list:
    return _bounds("s", plain_values(s, n), _lower(n, -2.5, -(n + 1.0)))


def c2(n: int, s) -> float:
    """Normalizer of the inverse transform (kernel identity, plain index)."""
    _check(c2_range(n, s))
    return _kernel_ratio(n, plain_values(s, n), False)


def c3_range(n: int, s) -> list:
    return _bounds("s", plain_values(s, n), laplace_bounds(n, True))


def c3(n: int, s) -> float:
    """Shifted-index analogue of c1."""
    _check(c3_range(n, s))
    return _laplace_normalizer(n, plain_values(s, n), True)


def c4_range(n: int, s) -> list:
    return _bounds("s", plain_values(s, n),
                   _lower(n, -(n + 3.0) / 2.0, -(n + 1.0)))


def c4(n: int, s) -> float:
    """Shifted-index analogue of c2."""
    _check(c4_range(n, s))
    return _kernel_ratio(n, plain_values(s, n), True)


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def c5_bounds(n: int) -> tuple:
    """L24's stated lower bounds on r - eta and on r (eta's is C3's)."""
    return _lower(n, n, (n + 1.0) / 2.0), _lower(n, (1.0 - n) / 2.0, 0.0)


def c5_range(n: int, r, eta) -> list:
    rv, ev = plain_values(r, n), plain_values(eta, n)
    gap_lower, r_lower = c5_bounds(n)
    return (_bounds("r", rv, ev + gap_lower)
            + _bounds("eta", ev, laplace_bounds(n, True))
            + _bounds("r", rv, r_lower))


def c5(n: int, r, eta) -> float:
    rv, ev = plain_values(r, n), plain_values(eta, n)
    _check(c5_range(n, r, eta))
    return c4(n, ev) * c4(n, rv - ev) / c4(n, rv)


def c6_range(n: int, r) -> list:
    return _bounds("r", plain_values(r, n), _lower(n, 1.5, (n + 1.0) / 2.0))


def c6(n: int, r) -> float:
    rv = plain_values(r, n)
    _check(c6_range(n, r))
    scale = math.exp((2.0 * n - 1.0 - float(np.sum(rv))) * LOG2)
    return scale * c4(n, rv) / c4(n, rv / 2.0)


def c8_bounds(n: int) -> tuple:
    """L27's stated lower bounds on l and on r - l (plain values)."""
    return laplace_bounds(n, True), _lower(n, (3.0 * n + 1.0) / 2.0, n + 1.0)


def c7_bounds(n: int) -> np.ndarray:
    """L26's stated lower bound on r + eta - l: L27's on r - l."""
    return c8_bounds(n)[1]


def c7_index_bounds(n: int) -> tuple:
    """L26's stated lower bounds on l, r and eta: eta's is L24's on r - eta."""
    return laplace_bounds(n, True), _lower(n, (n - 1.0) / 2.0, 0.0), c5_bounds(n)[0]


def c7_range(n: int, l, r, eta) -> list:
    lv, rv, ev = plain_values(l, n), plain_values(r, n), plain_values(eta, n)
    l_lower, r_lower, eta_lower = c7_index_bounds(n)
    return (_bounds("l", lv, l_lower) + _bounds("r", rv, r_lower)
            + _bounds("eta", ev, eta_lower)
            + _bounds("(r + eta - l)", rv + ev - lv, c7_bounds(n)))


def c7(n: int, l, r, eta) -> float:
    lv, rv, ev = plain_values(l, n), plain_values(r, n), plain_values(eta, n)
    _check(c7_range(n, l, r, eta))
    # r + l - eta may leave C4's own range inside C7's; c7_range is the gate
    return c3(n, lv) * _kernel_ratio(n, rv + lv - ev, True) / (c4(n, rv) * c4(n, ev))


def c8_range(n: int, l, r) -> list:
    lv, rv = plain_values(l, n), plain_values(r, n)
    l_lower, gap_lower = c8_bounds(n)
    return _bounds("l", lv, l_lower) + _bounds("(r - l)", rv - lv, gap_lower)


def c8(n: int, l, r) -> float:
    # the second factor's collapsed subscript is read as the two-index
    # composite at (r, l)
    lv, rv = plain_values(l, n), plain_values(r, n)
    _check(c8_range(n, l, r))
    return c6(n, rv) * c5(n, rv, lv)
