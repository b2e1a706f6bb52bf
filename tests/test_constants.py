import math
import re
import warnings

import numpy as np
import pytest

from conetube import constants as C
from conetube.errors import ConvergenceDomainError
from conetube.identities import L25_constant


# direct (non-log) Gamma-function evaluation: the reference for C1-C4, and
# through products of these, for the composites C5-C8

def c1_direct(n: int, s) -> float:
    v = np.asarray(s, dtype=float)
    num = math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        num *= math.gamma(v[j] + 1.5)
    return num / (2.0 ** (2.0 * v[-1] + n + 1.0)
                  * math.pi ** (float(np.sum(v)) + (3.0 * n - 1.0) / 2.0))


def c3_direct(n: int, s) -> float:
    v = np.asarray(s, dtype=float)
    num = math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        num *= math.gamma(v[j] + (n + 1.0) / 2.0)
    return num / (2.0 ** (2.0 * v[-1] + n + 1.0)
                  * math.pi ** (float(np.sum(v)) + (n * n + 1.0) / 2.0))


def c2_direct(n: int, s) -> float:
    v = np.asarray(s, dtype=float)
    out = 2.0 ** (float(np.sum(v)) + n - 1.0) * math.pi ** (1.0 - 2.0 * n)
    out *= math.gamma(v[-1] + n + 1.0) / math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        out *= math.gamma(v[j] + 2.5) / math.gamma(v[j] + 1.5)
    return out


def c4_direct(n: int, s) -> float:
    v = np.asarray(s, dtype=float)
    out = 2.0 ** (float(np.sum(v)) + n * (n - 1.0) / 2.0) * math.pi ** (1.0 - 2.0 * n)
    out *= math.gamma(v[-1] + n + 1.0) / math.gamma(v[-1] + 1.0)
    for j in range(n - 1):
        out *= math.gamma(v[j] + (n + 3.0) / 2.0) / math.gamma(v[j] + (n + 1.0) / 2.0)
    return out


def _draw(rng, n, head, last):
    """Entries j < n uniform on ``head``, entry n uniform on ``last``."""
    return np.concatenate([rng.uniform(*head, size=n - 1),
                           rng.uniform(*last, size=1)])


def _in_range(checks) -> bool:
    return all(ok for ok, _ in checks)


class TestValues:
    def test_c1_n2_zero(self):
        assert C.c1(2, [0.0, 0.0]) == pytest.approx(1.0 / (16 * math.pi ** 2),
                                                    rel=1e-14)

    def test_c1_n1_zero_matches_gamma_integral(self):
        # normalizes int_0^inf e^{-4 pi y} dy = 1/(4 pi)
        assert C.c1(1, [0.0]) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)

    def test_c2_n1(self):
        # 2^s Gamma(s+2) / (pi Gamma(s+1))
        for s in (0.0, 0.75, -0.5):
            assert C.c2(1, [s]) == pytest.approx(
                2.0 ** s * (s + 1.0) / math.pi, rel=1e-13)

    def test_c3_n3_zero(self):
        # Gamma(1) Gamma(2)^2 / (2^4 pi^5)
        assert C.c3(3, [0.0, 0.0, 0.0]) == pytest.approx(
            1.0 / (16 * math.pi ** 5), rel=1e-13)

    def test_c5_n1_reference(self):
        # stated composite value; the true Beta-integral constant is 1
        assert C.c5(1, [2.0], [0.0]) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_negative_regime_sign(self):
        # the kernel normalizers continue past the Gamma poles as
        # rising-factorial polynomials, with the correct sign
        assert C.c2(1, [-1.5]) < 0
        assert C.c2(1, [-1.5]) == pytest.approx(
            2.0 ** -1.5 * (-0.5) / math.pi, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    def test_past_the_double_range_is_inf_without_warning(self, n):
        # the rising factorial and the exponential both overflow at n = 2;
        # at 1e308 so does log-gamma, and so would the linear log terms
        for value in (1e300, 1e308):
            huge = [value] * n
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert C.c1(n, huge) == C.c2(n, huge) == math.inf
                assert C.c3(n, huge) == C.c4(n, huge) == math.inf

    def test_positive_inside_primary_ranges(self, rng):
        for n in (1, 2, 3):
            for _ in range(100):
                s = np.concatenate([rng.uniform(-1.3, 2, size=n - 1),
                                    rng.uniform(-0.9, 2, size=1)])
                assert C.c1(n, s) > 0
                s3 = np.concatenate([rng.uniform(-(n + 1) / 2 + 0.1, 2, size=n - 1),
                                     rng.uniform(-0.9, 2, size=1)])
                assert C.c3(n, s3) > 0
                s2 = np.concatenate([rng.uniform(-1.3, 2, size=n - 1),
                                     rng.uniform(-0.9, 2, size=1)])
                assert C.c2(n, s2) > 0 and C.c4(n, s3) > 0


class TestRanges:
    @pytest.mark.parametrize("eps_ok", [1e-6])
    def test_boundaries(self, eps_ok):
        # strict inequalities: reject on and below the threshold, accept above
        with pytest.raises(ConvergenceDomainError):
            C.c1(2, [-1.5, 0.0])
        with pytest.raises(ConvergenceDomainError):
            C.c1(2, [-1.5 - 1e-6, 0.0])
        assert C.c1(2, [-1.5 + eps_ok, 0.0]) > 0
        with pytest.raises(ConvergenceDomainError):
            C.c1(2, [0.0, -1.0 - 1e-6])
        assert C.c1(2, [0.0, -1.0 + eps_ok]) > 0

    def test_violations_all_named(self):
        with pytest.raises(ConvergenceDomainError) as err:
            C.c5(2, [0.0, 0.0], [0.0, 0.0])
        # r_n gap, r_n > 0 and the j < n gap all fail and are all listed
        assert len(err.value.violations) == 3
        with pytest.raises(ConvergenceDomainError) as err:
            C.c8(2, [0.0, 0.0], [0.0, 0.0])
        assert len(err.value.violations) == 2


# The hand-written range predicates that the bound-vector rule replaced,
# kept as its reference: (ok, label, entry, bound, got) per condition, each
# comparison with the arithmetic it has always had.

def _ref_simple(n, v, label, lead, last):  # C1-C4, C6 and L25_constant
    bounds = [lead] * (n - 1) + [last]
    return [(v[j] > bounds[j], label, j + 1, bounds[j], v[j]) for j in range(n)]


def _ref_c5(n, rv, ev):
    top = ev[-1] + (n + 1.0) / 2.0
    checks = [(rv[-1] > top, "r", n, top, rv[-1]),
              (ev[-1] > -1.0, "eta", n, -1.0, ev[-1]),
              (rv[-1] > 0.0, "r", n, 0.0, rv[-1])]
    for j in range(n - 1):
        checks += [(rv[j] > ev[j] + n, "r", j + 1, ev[j] + n, rv[j]),
                   (ev[j] > -(n + 1.0) / 2.0, "eta", j + 1, -(n + 1.0) / 2.0, ev[j]),
                   (rv[j] > (1.0 - n) / 2.0, "r", j + 1, (1.0 - n) / 2.0, rv[j])]
    return checks


def _ref_c7(n, lv, rv, ev):
    k = rv + ev - lv
    checks = [(lv[-1] > -1.0, "l", n, -1.0, lv[-1]),
              (rv[-1] > 0.0, "r", n, 0.0, rv[-1]),
              (ev[-1] > (n + 1.0) / 2.0, "eta", n, (n + 1.0) / 2.0, ev[-1]),
              (k[-1] > n + 1.0, "(r + eta - l)", n, n + 1.0, k[-1])]
    for j in range(n - 1):
        checks += [(lv[j] > -(n + 1.0) / 2.0, "l", j + 1, -(n + 1.0) / 2.0, lv[j]),
                   (rv[j] > (n - 1.0) / 2.0, "r", j + 1, (n - 1.0) / 2.0, rv[j]),
                   (ev[j] > float(n), "eta", j + 1, float(n), ev[j]),
                   (k[j] > (3.0 * n + 1.0) / 2.0, "(r + eta - l)", j + 1,
                    (3.0 * n + 1.0) / 2.0, k[j])]
    return checks


def _ref_c8(n, lv, rv):
    g = rv - lv
    checks = [(lv[-1] > -1.0, "l", n, -1.0, lv[-1]),
              (g[-1] > n + 1.0, "(r - l)", n, n + 1.0, g[-1])]
    for j in range(n - 1):
        checks += [(lv[j] > -(n + 1.0) / 2.0, "l", j + 1, -(n + 1.0) / 2.0, lv[j]),
                   (g[j] > (3.0 * n + 1.0) / 2.0, "(r - l)", j + 1,
                    (3.0 * n + 1.0) / 2.0, g[j])]
    return checks


def _ref_violations(checks) -> list:
    return sorted(f"{label}[{j}] > {bound:g} (got {got})"
                  for ok, label, j, bound, got in checks if not ok)


def _near(rng, bounds) -> np.ndarray:
    """Per entry: the bound itself, one ulp above or below it, or a
    uniform draw within 1 of it."""
    out = []
    for b in np.asarray(bounds, dtype=float):
        k = rng.integers(4)
        out.append(b + rng.uniform(-1.0, 1.0) if k == 3 else
                   (b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf))[k])
    return np.array(out)


def _either(rng, a, b) -> np.ndarray:
    """Per entry, a near-bound draw from ``a`` or from ``b``."""
    return np.where(rng.integers(2, size=len(a)) == 1, a, b)


class TestRangeRule:
    """The bound-vector rule flags exactly the conditions the hand-written
    predicates flag, on draws on, one ulp around and near every bound, and
    each violation names its entry and numeric bound."""

    MESSAGE = re.compile(r"^(r|s|l|eta|bold r|\(r \+ eta - l\)|\(r - l\))"
                         r"\[(\d+)\] > (\S+) \(got \S+\)$")

    def _compare(self, n, new, ref):
        bad = sorted(msg for ok, msg in new if not ok)
        assert bad == _ref_violations(ref)
        for msg in bad:
            m = self.MESSAGE.match(msg)
            assert m and 1 <= int(m.group(2)) <= n, msg
            float(m.group(3))
        return not bad

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_violations_match_the_reference(self, n, rng):
        half = (n + 1.0) / 2.0
        simple = [(C.c1_range, C.c1, "s", -1.5, -1.0),
                  (C.c2_range, C.c2, "s", -2.5, -(n + 1.0)),
                  (C.c3_range, C.c3, "s", -half, -1.0),
                  (C.c4_range, C.c4, "s", -(n + 3.0) / 2.0, -(n + 1.0)),
                  (C.c6_range, C.c6, "r", 1.5, half)]
        lower = lambda lead, last: [lead] * (n - 1) + [last]  # noqa: E731
        for _ in range(300):
            for rule, value, label, lead, last in simple:
                s = _near(rng, lower(lead, last))
                if self._compare(n, rule(n, s), _ref_simple(n, s, label, lead, last)):
                    assert math.isfinite(value(n, s))

            eta = _near(rng, lower(-half, -1.0))
            r = _either(rng, _near(rng, eta + lower(n, half)),
                        _near(rng, lower((1.0 - n) / 2.0, 0.0)))
            if self._compare(n, C.c5_range(n, r, eta), _ref_c5(n, r, eta)):
                C.c5(n, r, eta)

            l = _near(rng, lower(-half, -1.0))
            eta = _near(rng, lower(n, half))
            k = _near(rng, lower((3.0 * n + 1.0) / 2.0, n + 1.0))
            r = _either(rng, k - eta + l, _near(rng, lower((n - 1.0) / 2.0, 0.0)))
            if self._compare(n, C.c7_range(n, l, r, eta), _ref_c7(n, l, r, eta)):
                C.c7(n, l, r, eta)

            r = l + _near(rng, lower((3.0 * n + 1.0) / 2.0, n + 1.0))
            if self._compare(n, C.c8_range(n, l, r), _ref_c8(n, l, r)):
                # c8 = c6 c5(r, l) takes every point c8_range takes
                assert math.isfinite(C.c8(n, l, r))

            rb = _near(rng, lower(2.0, half))
            ref = _ref_violations(_ref_simple(n, rb, "bold r", 2.0, half))
            try:
                L25_constant(n, rb)
                assert ref == []
            except ConvergenceDomainError as err:
                assert sorted(err.violations) == ref != []

    def test_bound_accessors(self):
        for n in (1, 2, 3, 4):
            l_lower, gap_lower = C.c8_bounds(n)
            assert list(l_lower) == [-(n + 1) / 2] * (n - 1) + [-1.0]
            assert list(gap_lower) == [(3 * n + 1) / 2] * (n - 1) + [n + 1.0]
            assert list(C.c7_bounds(n)) == list(gap_lower)


class TestLogVsDirect:
    def test_agreement(self, rng):
        for n in (1, 2, 3):
            for _ in range(200):
                s = np.concatenate([rng.uniform(-1.2, 3, size=n - 1),
                                    rng.uniform(-0.9, 3, size=1)])
                assert C.c1(n, s) == pytest.approx(c1_direct(n, s), rel=1e-12)
                assert C.c2(n, s) == pytest.approx(c2_direct(n, s), rel=1e-12)
                s3 = np.concatenate([rng.uniform(-(n + 1) / 2 + 0.2, 3, size=n - 1),
                                     rng.uniform(-0.9, 3, size=1)])
                assert C.c3(n, s3) == pytest.approx(c3_direct(n, s3), rel=1e-12)
                assert C.c4(n, s3) == pytest.approx(c4_direct(n, s3), rel=1e-12)


class TestShiftDegeneracy:
    def test_c1_equals_c3_at_n2(self, rng):
        for _ in range(300):
            s = np.array([rng.uniform(-1.2, 3), rng.uniform(-0.9, 3)])
            assert C.c1(2, s) == C.c3(2, s)


class TestCompositesVsDirect:
    def test_composites_match_direct_products(self, rng):
        # each composite against its defining product of direct references,
        # so a change to a composite formula fails here
        for n in (1, 2, 3):
            for _ in range(100):
                eta = _draw(rng, n, (-(n + 1) / 2 + 0.3, 2.0), (-0.7, 2.0))
                r = eta + _draw(rng, n, (n + 0.3, n + 3.0),
                                ((n + 1) / 2 + 0.3, n + 3.0))
                assert _in_range(C.c5_range(n, r, eta))
                assert C.c5(n, r, eta) == pytest.approx(
                    c4_direct(n, eta) * c4_direct(n, r - eta) / c4_direct(n, r),
                    rel=1e-12)

                r6 = _draw(rng, n, (1.6, 5.0), ((n + 1) / 2 + 0.1, 5.0))
                c6_ref = (2.0 ** (2 * n - 1 - np.sum(r6)) * c4_direct(n, r6)
                          / c4_direct(n, r6 / 2))
                assert C.c6(n, r6) == pytest.approx(c6_ref, rel=1e-12)

                l8 = _draw(rng, n, (-(n + 1) / 2 + 0.3, 1.5), (-0.7, 1.5))
                r8 = l8 + _draw(rng, n, ((3 * n + 1) / 2 + 0.3, 3 * n + 2.0),
                                (n + 1.3, 3 * n + 2.0))
                assert _in_range(C.c8_range(n, l8, r8))
                c8_ref = (2.0 ** (2 * n - 1 - np.sum(r8)) * c4_direct(n, r8)
                          / c4_direct(n, r8 / 2)
                          * c4_direct(n, l8) * c4_direct(n, r8 - l8)
                          / c4_direct(n, r8))
                assert C.c8(n, l8, r8) == pytest.approx(c8_ref, rel=1e-12)

            checked = 0
            while checked < 100:
                l7 = _draw(rng, n, (-(n + 1) / 2 + 0.1, 2.0), (-0.9, 2.0))
                r7 = _draw(rng, n, ((n - 1) / 2 + 0.1, n + 3.0), (0.1, n + 3.0))
                eta7 = _draw(rng, n, (n + 0.1, n + 3.0), ((n + 1) / 2 + 0.1, n + 3.0))
                if not _in_range(C.c7_range(n, l7, r7, eta7)):
                    continue
                checked += 1
                c7_ref = (c3_direct(n, l7) * c4_direct(n, r7 + l7 - eta7)
                          / (c4_direct(n, r7) * c4_direct(n, eta7)))
                assert C.c7(n, l7, r7, eta7) == pytest.approx(c7_ref, rel=1e-12)
