import math

import numpy as np
import pytest

from conetube import constants as C
from conetube.constants import audit_constant_identities
from conetube.errors import ConvergenceDomainError


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


class TestLogVsDirect:
    def test_agreement(self, rng):
        for n in (1, 2, 3):
            for _ in range(200):
                s = np.concatenate([rng.uniform(-1.2, 3, size=n - 1),
                                    rng.uniform(-0.9, 3, size=1)])
                assert C.c1(n, s) == pytest.approx(C.c1_direct(n, s), rel=1e-12)
                assert C.c2(n, s) == pytest.approx(C.c2_direct(n, s), rel=1e-12)
                s3 = np.concatenate([rng.uniform(-(n + 1) / 2 + 0.2, 3, size=n - 1),
                                     rng.uniform(-0.9, 3, size=1)])
                assert C.c3(n, s3) == pytest.approx(C.c3_direct(n, s3), rel=1e-12)
                assert C.c4(n, s3) == pytest.approx(C.c4_direct(n, s3), rel=1e-12)


class TestShiftDegeneracy:
    def test_c1_equals_c3_at_n2(self, rng):
        for _ in range(300):
            s = np.array([rng.uniform(-1.2, 3), rng.uniform(-0.9, 3)])
            assert C.c1(2, s) == C.c3(2, s)


class TestCompositionAudit:
    def test_audit_passes(self):
        for n in (1, 2, 3):
            report = audit_constant_identities(n, trials=120, seed=7)
            assert report.passed, report.mismatches

    def test_zero_shift_entry_present(self):
        report = audit_constant_identities(2, trials=50, seed=3)
        names = [e["check"] for e in report.entries]
        assert "C1 == C3 at n=2 (zero shift)" in names
