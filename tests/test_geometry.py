import numpy as np
import pytest

from conetube.errors import (BranchCutError, ConeDomainError,
                             InvalidInputError)
from conetube.geometry import (ConePoint, TubePoint, assemble_arrowhead,
                               canonical_to_coords, complex_minors,
                               complex_power_from_minors, complex_power_P,
                               coords_to_canonical, delta_power,
                               delta_transform_parts, is_in_cone,
                               leading_minors, leading_minors_dense, minors,
                               schur_complement, schur_real_part)
from conetube.identities import random_cone_vector
from conetube.indices import MultiIndex, bold_values


class TestArrowhead:
    def test_degenerate_n1(self):
        assert assemble_arrowhead([5.0]).tolist() == [[5.0]]

    def test_identity_case(self):
        assert assemble_arrowhead([1.0, 1.0, 0.0]).tolist() == [[1, 0], [0, 1]]

    def test_index_mapping_n2(self):
        assert assemble_arrowhead([2.0, 3.0, 1.0]).tolist() == [[2, 1], [1, 3]]

    def test_index_mapping_n3(self):
        m = assemble_arrowhead([1.0, 2, 3, 4, 5])
        # border partner of diagonal j is coordinate 2n - j
        assert m[0, 2] == 5 and m[1, 2] == 4 and m[2, 2] == 3
        assert np.allclose(m, m.T)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            assemble_arrowhead([1.0, 2.0])


class TestMembership:
    def test_examples(self):
        assert is_in_cone([1.0, 1.0, 0.0]) is True
        assert is_in_cone([1.0, 1.0, 1.0]) is False  # det = 0 boundary
        assert is_in_cone([2.0, 3.0, 1.0]) is True

    def test_total_on_garbage(self):
        assert is_in_cone([-1.0, 2.0, 0.5]) is False
        assert is_in_cone([0.0, 1.0, 0.0]) is False

    def test_equivalent_to_positive_definiteness(self, rng):
        # membership iff all leading dense minors positive
        pts = rng.uniform(-1.0, 2.0, size=(4000, 5))
        member = is_in_cone(pts)
        dense = leading_minors_dense(pts)
        pd = np.all(dense > 0, axis=-1)
        assert np.array_equal(member, pd)


class TestMinors:
    def test_examples(self):
        assert np.allclose(minors(np.array([1.0, 1, 0])), [1, 1])
        assert np.allclose(minors(np.array([2.0, 3, 1])), [2, 5])
        assert np.allclose(minors(np.array([1.0, 1, 1, 0, 0])), [1, 1, 1])

    def test_domain_error(self):
        with pytest.raises(ConeDomainError):
            minors(np.array([1.0, 1.0, 1.0]))

    def test_dense_determinant_agreement(self, rng):
        # product/Schur factorization vs dense determinants, rel 1e-12
        for n in (1, 2, 3, 4):
            pts = np.stack([random_cone_vector(n, rng, 0.2, 3.0)
                            for _ in range(25_000)])
            fast = leading_minors(pts)
            dense = leading_minors_dense(pts)
            assert np.max(np.abs(fast - dense) / np.abs(dense)) < 1e-12


class TestDeltaPower:
    def test_unit_minors(self):
        assert delta_power([1.0, 1, 0], [7.0, -3.0]) == pytest.approx(1.0)

    def test_second_minor(self):
        assert delta_power([2.0, 3, 1], [1.0, 1.0]) == pytest.approx(5.0)

    def test_product_form(self):
        assert delta_power([4.0, 2, 2], [2.0, 1.0]) == pytest.approx(16.0)

    def test_accepts_multiindex_literally(self):
        from conetube.indices import Convention
        s = MultiIndex((2.0, 1.0), Convention.SHIFTED)
        assert delta_power([4.0, 2, 2], s) == pytest.approx(16.0)

    def test_factorization_identity(self, rng):
        # minor-product form == prod y_j^{s_j} D^{s_n} to rel 1e-12
        for n in (2, 3, 4):
            for _ in range(200):
                y = random_cone_vector(n, rng)
                s = rng.uniform(-2, 2, size=n)
                mins = leading_minors(y)
                e = s.copy()
                e[:-1] -= s[1:]
                via_minors = np.prod(mins ** e)
                assert delta_power(y, s) == pytest.approx(via_minors, rel=1e-12)

    def test_homogeneity(self, rng):
        for n in (1, 2, 3):
            y = random_cone_vector(n, rng)
            s = rng.uniform(-1.5, 2, size=n)
            for lam in (0.5, 2.0, 4.0):
                assert delta_power(lam * y, s) == pytest.approx(
                    lam ** np.sum(s) * delta_power(y, s), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ConeDomainError):
            delta_power([1.0, 1.0, 1.5], [1.0, 1.0])


class TestDeltaTransform:
    def test_unit(self):
        q, tn = delta_transform_parts(np.array([1.0, 1, 0]))
        assert q.tolist() == [4.0] and tn == 1.0

    def test_formula(self):
        q, tn = delta_transform_parts(np.array([2.0, 3, 1]))
        assert q[0] == pytest.approx(8.0 - 1.0 / 3.0)
        assert tn == 3.0

    def test_n1_no_border(self):
        q, tn = delta_transform_parts(np.array([2.7]))
        assert q.shape == (0,) and tn == 2.7

    def test_positivity_on_cone(self, rng):
        for n in (2, 3):
            for _ in range(300):
                q, _ = delta_transform_parts(random_cone_vector(n, rng, 0.2, 3.0))
                assert np.all(q > 0)


class TestComplexPower:
    def test_x_zero_reduces_to_delta_power(self, rng):
        for n in (1, 2, 3):
            y = random_cone_vector(n, rng)
            s = rng.uniform(-2, 2, size=n)
            z = TubePoint.make(np.zeros(2 * n - 1), y)
            assert complex_power_P(z, s) == pytest.approx(delta_power(y, s),
                                                          rel=1e-13)

    def test_n1_principal_branch_modulus(self):
        z = TubePoint.make([0.7], [1.2])
        r = 1.6
        val = complex_power_P(z, [-r])
        assert abs(val) == pytest.approx((0.7 ** 2 + 1.2 ** 2) ** (-r / 2.0))

    def test_n2_second_minor_value(self):
        # minor-power bookkeeping: s = (1,1) is the full determinant minor
        z = TubePoint.make([1.0, 0, 0], [1.0, 1, 0])
        assert complex_power_P(z, [1.0, 1.0]) == pytest.approx(1 - 1j)
        # while s = (0,1) is the Schur factor alone
        assert complex_power_P(z, [0.0, 1.0]) == pytest.approx(1.0 + 0j)

    def test_continuity_at_axis(self, rng):
        for n in (1, 2, 3):
            y = random_cone_vector(n, rng)
            s = rng.uniform(-1.5, 1.5, size=n)
            x = 1e-8 * rng.uniform(-1, 1, size=2 * n - 1)
            z = TubePoint.make(x, y)
            assert complex_power_P(z, s) == pytest.approx(
                delta_power(y, s), rel=1e-6)

    def test_schur_real_part_matches_minor_ratio(self, rng):
        # Re(M_n / M_{n-1}) ignores u_n and is at least D(v) > 0
        for n in (1, 2, 3):
            v = random_cone_vector(n, rng)
            u = rng.uniform(-10.0, 10.0, size=(500, 2 * n - 1))
            mins = complex_minors(v - 1j * u)
            ratio = mins[:, -1] / mins[:, -2] if n > 1 else mins[:, 0]
            re_s = schur_real_part(v, u)
            assert np.allclose(re_s, ratio.real, rtol=1e-9, atol=0.0)
            assert np.all(re_s >= schur_complement(v))
            shifted = u.copy()
            shifted[:, n - 1] += 7.0
            assert np.array_equal(schur_real_part(v, shifted), re_s)

    def test_branch_cut_error_carries_index(self):
        mins = np.array([1.0 + 1j, -2.0 + 0.0j, 3.0 + 0j])
        with pytest.raises(BranchCutError) as err:
            complex_power_from_minors(mins, np.array([1.0, 1.0, 1.0]))
        assert err.value.minor_index == 2


class TestValueTypes:
    def test_cone_point_rejects_outside(self):
        with pytest.raises(ConeDomainError):
            ConePoint.from_coords([1.0, 1.0, 1.5])

    def test_cone_point_rejects_boundary(self):
        with pytest.raises(ConeDomainError, match="boundary"):
            ConePoint.from_coords([1.0, 1.0, 1.0 - 1e-16])

    def test_tube_point(self):
        z = TubePoint.make([0.5, 0, 0], [2.0, 3, 1])
        assert z.n == 2
        assert np.allclose(z.zeta, [2.0 - 0.5j, 3.0, 1.0])
        with pytest.raises(InvalidInputError):
            TubePoint.make([0.5], [2.0, 3, 1])


class TestCanonical:
    def test_round_trip(self, rng):
        for n in (1, 2, 3):
            pts = np.stack([random_cone_vector(n, rng) for _ in range(100)])
            y, u, d = coords_to_canonical(pts)
            back = canonical_to_coords(y, u, d)
            assert np.allclose(back, pts, rtol=1e-14, atol=0)

    def test_image_in_cone(self, rng):
        y = rng.uniform(0.05, 3.0, size=(500, 2))
        u = rng.uniform(-10.0, 10.0, size=(500, 2))
        d = rng.uniform(0.01, 3.0, size=500)
        coords = canonical_to_coords(y, u, d)
        assert np.all(is_in_cone(coords))
        assert np.allclose(schur_complement(coords), d, rtol=1e-9)


class TestTranslateInequalities:
    """The three pointwise translate inequalities, on their honest range."""

    def test_determinant_monotone_full_range(self, rng):
        for n in (2, 3):
            y = np.stack([random_cone_vector(n, rng) for _ in range(2000)])
            b = np.stack([random_cone_vector(n, rng) for _ in range(2000)])
            dy = leading_minors(y)[:, -1]
            dyb = leading_minors(y + b)[:, -1]
            assert np.all(dyb >= dy - 1e-12 * np.abs(dy))

    def test_power_monotone_nonnegative_shifted(self, rng):
        for n in (2, 3):
            for _ in range(300):
                y = random_cone_vector(n, rng)
                b = random_cone_vector(n, rng)
                s_plain = rng.uniform(0.0, 3.0, size=n)
                sb = bold_values(s_plain, n)
                assert delta_power(y + b, -sb) <= delta_power(y, -sb) * (1 + 1e-12)

    def test_modulus_bound_and_equality_at_zero(self, rng):
        for n in (2, 3):
            for _ in range(300):
                y = random_cone_vector(n, rng)
                x = rng.uniform(-2.0, 2.0, size=2 * n - 1)
                s_plain = rng.uniform(0.0, 3.0, size=n)
                sb = bold_values(s_plain, n)
                z = TubePoint.make(x, y)
                assert abs(complex_power_P(z, -sb)) <= \
                    delta_power(y, -sb) * (1 + 1e-12)
                z0 = TubePoint.make(np.zeros(2 * n - 1), y)
                assert abs(complex_power_P(z0, -sb)) == pytest.approx(
                    delta_power(y, -sb), rel=1e-12)

    def test_stated_range_counterexample(self):
        # the stated range reaches s'_j ~ -(n+3)/2; deep negative shifted
        # entries flip the translate inequality, so the fuzz suite samples
        # the nonnegative-shifted range and this case documents the boundary
        y = np.array([1.0, 1.0, 0.0])
        b = np.array([1.0, 1.0, 0.0])
        sb = np.array([-2.0, 0.0])  # inside the stated range at n = 2
        assert delta_power(y + b, -sb) > delta_power(y, -sb)
