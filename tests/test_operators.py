import math

import numpy as np
import pytest

from conetube.errors import (ConvergenceDomainError, InfeasibleError,
                             InvalidInputError)
from conetube.geometry import TubePoint, delta_power
from conetube.identities import random_cone_vector
from conetube.indices import bold_values
from conetube.operators import (ParameterSet, Tf_R_norm_exponents,
                                _f_R_batch, admissible_lr, apply_T_closed,
                                apply_T_numeric, check_admissible,
                                dual_operator_eval, embed_R, f_R_eval,
                                f_R_norm_closed, f_R_norm_exponents,
                                f_R_norm_mc, fit_loglog,
                                image_norm_conditions,
                                make_test_function,
                                necessary_exponent_condition,
                                scaling_experiment)
from conetube.oracle import calibrated_constant


def tf_for(params, l, r, R=None):
    return make_test_function(params.n, l, r,
                              R if R is not None else [1.0] * params.n)


class TestParameterSet:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ParameterSet(n=1, p=1.0, q=2.0, alpha=(0,), beta=(0,), a=(0,),
                         b=(0,), c=(2,))
        with pytest.raises(InvalidInputError):
            ParameterSet(n=2, p=2.0, q=1.5, alpha=(0, 0), beta=(0, 0),
                         a=(0, 0), b=(0, 0), c=(3, 3))
        with pytest.raises(InvalidInputError):
            ParameterSet(n=2, p=2.0, q=2.0, alpha=(0,), beta=(0, 0),
                         a=(0, 0), b=(0, 0), c=(3, 3))

    @pytest.mark.parametrize("n, l, r, R", [
        (5, [2], [4], [1]), (2, [2, 2], [4, 4, 4], [1, 1]),
        (2, [2, 2], [4, 4], [1]), (2, 2, 4, 1)])
    def test_test_function_lengths_match_n(self, n, l, r, R):
        with pytest.raises(InvalidInputError, match="length n"):
            make_test_function(n, l, r, R)
        assert make_test_function(1, 2, 4, 1).n == 1


class TestAdmissibleLR:
    def test_worked_set_all_strict(self, worked_params):
        l, r = admissible_lr(worked_params)
        assert check_admissible(worked_params, l, r) == []

    def test_monotone_in_b(self, worked_params):
        # enlarging b_j never shrinks the feasible set: the previous pair
        # stays admissible after the bump
        l, r = admissible_lr(worked_params)
        bumped = ParameterSet(n=2, p=2.0, q=2.0, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(1.0, 1.0), c=(3.0, 3.0))
        assert check_admissible(bumped, l, r) == []

    def test_n1_only_last_block(self):
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2,))
        l, r = admissible_lr(params)
        assert l.n == 1 and check_admissible(params, l, r) == []


class TestPointwise:
    def test_diagonal_real_positive(self, rng):
        params = ParameterSet(n=2, p=2.0, q=2.0, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(0, 0), c=(3, 3))
        tf = tf_for(params, [2, 2], [4, 4])
        y = np.array([1.3, 0.9, 0.0])  # diagonal imaginary part
        w = TubePoint.make(np.zeros(3), y)
        val = f_R_eval(w, tf)
        assert abs(val.imag) < 1e-15 and val.real > 0

    def test_n1_value(self):
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2,))
        tf = tf_for(params, [0], [2])
        assert f_R_eval(TubePoint.make([0.0], [1.0]), tf) == pytest.approx(0.25)

    def test_modulus_bound(self, rng):
        # |f_R(w)| <= delta^l(Im w) delta^{-r}(Im w + R)
        params = ParameterSet(n=2, p=2.0, q=2.0, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(0, 0), c=(3, 3))
        tf = tf_for(params, [2, 2], [4, 4])
        Remb = embed_R(tf.R, 2)
        for _ in range(100):
            y = random_cone_vector(2, rng)
            x = rng.uniform(-2, 2, size=3)
            w = TubePoint.make(x, y)
            bound = (delta_power(y, tf.l.values)
                     * delta_power(y + Remb, -tf.r.values))
            assert abs(f_R_eval(w, tf)) <= bound * (1 + 1e-12)


class TestNormExponents:
    def test_worked_exponents(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        assert np.allclose(f_R_norm_exponents(worked_params, tf), [-0.5, -0.5])
        assert np.allclose(Tf_R_norm_exponents(worked_params, tf), [-0.5, -0.5])

    def test_norm_closed_power_law(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        closed = f_R_norm_closed(worked_params, tf)
        # R = 1 kills all powers: norm equals the constant alone
        assert closed.value([1.0, 1.0]) == pytest.approx(closed.constant_stated)
        assert closed.value([2.0, 1.0]) == pytest.approx(
            closed.constant_stated * 2.0 ** -0.5)

    def test_norm_closed_range_check(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [2.5, 2.5])  # p r - p l too small
        with pytest.raises(ConvergenceDomainError):
            f_R_norm_closed(worked_params, tf)

    def test_exponent_matching_under_forced_c(self, rng):
        # substituting the forced c makes the two exponent vectors equal
        for n in (1, 2, 3):
            for _ in range(20):
                p = float(rng.uniform(1.2, 2.5))
                q = float(rng.uniform(p, 3.5))
                alpha = tuple(rng.uniform(-0.5, 2, size=n))
                beta = tuple(rng.uniform(-0.5, 2, size=n))
                a = tuple(rng.uniform(-0.5, 1, size=n))
                b = tuple(rng.uniform(-0.5, 1, size=n))
                params = ParameterSet(n=n, p=p, q=q, alpha=alpha, beta=beta,
                                      a=a, b=b, c=(1.0,) * n)
                c = necessary_exponent_condition(params)
                params = ParameterSet(n=n, p=p, q=q, alpha=alpha, beta=beta,
                                      a=a, b=b, c=tuple(c))
                tf = tf_for(params, rng.uniform(0, 2, size=n),
                            rng.uniform(4, 6, size=n))
                assert np.allclose(f_R_norm_exponents(params, tf),
                                   Tf_R_norm_exponents(params, tf),
                                   rtol=0, atol=1e-12)

    def test_forced_c_values(self, worked_params):
        assert np.allclose(necessary_exponent_condition(worked_params), [3, 3])
        # p = q, alpha = beta, a = b = 0 collapses to n + 1
        params = ParameterSet(n=3, p=1.7, q=1.7, alpha=(0.3, 0.1, 0.5),
                              beta=(0.3, 0.1, 0.5), a=(0, 0, 0), b=(0, 0, 0),
                              c=(4, 4, 4))
        assert np.allclose(necessary_exponent_condition(params), [4, 4, 4])
        # n = 1 worked arithmetic: a+b+n+1 + (beta+2)/q - (alpha+2)/p
        params = ParameterSet(n=1, p=1.5, q=3.0, alpha=(0.5,), beta=(1.0,),
                              a=(0.0,), b=(0.0,), c=(2.0,))
        assert necessary_exponent_condition(params)[0] == pytest.approx(4 / 3)


class TestApplyT:
    def test_image_real_positive_on_diagonal(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        z = TubePoint.make(np.zeros(3), np.array([1.2, 0.8, 0.0]))
        # structural factor is exactly real and positive on the diagonal
        val = apply_T_closed(z, worked_params, tf, constant=1.0)
        assert val.real > 0 and abs(val.imag) < 1e-13 * val.real
        # the MC-calibrated constant carries only statistical imaginary dust
        cal = calibrated_constant("L26", 2, {"l": [2.0, 2.0], "r": [3.0, 3.0],
                                             "eta": [4.0, 4.0]},
                                  budget=400_000)
        assert abs(complex(cal).imag) < 1e-2 * abs(complex(cal).real)

    def test_zero_function_maps_to_zero(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        z = TubePoint.make([0.1, 0, 0], [1.0, 1, 0])

        def zero(x, v):
            return np.zeros(x.shape[0], dtype=complex)

        est = apply_T_numeric(z, worked_params, zero, budget=20_000, seed=1,
                              tf=tf)
        assert est.value == 0

    def test_linearity_under_common_randoms(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        z = TubePoint.make([0.1, 0, 0], [1.0, 1, 0])
        f = _f_R_batch(tf)

        def f2(x, v):
            return 2.0 * f(x, v)

        a = apply_T_numeric(z, worked_params, f, budget=50_000, seed=7, tf=tf)
        b = apply_T_numeric(z, worked_params, f2, budget=50_000, seed=7, tf=tf)
        assert b.value == pytest.approx(2.0 * a.value, rel=1e-12)

    def test_closed_matches_numeric_n1(self):
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2,))
        tf = tf_for(params, [0.5], [3])
        z = TubePoint.make([0.2], [1.3])
        cal = calibrated_constant("L26", 1, {"l": [0.5], "r": [2.0],
                                             "eta": [3.0]})
        closed = apply_T_closed(z, params, tf, constant=cal)
        est = apply_T_numeric(z, params, _f_R_batch(tf), budget=400_000,
                              seed=3, tf=tf)
        assert abs(est.value - closed) <= 3 * est.std_error

    def test_image_range_check(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [2.0, 2.0])  # eta role too small
        z = TubePoint.make([0.0, 0, 0], [1.0, 1, 0])
        with pytest.raises(ConvergenceDomainError):
            apply_T_closed(z, worked_params, tf)


class TestDual:
    def test_zero_function(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        z = TubePoint.make([0.1, 0, 0], [1.0, 1, 0])

        def zero(x, v):
            return np.zeros(x.shape[0], dtype=complex)

        est = dual_operator_eval(z, worked_params, zero, budget=20_000,
                                 seed=1, tf=tf)
        assert est.value == 0

    def test_self_dual_structure(self):
        # a = b, alpha = beta = 0, p = q: the dual weights collapse onto the
        # primal ones, so the two estimators agree sample for sample
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0.0,), beta=(0.0,),
                              a=(0.4,), b=(0.4,), c=(2.8,))
        tf = tf_for(params, [0.5], [3])
        z = TubePoint.make([0.1], [1.2])
        f = _f_R_batch(tf)
        a = apply_T_numeric(z, params, f, budget=40_000, seed=9, tf=tf)
        b = dual_operator_eval(z, params, f, budget=40_000, seed=9, tf=tf)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_duality_pairing_two_estimates(self):
        # <Tf, g>_beta and <f, T*g>_alpha as two independently seeded MC
        # estimates of the same bilinear form
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0.2,), beta=(0.5,),
                              a=(0.3,), b=(0.6,), c=(3.0,))
        tff = tf_for(params, [0.5], [3.2])
        tfg = tf_for(params, [0.8], [3.6])
        n = params.n
        ff, gg = _f_R_batch(tff), _f_R_batch(tfg)
        a_b = bold_values(params.vec("a"), n)
        b_b = bold_values(params.vec("b"), n)
        al_b = bold_values(params.vec("alpha"), n)
        be_b = bold_values(params.vec("beta"), n)
        c_b = bold_values(params.vec("c"), n)
        from conetube.geometry import (complex_minors,
                                       complex_power_from_minors,
                                       minor_exponents)
        from conetube.identities import _log_unchecked_power
        from conetube.oracle import mc_integrate_tube
        from conetube.identities import tube_proposal
        w_b = b_b + tff.l.values
        spec = tube_proposal(n, w_b, c_b + tff.r.values - w_b - (n + 1.0) / 2.0,
                             np.maximum(0.5 * (1.0 + np.asarray(tff.R)), 0.3),
                             np.zeros(1))
        ec = minor_exponents(c_b)

        def make_form(swap):
            def form(x, v):
                # split the pair stream into z-part and w-part
                half = x.shape[0] // 2
                xz, yz = x[:half], v[:half]
                xw, vw = x[half:2 * half], v[half:2 * half]
                zeta = (yz + vw) - 1j * (xz - xw)
                kern = complex_power_from_minors(complex_minors(zeta), ec)
                val = (np.exp(_log_unchecked_power(yz, a_b + be_b)
                              + _log_unchecked_power(vw, b_b))
                       * ff(xw, vw) * np.conj(gg(xz, yz)) / kern)
                out = np.zeros(x.shape[0], dtype=complex)
                # compensate the doubled density of the pair (z, w)
                out[:half] = 2.0 * val
                return out
            return form

        # both orders estimate the same pairing; different seeds
        est1 = mc_integrate_tube(make_form(False), spec, 400_000, seed=21)
        est2 = mc_integrate_tube(make_form(True), spec, 400_000, seed=87)
        sigma = math.hypot(est1.std_error, est2.std_error)
        assert abs(est1.value - est2.value) <= 3 * sigma


class TestScalingExperiment:
    def test_single_point_grid_is_error(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        with pytest.raises(InfeasibleError):
            scaling_experiment(worked_params, tf, [1.0], budget=1000, seed=0)

    def test_fit_loglog(self):
        # exact power law recovered
        R = [1.0, 2.0, 4.0, 8.0]
        y = [3.0 * r ** -0.5 for r in R]
        slope, se = fit_loglog(R, y, [1e-6 * v for v in y])
        assert slope == pytest.approx(-0.5, abs=1e-9)

    def test_n1_smoke(self):
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2,))
        tf = tf_for(params, [0.5], [3])
        report = scaling_experiment(params, tf, [1.0, 2.0, 4.0],
                                    budget=60_000, seed=4)
        c0 = report.coordinates[0]
        assert c0.f_slope == pytest.approx(c0.f_analytic,
                                           abs=max(0.05, 5 * c0.f_slope_se))


class TestMembershipBoundary:
    def test_finite_side_is_stable(self, worked_params):
        # just inside the finiteness range the estimate is budget-stable
        tf = tf_for(worked_params, [2, 2], [4, 4])
        n1, s1 = f_R_norm_mc(worked_params, tf, 100_000, 5)
        n2, s2 = f_R_norm_mc(worked_params, tf, 1_600_000, 6)
        assert abs(n1 - n2) <= 5 * math.hypot(s1, s2)

    def test_divergent_side_grows_with_budget(self):
        # past the r_n - l_n boundary the p-norm integral diverges; the
        # truncated-by-sampling estimates drift upward with budget
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2,))
        # p(r - l) = 1.5 < n + 1 = 2: divergent at infinity
        tf = tf_for(params, [0.5], [1.25])
        vals = []
        for budget, seed in ((50_000, 1), (800_000, 2), (12_800_000, 3)):
            est, _ = f_R_norm_mc(params, tf, budget, seed)
            vals.append(est)
        assert vals[2] > vals[0] * 1.15


class TestImageNormConditions:
    def test_no_gap_on_worked_set(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        report = image_norm_conditions(worked_params, tf)
        assert report["gaps"] == []
        assert all(ok for _, ok, _ in report["stated"])
        assert all(ok for _, ok, _ in report["derived"])

    def test_double_subtraction_gap_is_reported(self):
        # the stated display subtracts b twice; with b > 0 there are pairs
        # where the derived condition holds but the stated one does not, and
        # the report surfaces exactly that
        params = ParameterSet(n=2, p=2.0, q=2.0, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(1.2, 1.2), c=(3, 3))
        tf = tf_for(params, [2.0, 2.0], [5.6, 5.6])
        report = image_norm_conditions(params, tf)
        assert report["gaps"] == ["stated:gap[1]", "stated:gap[2]"]
        assert all(ok for _, ok, _ in report["derived"])


class TestClosedVsNumericSweep:
    def test_five_random_configurations(self, rng):
        # closed image (calibrated constant) vs direct MC application,
        # within 3 sigma, across five random configurations at n in {1, 2}
        from conetube.geometry import TubePoint
        from conetube.identities import random_cone_vector
        checked = 0
        for k in range(5):
            n = 1 if k < 3 else 2
            b = tuple(rng.uniform(0.0, 0.6, size=n))
            c = tuple(rng.uniform(n + 0.6, n + 1.6, size=n))
            params = ParameterSet(n=n, p=2.0, q=2.0, alpha=(0.0,) * n,
                                  beta=(0.0,) * n, a=tuple(rng.uniform(0, 0.5, size=n)),
                                  b=b, c=c)
            l = rng.uniform(0.2, 0.8, size=n)
            r = np.concatenate([
                rng.uniform(n + 1.0, n + 2.0, size=n - 1),
                rng.uniform((n + 1) / 2.0 + 0.8, (n + 1) / 2.0 + 1.8, size=1)])
            gap = (np.asarray(c) + r - np.asarray(b) - l
                   - np.concatenate([np.full(n - 1, (3 * n + 1) / 2.0),
                                     [n + 1.0]]))
            r += np.maximum(0.5 - gap, 0.0)
            tf = tf_for(params, l, r)
            z = TubePoint.make(rng.uniform(-0.2, 0.2, size=2 * n - 1),
                               random_cone_vector(n, rng))
            cal = calibrated_constant(
                "L26", n, {"l": params.vec("b") + l, "r": params.vec("c"),
                           "eta": r}, budget=1_500_000)
            closed = apply_T_closed(z, params, tf, constant=cal)
            est = apply_T_numeric(z, params, _f_R_batch(tf),
                                  budget=800_000, seed=100 + k, tf=tf)
            assert abs(est.value - closed) <= 3 * est.std_error, \
                (k, n, est.value, closed, est.std_error)
            checked += 1
        assert checked == 5
