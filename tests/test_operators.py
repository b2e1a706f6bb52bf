import math

import numpy as np
import pytest

from conetube.errors import (AccuracyError, ConvergenceDomainError,
                             InfeasibleError, InvalidInputError)
from conetube.geometry import TubePoint
from conetube.identities import (check_params, closed_value, get_identity,
                                 random_cone_vector)
from conetube.operators import (ParameterSet, Tf_R_norm_exponents,
                                _image_norm_params, _image_params,
                                check_norm_ranges, embed_R,
                                f_R_norm_exponents, f_R_norm_mc, fit_loglog,
                                make_test_function,
                                necessary_exponent_condition,
                                scaling_experiment)
from conetube import operators, oracle
from conetube.oracle import (calibrated_constant, oracle_estimate,
                             quad_supported, verify_identity)


def tf_for(params, l, r, R=None):
    return make_test_function(params.n, l, r,
                              R if R is not None else [1.0] * params.n)


def xi_of(tf):
    """xi = iR, the point at which T f_R is the two-kernel identity (L26)."""
    return TubePoint.make(np.zeros(2 * tf.n - 1), embed_R(tf.R, tf.n))


def _l26_constant(n, ip, cal_budget):
    """L26's constant at ``ip``: the quadrature fit where quadrature
    reaches, elsewhere the fitted constant of a Monte Carlo record of
    ``cal_budget`` draws."""
    if quad_supported("L26", n):
        return calibrated_constant("L26", n, ip)
    return verify_identity("L26", ip, get_identity("L26").point.reference(n),
                           budget=cal_budget, seed=20_260_809,
                           method="mc").fitted_constant


def _assert_closed_matches_mc(params, tf, z, budget, seed, cal_budget=None):
    """L26 at the image parameters: calibrated closed value vs the Monte
    Carlo left-hand side at (z, iR), within 3 sigma."""
    ip = _image_params(params, tf)
    cal = _l26_constant(params.n, ip, cal_budget)
    closed = closed_value("L26", ip, (z, xi_of(tf)), cal)
    est = oracle_estimate("L26", ip, (z, xi_of(tf)), budget, seed,
                          method="mc")
    assert abs(est.value - closed) <= 3 * est.std_error, \
        (params.n, est.value, closed, est.std_error)


def _stated_image_norm_gaps(params, tf):
    """Second-inequality margins of the stated image-norm display, which
    subtracts b twice: c - b - a - (n+1) + r - b - l - beta/q - off/q."""
    n, q = params.n, params.q
    off = np.concatenate([np.full(n - 1, (3 * n + 1) / 2.0), [n + 1.0]])
    b = params.vec("b")
    return (params.vec("c") - b - params.vec("a") - (n + 1.0)
            + tf.r_plain() - b - tf.l_plain() - params.vec("beta") / q
            - off / q)


def _derived_image_norm_gaps(params, tf):
    """L27's r - l - off margins at the image's weighted pair."""
    n = params.n
    off = np.concatenate([np.full(n - 1, (3 * n + 1) / 2.0), [n + 1.0]])
    pair = _image_norm_params(params, tf)
    return pair["r"] - pair["l"] - off


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


class TestNormExponents:
    def test_worked_exponents(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        assert np.allclose(f_R_norm_exponents(worked_params, tf), [-0.5, -0.5])
        assert np.allclose(Tf_R_norm_exponents(worked_params, tf), [-0.5, -0.5])

    def test_norm_closed_range_check(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [2.5, 2.5])  # p r - p l too small
        with pytest.raises(ConvergenceDomainError):
            check_norm_ranges(worked_params, tf)

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
    """T f_R(z) is delta^a(Im z) times L26 at the image parameters, xi = iR."""

    def test_image_real_positive_on_diagonal(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        z = TubePoint.make(np.zeros(3), np.array([1.2, 0.8, 0.0]))
        # structural factor is exactly real and positive on the diagonal
        val = complex(closed_value("L26", _image_params(worked_params, tf),
                                   (z, xi_of(tf)), constant=1.0))
        assert val.real > 0 and abs(val.imag) < 1e-13 * val.real
        # the MC-fitted constant carries only statistical imaginary dust
        cal = _l26_constant(2, {"l": [2.0, 2.0], "r": [3.0, 3.0],
                                "eta": [4.0, 4.0]}, cal_budget=400_000)
        assert abs(complex(cal).imag) < 1e-2 * abs(complex(cal).real)

    def test_image_range_check(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [2.0, 2.0])  # eta role too small
        with pytest.raises(ConvergenceDomainError, match=r"eta\[1\] > 2 "):
            check_params("L26", 2, _image_params(worked_params, tf))

    def test_closed_matches_numeric_n1(self):
        # calibrated closed image vs the Monte Carlo left-hand side, within
        # 3 sigma; delta^a(Im z) multiplies both sides and is left out
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2,))
        tf = tf_for(params, [0.5], [3])
        _assert_closed_matches_mc(params, tf, TubePoint.make([0.2], [1.3]),
                                  budget=400_000, seed=3)


class TestScalingExperiment:
    def test_single_point_grid_is_error(self, worked_params):
        tf = tf_for(worked_params, [2, 2], [4, 4])
        with pytest.raises(InfeasibleError):
            scaling_experiment(worked_params, tf, [1.0], budget=1000, seed=0)
        with pytest.raises(InfeasibleError):
            scaling_experiment(worked_params, tf, [2.0, 2.0], budget=1000,
                               seed=0)

    def test_fit_loglog(self):
        # exact power law recovered
        R = [1.0, 2.0, 4.0, 8.0]
        y = [3.0 * r ** -0.5 for r in R]
        slope, se = fit_loglog(R, y, [1e-6 * v for v in y])
        assert slope == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("n, reach, how", [
        (1, True, "quad"), (2, True, "quad"), (3, True, "mc"),
        (2, False, "mc")])
    def test_norm_method(self, monkeypatch, n, reach, how):
        # the norms are taken by quadrature wherever it reaches L24
        # (n <= 2) and drawn elsewhere; the report says which
        calls = []

        def norm(params, tf, budget, seed, method):
            calls.append(method)
            return tf.R[0] ** -0.5, 1e-3

        monkeypatch.setattr(operators, "f_R_norm_mc", norm)
        monkeypatch.setattr(operators, "Tf_R_norm_mc", norm)
        if not reach:  # pins Monte Carlo where quadrature would reach
            monkeypatch.setattr(operators, "quad_supported", lambda *a: False)
        params = ParameterSet(n=n, p=2.0, q=2.0, alpha=(0,) * n, beta=(0,) * n,
                              a=(0,) * n, b=(0,) * n, c=(n + 1.0,) * n)
        tf = tf_for(params, [0.5] * n, [n + 2.0] * n)
        report = scaling_experiment(params, tf, [1.0, 2.0], 5000, 1,
                                    coordinates=[0])
        assert calls == [how] * 4
        assert report.method == (
            {"name": "QUAD_ITERATED", "rel_tol": 1e-8} if how == "quad"
            else {"name": "MC_CONE", "budget": 5000})

    def test_uncertified_quadrature_norm_is_drawn(self, monkeypatch):
        # a norm whose quadrature raises AccuracyError is drawn instead,
        # and the report counts it
        calls = []

        def norm(params, tf, budget, seed, method):
            calls.append(method)
            if method == "quad" and tf.R[0] > 1.0:
                raise AccuracyError("quadrature reached only 1e-4")
            return tf.R[0] ** -0.5, 1e-3

        monkeypatch.setattr(operators, "f_R_norm_mc", norm)
        monkeypatch.setattr(operators, "Tf_R_norm_mc", norm)
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2.0,))
        report = scaling_experiment(params, tf_for(params, [0.5], [3.0]),
                                    [1.0, 2.0], 5000, 1)
        assert calls == ["quad", "quad", "quad", "mc", "quad", "mc"]
        assert report.method == {
            "name": "QUAD_ITERATED", "rel_tol": 1e-8,
            "fallback": {"name": "MC_CONE", "budget": 5000, "norms": 2}}
        assert report.coordinates[0].f_slope == pytest.approx(-0.5)

    def test_n1_norm_by_quadrature_is_exact(self):
        # p = 2, l = 1/2, r = 3: the squared norm is the slice fact
        # sqrt(pi) Gamma(5/2) / Gamma(3) times int v (v + R)^-5 dv
        # = R^-3 B(2, 3), so pi/32 R^-3
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0,), beta=(0,),
                              a=(0,), b=(0,), c=(2,))
        for R in (0.5, 2.0, 8.0):
            norm, err = f_R_norm_mc(params, tf_for(params, [0.5], [3], [R]),
                                    budget=2, seed=0, method="quad")
            exact = math.sqrt(math.pi / 32.0 * R ** -3)
            assert norm == pytest.approx(exact, rel=1e-8)
            assert 0.0 < err <= 1e-8 * norm

    def test_n2_lab_calibrates_no_constant(self, worked_params, monkeypatch):
        # the slice constant is L25's closed form: no norm enters the
        # calibration path, so its cache gains no entry
        monkeypatch.setattr(oracle, "_CALIBRATION_CACHE", {})
        scaling_experiment(worked_params, tf_for(worked_params, [2, 2], [4, 4]),
                           [1.0, 2.0], budget=1000, seed=7)
        assert oracle._CALIBRATION_CACHE == {}

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
        assert all(m > 0 for m in _stated_image_norm_gaps(worked_params, tf))
        assert all(m > 0 for m in _derived_image_norm_gaps(worked_params, tf))
        assert check_norm_ranges(worked_params, tf) is None

    def test_double_subtraction_gap_is_reported(self):
        # the stated display subtracts b twice; at b = 1.2 it refuses a set
        # whose derived pair (0, 4.8) clears L27's (3n+1)/2 and n+1, and
        # the experiment accepts that set
        params = ParameterSet(n=2, p=2.0, q=2.0, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(1.2, 1.2), c=(3, 3))
        tf = tf_for(params, [2.0, 2.0], [5.6, 5.6])
        assert np.allclose(_stated_image_norm_gaps(params, tf), [-0.55, -0.30])
        pair = _image_norm_params(params, tf)
        assert np.allclose(pair["l"], [0.0, 0.0])
        assert np.allclose(pair["r"], [4.8, 4.8])
        assert np.allclose(_derived_image_norm_gaps(params, tf), [1.30, 1.80])
        assert check_norm_ranges(params, tf) is None


class TestClosedVsNumericSweep:
    def test_five_random_configurations(self, rng):
        # the closed-vs-MC image check across five random configurations at
        # n in {1, 2}
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
            z = TubePoint.make(rng.uniform(-0.2, 0.2, size=2 * n - 1),
                               random_cone_vector(n, rng))
            _assert_closed_matches_mc(params, tf_for(params, l, r), z,
                                      budget=800_000, seed=100 + k,
                                      cal_budget=1_500_000)
