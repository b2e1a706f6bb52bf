import ast
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import conetube
from conetube import constants as C
from conetube.errors import (ConeDomainError, ConvergenceDomainError,
                             ConventionError, InvalidInputError)
from conetube.geometry import (TubePoint, border_reversed, canonical_to_coords,
                               complex_minors, complex_power_from_minors,
                               delta_power, schur_complement)
from conetube.identities import (IDENTITY_IDS, TWO_PI, Decay, IdentityDef,
                                 L25_constant, _L24_integrand,
                                 _log_L25_reduced, check_params, closed_form,
                                 closed_value, get_identity,
                                 kernel_region_integrand, random_cone_vector,
                                 random_params, random_point, structure_value)
from conetube.indices import Convention, MultiIndex, bold_values, shift_index
from conetube.oracle import (_tensor_pass, calibrated_constant,
                             oracle_estimate, quad_iterated, verify_identity)
from conetube.sampling import _sample_real, sample_cone


def beta_translate_constant(r, eta):
    """True n = 1 translate-integral constant: Gamma(eta+1)Gamma(r-eta-1)/Gamma(r)."""
    return math.gamma(eta + 1) * math.gamma(r - eta - 1) / math.gamma(r)


def slice_modulus_constant(r):
    """True n = 1 slice constant: sqrt(pi) Gamma((r-1)/2) / Gamma(r/2)."""
    return math.sqrt(math.pi) * math.gamma((r - 1) / 2) / math.gamma(r / 2)


def slice_modulus_constant_n2(r):
    """True n = 2 slice constant, finite for r_1 > 2 and r_2 > 3/2.

    Integrating u_2, then u_3 (A = Re S is a quadratic in u_3 whose
    completed square leaves D), then u_1, each by the n = 1 fact, gives
    K(r_2) K(2 r_2 - 2) K(r_1 - 1) with K = slice_modulus_constant.
    """
    return (slice_modulus_constant(r[1]) * slice_modulus_constant(2 * r[1] - 2)
            * slice_modulus_constant(r[0] - 1))


def tube_product_constant(l, r, eta):
    """True n = 1 two-kernel constant: 2^-l pi G(l+1) G(r+eta-l-2) / (G(r) G(eta))."""
    return (2.0 ** -l * math.pi * math.gamma(l + 1)
            * math.gamma(r + eta - l - 2) / (math.gamma(r) * math.gamma(eta)))


def tube_modulus_constant(l, r):
    """True n = 1 kernel-modulus constant."""
    return (math.sqrt(math.pi) * math.gamma((r - 1) / 2) * math.gamma(l + 1)
            * math.gamma(r - l - 2) / (math.gamma(r / 2) * math.gamma(r - 1)))


class TestLaplaceClosed:
    def test_n1_gamma_integral(self):
        assert closed_form("L23_1", np.array([1.0]), {"s": [0.0]}) == pytest.approx(
            1.0 / (4 * math.pi), rel=1e-14)

    def test_n2_unit_point(self):
        # 1/(128 pi^2), from the constant times the 4^{-3/2} transform factor
        val = closed_form("L23_1", np.array([1.0, 1, 0]), {"s": [0.0, 0.0]})
        assert val == pytest.approx(1.0 / (128 * math.pi ** 2), rel=1e-14)

    def test_scaling_is_exponent_bookkeeping(self, rng):
        for n in (1, 2, 3):
            s = rng.uniform(-0.8, 1.5, size=n)
            t = random_cone_vector(n, rng)
            base = closed_form("L23_1", t, {"s": s})
            expo = -np.sum(s) - (2 * n - 1)
            for lam in (0.5, 1.0, 2.0, 4.0):
                assert closed_form("L23_1", lam * t, {"s": s}) == pytest.approx(
                    lam ** expo * base, rel=1e-12)

    def test_range_and_domain_errors(self):
        with pytest.raises(ConvergenceDomainError):
            closed_form("L23_1", np.array([1.0]), {"s": [-1.0]})
        with pytest.raises(ConeDomainError):
            closed_form("L23_1", np.array([1.0, 1, 1.5]), {"s": [0.0, 0.0]})

    def test_rejects_shifted_index(self):
        s = shift_index(MultiIndex((0.0, 0.0, 0.0)))
        with pytest.raises(ConventionError):
            closed_form("L23_1", np.array([1.0, 1, 1, 0, 0]), {"s": s})


class TestKernelClosed:
    def test_reduction_at_iy(self, rng):
        # complex evaluation at x = 0 equals the explicit real display
        for _ in range(50):
            y = random_cone_vector(2, rng)
            s = rng.uniform(-0.5, 1.5, size=2)
            z = TubePoint.make(np.zeros(3), y)
            d = y[1] - y[2] ** 2 / y[0]
            explicit = (C.c2(2, s) * y[0] ** (-s[0] - 3.0)
                        * d ** (-s[1] - 3.0))
            assert closed_form("L23_2", z, {"s": s}) == pytest.approx(
                explicit, rel=1e-12)

    def test_worked_point(self):
        z = TubePoint.make([0.0, 0, 0], [2.0, 3, 1])
        val = closed_form("L23_2", z, {"s": [0.0, 0.0]})
        assert val == pytest.approx(
            C.c2(2, [0.0, 0.0]) * 2.0 ** -3 * 2.5 ** -3, rel=1e-13)

    def test_factorization_identity(self, rng):
        # kernel factors re-grouped through delta_power agree
        y = random_cone_vector(2, rng)
        s = rng.uniform(-0.5, 1.0, size=2)
        z = TubePoint.make(np.zeros(3), y)
        mins = np.array([y[0], y[0] * (y[1] - y[2] ** 2 / y[0])])
        regrouped = (C.c2(2, s) * delta_power(y, -s)
                     * mins[1] ** -3.0 * mins[0] ** 0.0)
        assert closed_form("L23_2", z, {"s": s}) == pytest.approx(
            regrouped, rel=1e-12)

    def test_dual_integrand_is_exact_where_q_cancels(self):
        # draw 1 of default_rng(5) at two nodes the n = 2 decay windows
        # reach, where 4 t_1 - (2u)^2 / t_n, from the rounded t_n = D +
        # u^2 / y_1, gives nan and a value 1e-7 off.  Reference: t_n and
        # q = 4 y_1 D / t_n in exact rationals of (y_1, u_1, D)
        rng = np.random.default_rng(5)
        for _ in range(2):
            params, z = random_params("L23_2", 2, rng), random_point("L23_2", 2, rng)
        ident, s = get_identity("L23_2"), params["s"]
        f = ident.dual_region(2, params, z)
        loc, scl = ident.sampler(2, params, z).border[0].loc_scale(
            math.exp(16.58), math.exp(-26.21))
        dec_y, dec_d = ident.decay(2, params, z)
        for y1, u, d in ((math.exp(16.58), loc - 11.5 * scl, math.exp(-26.21)),
                         (dec_y.scale, -z.y[2] * dec_y.scale / z.y[1],
                          dec_d.scale * math.exp(-24.0))):
            tn = Fraction(d) + Fraction(u) ** 2 / Fraction(y1)
            t = np.array([y1, float(tn), 2.0 * u])
            expected = 2.0 / C.c1(2, s) * np.exp(
                (s[1] + 1.5) * math.log(tn) - TWO_PI * t @ z.y
                + (s[0] + 1.5) * math.log(4 * Fraction(y1) * Fraction(d) / tn)
                + 1j * TWO_PI * t @ z.x)
            got = f(canonical_to_coords(np.array([[y1]]), np.array([[u]]),
                                        np.array([d])), np.array([d]))[0]
            assert np.isfinite(got) and abs(got - expected) <= 1e-12 * abs(expected)


class TestCorollaryForms:
    def test_n2_equals_plain_forms(self, rng):
        for _ in range(50):
            t = random_cone_vector(2, rng)
            s = rng.uniform(-0.5, 1.5, size=2)
            assert closed_form("COR1_1", t, {"s": s}) == \
                closed_form("L23_1", t, {"s": s})
            z = TubePoint.make(rng.uniform(-0.3, 0.3, size=3),
                               random_cone_vector(2, rng))
            assert closed_form("COR1_2", z, {"s": s}) == pytest.approx(
                closed_form("L23_2", z, {"s": s}), rel=1e-14)

    def test_n1_gamma_reduction(self, rng):
        for _ in range(20):
            s = rng.uniform(-0.8, 2.0)
            t = rng.uniform(0.3, 2.5)
            assert closed_form("COR1_1", np.array([t]), {"s": [s]}) == pytest.approx(
                math.gamma(s + 1) / (4 * math.pi * t) ** (s + 1), rel=1e-12)

    def test_n3_structure(self):
        t = np.array([1.0, 1, 1, 0, 0])
        val = closed_form("COR1_1", t, {"s": [0.0, 0.0, 0.0]})
        assert val == pytest.approx(C.c3(3, [0.0] * 3) * 4.0 ** -4, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("cor, lemma", [("COR1_1", "L23_1"),
                                            ("COR1_2", "L23_2")])
    def test_corollary_is_lemma_at_bold_index(self, n, cor, lemma):
        """COR1 at s is L23 at bold(s); COR1_2's structure also lacks the
        next-to-top factor M_{n-1}^(n-2).  The offsets (n-2)/2 vanish at
        n <= 2, so there the two agree bit for bit."""
        rng = np.random.default_rng(90 + n)
        c_def, l_def = get_identity(cor), get_identity(lemma)

        def same(a, b):
            if n <= 2:
                return np.array_equal(a, b)
            return np.allclose(a, b, rtol=1e-13, atol=0.0)

        for _ in range(5):
            s = random_params(cor, n, rng)["s"]
            pc, pl = {"s": s}, {"s": bold_values(s, n)}
            pt = random_point(cor, n, rng)
            *args, _ = sample_cone(c_def.sampler(n, pc, pt), 64, rng)
            with np.errstate(all="ignore"):
                for build in ("integrand", "dual_region"):
                    if getattr(c_def, build) is None:
                        continue
                    a = getattr(c_def, build)(n, pc, pt)(*args)
                    b = getattr(l_def, build)(n, pl, pt)(*args)
                    assert same(a, b), build
            factor = 1.0
            if cor == "COR1_2" and n >= 2:
                e = np.zeros(n)
                e[n - 2] = n - 2.0
                factor = complex_power_from_minors(complex_minors(pt.zeta), e)
            assert same(c_def.structure(n, pc, pt),
                        l_def.structure(n, pl, pt) / factor)
            assert same(c_def.stated_constant(n, pc),
                        l_def.stated_constant(n, pl))
            wide = {"s": rng.uniform(-4.0, 1.0, size=n)}
            verdicts = [[ok for ok, _ in d.range_check(n, p)] for d, p in
                        ((c_def, wide), (l_def, {"s": bold_values(wide["s"], n)}))]
            assert verdicts[0] == verdicts[1]


class TestConeShiftClosed:
    def test_n1_elementary_integrals_with_calibration(self):
        # int (y+1)^-2 dy = 1 and int y (y+1)^-3 dy = 1/2
        b = np.array([1.0])
        for r, eta, expect in ((2.0, 0.0, 1.0), (3.0, 1.0, 0.5)):
            cal = beta_translate_constant(r, eta)
            assert closed_form("L24", b, {"r": [r], "eta": [eta]},
                               constant=cal) == \
                pytest.approx(expect, rel=1e-14)

    def test_stated_constant_recorded_value(self):
        # verbatim composite constant disagrees with the elementary value
        assert closed_form("L24", np.array([1.0]), {"r": [2.0], "eta": [0.0]}) == \
            pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_scaling_two_evaluation_equality(self, rng):
        for n in (1, 2, 3):
            params = random_params("L24", n, rng)
            b = random_cone_vector(n, rng)
            base = closed_value("L24", params, b)
            # mixed plain/shifted display: global degree sum(eta - r) + m
            expo = float(np.sum(params["eta"] - params["r"])) + (2 * n - 1)
            for lam in (0.5, 2.0, 4.0):
                assert closed_value("L24", params, lam * b) == \
                    pytest.approx(lam ** expo * base, rel=1e-12)

    def test_convention_enforcement(self):
        r_plain = MultiIndex((3.0,))
        with pytest.raises(ConventionError):
            closed_form("L24", np.array([1.0]),
                        {"r": r_plain, "eta": shift_index(MultiIndex((1.0,)))})

    def test_range_error_lists_violations(self):
        with pytest.raises(ConvergenceDomainError) as err:
            closed_form("L24", np.array([1.0]), {"r": [0.5], "eta": [0.0]})
        assert any("r[1]" in v for v in err.value.violations)


class TestHorizontalAbsClosed:
    def test_n1_arctangent_and_trig(self):
        v = np.array([1.0])
        assert closed_form("L25", v, {"r": [2.0]},
                           constant=slice_modulus_constant(2.0)) == \
            pytest.approx(math.pi, rel=1e-14)
        assert closed_form("L25", v, {"r": [3.0]},
                           constant=slice_modulus_constant(3.0)) == \
            pytest.approx(2.0, rel=1e-14)

    def test_positive_and_scaling(self, rng):
        for n in (1, 2):
            params = random_params("L25", n, rng)
            v = random_cone_vector(n, rng)
            base = closed_form("L25", v, {"r": params["r"]})
            assert base > 0
            rb = params["r"].copy()
            rb[:-1] += (n - 2) / 2.0
            expo = -np.sum(rb) + n * (n + 1) / 2.0
            for lam in (0.5, 2.0, 4.0):
                assert closed_form("L25", lam * v, {"r": params["r"]}) == \
                    pytest.approx(lam ** expo * base, rel=1e-12)


class TestSliceReduction:
    """L25 with u_n integrated in closed form (the quadrature oracle's 2-D
    slice integrand at n = 2)."""

    def test_inner_closed_form_matches_quad(self):
        from scipy import integrate
        ident = get_identity("L25")
        params = {"r": np.array([2.6, 2.9])}
        v = np.array([1.3, 0.9, 0.4])
        full = ident.integrand(2, params, v)
        reduced = ident.reduction(2, params, v)
        for u1, u3 in ((0.0, 0.0), (0.7, -1.2), (-2.5, 3.1), (1e3, 0.0),
                       (0.0, -1e3), (-700.0, 700.0)):
            # |S| = |A + i (Im S0 - u_2)| with S0 = S(u_2 = 0): integrate
            # in units of the width A on each side of the peak
            mins = complex_minors(v - 1j * np.array([u1, 0.0, u3]))
            s0 = mins[1] / mins[0]

            def g(t):
                u2 = s0.imag + s0.real * t
                return s0.real * full(np.array([[u1, u2, u3]]))[0]

            total = sum(integrate.quad(g, a, b, epsabs=0.0, epsrel=1e-13,
                                       limit=400)[0]
                        for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
            got = reduced(np.array([[u1, u3]]))[0]
            assert got == pytest.approx(total, rel=1e-12), (u1, u3)

    def test_schur_real_part_positive_at_random_points(self, rng):
        for _ in range(20):
            v = random_point("L25", 2, rng)
            u = 10.0 * rng.standard_cauchy(size=(1000, 3))
            mins = complex_minors(v - 1j * u)
            assert np.all((mins[:, 1] / mins[:, 0]).real > 0.0)

    def test_n1_reduction_is_the_slice_fact(self):
        from scipy import integrate
        ident = get_identity("L25")
        for r, v in ((2.0, 1.0), (3.3, 0.6), (5.5, 1.9)):
            params = {"r": np.array([r])}
            red = ident.reduction(1, params, np.array([v]))
            full = ident.integrand(1, params, np.array([v]))
            total = integrate.quad(lambda t: full(np.array([[t]]))[0],
                                   -np.inf, np.inf, epsabs=0.0,
                                   epsrel=1e-13, limit=400)[0]
            assert red(np.empty((1, 0)))[0] == pytest.approx(total, rel=1e-10)

    def test_n2_tail_index(self):
        # the registry's n = 2 decay: one tail index min(r_1 - 2, 2 r_2 - 3)
        # on both axes of the reduced integrand
        for r in ([2.6, 2.9], [4.0, 1.8]):
            decays = get_identity("L25").decay(2, {"r": np.array(r)},
                                               np.array([1.0, 1, 0]))
            assert [dec.tail_index for dec in decays] == \
                [pytest.approx(0.6)] * 2


class TestSliceConstant:
    """L25's closed form C(n, bold r) Delta^(-bold r + J)(v), J = (3/2, ...,
    3/2, (n+1)/2): a product of one-dimensional Beta-type integrals."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_quadrature_and_calibration(self, n):
        # within 1e-9, or within the quadrature's own bound where its slow
        # tail leaves it short of rel_tol (r_1 near 2 at n = 2); the
        # calibration is held to the quad_tol it asks for
        rng = np.random.default_rng(31)
        for _ in range(4):
            r = np.concatenate([rng.uniform(2.2, 3.6, size=n - 1),
                                rng.uniform((n + 1) / 2.0 + 0.4,
                                            (n + 1) / 2.0 + 2.5, size=1)])
            v = random_point("L25", n, rng)
            quad = quad_iterated("L25", {"r": r}, v, rel_tol=1e-10)
            # at n <= 2 bold r is r, and J is (n+1)/2 on every entry
            closed = L25_constant(n, r) * delta_power(v, -r + (n + 1.0) / 2.0)
            assert abs(closed - quad.value) <= max(1e-9 * closed,
                                                   quad.std_error), (r, quad)
            assert L25_constant(n, r) == pytest.approx(
                calibrated_constant("L25", n, {"r": r}),
                rel=1e-9 if n == 1 else 1e-6), r

    def test_n2_is_the_iterated_slice_fact(self):
        for r in ([2.6, 2.9], [4.0, 1.8], [2.05, 7.5]):
            assert L25_constant(2, np.array(r)) == pytest.approx(
                slice_modulus_constant_n2(r), rel=1e-13)

    def test_n3_border_step_matches_dblquad(self):
        # with u_n integrated, the borders leave pi^((n-1)/2) Gamma(rho -
        # (n+1)/2) / Gamma(rho - 1) D(v)^((n+1)/2 - rho) prod_j |v_j - i u_j|
        # ^(1 - bold r_j) / sqrt(v_j); the slice facts over u_j are the rest
        # of the constant.  The borders are taken in polar coordinates about
        # their centre, where Re S is least, in units of their widths
        from scipy import integrate
        rng = np.random.default_rng(37)
        for _ in range(3):
            r = random_params("L25", 3, rng)["r"]
            rb = bold_values(r, 3)
            v = random_point("L25", 3, rng)
            diag = 1.5 * rng.standard_cauchy(size=2)
            mod2 = v[:2] ** 2 + diag ** 2
            d = float(schur_complement(v))
            centre = border_reversed(v) * diag / v[:2]
            width = np.sqrt(d * mod2 / v[:2])
            log_f = _log_L25_reduced(3, r)

            def g(rad, angle):  # b_j is the border paired with diagonal j
                b = centre + width * rad * np.array([math.cos(angle),
                                                     math.sin(angle)])
                return rad * math.exp(log_f(v, np.array([*diag, b[1], b[0]])))

            total = integrate.dblquad(g, 0.0, 2.0 * math.pi, 0.0, np.inf,
                                      epsabs=0.0, epsrel=1e-11)[0]
            total *= float(np.prod(width))
            step = (L25_constant(3, rb) / slice_modulus_constant(rb[0] - 1.0)
                    / slice_modulus_constant(rb[1] - 1.0)
                    * d ** (2.0 - rb[2])
                    * float(np.prod(mod2 ** ((1.0 - rb[:2]) / 2.0)
                                    / np.sqrt(v[:2]))))
            assert total == pytest.approx(step, rel=1e-9), (r, v, diag)

    def test_raises_exactly_outside_its_range(self):
        # c6_range asks only r_1 > 3/2 at n = 2; the integral needs r_1 > 2
        assert check_params("L25", 2, {"r": [1.9, 3.0]}) is None
        with pytest.raises(ConvergenceDomainError) as err:
            L25_constant(2, np.array([1.9, 3.0]))
        assert err.value.violations == ["bold r[1] > 2 (got 1.9)"]
        for n, rb in ((1, [1.0]), (2, [3.0, 1.5]), (3, [3.0, 3.0, 2.0]),
                      (3, [2.0, 3.0, 3.0]), (3, [3.0, 2.0, 3.0])):
            with pytest.raises(ConvergenceDomainError):
                L25_constant(n, np.array(rb))
        for n, rb in ((1, [1.0 + 1e-9]), (2, [2.0 + 1e-9, 1.5 + 1e-9]),
                      (3, [2.0 + 1e-9, 2.0 + 1e-9, 2.0 + 1e-9])):
            assert 0.0 < L25_constant(n, np.array(rb)) < math.inf


def _marginal(f, decays, axis, cone):
    """xs -> the modulus of an n = 2 quadrature integrand integrated over
    every coordinate but ``axis``, at each x of xs: (y_1, u_1, D) on the
    cone, with f(coords, D); (u_1, u_3) on the slice.  A real coordinate is
    a sinh axis from 1e-12 to 1e22 of its scale (sqrt(y_1 D) scales for
    u_1), the other radial one an e^u axis 20 e-folds each side of its
    scale: wide and fine enough at the x that the slopes read."""
    if not cone:
        def g(x, u):  # the other real coordinate, on a sinh axis
            w = np.stack(np.broadcast_arrays(*((x, u) if axis == 0 else (u, x))),
                         axis=-1)
            return np.abs(f(w))
        other = [("real", 1e-12 * decays[1 - axis].scale, -80.0, 80.0)]
    else:
        def g(x, u, r):  # u_1, then the other radial coordinate
            y1, u, d = np.broadcast_arrays(*((x, u, r) if axis == 0
                                             else (r, u, x)))
            return np.abs(f(canonical_to_coords(y1[..., None], u[..., None], d),
                            d))
        mid = math.log(decays[1 - axis].scale)
        unit = math.sqrt(decays[0].scale * decays[1].scale)
        other = [("real", 1e-12 * unit, -80.0, 80.0),
                 ("pos", mid - 20.0, mid + 20.0)]
    return lambda xs: np.array([_tensor_pass(lambda *a: g(x, *a), other,
                                             0.125)[0].real for x in xs])


def _mc_marginal(ident, n, params, point, axis, count=100_000, seed=3):
    """xs -> the modulus of a cone or tube integrand integrated over every
    coordinate but the radial ``axis``, at each x of xs, by Monte Carlo from
    the identity's own proposal; a tube integrand is the reduction, which
    takes x_n in closed form.  Every x redraws from one seed, so the same
    standard draws serve every x, and the border and real-part laws follow
    the radial coordinates they are drawn at."""
    spec = ident.sampler(n, params, point)
    if ident.domain == "tube":
        spec = spec.integrating_last_real()
        reduced = ident.reduction(n, params, point)

        def weighted(v, d, rng):
            real, logq = _sample_real(spec, count, rng, v)
            return reduced(v, real) * np.exp(-logq)
    else:
        full = ident.integrand(n, params, point)

        def weighted(v, d, rng):
            return full(v, d)

    def g(x):
        rng = np.random.default_rng(seed)
        radial = [law.sample(rng, count) for law in spec.radial]
        radial[axis] = np.full(count, x)
        logq = sum(law.logpdf(y) for k, (law, y) in
                   enumerate(zip(spec.radial, radial)) if k != axis)
        borders = [law.sample(rng, y, radial[-1])
                   for law, y in zip(spec.border, radial)]
        logq = logq + sum(law.logpdf(u, y, radial[-1]) for law, u, y in
                          zip(spec.border, borders, radial))
        v = canonical_to_coords(np.stack(radial[:-1], axis=-1),
                                np.stack(borders, axis=-1), radial[-1])
        return float(np.mean(np.abs(weighted(v, radial[-1], rng))
                             * np.exp(-logq)))
    return g


def _log_slope(g, x):
    """d log(x g(x)) / d log x at x, over one e-fold around it."""
    lo, hi = x * math.exp(-0.5), x * math.exp(0.5)
    return math.log(hi * g(hi) / (lo * g(lo)))


class TestDecay:
    """The registry's decay indices are the log-slopes of the quadrature
    integrand's mass density x g(x) at the two ends of each axis; at n = 2
    g is the integrand's marginal along the axis.  A Decay holds on every
    region and is attained on one; the tail index that the slice's two
    axes share at n = 2 is attained on one of them.  The slopes are read
    e^30 scales out at n = 1 and e^20 at n = 2, where L24's D(y + b), a
    difference of terms near u^2 / y_1, still keeps its digits."""

    @pytest.mark.parametrize("ident_id, n", [
        *(pytest.param(i, 1, id=i) for i in IDENTITY_IDS),
        *(pytest.param(i, 2, id=f"{i}-n2") for i in
          ("L23_1", "L23_2", "COR1_1", "COR1_2", "L24", "L25"))])
    def test_indices_are_the_log_slopes(self, ident_id, n, rng):
        ident = get_identity(ident_id)
        for _ in range(5 if n == 1 else 2):
            params = random_params(ident_id, n, rng)
            point = random_point(ident_id, n, rng)
            decays = ident.decay(n, params, point)
            if n == 1:
                f = (ident.reduction(1, params, point)
                     if ident.domain == "tube" else ident.integrand(1, params, point))
                self.check(decays, [[lambda x: np.abs(f(x[:, None]))]], 30.0)
            elif ident.domain == "slice":
                if decays[0].tail_index > 0.0:  # else quadrature refuses it
                    f = ident.reduction(n, params, point)
                    self.check(decays, [[_marginal(f, decays, k, cone=False)]
                                        for k in range(2)], 20.0, shared_tail=True)
            else:
                fs = [ident.integrand(n, params, point)]
                if ident.dual_region is not None:
                    fs.append(ident.dual_region(n, params, point))
                self.check(decays, [[_marginal(f, decays, k, cone=True)
                                     for f in fs] for k in range(2)], 20.0)

    @pytest.mark.parametrize("ident_id", ["L23_2", "COR1_2", "L24"])
    def test_n3_indices_are_monte_carlo_log_slopes(self, ident_id, rng):
        # no quadrature reaches n = 3, so each axis's marginal is a Monte
        # Carlo mean (``_mc_marginal``); its log-slopes e^8 scales from the
        # axis scale read to within 0.15, so an index off by 1/2 fails.
        # L24's third set has r_1 - eta_1 = 2.5: outside c5_range, which
        # asks r_j > eta_j + 3 at n = 3, it still has a y_1 tail index of
        # 1/2, so the integral converges from r_j > eta_j + 2
        ident = get_identity(ident_id)
        sets = [random_params(ident_id, 3, rng) for _ in range(2)]
        if ident_id == "L24":
            sets.append({"r": np.array([2.3, 3.1, 3.0]),
                         "eta": np.array([-0.2, 0.1, 0.5])})
        for params in sets:
            point = random_point(ident_id, 3, rng)
            for axis, dec in enumerate(ident.decay(3, params, point)):
                g = _mc_marginal(ident, 3, params, point, axis)
                assert _log_slope(g, dec.scale * math.exp(-8.0)) == \
                    pytest.approx(dec.zero_index, abs=0.15), (axis, dec)
                if math.isinf(dec.tail_index):  # exponential decay
                    assert _log_slope(g, dec.scale * math.exp(5.0)) < -50.0
                else:
                    assert -_log_slope(g, dec.scale * math.exp(8.0)) == \
                        pytest.approx(dec.tail_index, abs=0.15), (axis, dec)

    @pytest.mark.parametrize("ident_id", ["L26", "L27"])
    def test_n2_tube_d_tail_is_a_monte_carlo_log_slope(self, ident_id, rng):
        # the tube's D axis at n = 2: its marginal (``_mc_marginal``)
        # falls between e^6 and e^9 scales at the stated tail index to
        # within 0.15, so an index off by 1/2 fails
        ident = get_identity(ident_id)
        for _ in range(3):
            params = random_params(ident_id, 2, rng)
            point = random_point(ident_id, 2, rng)
            dec = ident.decay(2, params, point)[1]
            g = _mc_marginal(ident, 2, params, point, 1)
            lo, hi = dec.scale * math.exp(6.0), dec.scale * math.exp(9.0)
            read = -math.log(hi * g(hi) / (lo * g(lo))) / 3.0
            assert read == pytest.approx(dec.tail_index, abs=0.15), (params, dec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_proposals_within_the_decay(self, n, rng):
        # a proposal lighter than the integrand's marginal at either end of
        # an axis makes the weights grow without bound there: a shape above
        # the zero index near 0; far out a beta-prime tail index above the
        # tail index (from twice it their variance is infinite) or a gamma
        # rate above 1 / scale.  On the tube the axes are v's
        for ident_id in ("L23_1", "L23_2", "COR1_1", "COR1_2", "L24", "L26",
                         "L27"):
            ident = get_identity(ident_id)
            for _ in range(50):
                params = random_params(ident_id, n, rng)
                point = random_point(ident_id, n, rng)
                radial = ident.sampler(n, params, point).radial
                decays = ident.decay(n, params, point)
                assert len(radial) == len(decays) == n
                for law, dec in zip(radial, decays):
                    assert law.a <= dec.zero_index, (ident_id, law, dec)
                    if law.kind == "betaprime":
                        assert law.b <= dec.tail_index, (ident_id, law, dec)
                    else:  # 1 / scale rounds back to the rate within an ulp
                        assert law.b * dec.scale <= 1.0 + 1e-12, (ident_id, law, dec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decay_is_stated_or_raises(self, n, rng):
        # one Decay per windowed axis: the n radial axes of the cone and of
        # the tube's v at every order; the slice's u (n = 1) and (u_1, u_3)
        # (n = 2).  L25 at n = 3 has no statement to give
        axes = {"cone": n, "tube": n, "slice": {1: 1, 2: 2}.get(n)}
        for ident_id in IDENTITY_IDS:
            ident = get_identity(ident_id)
            params = random_params(ident_id, n, rng)
            point = random_point(ident_id, n, rng)
            if axes[ident.domain] is None:
                with pytest.raises(InvalidInputError):
                    ident.decay(n, params, point)
            else:
                decays = ident.decay(n, params, point)
                assert len(decays) == axes[ident.domain], ident_id
                assert all(isinstance(dec, Decay) for dec in decays), ident_id

    @staticmethod
    def check(decays, densities, far, shared_tail=False):
        """``densities[k]`` holds axis k's mass density on each region; the
        power-law slopes are read e^far scales from the axis scale."""
        def slopes(decay, gs, k):  # d log(x g(x)) / d log x at x = scale e^k
            x = decay.scale * np.exp([k - 0.5, k + 0.5])
            return [float(np.diff(np.log(x * g(x)))[0]) for g in gs]

        tails = []
        for decay, gs in zip(decays, densities):
            if math.isinf(decay.tail_index):  # exponential decay
                assert max(slopes(decay, gs, 5.0)) < -50.0
            else:  # the smallest index over the regions
                tails.append(-max(slopes(decay, gs, far)))
                assert tails[-1] >= decay.tail_index - 1e-6, (tails, decay)
            if decay.zero_index is not None:
                got = min(slopes(decay, gs, -far))
                assert got == pytest.approx(decay.zero_index, abs=1e-6), decay
        if tails:
            attained = [min(tails)] if shared_tail else tails
            assert attained == pytest.approx(
                [dec.tail_index for dec in decays][:len(attained)], abs=1e-6)


class TestPowerProposal:
    """L24, L26 and L27 share the cone density y^eta Delta^-(eta + gap)(y + b)
    at the b of their ``Decay``: the point for L24, y_z for L27 and
    (y_z + y_xi) / 2 for L26.  Each border law sits at u_j = y_j u_bj / b_j,
    where D(y + b) is least."""

    B = {"L24": lambda pt: np.asarray(pt, dtype=float),
         "L26": lambda pt: 0.5 * (pt[0].y + pt[1].y),
         "L27": lambda pt: pt.y}

    @pytest.mark.parametrize("n", [2, 3])
    def test_borders_sit_where_d_of_y_plus_b_is_least(self, n, rng):
        for ident_id, family_b in self.B.items():
            ident = get_identity(ident_id)
            for _ in range(20):
                params = random_params(ident_id, n, rng)
                point = random_point(ident_id, n, rng)
                b = family_b(point)
                slope = border_reversed(b) / b[: n - 1]
                y = np.exp(rng.uniform(-3.0, 3.0, size=n - 1))
                border = ident.sampler(n, params, point).border
                assert len(border) == n - 1 and np.all(slope != 0.0)
                for j, law in enumerate(border):
                    loc, _ = law.loc_scale(y[j], 1.0)
                    assert loc == pytest.approx(y[j] * slope[j], rel=1e-14)
                    if n == 2:
                        self.check_argmax(b, y[j], loc, rng)

    @pytest.mark.parametrize("n", [2, 3])
    def test_L24_border_weight_is_flat(self, n, rng):
        # given (y, D) and the other borders at their centres, u_j enters
        # L24's integrand as a Student-t law of 2 r_n - 1 degrees; over its
        # Cauchy border law the weight (1 + t^2)(1 + t^2 / nu)^-r_n, t the
        # offset in border scales, stays below 2 / sqrt(e) < 1.25 times its
        # centre value when r_n >= 1, out to 10^3 scales and at y_j up to e^9
        ident = get_identity("L24")
        t = np.concatenate([-np.logspace(3.0, -3.0, 61), [0.0],
                            np.logspace(-3.0, 3.0, 61)])
        for _ in range(10):
            params = random_params("L24", n, rng)
            b = np.asarray(random_point("L24", n, rng))
            f = _L24_integrand(n, params["r"], params["eta"], b)
            border = ident.sampler(n, params, b).border
            y = np.exp(rng.uniform(-3.0, 9.0, size=n - 1))
            d = np.full(t.size, math.exp(rng.uniform(-3.0, 3.0)))
            centres = [law.loc_scale(y[j], d[0])[0] for j, law in enumerate(border)]
            for j, law in enumerate(border):
                loc, scl = law.loc_scale(y[j], d[0])
                u = np.tile(centres, (t.size, 1))
                u[:, j] = loc + scl * t
                w = (f(canonical_to_coords(np.tile(y, (t.size, 1)), u, d), d)
                     * np.exp(-law.logpdf(u[:, j], np.full(t.size, y[j]), d)))
                assert np.all(np.isfinite(w)) and np.all(w > 0.0)
                assert np.max(w) <= 1.25 * w[t.size // 2], (n, y[j], params)

    @staticmethod
    def check_argmax(b, y1, loc, rng):
        """At fixed (y_1, D), ``_L24_integrand`` at b is largest over u_1 at
        ``loc``: on a grid of +-4 conditional widths sqrt(A y_1 (y_1 + b_1)
        / b_1), A = D + D(b), it peaks at the centre node and falls on
        either side of it."""
        p = random_params("L24", 2, rng)
        f = _L24_integrand(2, p["r"], p["eta"], b)
        d = math.exp(rng.uniform(-3.0, 3.0))
        width = math.sqrt((d + schur_complement(b)) * y1 * (y1 + b[0]) / b[0])
        u = loc + width * np.linspace(-4.0, 4.0, 801)
        vals = f(canonical_to_coords(np.full((u.size, 1), y1), u[:, None],
                                     np.full(u.size, d)), np.full(u.size, d))
        assert np.argmax(vals) == 400
        assert vals[399] < vals[400] and vals[401] < vals[400]


class TestSliceProposal:
    """L25's laws are its reduced density's own (``_log_L25_reduced``, u_n
    integrated): with every border at its centre c_j = v_{2n-j} u_j / v_j,
    the density along a diagonal u_j is its Student-t marginal and each
    border's density at its centre falls like 1 / |v_j - i u_j|, as its
    Cauchy scale grows, so the weight is constant there."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_L25_weight_is_flat_along_each_diagonal(self, n, rng):
        # bold r_j in (2.05, 2.5): the band where the old Cauchy diagonals
        # were lighter-tailed than the density and the weights' variance
        # infinite
        t = np.concatenate([-np.logspace(3.0, -3.0, 61), [0.0],
                            np.logspace(-3.0, 3.0, 61)])
        for _ in range(10):
            rb = rng.uniform(2.05, 2.5, size=n)
            params = {"r": rb - np.append(np.full(n - 1, (n - 2) / 2.0), 0.0)}
            v = np.asarray(random_point("L25", n, rng))
            f = get_identity("L25").reduction(n, params, v)
            laws = [law for law in get_identity("L25").sampler(
                n, params, v).integrating_last_real().real if law is not None]
            for j in range(n - 1):
                u = np.zeros((t.size, 2 * n - 2))
                u[:, j] = v[j] * t
                for k in range(n + 1, 2 * n):  # border x_k pairs diagonal 2n - k
                    i = 2 * n - k - 1
                    u[:, k - 2] = v[k - 1] * u[:, i] / v[i]
                logq = sum(law.logpdf(u[:, m], u) for m, law in enumerate(laws))
                w = f(u) * np.exp(-logq)
                assert np.all(np.isfinite(w)) and np.all(w > 0.0)
                assert np.max(w) <= 1.25 * np.min(w), (n, j, rb, v)


class TestTubeReduction:
    """L26 and L27 at n = 1 with u integrated in closed form (the quadrature
    oracle's integrand over v)."""

    @pytest.mark.parametrize("ident_id", ["L26", "L27"])
    def test_reduced_integrand_matches_quad_over_u(self, ident_id):
        from scipy import integrate
        ident = get_identity(ident_id)
        rng = np.random.default_rng(5)
        for _ in range(3):
            params = random_params(ident_id, 1, rng)
            point = random_point(ident_id, 1, rng)
            full = ident.integrand(1, params, point)
            reduced = ident.reduction(1, params, point)
            for v in (0.03, 0.4, 1.0, 3.5, 40.0):
                def part(take):
                    return integrate.quad(
                        lambda u: take(full(np.array([[u]]),
                                            np.array([[v]]))[0]),
                        -np.inf, np.inf, epsabs=0.0, epsrel=1e-13,
                        limit=400)[0]
                total = complex(part(np.real), part(np.imag))
                got = reduced(np.array([[v]]))[0]
                assert abs(got - total) <= 1e-10 * abs(total), (params, v)

    @pytest.mark.parametrize("ident_id, orders", [("L26", (1, 2)),
                                                  ("L27", (1, 2, 3))],
                             ids=["L26", "L27"])
    def test_derived_orders(self, ident_id, orders, rng):
        # L26's is branch-safe at n <= 2 only; L27's is L25's at every n
        ident = get_identity(ident_id)
        for n in (1, 2, 3):
            red = ident.reduction(n, random_params(ident_id, n, rng),
                                  random_point(ident_id, n, rng))
            assert (red is not None) == (n in orders), n


def _quad_over_un(g, peaks):
    """The integral over the real line of g, split at each (peak, width)."""
    from scipy import integrate
    cuts = sorted({c for p, w in peaks for c in (p - w, p, p + w)})
    bounds = [-np.inf, *cuts, np.inf]

    def part(take):
        return sum(integrate.quad(lambda t: take(g(t)), a, b, epsabs=0.0,
                                  epsrel=1e-11, limit=400)[0]
                   for a, b in zip(bounds[:-1], bounds[1:]))
    return complex(part(np.real), part(np.imag))


class TestReductionAboveN1:
    """The reductions at n >= 2 against scipy quad over u_n of the full
    integrand, at random points: L26 and L27 at n = 2, L25 and L27 at
    n = 3.  Each kernel's |S| peaks where Im S = 0, width Re S."""

    @staticmethod
    def peaks(zetas, signs):
        out = []
        for zeta, sign in zip(zetas, signs):  # S = S(u_n = 0) + sign i u_n
            mins = complex_minors(zeta)
            s0 = mins[-1] / mins[-2]
            out.append((-sign * s0.imag, s0.real))
        return out

    @pytest.mark.parametrize("ident_id, n", [("L26", 2), ("L27", 2),
                                             ("L27", 3)])
    def test_tube(self, ident_id, n):
        ident = get_identity(ident_id)
        rng = np.random.default_rng(17)
        for _ in range(3):
            params = random_params(ident_id, n, rng)
            point = random_point(ident_id, n, rng)
            full = ident.integrand(n, params, point)
            reduced = ident.reduction(n, params, point)
            z, xi = point if ident_id == "L26" else (point, None)
            for _ in range(4):
                v = random_cone_vector(n, rng, 0.05, 3.0)
                x = 2.0 * rng.standard_cauchy(size=2 * n - 2)
                u0 = np.insert(x, n - 1, 0.0)
                zetas = [(z.y + v) - 1j * (z.x - u0)]
                if xi is not None:
                    zetas.append((v + xi.y) - 1j * (u0 - xi.x))

                def g(t):
                    u = u0.copy()
                    u[n - 1] = t
                    return full(u[None, :], v[None, :])[0]

                total = _quad_over_un(g, self.peaks(zetas, (1, -1)))
                got = reduced(v[None, :], x[None, :])[0]
                assert abs(got - total) <= 1e-9 * abs(total), (params, v, x)

    def test_slice_n3(self):
        ident = get_identity("L25")
        rng = np.random.default_rng(19)
        for _ in range(3):
            params = random_params("L25", 3, rng)
            v = random_point("L25", 3, rng)
            full = ident.integrand(3, params, v)
            reduced = ident.reduction(3, params, v)
            for _ in range(4):
                w = 2.0 * rng.standard_cauchy(size=4)
                u0 = np.insert(w, 2, 0.0)

                def g(t):
                    u = u0.copy()
                    u[2] = t
                    return full(u[None, :])[0]

                total = _quad_over_un(g, self.peaks([v - 1j * u0], (-1,)))
                got = reduced(w[None, :])[0]
                assert got == pytest.approx(total.real, rel=1e-9), (params, w)


class TestConeReduction:
    """L24 at n = 2 with the border coordinate u integrated in closed form
    (the quadrature oracle's integrand over (y_1, D))."""

    def test_reduced_integrand_matches_quad_over_u(self):
        from scipy import integrate
        ident = get_identity("L24")
        rng = np.random.default_rng(5)
        for _ in range(3):
            params = random_params("L24", 2, rng)
            b = random_point("L24", 2, rng)
            full = ident.integrand(2, params, b)
            reduced = ident.reduction(2, params, b)
            for y1 in (0.02, 1.0, 300.0):
                for d in (1e-3, 0.3, 50.0):
                    def g(u):
                        coords = canonical_to_coords(np.array([[y1]]),
                                                     np.array([[u]]),
                                                     np.array([d]))
                        return full(coords, np.array([d]))[0]
                    peak = y1 * b[2] / b[0]  # where D(y + b) is least
                    total = sum(integrate.quad(g, lo, hi, epsabs=0.0,
                                               epsrel=1e-13, limit=400)[0]
                                for lo, hi in ((-np.inf, peak), (peak, np.inf)))
                    got = reduced(np.array([y1]), np.array([d]))[0]
                    assert got == pytest.approx(total, rel=1e-10), (params, y1, d)

    def test_derived_at_n2_only(self, rng):
        ident = get_identity("L24")
        for n in (1, 3):
            assert ident.reduction(n, random_params("L24", n, rng),
                                   random_point("L24", n, rng)) is None


class TestTubeProductClosed:
    def test_conjugate_symmetric_configuration_real(self, rng):
        params = random_params("L26", 1, rng)
        y = random_cone_vector(1, rng)
        z = TubePoint.make(np.zeros(1), y)
        val = structure_value("L26", params, (z, z))
        assert abs(val.imag) < 1e-14 * abs(val)
        assert val.real > 0

    def test_translation_invariance(self, rng):
        for n in (1, 2):
            params = random_params("L26", n, rng)
            z = random_point("L26", n, rng)
            shift = rng.uniform(-1.0, 1.0, size=2 * n - 1)
            z2 = (TubePoint.make(z[0].x + shift, z[0].y),
                  TubePoint.make(z[1].x + shift, z[1].y))
            a = closed_value("L26", params, z)
            b = closed_value("L26", params, z2)
            assert a == pytest.approx(b, rel=1e-12)

    def test_n1_stated_constant_vs_true(self):
        # the stated composite degenerates at (0, 2, 3); recorded, not hidden
        assert C.c7(1, [0.0], [2.0], [3.0]) == 0.0
        assert tube_product_constant(0.0, 2.0, 3.0) == pytest.approx(math.pi)

    def test_calibrated_value_halfplane(self):
        z = TubePoint.make([0.0], [1.0])
        val = closed_form("L26", (z, z), {"l": [0.0], "r": [2.0], "eta": [3.0]},
                          constant=tube_product_constant(0, 2, 3))
        assert val.real == pytest.approx(math.pi / 8, rel=1e-13)


class TestTubeAbsClosed:
    def test_halfplane_value_with_calibration(self):
        z = TubePoint.make([0.0], [1.0])
        val = closed_form("L27", z, {"l": [0.0], "r": [4.0]},
                          constant=tube_modulus_constant(0.0, 4.0))
        assert val == pytest.approx(math.pi / 4, rel=1e-14)

    def test_x_independence(self, rng):
        for n in (1, 2):
            params = random_params("L27", n, rng)
            y = random_cone_vector(n, rng)
            base = closed_form("L27", TubePoint.make(np.zeros(2 * n - 1), y),
                               {"l": params["l"], "r": params["r"]})
            for _ in range(5):
                x = rng.uniform(-3, 3, size=2 * n - 1)
                assert closed_form("L27", TubePoint.make(x, y),
                                   {"l": params["l"], "r": params["r"]}) == base

    def test_scaling(self, rng):
        params = random_params("L27", 2, rng)
        z = random_point("L27", 2, rng)
        base = closed_value("L27", params, z)
        expo = float(np.sum(params["l"] - params["r"])) + 2 * 3
        for lam in (0.5, 2.0, 4.0):
            z2 = TubePoint.make(lam * z.x, lam * z.y)
            assert closed_value("L27", params, z2) == pytest.approx(
                lam ** expo * base, rel=1e-12)


# the convention the paper states each identity's indices in: plain for
# Lemma 2.3 and Corollary 1, shifted (bold) for Lemmas 2.4-2.7
CONVENTIONS = {
    "L23_1": Convention.PLAIN, "L23_2": Convention.PLAIN,
    "COR1_1": Convention.PLAIN, "COR1_2": Convention.PLAIN,
    "L24": Convention.SHIFTED, "L25": Convention.SHIFTED,
    "L26": Convention.SHIFTED, "L27": Convention.SHIFTED}


@pytest.mark.parametrize("ident", IDENTITY_IDS)
def test_public_closed_form_is_closed_value(rng, ident):
    # bit for bit, for bare and tagged indices; the wrong tag is refused
    ddef = get_identity(ident)
    convention = CONVENTIONS[ident]
    assert ddef.convention is convention
    wrong = next(c for c in Convention if c is not convention)
    for n in (1, 2, 3):
        params = random_params(ident, n, rng)
        point = random_point(ident, n, rng)
        declared = {k: params[k] if convention is Convention.PLAIN
                    else bold_values(params[k], n) for k in ddef.param_names}
        expect = closed_value(ident, {k: MultiIndex(v, convention)
                                      for k, v in declared.items()}, point)
        for indices in (declared, {k: MultiIndex(v, convention)
                                   for k, v in declared.items()}):
            got = closed_form(ident, point, indices)
            assert type(got) is (complex if ddef.complex_valued else float)
            assert got == expect, (n, indices)
        with pytest.raises(ConventionError):
            closed_form(ident, point, {k: MultiIndex(v, wrong)
                                       for k, v in declared.items()})


TUBE_1, TUBE_2 = TubePoint.make([0.0], [1.0]), TubePoint.make([0.0] * 3,
                                                              [1.0, 1, 0])
L26_PARAMS = {"l": [0.0], "r": [2.0], "eta": [3.0]}
# every library entry that reads an identity's point
POINT_READERS = {
    "closed_form": lambda i, p, pt: closed_form(i, pt, p),
    "closed_value": lambda i, p, pt: closed_value(i, p, pt),
    "structure_value": lambda i, p, pt: structure_value(i, p, pt),
    "kernel_region_integrand":
        lambda i, p, pt: kernel_region_integrand(i, p, pt, "dual"),
    "quad_iterated": lambda i, p, pt: quad_iterated(i, p, pt),
    "oracle_estimate": lambda i, p, pt: oracle_estimate(i, p, pt, 1000, 0),
    "verify_identity": lambda i, p, pt: verify_identity(i, p, pt, budget=1000)}


class TestInputChecks:
    """Every library entry checks that its point is of the identity's kind
    and that its params have exactly the identity's keys, before any work."""

    @pytest.mark.parametrize("reader", POINT_READERS)
    @pytest.mark.parametrize("ident, params, point, error", [
        ("L23_1", {"s": [0.0, 0.0]}, np.array([1.0, 1, 1.5]), ConeDomainError),
        ("L25", {"r": [3.0]}, np.array([-1.0]), ConeDomainError),
        ("L23_2", {"s": [0.0]}, np.array([1.0]), InvalidInputError),
        ("L27", {"l": [0.0], "r": [4.0]}, np.array([1.0]), InvalidInputError),
        ("L26", L26_PARAMS, np.array([1.0]), InvalidInputError),
        ("L26", L26_PARAMS, TUBE_1, InvalidInputError),
        ("L26", L26_PARAMS, (TUBE_1, TUBE_2), InvalidInputError),
        ("L25", {"r": [3.0]}, TUBE_1, InvalidInputError),
        ("L23_1", {"s": [0.5]}, "abc", InvalidInputError)],
        ids=["non-cone-n2", "non-cone-slice", "bare-kernel", "bare-tube",
             "bare-pair", "single-for-pair", "pair-orders", "tube-for-slice",
             "non-numeric"])
    def test_bad_point_raises(self, reader, ident, params, point, error):
        with pytest.raises(error):
            POINT_READERS[reader](ident, params, point)

    @pytest.mark.parametrize("reader", POINT_READERS)
    @pytest.mark.parametrize("params", [
        {"r": [2.0]}, {"r": [2.0], "eta": [0.0], "l": [0.0]},
        {"s": [2.0], "eta": [0.0]}])
    def test_wrong_keys_raise(self, reader, params):
        with pytest.raises(InvalidInputError, match="L24 takes exactly"):
            POINT_READERS[reader]("L24", params, np.array([1.0]))

    def test_wrong_keys_raise_in_check_params(self):
        with pytest.raises(InvalidInputError, match="L24 takes exactly"):
            check_params("L24", 1, {"r": [2.0]})


class TestRegistry:
    def test_all_identities_registered(self):
        assert set(IDENTITY_IDS) == {"L23_1", "L23_2", "COR1_1", "COR1_2",
                                     "L24", "L25", "L26", "L27"}

    def test_random_params_in_range(self, rng):
        for ident in IDENTITY_IDS:
            ddef = get_identity(ident)
            for n in (1, 2, 3):
                for _ in range(30):
                    p = random_params(ident, n, rng)
                    assert all(ok for ok, _ in ddef.range_check(n, p))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_regions(self, n):
        # the domain, plus the dual cone for the two inverse transforms
        # where border doubling reaches it
        dual = {"L23_2", "COR1_2"} if n <= 2 else set()
        for ident in IDENTITY_IDS:
            domain = get_identity(ident).domain
            expected = (domain, "dual") if ident in dual else (domain,)
            assert get_identity(ident).regions(n) == expected, ident

    def test_no_identity_ids_outside_registry(self):
        # the oracle, the CLI and the report writers read the registry
        # instead of branching on identity ids
        root = Path(conetube.__file__).parent
        for name in ("oracle.py", "cli.py", "reporting.py"):
            tree = ast.parse((root / name).read_text())
            found = [node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and node.value in IDENTITY_IDS]
            assert found == [], name

    def test_operator_modules_import_no_identity_builders(self):
        # the operator lab and the Schur check compute every lemma through
        # its registry entry and use no private helper of the identities
        root = Path(conetube.__file__).parent
        for name in ("operators.py", "boundedness.py"):
            tree = ast.parse((root / name).read_text())
            imported = []
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                names = [a.name for a in node.names]
                if node.module in ("identities", "conetube.identities"):
                    imported += names
                elif node.module in (None, "conetube"):
                    assert "identities" not in names, name
            bad = [x for x in imported if x.startswith("_")]
            assert imported and bad == [], (name, bad)

    def test_readme_documents_every_registry_field(self):
        # a registry field cannot be added without documenting it
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Adding an identity", 1)[1].split("\n## ", 1)[0]
        missing = [f.name for f in dataclasses.fields(IdentityDef)
                   if f"`{f.name}`" not in section]
        assert missing == []

    def test_structure_positive_for_modulus_identities(self, rng):
        for ident in ("L23_1", "COR1_1", "L24", "L25", "L27"):
            for n in (1, 2):
                p = random_params(ident, n, rng)
                pt = random_point(ident, n, rng)
                assert structure_value(ident, p, pt) > 0
