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
from conetube.geometry import (TubePoint, canonical_to_coords, complex_minors,
                               complex_power_from_minors, delta_power)
from conetube.identities import (IDENTITY_IDS, TWO_PI, IdentityDef, check_params,
                                 closed_form, closed_value, get_identity,
                                 kernel_region_integrand, random_cone_vector,
                                 random_params, random_point, structure_value)
from conetube.indices import Convention, MultiIndex, bold_values, shift_index
from conetube.oracle import (_tensor_pass, oracle_estimate, quad_iterated,
                             verify_identity)
from conetube.sampling import sample_cone


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
        loc, scl = ident.sampler(2, params, z).border[0].loc_scale(math.exp(16.58))
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
                                             0.125).real for x in xs])


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

    @pytest.mark.parametrize("ident_id", ["L26", "L27"])
    def test_derived_at_n1_only(self, ident_id, rng):
        ident = get_identity(ident_id)
        assert ident.reduction(2, random_params(ident_id, 2, rng),
                               random_point(ident_id, 2, rng)) is None


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
