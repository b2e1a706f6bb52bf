import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conetube.errors import (AccuracyError, ConvergenceDomainError,
                             InvalidInputError, OracleRejectedError)
from conetube.geometry import TubePoint, delta_power, is_in_cone
from conetube.identities import (IDENTITY_IDS, L25_constant, get_identity,
                                 random_params, random_point, read_params,
                                 structure_value)
from conetube.indices import bold_values
from conetube import identities, oracle
from conetube.oracle import (CHUNK, CONFIRMED, CONSTANT_MISMATCH, INCONCLUSIVE,
                             MISMATCH, READOFF_POINTS, SCALING_LAMS,
                             _CALIBRATION_CACHE, _axis_nodes, AuditRecord,
                             BLOCK, _scaling_checks, _tensor_pass, _thread_count,
                             calibrated_constant, mc_integrate_cone,
                             mc_integrate_slice, mc_integrate_tube,
                             oracle_estimate, parallel_map, quad_iterated,
                             quad_supported, verify_identity)
from conetube.sampling import (CauchyLaw, ConditionalCauchyLaw, RadialLaw,
                               SamplerSpec, VCauchyLaw, sample_cone,
                               sample_tube)

from conftest import ess_fraction, importance_weights
from test_identities import slice_modulus_constant_n2

GAMMA_SPEC_1D = SamplerSpec(n=1, radial=(RadialLaw("gamma", 1.0, 4 * math.pi),),
                            border=())


def tube_spec_1d():
    return SamplerSpec(n=1, radial=(RadialLaw("betaprime", 1.0, 2.0, 1.0),),
                       border=(), real=(CauchyLaw(0.0, 1.0),))


# real-part laws and their explicit Cauchy (loc, scale) at the context (x, v)
REAL_LAWS = [
    (CauchyLaw(0.0, 1.05), lambda x, v: (0.0, 1.05)),
    (CauchyLaw(-0.3, 2.5), lambda x, v: (-0.3, 2.5)),
    (ConditionalCauchyLaw(ref=0, mu=0.4, c=0.5, s1=0.7),
     lambda x, v: (0.4 * x[:, 0], 0.7 * np.hypot(0.5, x[:, 0]))),
    (VCauchyLaw(ref1=1, ref2=None, offset=0.3),
     lambda x, v: (0.0, 0.3 + v[:, 1])),
    (VCauchyLaw(ref1=0, ref2=2, offset=0.3),
     lambda x, v: (0.0, 0.3 + np.sqrt(v[:, 0] * v[:, 2]))),
]


class TestRealPartLaws:
    @pytest.mark.parametrize("law, explicit", REAL_LAWS,
                             ids=["static-1.05", "static", "conditional",
                                  "v-diagonal", "v-border"])
    def test_draws_and_logpdf_are_the_cauchy_formulas(self, law, explicit):
        ctx = np.random.default_rng(5)
        x = ctx.standard_normal((1000, 3))
        v = ctx.uniform(0.5, 2.0, (1000, 3))
        loc, scale = explicit(x, v)
        # a static scale's log is math.log: np.log(1.05) differs in the
        # last bit on some machines
        log_scale = (math.log(scale) if isinstance(scale, float)
                     else np.log(scale))
        draws = law.sample(np.random.default_rng(11), x, v)
        expected = loc + scale * np.random.default_rng(11).standard_cauchy(1000)
        assert np.array_equal(draws, expected)
        t = (draws - loc) / scale
        assert np.array_equal(law.logpdf(draws, x, v),
                              -np.log1p(t * t) - log_scale - math.log(math.pi))

    @pytest.mark.parametrize("df", [0.4, 2.5])
    def test_student_t_draws_and_logpdf(self, df):
        from scipy import stats
        law = CauchyLaw(-0.3, 2.5, df=df)
        x = np.empty((1000, 0))
        draws = law.sample(np.random.default_rng(11), x)
        expected = -0.3 + 2.5 * np.random.default_rng(11).standard_t(df, 1000)
        assert np.array_equal(draws, expected)
        assert np.allclose(law.logpdf(draws, x),
                           stats.t.logpdf(draws, df, loc=-0.3, scale=2.5),
                           rtol=0.0, atol=1e-12)


class TestSamplers:
    def test_every_sample_in_cone(self, rng):
        for ident in ("L23_1", "L24", "L23_2"):
            for n in (1, 2, 3):
                params = random_params(ident, n, rng)
                point = random_point(ident, n, rng)
                ddef = get_identity(ident)
                spec = ddef.sampler(n, read_params(ident, n, params), point)
                coords, d, logpdf = sample_cone(spec, 2000, rng)
                assert np.all(is_in_cone(coords))
                assert np.all(d > 0) and np.all(np.isfinite(logpdf))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slice_law_states_only_what_it_draws(self, n, rng):
        # L25's law has real parts and no cone part; a spec must have a
        # complete cone part or, with real parts, none
        ident = get_identity("L25")
        spec = ident.sampler(n, random_params("L25", n, rng),
                             random_point("L25", n, rng))
        assert (spec.radial, spec.border) == ((), ())
        assert len(spec.real) == 2 * n - 1
        with pytest.raises(InvalidInputError):
            SamplerSpec(n=n)
        with pytest.raises(InvalidInputError):
            SamplerSpec(n=n, border=spec.real[:1], real=spec.real)

    def test_n1_reduces_to_gamma_sampling(self, rng):
        coords, d, _ = sample_cone(GAMMA_SPEC_1D, 200_000, rng)
        assert coords.shape == (200_000, 1)
        # Gamma(1, rate 4 pi) has mean 1/(4 pi)
        assert np.mean(d) == pytest.approx(1 / (4 * math.pi), rel=0.02)

    def test_density_self_normalization(self, rng):
        # estimating the density against itself returns exactly 1 per sample
        spec = GAMMA_SPEC_1D

        def integrand(coords, d=None):
            return np.exp(spec.radial[0].logpdf(coords[:, 0]))

        est = mc_integrate_cone(integrand, spec, 100_000, seed=4)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error < 1e-12

    def test_density_normalization_against_known_mass(self, rng):
        # betaprime(1,2) has int y/(1+y)^3 known moments: E[1/(1+y)] = 3/4...
        # check the law's density integrates a known function correctly
        spec = tube_spec_1d()
        x, v, logpdf = sample_tube(spec, 400_000, rng)
        # integral over (x, v) of e^{-v} * 1/(pi (1+x^2)) dx dv = 1
        vals = np.exp(-v[:, 0]) / (math.pi * (1 + x[:, 0] ** 2)) \
            * np.exp(-logpdf)
        assert np.mean(vals) == pytest.approx(1.0, rel=0.02)


class TestMonteCarlo:
    def test_n1_gamma_integral(self, rng):
        def integrand(coords, d=None):
            return np.exp(-4 * math.pi * coords[:, 0])

        est = mc_integrate_cone(integrand, GAMMA_SPEC_1D, 50_000, seed=1)
        assert est.method == "MC_CONE"
        assert est.value == pytest.approx(1 / (4 * math.pi), rel=1e-12)

    def test_n2_against_closed_form(self):
        ddef = get_identity("L23_1")
        params = {"s": np.array([0.25, -0.25])}
        t = np.array([1.0, 1.2, 0.3])
        spec = ddef.sampler(2, params, t)
        f = ddef.integrand(2, params, t)
        est = mc_integrate_cone(f, spec, 400_000, seed=9)
        from conetube.identities import closed_value
        target = closed_value("L23_1", params, t)
        z = abs(est.value - target) / max(est.std_error, 1e-18 * abs(target))
        assert z <= 3.0 or abs(est.value - target) <= 1e-9 * abs(target)

    def test_zero_integrand_is_exactly_zero(self):
        def integrand(coords, d=None):
            return np.zeros(coords.shape[0])

        est = mc_integrate_cone(integrand, GAMMA_SPEC_1D, 10_000, seed=2)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_determinism_bit_identical(self):
        ddef = get_identity("L24")
        params = {"r": np.array([3.5]), "eta": np.array([1.0])}
        b = np.array([1.3])
        f = ddef.integrand(1, params, b)
        spec = ddef.sampler(1, params, b)
        a = mc_integrate_cone(f, spec, 150_000, seed=77)
        bb = mc_integrate_cone(f, spec, 150_000, seed=77)
        assert a == bb

    def test_worker_count_independence(self, monkeypatch):
        ddef = get_identity("L24")
        params = {"r": np.array([3.5]), "eta": np.array([1.0])}
        b = np.array([1.3])
        f = ddef.integrand(1, params, b)
        spec = ddef.sampler(1, params, b)
        monkeypatch.setenv("CONETUBE_THREADS", "1")
        a = mc_integrate_cone(f, spec, 300_000, seed=5)
        monkeypatch.setenv("CONETUBE_THREADS", "3")
        c = mc_integrate_cone(f, spec, 300_000, seed=5)
        assert a == c

    def test_nonfinite_policy(self):
        def bad(frac):
            def integrand(coords, d=None):
                vals = np.ones(coords.shape[0])
                k = int(frac * coords.shape[0])
                if k:
                    vals[:k] = np.nan
                return vals
            return integrand

        with pytest.raises(OracleRejectedError):
            mc_integrate_cone(bad(0.01), GAMMA_SPEC_1D, 100_000, seed=3)
        est = mc_integrate_cone(bad(0.0004), GAMMA_SPEC_1D, 100_000, seed=3)
        assert est.nonfinite > 0

    def test_one_sample_refused(self):
        # a standard error needs at least two samples
        with pytest.raises(InvalidInputError, match="at least 2"):
            mc_integrate_cone(lambda coords, d: d, GAMMA_SPEC_1D, 1, seed=0)

    def test_nonfinite_counted_without_warning(self):
        # inf * 0 raises "invalid value" inside the integrand; the driver
        # counts and zeroes the NaNs instead of leaking the warning
        calls = []

        def integrand(coords, d=None):
            calls.append(coords.shape[0])
            vals = np.ones(coords.shape[0])
            vals[:5] = np.inf
            zero = np.ones(coords.shape[0])
            zero[:5] = 0.0
            return vals * zero

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mc_integrate_cone(integrand, GAMMA_SPEC_1D, 100_000, seed=3)
        assert sum(calls) == 100_000 and len(calls) > 2
        assert est.nonfinite == 5 * len(calls)  # 5 in each row block

    def test_thread_count_is_a_positive_integer(self, monkeypatch):
        monkeypatch.delenv("CONETUBE_THREADS", raising=False)
        assert _thread_count() == 1
        for bad in ("two", "0", "-1", "", "1.5", "9" * 5000):
            monkeypatch.setenv("CONETUBE_THREADS", bad)
            with pytest.raises(InvalidInputError, match="CONETUBE_THREADS"):
                _thread_count()

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv("CONETUBE_THREADS", "1000")
        assert _thread_count() == (os.cpu_count() or 1)

    def test_slice_and_tube_paths(self, rng):
        # slice: int over x of cauchy pdf = 1; tube mass of product density
        spec = tube_spec_1d()

        def slice_f(x):
            return 1.0 / (math.pi * (1 + x[:, 0] ** 2))

        est = mc_integrate_slice(slice_f, spec, 50_000, seed=8)
        assert est.value == pytest.approx(1.0, abs=1e-12)

        def tube_f(x, v):
            return (1.0 / (math.pi * (1 + x[:, 0] ** 2))) * np.exp(-v[:, 0])

        est2 = mc_integrate_tube(tube_f, spec, 200_000, seed=9)
        assert est2.value == pytest.approx(1.0, rel=0.02)
        assert est2.method == "MC_TUBE"


class TestRaoBlackwell:
    """Monte Carlo on the slice and the tube integrates x_n in closed form
    through the registry's reduction; on fixed seeds it agrees with the
    full estimator within 4 combined standard errors."""

    def test_integrated_law_is_not_drawn(self, rng):
        ddef = get_identity("L27")
        params, point = random_params("L27", 2, rng), random_point("L27", 2, rng)
        spec = ddef.sampler(2, params, point).integrating_last_real()
        x, v, logpdf = sample_tube(spec, 1000, rng)
        assert x.shape == (1000, 2) and v.shape == (1000, 3)
        assert np.all(np.isfinite(logpdf))

    @pytest.mark.parametrize("ident_id", ["L25", "L26", "L27"])
    def test_reduced_agrees_with_full(self, ident_id):
        ddef = get_identity(ident_id)
        mc = mc_integrate_slice if ddef.domain == "slice" else mc_integrate_tube
        rng = np.random.default_rng(23)
        for _ in range(3):
            params = random_params(ident_id, 2, rng)
            point = random_point(ident_id, 2, rng)
            reduced = oracle_estimate(ident_id, params, point, 100_000, 5,
                                      method="mc")
            full = mc(ddef.integrand(2, params, point),
                      ddef.sampler(2, params, point), 100_000, 5)
            sigma = math.hypot(reduced.std_error, full.std_error)
            assert reduced.value != full.value  # another stream: reduced
            assert abs(reduced.value - full.value) <= 4.0 * sigma, \
                (params, reduced, full)


class TestTubeTruth:
    """L27 at n = 2 on the README n = 2 audit's own cases: its draws
    (``default_rng(42)``, three per identity in registry order) at its
    seeds 42 + 977 i.  The truth is the scaling lab's composition: the
    x-integral is the slice identity, L25's calibrated constant, and it
    leaves L24's integrand at (r - 3/2, l) translated by y_z, which
    quadrature integrates."""

    def test_audit_cases_meet_the_slice_truth(self):
        rng = np.random.default_rng(42)
        cases = [(ident_id, random_params(ident_id, 2, rng),
                  random_point(ident_id, 2, rng))
                 for ident_id in IDENTITY_IDS for _ in range(3)]
        for i, (ident_id, params, z) in enumerate(cases):
            if ident_id != "L27":
                continue
            truth = (calibrated_constant("L25", 2, {"r": params["r"]})
                     * quad_iterated("L24", {"r": params["r"] - 1.5,
                                             "eta": params["l"]}, z.y).value)
            est = oracle_estimate("L27", params, z, 200_000, 42 + 977 * i,
                                  method="mc")
            assert est.std_error <= 0.015 * est.value, (i, est)
            assert abs(est.value - truth) <= 3.0 * est.std_error, (i, est, truth)


def _audit_L25_cases(n, seed, per):
    """(seed, params, v) of each L25 record of the audit ``{"n": n, "seed":
    seed, "budget": 200000, "configs_per_identity": per}``: its draws
    (``default_rng(seed)``, ``per`` per identity in registry order) at its
    seeds seed + 977 i."""
    rng = np.random.default_rng(seed)
    cases = [(ident_id, random_params(ident_id, n, rng),
              random_point(ident_id, n, rng))
             for ident_id in IDENTITY_IDS for _ in range(per)]
    return [(seed + 977 * i, params, v)
            for i, (ident_id, params, v) in enumerate(cases)
            if ident_id == "L25"]


def _near_edge_L25_cases(r1):
    """L25 at r = (r_1, 3), n = 2, seeds 0-3: the diagonal's law has
    r_1 - 2 degrees, and the Cauchy law it replaced gave infinite-variance
    weights for r_1 < 2.5."""
    v = random_point("L25", 2, np.random.default_rng(3))
    return [(seed, {"r": np.array([r1, 3.0])}, v) for seed in range(4)]


L25_AUDITS = {**{str(seed): (3, seed, 2) for seed in (0, 1, 3)},
              **{f"n2-seed{seed}": (2, seed, 3) for seed in (0, 1, 42)}}


class TestSliceTruth:
    """L25 against its closed form C(n, bold r) Delta^(-bold r + J)(v), J =
    (3/2, ..., 3/2, (n+1)/2), on the n = 2 and n = 3 audits' own cases and
    at near-edge n = 2 points.  Monte Carlo integrates x_n in closed form,
    and every other real part is drawn from the reduced density's own law,
    so each of the 200,000-draw bars is at most 0.25%."""

    @pytest.mark.parametrize("cases, args", [
        *(pytest.param(_audit_L25_cases, args, id=key)
          for key, args in L25_AUDITS.items()),
        *(pytest.param(_near_edge_L25_cases, (r1,), id=f"edge-{r1}")
          for r1 in (2.05, 2.1, 2.2))])
    def test_audit_cases_meet_the_closed_form(self, cases, args):
        for seed, params, v in cases(*args):
            n = (len(v) + 1) // 2
            rb = bold_values(params["r"], n)
            jac = np.append(np.full(n - 1, 1.5), (n + 1) / 2.0)
            truth = L25_constant(n, rb) * delta_power(v, -rb + jac)
            est = oracle_estimate("L25", params, v, 200_000, seed, method="mc")
            assert est.std_error <= 0.0025 * est.value, (seed, est)
            assert abs(est.value - truth) <= 3.0 * est.std_error, (seed, est, truth)

    @pytest.mark.parametrize("args", L25_AUDITS.values(), ids=L25_AUDITS.keys())
    def test_audit_weights_keep_half_their_draws(self, args):
        # at one chunk, the first chunk of the audit's own 200,000 draws
        for seed, params, v in _audit_L25_cases(*args):
            w = importance_weights("L25", params, v, CHUNK, seed)
            assert ess_fraction(w) >= 0.5, (seed, params, v)


class TestTranslateTruth:
    """L24 at n = 2 on the README n = 2 audit's own cases, drawn as in
    ``TestTubeTruth``, against its quadrature.  Its borders follow the
    density's own conditional law, so the audit's 200,000 draws bring each
    bar to 0.2%."""

    def test_audit_cases_meet_the_quadrature_truth(self):
        rng = np.random.default_rng(42)
        cases = [(ident_id, random_params(ident_id, 2, rng),
                  random_point(ident_id, 2, rng))
                 for ident_id in IDENTITY_IDS for _ in range(3)]
        for i, (ident_id, params, b) in enumerate(cases):
            if ident_id != "L24":
                continue
            truth = quad_iterated("L24", params, b, rel_tol=1e-10).value
            est = oracle_estimate("L24", params, b, 200_000, 42 + 977 * i,
                                  method="mc")
            assert est.std_error <= 0.002 * est.value, (i, est)
            assert abs(est.value - truth) <= 3.0 * est.std_error, (i, est, truth)


@pytest.mark.parametrize("threads", ["1", "2"])
class TestParallelMap:
    def test_results_come_back_in_item_order(self, monkeypatch, threads):
        monkeypatch.setenv("CONETUBE_THREADS", threads)

        def square(x):
            time.sleep(0.02 if x == 0 else 0.0)  # later items finish first
            return x * x

        assert parallel_map(square, range(6)) == [x * x for x in range(6)]

    def test_first_failing_item_surfaces(self, monkeypatch, threads):
        monkeypatch.setenv("CONETUBE_THREADS", threads)

        def fail(x):
            if x == 2:
                time.sleep(0.05)  # item 5 fails first in time
            if x in (2, 5):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="item 2"):
            parallel_map(fail, range(8))

    def test_nested_call_runs_on_the_calling_worker(self, monkeypatch,
                                                    threads):
        monkeypatch.setenv("CONETUBE_THREADS", threads)
        import conetube.oracle as oracle
        pools = []

        class Counted(oracle.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", Counted)

        def outer(_):
            inner = parallel_map(lambda _: threading.get_ident(), range(4))
            return threading.get_ident(), inner

        for me, inner in parallel_map(outer, range(4)):
            assert inner == [me] * 4
        assert len(pools) == (1 if _thread_count() > 1 else 0)


class TestQuadrature:
    def test_support_table(self):
        assert quad_supported("L23_1", 2) and not quad_supported("L23_1", 3)
        assert quad_supported("L27", 1) and not quad_supported("L27", 2)
        assert quad_supported("L26", 1) and not quad_supported("L26", 2)
        assert quad_supported("L25", 2)

    def test_n1_analytic_values(self):
        est = quad_iterated("L23_1", {"s": [0.0]}, np.array([1.0]),
                            rel_tol=1e-10)
        assert est.value == pytest.approx(1 / (4 * math.pi), rel=1e-10)
        assert est.method == "QUAD_ITERATED"
        est = quad_iterated("L24", {"r": [3.0], "eta": [1.0]}, np.array([1.0]),
                            rel_tol=1e-10)
        assert est.value == pytest.approx(0.5, rel=1e-10)

    def test_n2_value(self):
        est = quad_iterated("L23_1", {"s": [0.0, 0.0]}, np.array([1.0, 1, 0]))
        assert est.value == pytest.approx(1 / (128 * math.pi ** 2), rel=1e-10)

    def test_unsupported_raises(self):
        z = TubePoint.make(np.zeros(3), np.array([1.0, 1, 0]))
        with pytest.raises(InvalidInputError):
            quad_iterated("L27", {"l": [0.0, 0], "r": [4.0, 4]}, z)

    def test_l26_n1_matches_nested_quad(self):
        # the seed-0 L26 row of the default n = 1 audit.  Reference: nested
        # scipy quad of the full integrand, inner over u on (-inf, inf) at
        # epsrel 1e-12, outer over v on (0, inf) at epsrel 1e-11, real and
        # imaginary parts separately: 3.8580596363281554 - 0.24537497418427126i
        z = TubePoint.make([-0.17486026655258047], [1.1404072399791443])
        xi = TubePoint.make([0.14816213514364712], [0.8767706507924969])
        params = {"l": [0.6270779231349853], "r": [1.5333690674466744],
                  "eta": [1.493708855688311]}
        est = quad_iterated("L26", params, (z, xi))
        ref = 3.8580596363 - 0.2453749742j
        assert abs(est.value - ref) <= 1e-8 * abs(ref)

    def test_mc_quad_cross_agreement(self, rng):
        # |MC - QUAD| <= 3 sigma_MC on in-range spot checks at n <= 2
        spots = [
            ("L23_1", {"s": [0.3]}, np.array([0.9]), 1e-9),
            ("L23_1", {"s": [0.5, 0.25]}, np.array([1.0, 1, 0.3]), 1e-8),
            ("COR1_1", {"s": [-0.5, 0.3]}, np.array([0.8, 1.4, -0.2]), 1e-8),
            ("L24", {"r": [3.5, 2.2], "eta": [0.5, 0.2]},
             np.array([1.0, 1, 0.2]), 1e-5),
            ("L27", {"l": [0.2], "r": [4.0]},
             TubePoint.make([0.3], [1.1]), 1e-9),
        ]
        for ident, params, point, tol in spots:
            q = quad_iterated(ident, params, point, rel_tol=tol)
            m = oracle_estimate(ident, params, point, 400_000, seed=11,
                                method="mc")
            assert abs(q.value - m.value) <= 3 * m.std_error \
                + 1e-9 * abs(q.value), ident

    def test_l25_n2_cross_agreement(self):
        params = {"r": [2.5, 2.2]}
        v = np.array([1.0, 1, 0.2])
        q = quad_iterated("L25", params, v)
        m = oracle_estimate("L25", params, v, 1_000_000, seed=11, method="mc")
        assert abs(q.value - m.value) <= 3 * m.std_error + q.std_error

    def test_l25_n2_reduced_value(self):
        # the exact constant K(4) K(6) K(3) = 3 pi^2 / 8
        v = np.array([1.0, 1, 0])
        est = quad_iterated("L25", {"r": [4, 4]}, v)
        value = est.value / structure_value("L25", {"r": [4, 4]}, v)
        assert value == pytest.approx(3.70110165041, rel=1e-9)
        assert value == pytest.approx(3 * math.pi ** 2 / 8, rel=1e-12)

    def test_l25_n2_random_draws_meet_rel_tol(self):
        # the reduced 2-D tensor certifies the requested tolerance itself,
        # not only the 100x gate, and the exact value lies inside its error;
        # draws whose tail index leaves too much mass outside the widest
        # window (or whose integral diverges) raise instead
        rng = np.random.default_rng(3)
        met = refused = 0
        while met < 5:
            params = random_params("L25", 2, rng)
            v = random_point("L25", 2, rng)
            r = params["r"]
            tail_index = min(r[0] - 2.0, 2.0 * r[1] - 3.0)
            if tail_index < 0.1:
                with pytest.raises(AccuracyError):
                    quad_iterated("L25", params, v)
                refused += 1
                continue
            est = quad_iterated("L25", params, v, rel_tol=1e-8)
            exact = slice_modulus_constant_n2(r) \
                * structure_value("L25", params, v)
            assert est.std_error <= 1e-8 * abs(est.value), (r, v)
            assert abs(est.value - exact) <= est.std_error, (r, v)
            met += 1
        assert refused == 2

    def test_l25_n2_divergent_range_refused(self):
        # r_1 = 1.9 passes c6_range (r_1 > 3/2), but the slice integral
        # diverges for r_1 <= 2: the mass of a finite window is no estimate
        with pytest.raises(AccuracyError, match="diverges"):
            quad_iterated("L25", {"r": [1.9, 3.0]}, np.array([1.0, 1, 0]))

    def test_l25_n1_out_of_range_refused(self):
        # r = 15/16 fails r > (n+1)/2: the integral diverges, and quadrature
        # refuses it instead of returning a finite number
        with pytest.raises(ConvergenceDomainError):
            quad_iterated("L25", {"r": [0.9375]}, np.array([1.0]))

    @pytest.mark.parametrize("seed, draws", [(5, range(4)), (6, range(4)),
                                             (123, (7, 11))])
    def test_l24_n2_draws_meet_rel_tol(self, seed, draws):
        # the reduced (y_1, D) tensor certifies rel_tol 1e-8 on draws where
        # the 3-D cone tensor raised AccuracyError (halving errors up to
        # 6.4e-3) or met non-finite nodes where D(y + b) cancelled
        rng = np.random.default_rng(seed)
        pairs = [(random_params("L24", 2, rng), random_point("L24", 2, rng))
                 for _ in range(max(draws) + 1)]
        for i in draws:
            est = quad_iterated("L24", *pairs[i], rel_tol=1e-8)
            assert 0.0 < est.std_error <= 1e-8 * est.value, (seed, i, est)

    def test_bar_holds_the_rounding_of_the_sum(self):
        # the first L24 row of the README n = 1 audit, whose step-halving
        # change is 1.2e-16 relative; the bar adds 4 ulp of the sum of
        # |f w|, which is the value since the integrand is positive.  The
        # exact b^(eta - r + 1) B(eta + 1, r - eta - 1) at these double
        # inputs, by mpmath at 40 digits, is 8.9e-17 relative away
        eta, r, b = 0.5916194494525074, 3.1526311283735597, 0.9909904297657823
        exact = 0.3482477732180392670679572555344618606701
        est = quad_iterated("L24", {"r": [r], "eta": [eta]}, np.array([b]))
        assert est.std_error >= 4.0 * np.finfo(float).eps * est.value
        assert abs(est.value - exact) <= est.std_error

    def test_positive_window_stops_below_the_double_range(self):
        # a window around scale 1e300 would put nodes past 1.8e308 (inf);
        # it stops at LOG_MAX and reports the mass beyond as left outside
        dec = identities.Decay(1e300, 1.0, 1.0)
        (kind, lo, hi), left = oracle._window(dec, 1e-8)
        assert kind == "pos" and hi == pytest.approx(oracle.LOG_MAX)
        assert left > 1e-10  # 24 e-folds were wanted; fewer than 19 remain
        for h in oracle.STEPS:
            x, w = _axis_nodes((kind, lo, hi), h)
            assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))

    def test_n2_cone_windows_hold_the_mass(self):
        # draws 0 and 1 of default_rng(5), on which windows at the proposal
        # laws' 1e-14 quantiles leave out 4.3e-6 and 1.2e-5 of the value,
        # 30 times their step-halving bars (COR1_2 is L23_2 at n = 2).  The
        # value agrees within its bar with a trapezoid whose radial windows
        # reach 8 e-folds further at each end
        rng = np.random.default_rng(5)
        for ident_id in ("L23_2", "COR1_2"):
            params = random_params(ident_id, 2, rng)
            point = random_point(ident_id, 2, rng)
            est = quad_iterated(ident_id, params, point)
            f_axes, axes, _ = oracle._quad_problem(
                get_identity(ident_id), 2, params, point, None, 1e-8)
            wide = [(a[0], a[1] - 8.0, a[2] + 8.0) if a[0] == "pos" else a
                    for a in axes]
            ref, _ = oracle._trapezoid(f_axes, wide, 1e-8)
            assert abs(est.value - ref) <= est.std_error, (ident_id, est, ref)


PLANE_AXES = [("real", 1.3, -6.0, 6.0), ("pos", -5.0, 3.0)]


class TestBlocks:
    """A chunk weighted in row blocks gives the bits of the unblocked run,
    and an n = 1 quadrature calls its integrand once per block of nodes."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("ident", ["L24", "L23_2", "L25", "L26"],
                             ids=["cone-real", "cone-complex", "slice", "tube"])
    def test_blocked_chunks_are_bit_identical(self, monkeypatch, ident, n):
        rng = np.random.default_rng(11)
        params, point = random_params(ident, n, rng), random_point(ident, n, rng)
        count = CHUNK + 3392  # a partial chunk, and in it a partial block

        def estimate():
            return oracle_estimate(ident, params, point, count, 7, method="mc")

        blocked = estimate()
        monkeypatch.setattr(oracle, "BLOCK", CHUNK)
        assert estimate() == blocked

    def test_blocks_bound_the_chunk_peak(self, monkeypatch):
        ddef = get_identity("L26")
        rng = np.random.default_rng(3)
        params, point = random_params("L26", 2, rng), random_point("L26", 2, rng)
        f = ddef.integrand(2, params, point)
        spec = ddef.sampler(2, params, point)

        def peak():
            tracemalloc.start()
            try:
                mc_integrate_tube(f, spec, CHUNK, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocked = peak()
        monkeypatch.setattr(oracle, "BLOCK", CHUNK)
        assert blocked < 0.6 * peak()

    @pytest.mark.parametrize("block", [BLOCK, 100])
    @pytest.mark.parametrize("ident", ["L27", "L26"], ids=["real", "complex"])
    def test_n1_quad_calls_its_integrand_once_per_block(self, monkeypatch,
                                                        ident, block):
        # at most (step levels) x ceil(nodes / BLOCK) calls, nodes being the
        # finest pass's; a complex integrand gets no second pass
        ddef = get_identity(ident)
        calls, passes = [], []

        def reduction(n, p, pt):
            red = ddef.reduction(n, p, pt)

            def counted(v):
                calls.append(v.shape[0])
                return red(v)
            return counted

        def nodes(axis, h):
            x, w = _axis_nodes(axis, h)
            passes.append(x.size)
            return x, w

        monkeypatch.setitem(identities.IDENTITIES, ident,
                            dataclasses.replace(ddef, reduction=reduction))
        monkeypatch.setattr(oracle, "_axis_nodes", nodes)
        monkeypatch.setattr(oracle, "BLOCK", block)
        rng = np.random.default_rng(4)
        params, point = random_params(ident, 1, rng), random_point(ident, 1, rng)
        est = quad_iterated(ident, params, point, rel_tol=1e-9)
        assert isinstance(est.value, complex) == ddef.complex_valued
        assert 1 <= len(passes) <= 3 and max(calls) <= block
        assert len(calls) <= 3 * math.ceil(max(passes) / block)
        assert sum(calls) == sum(passes)


class TestQuadpackReference:
    """The n = 1 trapezoid agrees with scipy's QUADPACK within the two error
    bars combined, on random draws of every identity and region."""

    @staticmethod
    def quadpack(ident, params, point, region):
        from scipy import integrate
        n = 1
        if ident.domain == "tube":
            f = ident.reduction(n, params, point)
        elif region == ident.domain:
            f = ident.integrand(n, params, point)
        else:
            f = ident.dual_region(n, params, point)
        lo = -np.inf if ident.domain == "slice" else 0.0

        def part(take):
            return integrate.quad(lambda x: take(f(np.array([[x]]))[0]),
                                  lo, np.inf, epsabs=1e-300, epsrel=1e-8,
                                  limit=400)

        (re, ere), (im, eim) = part(np.real), part(np.imag)
        return complex(re, im), ere + eim

    def check(self, ident_id, params, point, region):
        ident = get_identity(ident_id)
        est = quad_iterated(ident_id, params, point, region=region)
        ref, err_ref = self.quadpack(ident, read_params(ident_id, 1, params),
                                     point, region)
        assert abs(est.value - ref) <= est.std_error + err_ref, \
            (ident_id, region, params, point, est, ref, err_ref)

    @pytest.mark.parametrize("ident_id", IDENTITY_IDS)
    def test_random_draws_every_region(self, ident_id):
        rng = np.random.default_rng(2024)
        for region in get_identity(ident_id).regions(1):
            for _ in range(10):
                self.check(ident_id, random_params(ident_id, 1, rng),
                           random_point(ident_id, 1, rng), region)

    def test_l24_heavy_tail_draws(self):
        # draws of default_rng(123) with tail index r - eta - 1 near 0.4,
        # which windows from the proposal's quantiles cut short by more
        # than both error bars
        rng = np.random.default_rng(123)
        draws = [(random_params("L24", 1, rng), random_point("L24", 1, rng))
                 for _ in range(18)]
        for i in (0, 8, 13, 15, 17):
            params, point = draws[i]
            assert params["r"][0] - params["eta"][0] - 1.0 < 0.5
            self.check("L24", params, point, "cone")


class TestTensorPass:
    @pytest.mark.parametrize("axes, complex_valued", [
        (PLANE_AXES, False), (PLANE_AXES, True),
        ([("lin", 0.5, 0.6)] + PLANE_AXES, False),
        ([("lin", 0.5, 0.6)] + PLANE_AXES, True)],
        ids=["False", "True", "three-axes-False", "three-axes-True"])
    def test_blocked_pass_is_bit_identical(self, axes, complex_valued):
        h = 1.0 / 64
        *outer, (x0, w0), (x1, w1) = [_axis_nodes(axis, h) for axis in axes]
        assert x0.size * x1.size > 4 * CHUNK  # several row blocks

        def f(*xs):
            c = xs[0] if len(xs) == 3 else 1.0
            u, y = xs[-2:]
            vals = np.exp(-y) * y / (c + u * u)
            return vals * np.exp(1j * u * y) if complex_valued else vals

        def plane(*lead):  # the last two axes, in one unblocked sum
            return complex(np.sum(f(*lead, x0[:, None], x1[None, :])
                                  * (w0[:, None] * w1[None, :])))

        if outer:
            unblocked = 0.0 + 0.0j
            for c, w in zip(*outer[0]):
                unblocked += w * plane(np.full((x0.size, x1.size), c))
        else:
            unblocked = plane()
        assert _tensor_pass(f, axes, h)[0] == unblocked


class TestVerifyIdentity:
    def test_confirmed_analytic(self):
        rec = verify_identity("L23_1", {"s": [0.0]}, np.array([1.0]),
                              method="quad")
        assert rec.status == CONFIRMED and rec.z_score == 0.0

    def test_zero_lhs_against_zero_closed_form_confirms(self, monkeypatch):
        # both sides exactly 0: z = 0 confirms, and no lambda-test runs
        ident_id, params, point = L24_CM
        monkeypatch.setitem(identities.IDENTITIES, ident_id, dataclasses.replace(
            get_identity(ident_id), stated_constant=lambda n, p: 0.0,
            integrand=lambda n, p, pt: lambda y: np.zeros(y.shape[:-1])))
        rec = verify_identity(ident_id, params, point, method="quad")
        assert rec.lhs.value == 0.0 and rec.rhs_stated == 0.0
        assert rec.status == CONFIRMED and rec.z_score == 0.0
        assert rec.scaling == [] and rec.scaling_pass is None

    def test_inconclusive_at_tiny_budget(self):
        # tiny budgets give dominating error bars; note the matched cone
        # samplers are near-exact for some identities, so the demonstration
        # uses the honestly noisy tube path (seed fixed: deterministic)
        rec = verify_identity("L27", {"l": [0.2], "r": [4.0]},
                              TubePoint.make([0.3], [1.1]), budget=10, seed=3,
                              method="mc")
        assert rec.status == INCONCLUSIVE
        assert rec.lhs.std_error > 0.2 * abs(rec.lhs.value)

    def test_seed_independence_of_conclusions(self):
        # CONFIRMED cases stay within 3 sigma for at least 9 of 10 seeds
        ok = 0
        for seed in range(10):
            rec = verify_identity("L23_1", {"s": [0.4, 0.1]},
                                  np.array([1.0, 1.3, 0.2]), budget=100_000,
                                  seed=seed, method="mc")
            ok += rec.status == CONFIRMED
        assert ok >= 9

    def test_determinism_of_records(self):
        a = verify_identity("L25", {"r": [2.5]}, np.array([1.0]),
                            budget=50_000, seed=3, method="mc")
        b = verify_identity("L25", {"r": [2.5]}, np.array([1.0]),
                            budget=50_000, seed=3, method="mc")
        assert a.lhs == b.lhs and a.status == b.status \
            and a.z_score == b.z_score

    def test_constant_mismatch_with_scaling(self):
        rec = verify_identity("L24", {"r": [3.0], "eta": [1.0]},
                              np.array([1.0]), method="quad")
        assert rec.status == CONSTANT_MISMATCH
        assert rec.scaling_pass is True
        # fitted ratio records the true constant
        assert rec.fitted_constant == pytest.approx(0.5, rel=1e-8)

    def test_dual_region_confirms_kernels_n2(self):
        z = TubePoint.make([0.1, 0, -0.1], [2.0, 3, 1])
        for ident in ("L23_2", "COR1_2"):
            cone = verify_identity(ident, {"s": [0.3, -0.2]}, z,
                                   budget=400_000, seed=5, method="mc")
            dual = verify_identity(ident, {"s": [0.3, -0.2]}, z,
                                   budget=400_000, seed=5, method="mc",
                                   region="dual")
            assert cone.status == CONSTANT_MISMATCH
            assert dual.status == CONFIRMED

    def test_dual_region_rejected_for_non_kernels(self):
        with pytest.raises(InvalidInputError):
            verify_identity("L24", {"r": [3.0], "eta": [1.0]},
                            np.array([1.0]), method="quad", region="dual")

    @pytest.mark.parametrize("ident", ["L23_2", "COR1_2"])
    def test_dual_region_refused_at_n3(self, rng, ident):
        # at n = 3 border doubling does not give the dual cone, so the
        # registry lists no dual region there and no estimate is made
        params = random_params(ident, 3, rng)
        z = random_point(ident, 3, rng)
        with pytest.raises(InvalidInputError, match="dual"):
            verify_identity(ident, params, z, budget=1000, method="mc",
                            region="dual")
        with pytest.raises(InvalidInputError, match="dual"):
            oracle_estimate(ident, params, z, 1000, 0, method="mc",
                            region="dual")

    @pytest.mark.parametrize("ident, region, params, point", [
        ("L25", "slice", {"r": [2.5]}, np.array([1.0])),
        ("L27", "tube", {"l": [0.0], "r": [4.0]},
         TubePoint.make([0.1], [1.0]))])
    def test_own_domain_is_the_default_region(self, ident, region, params,
                                              point):
        default = verify_identity(ident, params, point, method="quad")
        named = verify_identity(ident, params, point, method="quad",
                                region=region)
        assert default.region == named.region == region
        assert (default.lhs, default.status) == (named.lhs, named.status)
        with pytest.raises(InvalidInputError):  # "cone" is not their domain
            verify_identity(ident, params, point, method="quad",
                            region="cone")

    def test_stated_constant_outside_c4_range_still_judged(self):
        # second L26 draw of the n = 1 audit at seed 1: c7_range holds while
        # r + l - eta = -2.118 lies outside C4's own range
        params = {"l": [-0.33173723737181066], "r": [0.8974422077487207],
                  "eta": [2.683782657815248]}
        point = (TubePoint.make([-0.20922369131824364], [1.6262723691444845]),
                 TubePoint.make([0.1806417480888342], [1.6518445156998967]))
        rec = verify_identity("L26", params, point, seed=1)
        assert rec.status in (CONFIRMED, CONSTANT_MISMATCH, MISMATCH,
                              INCONCLUSIVE)


def _readoff(ident_id, n, params, point, region=None):
    ident = get_identity(ident_id)
    return _scaling_checks(ident, n, params, point, region or ident.domain,
                           ident.structure(n, params, point))


def _defect(checks) -> float | None:
    return AuditRecord(identity="", n=0, params={}, point=None, lhs=None,
                       rhs_stated=0.0, structure=0.0, fitted_constant=0.0,
                       z_score=0.0, status="", region="",
                       scaling=checks).degree_defect


# the known L24 n = 1 constant mismatch (fitted constant 0.5), by quadrature
L24_CM = ("L24", {"r": [3.0], "eta": [1.0]}, np.array([1.0]))


class TestScalingReadoff:
    """The lambda-test reads LHS(lam p) / LHS(p) off the integrand's
    dilation covariance instead of estimating the dilated integrals."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("ident_id", IDENTITY_IDS)
    def test_ratio_is_the_structure_ratio(self, ident_id, n, rng):
        # at n <= 2 every stated structure has the left-hand side's
        # homogeneity, on every region, at points dilated far from 1 too
        ident = get_identity(ident_id)
        for _ in range(3):
            params = random_params(ident_id, n, rng)
            drawn = random_point(ident_id, n, rng)
            for dilation in (1.0, 1e3, 1e-3):
                point = ident.point.scale(drawn, dilation)
                struct = ident.structure(n, params, point)
                for region in ident.regions(n):
                    checks = _readoff(ident_id, n, params, point, region)
                    assert [c.lam for c in checks] == list(SCALING_LAMS)
                    for c in checks:
                        want = ident.structure(
                            n, params, ident.point.scale(point, c.lam)) / struct
                        assert c.passed and c.points == READOFF_POINTS
                        assert abs(c.ratio - want) <= 1e-9 * abs(want)
                    assert _defect(checks) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("ident_id, defect", [
        ("L23_1", 0), ("L23_2", 0), ("COR1_1", 0), ("COR1_2", 2), ("L24", 0),
        ("L25", -1), ("L26", -2), ("L27", -2)])
    def test_n3_structure_defects(self, ident_id, defect, rng):
        # the degree by which each stated n = 3 structure misses the left-hand
        # side's homogeneity: the same integer at every lambda and draw
        for _ in range(3):
            params = random_params(ident_id, 3, rng)
            point = random_point(ident_id, 3, rng)
            checks = _readoff(ident_id, 3, params, point)
            assert all(c.points == READOFF_POINTS for c in checks)
            assert all(c.passed == (defect == 0) for c in checks)
            for c in checks:
                got = math.log(abs(c.ratio / c.predicted)) / math.log(c.lam)
                assert got == pytest.approx(defect, abs=1e-9)
            assert _defect(checks) == pytest.approx(defect, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cor1_2_defect_is_the_dropped_next_to_top_factor(self, n):
        # COR1_2's integrand is L23_2's at the bold index, and its structure
        # is L23_2's there divided by M_{n-1}(z/i)^(n-2), of degree
        # (n-1)(n-2): L23_2 at the bold index reads defect 0, COR1_2 that
        # degree, +2 at n = 3.  At n <= 2 the factor is 1 and the two
        # read-offs coincide
        rng = np.random.default_rng(70 + n)
        cor, lemma = get_identity("COR1_2"), get_identity("L23_2")
        for _ in range(20):
            pc = random_params("COR1_2", n, rng)
            pl = {"s": bold_values(pc["s"], n)}
            z = random_point("COR1_2", n, rng)
            *args, _ = sample_cone(cor.sampler(n, pc, z), 1000, rng)
            a, b = cor.integrand(n, pc, z)(*args), lemma.integrand(n, pl, z)(*args)
            assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-14
            checks, bold = _readoff("COR1_2", n, pc, z), _readoff("L23_2", n, pl, z)
            assert _defect(bold) == pytest.approx(0.0, abs=1e-9)
            assert _defect(checks) == pytest.approx((n - 1) * (n - 2), abs=1e-9)
            if n <= 2:
                assert checks == bold
            for c, c_bold in zip(checks, bold):
                assert c.ratio == pytest.approx(c_bold.ratio, rel=1e-12)
                assert c.predicted == pytest.approx(
                    c_bold.predicted * c.lam ** -((n - 1) * (n - 2)), rel=1e-12)

    def _verify_patched(self, monkeypatch, **changes):
        """L24_CM verified with its registry entry changed, the first
        estimate taken from the entry as registered."""
        ident_id, params, point = L24_CM
        lhs = oracle_estimate(ident_id, params, point, 1000, 0, method="quad")
        monkeypatch.setitem(identities.IDENTITIES, ident_id, dataclasses.replace(
            get_identity(ident_id), **changes))
        monkeypatch.setattr(oracle, "oracle_estimate", lambda *a, **k: lhs)
        return verify_identity(ident_id, params, point, method="quad")

    def test_extra_power_in_the_structure_is_a_mismatch(self, monkeypatch):
        # structure x size(point) has one degree too many, and equals the
        # registered structure at b = 1, so the value test is unchanged
        ident = get_identity(L24_CM[0])
        rec = self._verify_patched(monkeypatch, structure=lambda n, p, pt: (
            ident.structure(n, p, pt) * ident.point.size(pt)))
        assert rec.status == MISMATCH and rec.scaling_pass is False
        assert rec.degree_defect == pytest.approx(-1.0, abs=1e-9)

    def test_non_covariant_integrand_is_a_mismatch(self, monkeypatch):
        # f + 1 has no homogeneity: its ratios spread over the points
        ident = get_identity(L24_CM[0])
        rec = self._verify_patched(monkeypatch, integrand=lambda n, p, pt: (
            lambda *args: ident.integrand(n, p, pt)(*args) + 1.0))
        assert rec.status == MISMATCH
        assert all(not c.passed and c.sigma > 1e-8 * abs(c.ratio)
                   for c in rec.scaling)

    @pytest.mark.parametrize("zeros, passed", [
        (READOFF_POINTS, False), (READOFF_POINTS // 2 + 1, False),
        (READOFF_POINTS // 2, True)])
    def test_half_the_points_must_be_read(self, monkeypatch, zeros, passed):
        # an integrand that underflows at ``zeros`` of the chart points: a
        # check reads at least half of them or fails, whatever its ratio
        ident = get_identity(L24_CM[0])
        rec = self._verify_patched(monkeypatch, integrand=lambda n, p, pt: (
            lambda y, d=None: np.where(np.arange(y.shape[0]) < zeros, 0.0,
                                       ident.integrand(n, p, pt)(y, d))))
        assert rec.status == (CONSTANT_MISMATCH if passed else MISMATCH)
        assert [c.points for c in rec.scaling] == [READOFF_POINTS - zeros] * 3
        assert all(c.passed == passed for c in rec.scaling)
        if not passed and zeros == READOFF_POINTS:
            assert math.isnan(rec.scaling[0].ratio)
            assert rec.degree_defect is None

    def test_one_estimate_per_constant_mismatch(self, monkeypatch):
        calls = []
        estimate = oracle.oracle_estimate
        monkeypatch.setattr(oracle, "oracle_estimate",
                            lambda *a, **k: calls.append(a) or estimate(*a, **k))
        ident_id, params, point = L24_CM
        rec = verify_identity(ident_id, params, point, method="quad")
        assert rec.status == CONSTANT_MISMATCH and len(rec.scaling) == 3
        assert len(calls) == 1

    def test_quadrature_audit_never_loads_numpy_random(self, tmp_path):
        # the read-off's points come from no random stream: a quadrature
        # audit of explicit cases needs no numpy.random import
        cases = Path(__file__).parents[1] / "perfbench" / "cases"
        code = ("import json, sys\n"
                "from conetube.cli import main\n"
                "code = main(['audit', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                "print(json.dumps([code, 'numpy.random' in sys.modules]))\n")
        src = str(Path(oracle.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code, str(cases / "audit-n1-quad.json"),
             str(tmp_path / "out")], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "CONETUBE_THREADS": "1"})
        assert json.loads(out.stdout.splitlines()[-1]) == [0, False], out.stderr


class TestCalibration:
    def test_beta_integral_constant(self):
        val = calibrated_constant("L24", 1, {"r": [3.0], "eta": [1.0]})
        assert val == pytest.approx(0.5, rel=1e-9)

    def test_slice_constant(self):
        val = calibrated_constant("L25", 1, {"r": [2.0]})
        assert val == pytest.approx(math.pi, rel=1e-9)

    def test_monte_carlo_stream_is_pinned(self, monkeypatch):
        # past quadrature's reach the constant is drawn from a fixed seed;
        # an empty cache keeps another budget's entry out
        monkeypatch.setattr(oracle, "_CALIBRATION_CACHE", {})
        val = calibrated_constant("L26", 2, {"l": [2, 2], "r": [3, 3],
                                             "eta": [4, 4]}, budget=20_000)
        assert val == 0.10847001243326816 + 0.0007518111694327548j

    def test_cache_hit_returns_same_object(self):
        a = calibrated_constant("L25", 1, {"r": [2.0]})
        b = calibrated_constant("L25", 1, {"r": [2.0]})
        assert a == b

    def test_out_of_range_refused_on_the_monte_carlo_path(self):
        # n = 3 is past quadrature's reach; r fails every c6_range bound,
        # where Monte Carlo would return a finite number for a divergent
        # integral
        before = dict(_CALIBRATION_CACHE)
        with pytest.raises(ConvergenceDomainError):
            calibrated_constant("L25", 3, {"r": [1.0, 1.0, 1.0]}, budget=20_000)
        assert _CALIBRATION_CACHE == before
