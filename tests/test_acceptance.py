"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line (run pytest with -s to watch
them live).  Budgets, grids and tolerances are pinned here; seeds are fixed
so every run is a byte-for-byte replay.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conetube import constants as C
from conetube.boundedness import (random_sufficient_params,
                                  schur_numeric_check, schur_witness)
from conetube.cli import main as cli_main
from conetube.geometry import (TubePoint, complex_minors, leading_minors,
                               minor_exponents)
from conetube.identities import (closed_value, random_cone_vector,
                                 random_params, random_point)
from conetube.indices import bold_values
from conetube import operators
from conetube.operators import (ParameterSet, make_test_function,
                                scaling_experiment)
from conetube.oracle import (CONFIRMED, CONSTANT_MISMATCH, calibrated_constant,
                             quad_iterated, verify_identity)

from test_identities import (beta_translate_constant, slice_modulus_constant,
                             tube_modulus_constant, tube_product_constant)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_analytic_suite_n1():
    """Closed forms match adaptive quadrature to rel 1e-8 in under 10 s."""
    with criterion(1, "n=1 analytic suite at rel 1e-8, < 10 s"):
        start = time.perf_counter()
        checks = []

        # Laplace transform: the stated constant is exact here
        for s, t, analytic in (([0.0], 1.0, 1 / (4 * math.pi)),
                               ([0.8], 1.7, math.gamma(1.8)
                                / (4 * math.pi * 1.7) ** 1.8)):
            q = quad_iterated("L23_1", {"s": s}, np.array([t]), rel_tol=1e-10)
            closed = closed_value("L23_1", {"s": s}, np.array([t]))
            checks.append((q.value, analytic))
            checks.append((closed, q.value))

        # translate integral: calibrated constant, checked away from the
        # unit calibration point
        for r, eta, value_at_1 in ((2.0, 0.0, 1.0), (3.0, 1.0, 0.5)):
            cal = calibrated_constant("L24", 1, {"r": [r], "eta": [eta]})
            assert cal == pytest.approx(beta_translate_constant(r, eta),
                                        rel=1e-9)
            q1 = quad_iterated("L24", {"r": [r], "eta": [eta]},
                               np.array([1.0]), rel_tol=1e-10)
            checks.append((q1.value, value_at_1))
            for b in (0.7, 2.3):
                q = quad_iterated("L24", {"r": [r], "eta": [eta]},
                                  np.array([b]), rel_tol=1e-10)
                closed = closed_value("L24", {"r": [r], "eta": [eta]},
                                      np.array([b]), constant=cal)
                checks.append((closed, q.value))

        # slice modulus: int (u^2+1)^{-1} du = pi, int (u^2+1)^{-3/2} du = 2
        for r, value_at_1 in ((2.0, math.pi), (3.0, 2.0)):
            cal = calibrated_constant("L25", 1, {"r": [r]})
            assert cal == pytest.approx(slice_modulus_constant(r), rel=1e-9)
            q1 = quad_iterated("L25", {"r": [r]}, np.array([1.0]),
                               rel_tol=1e-10)
            checks.append((q1.value, value_at_1))
            for v in (0.6, 1.9):
                q = quad_iterated("L25", {"r": [r]}, np.array([v]),
                                  rel_tol=1e-10)
                closed = closed_value("L25", {"r": [r]}, np.array([v]),
                                      constant=cal)
                checks.append((closed, q.value))

        # tube modulus: the half-plane integral at l=0, r=4 evaluates to
        # pi/4 (elementary polar evaluation, confirmed by the quadrature)
        cal = calibrated_constant("L27", 1, {"l": [0.0], "r": [4.0]})
        assert cal == pytest.approx(tube_modulus_constant(0.0, 4.0), rel=1e-9)
        q1 = quad_iterated("L27", {"l": [0.0], "r": [4.0]},
                           TubePoint.make([0.0], [1.0]), rel_tol=1e-10)
        checks.append((q1.value, math.pi / 4))
        for y in (0.8, 1.6):
            z = TubePoint.make([0.3], [y])
            q = quad_iterated("L27", {"l": [0.0], "r": [4.0]}, z,
                              rel_tol=1e-10)
            closed = closed_value("L27", {"l": [0.0], "r": [4.0]}, z,
                                  constant=cal)
            checks.append((closed, q.value))

        for got, want in checks:
            assert got == pytest.approx(want, rel=1e-8)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"analytic suite took {elapsed:.1f} s"


def test_criterion_2_oracle_suite_n2():
    """Five random configs per identity at n=2, 1e6 samples, 3 sigma."""
    label = "n=2 oracle suite (5 configs x 5 identities, 1e6 samples), < 5 min"
    with criterion(2, label):
        start = time.perf_counter()
        rng = np.random.default_rng(20_250_802)
        for ident in ("L23_1", "COR1_1", "L24", "L25", "L27"):
            for k in range(5):
                params = random_params(ident, 2, rng)
                point = random_point(ident, 2, rng)
                rec = verify_identity(ident, params, point, budget=1_000_000,
                                      seed=1000 + 17 * k, method="mc")
                assert rec.status in (CONFIRMED, CONSTANT_MISMATCH), \
                    (ident, k, rec.status, rec.z_score)
                if rec.status == CONSTANT_MISMATCH:
                    assert rec.scaling_pass, (ident, k, rec.scaling)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"oracle suite took {elapsed:.1f} s"


def test_criterion_3_two_kernel_adjudication_n1():
    """The trailing-factor question settled by quadrature at rel 1e-6."""
    with criterion(3, "two-kernel tube identity adjudicated at n=1, rel 1e-6"):
        z = TubePoint.make([0.0], [1.0])
        cases = [((0.0, 2.0, 3.0), (z, z)),
                 ((0.4, 2.5, 3.2), (TubePoint.make([0.2], [1.4]),
                                    TubePoint.make([-0.1], [0.9])))]
        for (l, r, eta), point in cases:
            params = {"l": [l], "r": [r], "eta": [eta]}
            rec = verify_identity("L26", params, point, method="quad")
            # definitive verdict: quadrature precision beats 1e-6 and the
            # status is a verdict, not INCONCLUSIVE
            assert rec.lhs.std_error <= 1e-6 * abs(rec.lhs.value)
            assert rec.status in (CONFIRMED, CONSTANT_MISMATCH), rec.status
            # the positive trailing exponent survives scaling; the composed
            # constant does not (recorded with fitted value)
            assert rec.scaling_pass is True
            fitted = rec.fitted_constant
            assert fitted == pytest.approx(tube_product_constant(l, r, eta),
                                           rel=1e-6)


def test_criterion_4_translate_inequality_fuzz():
    """1e5 random tuples at n in {2,3}: zero violations, exact at x=0."""
    with criterion(4, "translate/modulus inequality fuzz, 1e5 tuples"):
        rng = np.random.default_rng(424242)
        block = 1000
        for n in (2, 3):
            m = 2 * n - 1
            violations = 0
            for _ in range(50):  # 50 blocks x 1000 = 5e4 per order
                s_plain = rng.uniform(0.0, 3.0, size=n)
                sb = bold_values(s_plain, n)
                e = minor_exponents(-sb)
                y = np.stack([random_cone_vector(n, rng, 0.3, 2.5)
                              for _ in range(block)])
                b = np.stack([random_cone_vector(n, rng, 0.3, 2.5)
                              for _ in range(block)])
                x = rng.uniform(-2.0, 2.0, size=(block, m))

                min_y = leading_minors(y)
                min_yb = leading_minors(y + b)
                # (1) determinant grows under cone translation
                violations += int(np.sum(min_yb[:, -1] < min_y[:, -1]
                                         * (1 - 1e-12)))
                # (2) negative shifted powers shrink under translation
                pow_y = np.sum(e * np.log(min_y), axis=1)
                pow_yb = np.sum(e * np.log(min_yb), axis=1)
                violations += int(np.sum(pow_yb > pow_y + 1e-12))
                # (3) kernel modulus bounded by the diagonal value
                zeta = y - 1j * x
                mods = np.sum(e * np.log(np.abs(complex_minors(zeta))), axis=1)
                violations += int(np.sum(mods > pow_y + 1e-12))
                # equality at x = 0 to rel 1e-12
                zeta0 = y - 1j * np.zeros_like(x)
                mods0 = np.sum(e * np.log(np.abs(complex_minors(zeta0))),
                               axis=1)
                assert np.max(np.abs(mods0 - pow_y)) <= 1e-12
            assert violations == 0, f"n={n}: {violations} violations"


def _norm_scaling_experiments(worked_params):
    """Criterion 5's two experiments, at its grid, budget, seeds and bounds:
    slopes (-1/2, -1/2) and the forced-relation gap within 0.05, and the
    image slope shift of a c_1 off the relation.  Returns the norms' oracle
    records."""
    tf = make_test_function(2, [2, 2], [4, 4], [1, 1])
    report = scaling_experiment(worked_params, tf, [1.0, 2.0, 4.0, 8.0],
                                budget=1_000_000, seed=60_481)
    for c in report.coordinates:
        assert abs(c.f_slope - (-0.5)) <= 0.05, (c.coordinate, c.f_slope)
        assert abs(c.slope_difference) <= 0.05, \
            (c.coordinate, c.slope_difference)

    # perturbing c_1 by +0.5 off the forced relation shifts the image
    # slope in coordinate 1 by exactly -0.5
    perturbed = ParameterSet(n=2, p=2.0, q=2.0, alpha=(0, 0),
                             beta=(0, 0), a=(0, 0), b=(0, 0),
                             c=(3.5, 3.0))
    report2 = scaling_experiment(perturbed, tf, [1.0, 2.0, 4.0, 8.0],
                                 budget=1_000_000, seed=60_487,
                                 coordinates=[0])
    diff = report2.coordinates[0].slope_difference
    assert abs(diff - (-0.5)) <= 0.05, diff
    return report.method, report2.method


def test_criterion_5_norm_scaling_experiment(worked_params):
    """Slopes (-1/2, -1/2) and the forced-relation gap, within 0.05."""
    label = "norm scaling slopes on R-grid {1,2,4,8}, norms by quadrature, < 10 min"
    with criterion(5, label):
        start = time.perf_counter()
        quad = {"name": "QUAD_ITERATED", "rel_tol": 1e-8}
        assert _norm_scaling_experiments(worked_params) == (quad, quad)
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"scaling experiment took {elapsed:.1f} s"


def test_criterion_5_by_monte_carlo(worked_params, monkeypatch):
    """Criterion 5 with Monte Carlo norms, 1e6 draws per point."""
    monkeypatch.setattr(operators, "quad_supported", lambda *a: False)
    mc = {"name": "MC_CONE", "budget": 1_000_000}
    assert _norm_scaling_experiments(worked_params) == (mc, mc)


def test_criterion_6_witness_suite():
    """100 random admissible sets construct witnesses; 5 validated by MC."""
    label = "witness construction for 100 random sets + 5 numeric checks"
    with criterion(6, label):
        rng = np.random.default_rng(11_235_813)
        n1_sets = []
        for i in range(100):
            n = [1, 2, 3][i % 3]
            params = random_sufficient_params(n, rng)
            w = schur_witness(params)
            assert w.t_interval[0] < w.t < w.t_interval[1]
            for res1, res2 in w.identity_residuals:
                assert abs(res1) <= 1e-12 and abs(res2) <= 1e-12
            assert min(min(m) for m in w.inequality_margins) > 0
            if n == 1 and len(n1_sets) < 5:
                n1_sets.append((params, w))
        assert len(n1_sets) == 5
        for k, (params, w) in enumerate(n1_sets):
            report = schur_numeric_check(params, w, sample_count=5,
                                         budget=150_000, seed=900 + k)
            assert report.passed, (k, report.first.max_z, report.second.max_z)


def test_criterion_7_constant_composition_audit():
    """Composition identities to rel 1e-12 over 1e3 tuples; C1 = C3 at n=2."""
    with criterion(7, "constant compositions at rel 1e-12, 1e3 tuples"):
        rng = np.random.default_rng(31_337)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            eta = np.concatenate([
                rng.uniform(-(n + 1) / 2 + 0.3, 2.0, size=n - 1),
                rng.uniform(-0.5, 2.0, size=1)])
            r = eta + np.concatenate([rng.uniform(n + 0.3, n + 3, size=n - 1),
                                      rng.uniform((n + 1) / 2 + 0.3, n + 3,
                                                  size=1)])
            l = np.concatenate([
                rng.uniform(-(n + 1) / 2 + 0.3, 1.5, size=n - 1),
                rng.uniform(-0.7, 1.5, size=1)])

            c5 = C.c5(n, r, eta)
            ref5 = C.c4(n, eta) * C.c4(n, r - eta) / C.c4(n, r)
            assert c5 == pytest.approx(ref5, rel=1e-12)

            r8 = l + np.concatenate([
                rng.uniform((3 * n + 1) / 2 + 0.3, 3 * n + 2, size=n - 1),
                rng.uniform(n + 1.3, 3 * n + 2, size=1)])
            r8[:-1] = np.maximum(r8[:-1], 1.8)
            r8[-1] = max(r8[-1], (n + 1) / 2 + 0.4)
            c8 = C.c8(n, l, r8)
            ref8 = (C.c6(n, r8) * C.c4(n, l) * C.c4(n, r8 - l) / C.c4(n, r8))
            assert c8 == pytest.approx(ref8, rel=1e-12)

            eta7 = np.concatenate([rng.uniform(n + 0.3, n + 2, size=n - 1),
                                   rng.uniform((n + 1) / 2 + 0.3, n + 2,
                                               size=1)])
            r7 = r8 - l + 0.5
            l7 = l
            ok = all(okk for okk, _ in C.c7_range(n, l7, r7, eta7))
            if ok:
                c7 = C.c7(n, l7, r7, eta7)
                ref7 = (C.c3(n, l7) * C.c4(n, r7 + l7 - eta7)
                        / (C.c4(n, r7) * C.c4(n, eta7)))
                if ref7 != 0.0:
                    assert c7 == pytest.approx(ref7, rel=1e-12)
                    checked += 1
        assert checked > 500  # the three-index family got real coverage

        for _ in range(100):
            s = np.array([rng.uniform(-1.2, 3.0), rng.uniform(-0.9, 3.0)])
            assert C.c1(2, s) == C.c3(2, s)  # zero shift: exact equality


def test_criterion_8_byte_identical_reports(tmp_path):
    """Audit reruns with one seed reproduce the data files byte for byte."""
    with criterion(8, "byte-identical audit replays"):
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({
            "n": 2, "seed": 7, "budget": 400_000, "configs_per_identity": 2,
            "oracle": "mc",
            "identities": ["L23_1", "COR1_1", "L24", "L25", "L27", "L23_2"],
        }))
        outs, codes = [], []
        for run in ("r1", "r2"):
            out = tmp_path / run
            codes.append(cli_main(["audit", "--config", str(cfg),
                                   "--out", str(out)]))
            outs.append(out)
        assert codes[0] == codes[1] == 0
        for name in ("audit.csv", "audit_details.json"):
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, f"{name} differs between reruns"
