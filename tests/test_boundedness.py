import pytest

from conetube.boundedness import (BOUNDED, CONFLICT, UNBOUNDED, UNDETERMINED,
                                  _ratio_consistency, classify,
                                  random_sufficient_params,
                                  schur_numeric_check, schur_witness,
                                  t_interval, theorem1_necessary,
                                  theorem2_sufficient)
from conetube.errors import InvalidInputError, WitnessConstructionError
from conetube.operators import ParameterSet, necessary_exponent_condition


def with_forced_c(n, p, q, alpha, beta, a, b):
    params = ParameterSet(n=n, p=p, q=q, alpha=alpha, beta=beta, a=a, b=b,
                          c=(1.0,) * n)
    c = necessary_exponent_condition(params)
    return ParameterSet(n=n, p=p, q=q, alpha=alpha, beta=beta, a=a, b=b,
                        c=tuple(c))


class TestTheorem1:
    def test_worked_set_passes(self, worked_params):
        assert theorem1_necessary(worked_params).passed

    def test_equality_violation_margin(self):
        params = ParameterSet(n=2, p=2, q=2, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(0, 0), c=(3, 3.5))
        bd = theorem1_necessary(params)
        bad = [c for c in bd.conditions if not c.satisfied]
        assert len(bad) == 1
        assert bad[0].id == "nec:c[2] equality"
        assert bad[0].margin == pytest.approx(0.5)

    def test_weight_inequality_failure(self):
        # a_n = -1, q = 2, beta_n = 0: -a_n q = 2 >= 1 = beta_n + 1
        params = with_forced_c(1, 2.0, 2.0, (0.0,), (0.0,), (-1.0,), (0.0,))
        bd = theorem1_necessary(params)
        assert any(c.id.startswith("nec:a[1]q") and not c.satisfied
                   for c in bd.conditions)


class TestTheorem2:
    def test_worked_set_margins(self, worked_params):
        bd = theorem2_sufficient(worked_params)
        assert bd.passed
        margins = {c.id: c.margin for c in bd.conditions}
        assert margins["suf:c[1] > n"] == pytest.approx(1.0)
        assert margins["suf:alpha[1]+1 < p(half+b[1]+(n+1)/2)"] == \
            pytest.approx(1.0)
        assert margins["suf:beta[1]+1 > q(half-a[1])"] == pytest.approx(2.0)

    def test_c_below_n_fails(self):
        params = ParameterSet(n=2, p=2, q=2, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(0, 0), c=(2.0, 3.0))
        bd = theorem2_sufficient(params)
        assert not bd.passed
        assert "suf:c[1] > n" in bd.failed_ids()

    def test_n1_block_only(self):
        params = with_forced_c(1, 2.0, 2.0, (0.0,), (0.0,), (0.0,), (0.0,))
        bd = theorem2_sufficient(params)
        ids = [c.id for c in bd.conditions]
        assert ids == ["suf:c[1] > n", "suf:alpha[1]+1 < p(b[1]+1)",
                       "suf:a[1]q < beta[1]+1", "suf:c[1] equality"]


class TestClassify:
    def test_worked_bounded(self, worked_params):
        assert classify(worked_params).verdict == BOUNDED

    def test_off_relation_unbounded(self):
        params = ParameterSet(n=2, p=2, q=2, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(0, 0), c=(3, 3.5))
        assert classify(params).verdict == UNBOUNDED

    def test_conflict_slab_n3(self):
        # beta_j + q a_j in (-3, -2) at a j < n: sufficient set passes while
        # a necessary inequality strictly fails
        params = with_forced_c(3, 2.0, 2.0, (-1.5, 0, 0), (-2.5, 0, 0),
                               (0, 0, 0), (0, 0, 0))
        result = classify(params)
        assert result.verdict == CONFLICT
        assert "nec:a[1]q < beta[1]+2" in result.theorem1.failed_ids()

    def test_boundary_equality_is_undetermined(self):
        # -a_n q == beta_n + 1 exactly: zero-margin inequality, never UNBOUNDED
        params = with_forced_c(1, 2.0, 2.0, (0.0,), (0.0,), (-0.5,), (0.0,))
        result = classify(params)
        assert result.verdict == UNDETERMINED

    def test_margin_continuity_and_single_flip(self):
        # sweep b_n across the alpha_n + 1 < p (b_n + 1) boundary: exactly
        # that condition flips and its margin crosses zero linearly
        flips = []
        margins = []
        for bn in (-0.6, -0.55, -0.45, -0.4):
            params = with_forced_c(1, 2.0, 2.0, (0.0,), (1.0,), (0.0,), (bn,))
            bd = theorem2_sufficient(params)
            entry = {c.id: (c.satisfied, c.margin) for c in bd.conditions}
            flips.append(entry["suf:alpha[1]+1 < p(b[1]+1)"][0])
            margins.append(entry["suf:alpha[1]+1 < p(b[1]+1)"][1])
            others = [ok for cid, (ok, _) in entry.items()
                      if cid != "suf:alpha[1]+1 < p(b[1]+1)"]
            assert all(others)
        assert flips == [False, False, True, True]
        assert margins == pytest.approx([-0.2, -0.1, 0.1, 0.2])


class TestWitness:
    def test_worked_interval_and_midpoints(self, worked_params):
        assert t_interval(worked_params) == pytest.approx((1 / 3, 2 / 3))
        w = schur_witness(worked_params)
        assert w.t == pytest.approx(0.5)
        assert w.r == pytest.approx((-0.5, -0.25))
        assert w.l == pytest.approx((-0.5, -0.25))
        assert w.c_prime == 3.0

    def test_identities_exact(self, worked_params):
        w = schur_witness(worked_params)
        for res1, res2 in w.identity_residuals:
            assert abs(res1) <= 1e-12 and abs(res2) <= 1e-12

    def test_margins_positive(self, worked_params):
        w = schur_witness(worked_params)
        assert min(min(m) for m in w.inequality_margins) > 0

    def test_interval_margins_vanish_at_t_endpoints(self, worked_params):
        # A < B closes exactly at the lower t endpoint, C < D at the upper
        lo, hi = t_interval(worked_params)
        n, p, q = 2, 2.0, 2.0
        c = 3.0
        for t, which in ((lo, "AB"), (hi, "CD")):
            if which == "AB":
                width = t * c - n / (p / (p - 1))
            else:
                width = (1 - t) * c - n / q
            assert width == pytest.approx(0.0, abs=1e-12)

    def test_requires_sufficient_conditions(self):
        params = ParameterSet(n=2, p=2, q=2, alpha=(0, 0), beta=(0, 0),
                              a=(0, 0), b=(0, 0), c=(3, 3.5))
        with pytest.raises(InvalidInputError):
            schur_witness(params)

    def test_outside_safe_ranges_reports_endpoints(self):
        # a sufficient-set point inside the thin infeasibility band of the
        # extrapolated j < n construction: the error carries the endpoints
        params = with_forced_c(3, 2.0, 2.0, (0.0, 0, 0), (-1.9, 0, 0),
                               (0.0, 0, 0), (0.0, 0, 0))
        assert theorem2_sufficient(params).passed
        with pytest.raises(WitnessConstructionError) as err:
            schur_witness(params)
        assert err.value.endpoints["j"] == 1

    def test_random_sufficient_sets_always_construct(self, rng):
        for i in range(30):
            n = [1, 2, 3][i % 3]
            params = random_sufficient_params(n, rng)
            w = schur_witness(params)
            assert max(abs(r1) + abs(r2)
                       for r1, r2 in w.identity_residuals) <= 1e-12
            assert min(min(m) for m in w.inequality_margins) > 0


class TestSchurNumericCheck:
    # at n >= 2 the j < n offsets of the witness are validated only here
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ratios_point_independent(self, rng, n):
        params = random_sufficient_params(n, rng)
        w = schur_witness(params)
        report = schur_numeric_check(params, w, sample_count=4,
                                     budget=120_000, seed=11)
        assert report.passed
        assert report.first.mean > 0 and report.second.mean > 0

    def test_all_zero_ratios_are_consistent(self):
        # zero sigmas as well: the weighted mean would divide by zero
        assert _ratio_consistency((0.0,) * 3, (0.0,) * 3) == (0.0, 0.0, True)

    def test_exact_ratios_are_weighted_without_overflow(self):
        # a perfectly matched proposal gives an estimate with sigma 0
        assert _ratio_consistency((2.5, 2.5), (0.0, 0.1)) == (2.5, 0.0, True)
        assert not _ratio_consistency((2.5, 2.0), (0.0, 0.0))[2]

    def test_perturbed_witness_diverges(self, rng):
        # pushing r below the admissible interval breaks the first integral's
        # convergence: estimates keep growing with budget
        from dataclasses import replace
        params = ParameterSet(n=1, p=2.0, q=2.0, alpha=(0.0,), beta=(0.0,),
                              a=(0.0,), b=(0.0,), c=(2.0,))
        w = schur_witness(params)
        bad = replace(w, r=(w.r[0] - 1.2,), l=w.l)
        means = []
        for budget, seed in ((40_000, 5), (2_560_000, 6)):
            rep = schur_numeric_check(params, bad, sample_count=1,
                                      budget=budget, seed=seed)
            means.append(rep.first.mean)
        assert means[1] > means[0] * 1.2
