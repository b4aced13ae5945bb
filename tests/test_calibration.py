import numpy as np
import pytest
from scipy.special import expit

from calibrec.calibration import (
    CalibrationSamples,
    Calibrator,
    _derivatives,
    _features,
    _objective,
    _weights,
    apply,
    collect_calibration_samples,
    ece,
    estimate_propensity,
    fit,
    gamma_shift,
    load_calibrator,
    reliability_table,
    save_calibrator,
    write_reliability_csv,
)
from calibrec.ranker import init_params, score_items

from conftest import make_dataset, read_reliability_csv
from oracles import finite_difference_grad, nll, reference_fit


def make_samples(s, y, theta=None):
    theta = np.ones(len(s)) if theta is None else theta
    return CalibrationSamples(np.asarray(s, dtype=float), np.asarray(y), np.asarray(theta))


def bernoulli_samples(true_fn, n, rng, low=-3.0, high=3.0):
    s = rng.uniform(low, high, n)
    y = (rng.random(n) < true_fn(s)).astype(int)
    return s, y, make_samples(s, y)


def fit_objective(kind, samples, shift=0.0):
    """The objective ``fit`` minimizes and its gradient, as functions of (a, b, c)."""
    phi = _features(kind, np.asarray(samples.s, dtype=float) + shift)
    w_pos, w_neg = _weights(np.asarray(samples.y, dtype=float), samples.theta)

    def objective(x):
        return _objective(np.asarray(x, dtype=float), phi, w_pos, w_neg)

    def gradient(x):
        return _derivatives(np.asarray(x, dtype=float), phi, w_pos, w_neg)[0]

    return objective, gradient


class TestApply:
    def test_platt_at_zero(self):
        assert apply(Calibrator("platt", a=1.0, b=0.0), 0.0) == pytest.approx(0.5)

    def test_gaussian_reduces_to_platt(self):
        gauss = Calibrator("gaussian", a=0.0, b=1.0, c=0.0)
        platt = Calibrator("platt", a=1.0, b=0.0)
        grid = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(apply(gauss, grid), apply(platt, grid), atol=1e-15)

    def test_gamma_value(self):
        cal = Calibrator("gamma", a=0.0, b=1.0, c=0.0)
        assert apply(cal, 2.0) == pytest.approx(0.880797, abs=1e-6)

    def test_gamma_rejects_nonpositive(self):
        cal = Calibrator("gamma", a=1.0, b=0.0, c=0.0)
        with pytest.raises(ValueError):
            apply(cal, -1.0)

    def test_gamma_score_shift(self):
        cal = Calibrator("gamma", a=0.0, b=1.0, c=0.0, score_shift=3.0)
        assert apply(cal, -1.0) == pytest.approx(expit(2.0))

    def test_gamma_with_shift_saturates_below_fitted_range(self):
        # serving scores below the fit-time minimum clamp to the shift
        # epsilon rather than failing
        cal = Calibrator("gamma", a=1.0, b=0.0, c=0.0, score_shift=2.0)
        low = apply(cal, -50.0)
        assert low == apply(cal, -2.0)
        assert 0.0 <= low <= 0.01

    def test_nan_score(self):
        with pytest.raises(ValueError):
            apply(Calibrator("platt", a=1.0), float("nan"))

    def test_histogram_lookup_and_clamping(self):
        cal = Calibrator("histogram", bins=[(0.0, 0.2), (1.0, 0.8)])
        assert apply(cal, -5.0) == 0.2
        assert apply(cal, 0.5) == 0.8
        assert apply(cal, 99.0) == 0.8

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for cal in (
            Calibrator("platt", a=3.0, b=-2.0),
            Calibrator("gaussian", a=0.5, b=-1.0, c=2.0),
        ):
            vals = apply(cal, rng.uniform(-50, 50, 1000))
            assert np.all((vals >= 0) & (vals <= 1))


class TestFit:
    def test_platt_recovery(self):
        rng = np.random.default_rng(21)
        _, _, samples = bernoulli_samples(lambda s: expit(2 * s - 1), 30_000, rng)
        cal = fit("platt", samples).calibrator
        assert cal.a == pytest.approx(2.0, abs=0.15)
        assert cal.b == pytest.approx(-1.0, abs=0.15)

    def test_unbiased_with_unit_theta_identical(self):
        # at theta = 1 the weights y/theta and 1 - y/theta are the labels,
        # bit for bit, so the fit's losses are the label-weighted objective's
        rng = np.random.default_rng(3)
        s, y, samples = bernoulli_samples(lambda s: expit(s), 5000, rng)
        cal, trace, _, _ = fit("platt", samples)
        phi = _features("platt", s)
        y = y.astype(float)
        assert trace[0] == _objective(np.array([1.0, 0.0, 0.0]), phi, y, 1.0 - y)
        assert trace[-1] == _objective(np.array([cal.a, cal.b, cal.c]), phi, y, 1.0 - y)

    def test_gaussian_matches_bayes_posterior(self):
        # scores from two unit-variance gaussians at +-1: posterior sigmoid(2s)
        rng = np.random.default_rng(5)
        n = 20_000
        s = np.concatenate([rng.normal(1, 1, n), rng.normal(-1, 1, n)])
        y = np.concatenate([np.ones(n), np.zeros(n)])
        samples = make_samples(s, y)
        cal = fit("gaussian", samples).calibrator
        fitted = nll(cal, samples)
        bayes = nll(Calibrator("platt", a=2.0, b=0.0), samples)
        assert fitted <= bayes * 1.01

    def test_monotone_loss_trace(self):
        rng = np.random.default_rng(8)
        _, _, samples = bernoulli_samples(lambda s: expit(0.5 * s + 1), 2000, rng)
        for kind in ("platt", "gaussian"):
            assert np.all(np.diff(fit(kind, samples).losses) <= 0)

    def test_gamma_fit_runs_on_shifted_scores(self):
        rng = np.random.default_rng(13)
        s = rng.uniform(-2, 2, 4000)
        y = (rng.random(4000) < expit(1.5 * s)).astype(int)
        cal, trace, _, _ = fit("gamma", make_samples(s, y))
        assert cal.score_shift == gamma_shift(s)
        assert np.all(np.diff(trace) <= 0)
        probs = apply(cal, s)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_gamma_fit_records_gamma_shift(self):
        # nonpositive scores: the gamma fit shifts them positive itself
        samples = make_samples([-1.0, 1.0], [0, 1])
        cal = fit("gamma", samples).calibrator
        assert cal.score_shift == gamma_shift([-1.0, 1.0])
        assert fit("platt", samples).calibrator.score_shift == 0.0

    def test_one_class_rejected(self):
        samples = make_samples([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            fit("platt", samples)

    def test_negative_iteration_cap_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be >= 0"):
            fit("platt", make_samples([0.0, 1.0], [0, 1]), max_iters=-1)

    def test_platt_slope_never_negative(self):
        # anti-correlated labels would pull a below zero; projection holds it at 0
        rng = np.random.default_rng(2)
        s = rng.uniform(-2, 2, 3000)
        y = (rng.random(3000) < expit(-2 * s)).astype(int)
        cal = fit("platt", make_samples(s, y)).calibrator
        assert cal.a >= 0.0

    def test_non_finite_loss_reported(self):
        samples = make_samples([np.inf, 1.0], [0, 1])
        with pytest.raises(ValueError, match="iteration"):
            fit("platt", samples)

    def test_histogram_values_are_bin_positive_fractions(self):
        s = np.arange(30, dtype=float)
        y = np.array([1] * 10 + [0] * 20)
        cal = fit("histogram", make_samples(s, y), num_bins=3).calibrator
        assert [v for _, v in cal.bins] == [1.0, 0.0, 0.0]
        assert apply(cal, 3.0) == 1.0
        assert apply(cal, 29.0) == 0.0

    def test_histogram_needs_a_bin(self):
        # an empty histogram would fail only when applied, naming no setting
        with pytest.raises(ValueError, match="num_bins must be >= 1"):
            fit("histogram", make_samples([0.0, 1.0], [0, 1]), num_bins=0)

    def test_unbiased_mode_weights_by_inverse_propensity(self):
        # two samples at the same score, one positive with theta=0.5: the
        # weighted positive fraction in one histogram bin is 1/0.5 / 2 = 1.0
        samples = make_samples([0.0, 0.0], [1, 0], [0.5, 1.0])
        cal = fit("histogram", samples, num_bins=1).calibrator
        assert cal.bins[0][1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "y, theta, match",
        [([1, 0], [0.0, 1.0], "propensities"), ([1, 0], [1.0, 1.5], "propensities"),
         ([1, 2], [1.0, 1.0], "labels"), ([1, 0.5], [1.0, 1.0], "labels")],
    )
    def test_rejects_bad_propensities_and_labels(self, y, theta, match):
        samples = make_samples([0.0, 1.0], y, theta)
        with pytest.raises(ValueError, match=match):
            fit("platt", samples)


class TestObjectiveShape:
    @pytest.mark.parametrize("kind", ["platt", "gaussian", "gamma"])
    def test_unbiased_objective_is_convex_along_lines(self, kind):
        # negative IPS weights do not break convexity: w+ + w- = 1 leaves the
        # Hessian weights at sigma (1 - sigma) >= 0
        rng = np.random.default_rng(91)
        n = 500
        s = rng.uniform(0.05, 3.0, n)
        y = (rng.random(n) < expit(s - 1.5)).astype(int)
        samples = CalibrationSamples(s, y, rng.uniform(0.01, 1.0, n))
        assert np.any(_weights(y.astype(float), samples.theta)[1] < 0)
        objective, _ = fit_objective(kind, samples)
        mask = np.array([1.0, 1.0, 0.0 if kind == "platt" else 1.0])
        for _ in range(20):
            start, direction = rng.normal(size=3) * mask, rng.normal(size=3) * mask
            values = np.array([objective(start + t * direction) for t in np.linspace(-2, 2, 41)])
            assert np.all(values[:-2] - 2 * values[1:-1] + values[2:] >= -1e-12)

    @pytest.mark.parametrize("kind", ["platt", "gaussian", "gamma"])
    def test_unbounded_objective_stops_unconverged(self, kind):
        # the positives' 1/theta sum to 20 * 20 = 400 > 40 samples, so the
        # unbiased objective falls without bound as every logit grows
        s = np.linspace(0.5, 2.0, 40)
        y = np.tile([1, 0], 20)
        samples = CalibrationSamples(s, y, np.where(y == 1, 0.05, 1.0))
        objective, _ = fit_objective(kind, samples)
        assert objective([0.0, 50.0, 50.0]) < objective([0.0, 5.0, 5.0]) - 100
        cal, trace, grad_norm, stop = fit(kind, samples, max_iters=200)
        assert np.all(np.isfinite([cal.a, cal.b, cal.c]))
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0)
        assert len(trace) - 1 <= 200
        assert grad_norm >= 1e-8 and stop in ("iteration_cap", "stalled")


class TestFitMatchesOracle:
    @pytest.mark.parametrize("kind", ["platt", "gaussian", "gamma"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_reaches_reference_optimum(self, kind, weighted):
        rng = np.random.default_rng([81, ["platt", "gaussian", "gamma"].index(kind), int(weighted)])
        n = 2000
        s = rng.uniform(-2, 2, n)
        y = (rng.random(n) < expit(1.2 * s - 2.0)).astype(int)
        theta = rng.uniform(0.4, 1.0, n) if weighted else np.ones(n)
        samples = CalibrationSamples(s, y, theta)
        shift = gamma_shift(s) if kind == "gamma" else 0.0
        result = fit(kind, samples)
        cal, trace = result.calibrator, result.losses
        assert cal.score_shift == shift
        objective, gradient = fit_objective(kind, samples, shift)
        start = [0.0, 1.0, 0.0] if kind == "gaussian" else [1.0, 0.0, 0.0]
        _, best = reference_fit(kind, objective, gradient, start)
        assert objective([cal.a, cal.b, cal.c]) <= best + 1e-10
        assert_converged(result, samples)
        assert np.all(np.diff(trace) <= 0)
        assert len(trace) - 1 <= 30

    def test_platt_optimum_on_the_slope_bound(self):
        # anti-correlated labels: the best a >= 0 is a = 0, where the gradient
        # still pushes a down; the fit holds a there and converges in b
        rng = np.random.default_rng(83)
        s = rng.uniform(-2, 2, 3000)
        y = (rng.random(3000) < expit(-2 * s)).astype(int)
        samples = CalibrationSamples(s, y, np.ones(3000))
        result = fit("platt", samples)
        cal = result.calibrator
        objective, gradient = fit_objective("platt", samples)
        params, best = reference_fit("platt", objective, gradient, [1.0, 0.0, 0.0])
        assert params[0] == 0.0 and gradient([0.0, params[1], 0.0])[0] > 0
        assert cal.a == 0.0
        assert objective([cal.a, cal.b, cal.c]) <= best + 1e-10
        # a is held at its bound, so only b must be stationary
        assert_converged(result, samples, coords=[1])

    @pytest.mark.parametrize("kind", ["platt", "gaussian"])
    def test_singular_hessian_still_takes_newton_steps(self, kind):
        # every score equal: the feature columns are collinear, so the
        # Hessian is singular and the solve needs its ridge
        samples = CalibrationSamples(np.full(100, 3.0), np.array([1] * 30 + [0] * 70),
                                     np.ones(100))
        result = fit(kind, samples)
        cal = result.calibrator
        assert len(result.losses) - 1 <= 10
        assert_converged(result, samples)
        assert apply(cal, 3.0) == pytest.approx(0.3, abs=1e-9)

    def test_gaussian_with_strongly_negative_curvature(self):
        # positives only in a narrow band: the optimum has a near -40, far
        # from the start point, and the fit must reach it
        rng = np.random.default_rng(84)
        s = rng.normal(0.0, 1.0, 3000)
        y = (rng.random(3000) < expit(2 - 40 * s * s)).astype(int)
        samples = CalibrationSamples(s, y, np.ones(3000))
        result = fit("gaussian", samples)
        cal = result.calibrator
        objective, gradient = fit_objective("gaussian", samples)
        params, best = reference_fit("gaussian", objective, gradient, [0.0, 1.0, 0.0])
        assert params[0] < -30
        assert objective([cal.a, cal.b, cal.c]) <= best + 1e-10
        assert cal.a == pytest.approx(params[0], rel=1e-4)
        assert_converged(result, samples)


class TestGradientNorm:
    """``Fit.grad_norm`` against finite differences of the oracle's ``nll``."""

    @pytest.mark.parametrize(
        "kind,weighted", [("platt", False), ("gaussian", True), ("gamma", False)]
    )
    def test_matches_finite_differences(self, kind, weighted):
        # no step allowed: the loop ends at its start point
        rng = np.random.default_rng(61)
        s = rng.uniform(0.5, 3.0, 400)
        y = (rng.random(400) < expit(s - 1.5)).astype(int)
        theta = rng.uniform(0.3, 1.0, 400)
        samples = make_samples(s, y, theta if weighted else np.ones(400))
        result = fit(kind, samples, max_iters=0)
        start = [0.0, 1.0, 0.0] if kind == "gaussian" else [1.0, 0.0, 0.0]
        cal = result.calibrator
        assert [cal.a, cal.b, cal.c] == start and result.stop == "iteration_cap"
        assert result.losses.tolist() == [pytest.approx(nll(cal, samples), rel=1e-12)]
        assert result.grad_norm == pytest.approx(oracle_grad_norm(cal, samples), rel=1e-6)

    def test_below_tol_when_fit_stops_early(self):
        rng = np.random.default_rng(62)
        s, y, samples = bernoulli_samples(lambda x: expit(1.5 * x - 0.5), 2000, rng)
        result = fit("platt", samples, tol=1e-6)
        assert len(result.losses) - 1 < 1000
        assert_converged(result, samples, tol=1e-6)
        capped = fit("platt", samples, max_iters=1, tol=1e-6)
        assert capped.stop == "iteration_cap" and capped.grad_norm >= 1e-6
        oracle = oracle_grad_norm(capped.calibrator, samples)
        assert capped.grad_norm == pytest.approx(oracle, rel=1e-6)

    def test_last_allowed_step_converging_is_not_capped(self):
        rng = np.random.default_rng(63)
        _, _, samples = bernoulli_samples(lambda x: expit(x + 0.5), 1000, rng)
        full = fit("gaussian", samples)
        steps = len(full.losses) - 1
        exact = fit("gaussian", samples, max_iters=steps)
        assert exact.stop == "converged" and exact.calibrator == full.calibrator
        assert fit("gaussian", samples, max_iters=steps - 1).stop == "iteration_cap"
        # with tol 0 no gradient is small enough; this gamma fit's line search stalls
        stalled = fit("gamma", samples, tol=0.0)
        assert stalled.stop == "stalled" and len(stalled.losses) - 1 < 1000

    @pytest.mark.parametrize("kind", ["platt", "gaussian", "gamma"])
    def test_step_without_float_descent_stalls(self, kind):
        # with tol 0 the fit runs until no step lowers the loss at float
        # precision; a line search that took equal-loss steps would walk
        # ulp-sized steps to the cap of 1000
        rng = np.random.default_rng(63)
        _, _, samples = bernoulli_samples(lambda x: expit(x + 0.5), 1000, rng)
        stalled = fit(kind, samples, tol=0.0)
        assert stalled.stop == "stalled" and len(stalled.losses) - 1 <= 20
        assert np.all(np.diff(stalled.losses) < 0)
        # it stalls at the optimum: the oracle nll is flat there
        assert oracle_grad_norm(stalled.calibrator, samples) < 1e-6

    def test_histogram_has_no_gradient(self):
        result = fit("histogram", make_samples([0.0, 1.0], [0, 1]))
        assert result.grad_norm is None and result.stop == "converged"
        assert result.losses.size == 0


def oracle_grad_norm(cal, samples, coords=None):
    """Infinity-norm of the finite-difference gradient of the oracle ``nll`` at ``cal``."""

    def objective(x):
        return nll(Calibrator(cal.kind, *x, score_shift=cal.score_shift), samples)

    numeric = finite_difference_grad(objective, [cal.a, cal.b, cal.c], coords=coords)
    return max(abs(g) for g in numeric.values())


def assert_converged(result, samples, tol=1e-8, coords=None):
    """The fit reports convergence, and the oracle ``nll`` is flat there too."""
    assert result.stop == "converged" and result.grad_norm < tol
    assert oracle_grad_norm(result.calibrator, samples, coords) < 1e-6


class TestMonotonePreservesRanking:
    def test_platt_and_gamma(self):
        rng = np.random.default_rng(4)
        s = np.sort(rng.uniform(0.1, 5.0, 200))
        for cal in (
            Calibrator("platt", a=1.3, b=-0.4),
            Calibrator("gamma", a=0.7, b=0.2, c=-1.0),
        ):
            p = apply(cal, s)
            assert np.all(np.diff(p) >= 0)
            assert np.array_equal(np.argsort(s, kind="stable"), np.argsort(p, kind="stable"))


class TestPropensity:
    def test_most_popular_is_one(self):
        assert estimate_propensity([1, 5, 10])[2] == 1.0

    def test_zero_popularity_clipped(self):
        assert estimate_propensity([0, 10], theta_min=0.01)[0] == 0.01

    def test_power_law_value(self):
        assert estimate_propensity([1, 4], tau=0.5)[0] == pytest.approx(0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            estimate_propensity([0, 0, 0])


class TestEce:
    def test_perfect_confidence(self):
        pairs = [(1.0, 1), (0.0, 0), (1.0, 1)]
        assert ece(pairs) == 0.0

    def test_single_bin_consistent(self):
        pairs = [(0.7, 1)] * 7 + [(0.7, 0)] * 3
        assert ece(pairs) == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_off_by_two_tenths(self):
        pairs = [(0.7, 1)] * 5 + [(0.7, 0)] * 5
        assert ece(pairs) == pytest.approx(0.2, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(17)
        p = rng.random(500)
        y = (rng.random(500) < p).astype(int)
        pairs = list(zip(p, y))
        shuffled = [pairs[i] for i in rng.permutation(500)]
        assert ece(pairs) == pytest.approx(ece(shuffled), abs=1e-15)
        assert 0.0 <= ece(pairs) <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            ece([])
        with pytest.raises(ValueError):
            ece([(1.5, 1)])

    @pytest.mark.parametrize("scheme", ["equal_width", "equal_mass"])
    @pytest.mark.parametrize("num_bins", [0, -1])
    def test_fewer_than_one_bin_rejected(self, num_bins, scheme):
        pairs = [(0.2, 0), (0.9, 1)]
        with pytest.raises(ValueError, match="num_bins must be >= 1"):
            ece(pairs, num_bins, scheme)
        with pytest.raises(ValueError, match="num_bins must be >= 1"):
            reliability_table(pairs, num_bins, scheme)

    def test_oracle_calibrated_predictions_small(self):
        rng = np.random.default_rng(30)
        p = rng.random(10_000)
        y = (rng.random(10_000) < p).astype(int)
        assert ece(list(zip(p, y)), num_bins=15) <= 0.02


class TestReliabilityTable:
    def test_two_bin_rows(self):
        rows = reliability_table([(0.25, 0), (0.75, 1)], num_bins=2)
        assert rows[0][2:] == (1, 0.25, 0.0)
        assert rows[1][2:] == (1, 0.75, 1.0)

    def test_ece_recomputable_from_table(self):
        rng = np.random.default_rng(23)
        p = rng.random(300)
        y = (rng.random(300) < 0.4).astype(int)
        pairs = list(zip(p, y))
        for scheme in ("equal_width", "equal_mass"):
            rows = reliability_table(pairs, num_bins=7, scheme=scheme)
            n = sum(r[2] for r in rows)
            recomputed = sum(r[2] / n * abs(r[4] - r[3]) for r in rows)
            assert recomputed == pytest.approx(ece(pairs, 7, scheme), abs=1e-12)

    def test_equal_mass_remainder_rule(self):
        rng = np.random.default_rng(2)
        pairs = [(float(v), 0) for v in rng.random(10)]
        rows = reliability_table(pairs, num_bins=3, scheme="equal_mass")
        assert [r[2] for r in rows] == [4, 3, 3]

    def test_empty_bins_present_with_zero_count(self):
        rows = reliability_table([(0.05, 0)], num_bins=4)
        assert len(rows) == 4
        assert [r[2] for r in rows] == [1, 0, 0, 0]

    def test_csv_round_trip(self, tmp_path):
        rows = reliability_table([(0.2, 0), (0.9, 1), (0.95, 1)], num_bins=4)
        path = tmp_path / "rel.csv"
        write_reliability_csv(rows, path)
        assert read_reliability_csv(path) == rows


class TestCollectSamples:
    def make_setup(self):
        ds = make_dataset(
            {u: {0, 1} for u in range(5)},
            validation={u: {2, 3} for u in range(5)},
            num_items=30,
        )
        params = init_params(5, 30, 4, seed=0)
        return ds, params

    def test_counts(self):
        ds, params = self.make_setup()
        samples = collect_calibration_samples(
            params, ds, np.random.default_rng(0), negatives_per_positive=4
        )
        assert len(samples) == 10 * 5  # 10 positives, each with 4 negatives
        assert samples.y.sum() == 10
        # each positive is followed by its own negatives
        assert np.array_equal(samples.y.reshape(10, 5)[:, 0], np.ones(10))

    def test_default_theta_is_one(self):
        ds, params = self.make_setup()
        samples = collect_calibration_samples(params, ds, np.random.default_rng(0))
        assert np.all(samples.theta == 1.0)

    def test_theta_comes_from_model(self):
        ds, params = self.make_setup()
        propensity = estimate_propensity(np.arange(1, 31))
        rng = np.random.default_rng(1)
        samples = collect_calibration_samples(params, ds, rng, propensity=propensity)
        # positives are items 2 and 3 for every user; spot-check the mapping
        for theta in samples.theta:
            matches = [i for i in range(30) if propensity[i] == pytest.approx(theta)]
            assert matches
        assert np.all(samples.theta[samples.y == 1] <= propensity[3])

    def test_scores_match_params(self):
        ds, params = self.make_setup()
        samples = collect_calibration_samples(params, ds, np.random.default_rng(2))
        positive_scores = sorted(samples.s[samples.y == 1])
        expected = np.sort(np.concatenate([score_items(params, u, [2, 3]) for u in range(5)]))
        np.testing.assert_allclose(positive_scores, expected)

    def test_negatives_avoid_train_and_validation(self):
        # items 0, 1 train, 2 validation, 3 test, 4 unobserved: negatives come
        # from 3 and 4 only, so the test item is drawn and no test label is read
        ds = make_dataset(
            {0: {0, 1}}, validation={0: {2}}, test={0: {3}}, num_items=5
        )
        params = init_params(1, 5, 2, seed=3)
        params.item_bias[:] = np.arange(5) * 10.0  # distinct scores name the items
        rng = np.random.default_rng(4)
        samples = collect_calibration_samples(params, ds, rng, negatives_per_positive=60)
        scores = score_items(params, 0, np.arange(5))
        drawn = {int(np.argmin(np.abs(scores - s))) for s in samples.s[samples.y == 0]}
        assert drawn == {3, 4}

    def test_empty_split(self):
        ds = make_dataset({0: {0}}, num_items=3)
        with pytest.raises(ValueError):
            collect_calibration_samples(init_params(1, 3, 2, 0), ds, np.random.default_rng(0))


class TestUnbiasedRiskReduction:
    def test_nll_reduction_at_unit_theta(self):
        rng = np.random.default_rng(44)
        s = rng.uniform(-2, 2, 400)
        y = (rng.random(400) < expit(s)).astype(int)
        samples = make_samples(s, y)
        cal = Calibrator("platt", a=1.0, b=0.0)
        # unit theta: the weights are the labels, bit for bit
        p = np.clip(apply(cal, s), 1e-12, 1.0 - 1e-12)
        assert nll(cal, samples) == np.mean(y * -np.log(p) + (1 - y) * -np.log1p(-p))

    def test_unbiased_nll_expectation_small(self):
        # exposure thins positives by theta; reweighting recovers the
        # fully-observed loss in expectation
        rng = np.random.default_rng(55)
        n = 20_000
        s = rng.uniform(-2, 2, n)
        p_true = expit(1.5 * s - 0.5)
        y_full = (rng.random(n) < p_true).astype(int)
        theta = rng.uniform(0.2, 1.0, n)
        exposed = rng.random(n) < theta
        y_obs = y_full * exposed

        cal = Calibrator("platt", a=1.5, b=-0.5)
        full = nll(cal, make_samples(s, y_full))
        unbiased = nll(cal, make_samples(s, y_obs, theta))

        log_ratio = np.log1p(-p_true) - np.log(p_true)
        var = np.sum(y_full * log_ratio**2 * (1 - theta) / theta) / n**2
        assert abs(unbiased - full) <= 3 * np.sqrt(var)


class TestSerialization:
    def test_parametric_round_trip(self, tmp_path):
        cal = Calibrator("gamma", a=0.3, b=-1.2, c=0.8, score_shift=2.5)
        path = tmp_path / "cal.json"
        save_calibrator(cal, path)
        loaded = load_calibrator(path)
        assert loaded == cal

    def test_histogram_round_trip(self, tmp_path):
        cal = Calibrator("histogram", bins=[(0.1, 0.25), (0.9, 0.75)])
        path = tmp_path / "cal.json"
        save_calibrator(cal, path)
        loaded = load_calibrator(path)
        assert loaded == cal
        assert apply(loaded, 0.05) == 0.25

    def test_failed_writes_keep_previous_files(self, tmp_path):
        cal_path, csv_path = tmp_path / "cal.json", tmp_path / "rel.csv"
        save_calibrator(Calibrator("platt", a=2.0), cal_path)
        write_reliability_csv([(0.0, 1.0, 3, 0.5, 0.4)], csv_path)
        before = (cal_path.read_bytes(), csv_path.read_bytes())
        with pytest.raises(TypeError):
            save_calibrator(Calibrator("platt", a=object()), cal_path)
        with pytest.raises(ValueError):
            write_reliability_csv([(0.0, 1.0, 3, 0.5, 0.4), (1.0, 2.0)], csv_path)
        assert (cal_path.read_bytes(), csv_path.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.json", "rel.csv"]

    def test_loaded_fields_are_finite_floats(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"kind": "gaussian", "a": 1, "b": -2.5}')
        assert load_calibrator(path) == Calibrator("gaussian", a=1.0, b=-2.5)
