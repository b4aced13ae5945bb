"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line and enforcing its runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import json
import time

import numpy as np
import pytest
from scipy.special import expit

from calibrec.calibration import CalibrationSamples, Calibrator, ece, fit, reliability_table
from calibrec.cli import main as cli_main
from calibrec.distill import BdConfig, bd_loss, bd_score_grads, cotrain_epoch, top_t_weights
from calibrec.perk import UTILITIES, _pb_rows, select_k, utility_curves
from calibrec.ranker import (
    MfParams,
    TrainConfig,
    bpr_epoch,
    init_params,
    pointwise_epoch,
    score_items,
)
from calibrec.synthetic import low_rank_dataset, low_rank_interactions, write_interactions_csv

from conftest import make_dataset, read_jsonl
from oracles import (
    auc,
    brute_force_pb,
    finite_difference_grad,
    mc_all_utilities,
    nll,
    relative_error,
)


def criterion(number, name, limit_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s budget"
            print(
                f"[acceptance] criterion {number} ({name}): PASS "
                f"({elapsed:.1f}s, budget {limit_s}s)"
            )

        return wrapper

    return decorate


def flatten(params):
    return np.concatenate([params.user_emb.ravel(), params.item_emb.ravel(), params.item_bias])


def samples(s, y, theta=None):
    theta = np.ones(len(s)) if theta is None else theta
    return CalibrationSamples(np.asarray(s, dtype=float), np.asarray(y), theta)


def unflatten(theta, like):
    u = like.user_emb.size
    i = like.item_emb.size
    return MfParams(
        theta[:u].reshape(like.user_emb.shape).copy(),
        theta[u : u + i].reshape(like.item_emb.shape).copy(),
        theta[u + i :].copy(),
    )


@criterion(1, "gradient correctness", limit_s=5.0)
def test_c01_gradient_correctness():
    rng = np.random.default_rng(101)

    # --- BPR: single forced triple (u=0, pos=0, neg=1)
    ds = make_dataset({0: {0}}, num_items=2)
    reg = 0.02
    params = MfParams(rng.normal(0, 0.5, (1, 4)), rng.normal(0, 0.5, (2, 4)), rng.normal(0, 0.5, 2))
    cfg = TrainConfig(lr=0.5, reg=reg, batch_size=1)
    stepped, _ = bpr_epoch(params, ds, cfg, np.random.default_rng(1))
    analytic = (flatten(params) - flatten(stepped)) / cfg.lr

    def bpr_objective(theta):
        p = unflatten(theta, params)
        s_pos, s_neg = score_items(p, 0, [0, 1])
        x = s_pos - s_neg
        return np.logaddexp(0.0, -x) + reg * (
            np.sum(p.user_emb[0] ** 2) + np.sum(p.item_emb[0] ** 2) + np.sum(p.item_emb[1] ** 2)
        )

    theta0 = flatten(params)
    coords = rng.choice(theta0.size, size=min(12, theta0.size), replace=False)
    assert len(coords) >= 10
    for i, g in finite_difference_grad(bpr_objective, theta0, h=1e-5, coords=coords).items():
        assert relative_error(analytic[i], g) < 1e-5

    # --- pointwise: one positive (item 1) and one forced negative (item 0)
    ds = make_dataset({0: {1}}, num_items=2)
    params = MfParams(rng.normal(0, 0.5, (1, 4)), rng.normal(0, 0.5, (2, 4)), rng.normal(0, 0.5, 2))
    cfg = TrainConfig(lr=0.3, reg=reg, negatives_per_positive=1, batch_size=1)
    stepped, _ = pointwise_epoch(params, ds, cfg, np.random.default_rng(2))
    analytic = (flatten(params) - flatten(stepped)) / cfg.lr

    def pointwise_objective(theta):
        p = unflatten(theta, params)
        s_neg, s_pos = score_items(p, 0, [0, 1])
        pos = np.logaddexp(0.0, -s_pos) + reg * (
            np.sum(p.user_emb[0] ** 2) + np.sum(p.item_emb[1] ** 2)
        )
        neg = np.logaddexp(0.0, s_neg) + reg * (
            np.sum(p.user_emb[0] ** 2) + np.sum(p.item_emb[0] ** 2)
        )
        return (pos + neg) / 2.0

    theta0 = flatten(params)
    coords = rng.choice(theta0.size, size=min(12, theta0.size), replace=False)
    assert len(coords) >= 10
    for i, g in finite_difference_grad(pointwise_objective, theta0, h=1e-5, coords=coords).items():
        assert relative_error(analytic[i], g) < 1e-5

    # --- distillation loss w.r.t. learner scores
    scores = rng.normal(0, 2, 12)
    targets = rng.uniform(0.1, 0.9, 12)

    def bd_objective(s):
        return bd_loss(expit(s), targets)

    analytic = bd_score_grads(expit(scores), targets)
    assert len(scores) >= 10
    for i, g in finite_difference_grad(bd_objective, scores, h=1e-5).items():
        assert relative_error(analytic[i], g) < 1e-5


@criterion(2, "poisson-binomial exactness", limit_s=10.0)
def test_c02_poisson_binomial_exactness():
    # the product's row-wise pmfs, 20 rows of each length against enumeration
    rng = np.random.default_rng(202)
    for n in range(1, 13):
        probs = rng.random((20, n))
        for row, exact in zip(probs, _pb_rows(probs, n + 1)):
            reference = brute_force_pb(row)
            assert np.max(np.abs(exact - reference)) < 1e-12
            assert abs(exact.sum() - 1.0) < 1e-9


@criterion(3, "expected-utility oracle equivalence", limit_s=60.0)
def test_c03_expected_utility_monte_carlo():
    rng = np.random.default_rng(303)
    n_draws = 200_000
    for trial in range(50):
        k = int(rng.integers(1, 11))
        r = int(rng.integers(0, 21))
        topk = rng.random(k)
        rest = rng.random(r)
        # the batched curves' top-k entry, with rest beyond the top k
        exact = {
            kind: utility_curves(topk[None], rest[None], kind)[0][k - 1]
            for kind in UTILITIES
        }
        mc = mc_all_utilities(topk, rest, n_draws, np.random.default_rng([3303, trial]))
        for name, (mean, se) in mc.items():
            assert abs(exact[name] - mean) <= 3 * max(se, 1e-9), (name, trial)


@criterion(4, "calibrator recovery", limit_s=30.0)
def test_c04_calibrator_recovery():
    rng = np.random.default_rng(404)
    n = 100_000
    s = rng.uniform(-3, 3, n)
    y = (rng.random(n) < expit(2.0 * s - 1.0)).astype(int)
    cal = fit("platt", samples(s, y)).calibrator
    assert abs(cal.a - 2.0) <= 0.1
    assert abs(cal.b - (-1.0)) <= 0.1

    half = 50_000
    s2 = np.concatenate([rng.normal(1, 1, half), rng.normal(-1, 1, half)])
    y2 = np.concatenate([np.ones(half, int), np.zeros(half, int)])
    mixture = samples(s2, y2)
    fitted = nll(fit("gaussian", mixture).calibrator, mixture)
    bayes = nll(Calibrator("platt", a=2.0, b=0.0), mixture)  # analytic posterior sigmoid(2s)
    assert abs(fitted - bayes) <= 0.01 * bayes


@criterion(5, "unbiased risk: reduction and expectation", limit_s=30.0)
def test_c05_unbiased_risk():
    rng = np.random.default_rng(505)
    s = rng.uniform(-2, 2, 5000)
    y = (rng.random(5000) < expit(s)).astype(int)
    unit = samples(s, y, np.ones(len(s)))
    cal, trace, _, _ = fit("platt", unit)

    # at unit theta the weights reduce to the labels: the plain log-likelihood
    def label_weighted(a, b):
        z = a * s + b
        return np.mean(y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z))

    assert trace[0] == pytest.approx(label_weighted(1.0, 0.0), rel=1e-12)
    assert trace[-1] == pytest.approx(label_weighted(cal.a, cal.b), rel=1e-12)
    p = expit(cal.a * s + cal.b)
    assert nll(cal, unit) == pytest.approx(
        np.mean(-(y * np.log(p) + (1 - y) * np.log1p(-p))), rel=1e-12
    )
    # and fit minimizes that objective: its gradient vanishes at the fit
    residual = p - y
    assert max(abs(np.mean(residual * s)), abs(np.mean(residual))) < 1e-8

    # exposure thinned by known theta: reweighted loss matches the
    # fully-observed loss at the true parameters, within 3 sigma per seed
    n = 100_000
    true = Calibrator("platt", a=1.5, b=-0.5)
    for seed in (1, 2, 3, 4, 5):
        sim = np.random.default_rng([505, seed])
        s = sim.uniform(-2, 2, n)
        p_true = expit(1.5 * s - 0.5)
        y_full = (sim.random(n) < p_true).astype(int)
        theta = sim.uniform(0.2, 1.0, n)
        y_obs = y_full * (sim.random(n) < theta)

        full = nll(true, samples(s, y_full))
        unbiased = nll(true, samples(s, y_obs, theta))
        log_ratio = np.log1p(-p_true) - np.log(p_true)
        sigma = np.sqrt(np.sum(y_full * log_ratio**2 * (1 - theta) / theta)) / n
        assert abs(unbiased - full) <= 3 * sigma, seed


@criterion(6, "expected calibration error sanity", limit_s=10.0)
def test_c06_ece_sanity():
    rng = np.random.default_rng(606)
    p = rng.random(10_000)
    y = (rng.random(10_000) < p).astype(int)
    assert ece(reliability_table(p, y, num_bins=15)) <= 0.02

    rows = reliability_table([0.7] * 10_000, [1] * 5000 + [0] * 5000, num_bins=15)
    assert abs(ece(rows) - 0.2) <= 1e-12


@criterion(7, "personalized cutoff dominance", limit_s=60.0)
def test_c07_perk_dominance():
    rng = np.random.default_rng(707)
    n_users, n_top, n_rest = 300, 20, 20
    fixed_ks = (1, 5, 10, 20)
    n_draws = 20

    at_k_star = []
    at_fixed = {k: [] for k in fixed_ks}
    for u in range(n_users):
        quality = rng.uniform(0.2, 0.9)
        decay = rng.uniform(0.75, 0.98)
        probs = quality * decay ** np.arange(n_top + n_rest)
        # the true relevance probabilities stand in for calibrated outputs
        curve = utility_curves(probs[None, :n_top], probs[None, n_top:], "f1")[0]
        k_star = select_k(curve)
        for d in range(n_draws):
            rel = np.random.default_rng([707, u, d]).random(len(probs)) < probs
            total = rel.sum()

            def realized_f1(k):
                return 2.0 * rel[:k].sum() / (k + total)

            at_k_star.append(realized_f1(k_star))
            for k in fixed_ks:
                at_fixed[k].append(realized_f1(k))

    mean_star = float(np.mean(at_k_star))
    for k in fixed_ks:
        assert mean_star >= float(np.mean(at_fixed[k])) - 0.01, k


@criterion(8, "backbone sanity", limit_s=60.0)
def test_c08_backbone_sanity():
    seed = 42
    dataset = low_rank_dataset(200, 300, rank=2, per_user=30, noise=0.25, seed=seed)
    params = init_params(200, 300, 8, seed=[seed, 0])
    cfg = TrainConfig(lr=0.2, reg=1e-4, batch_size=8)
    for epoch in range(30):
        params, _ = bpr_epoch(params, dataset, cfg, np.random.default_rng([seed, 1 + epoch]))
    value = auc(params, dataset, "validation", np.random.default_rng([seed, 99]), 40)
    assert value >= 0.85, value


@criterion(9, "distillation composition and weight properties", limit_s=30.0)
def test_c09_distillation_composition():
    dataset = low_rank_dataset(30, 50, rank=2, per_user=12, noise=0.25, seed=9)
    base_cfg = TrainConfig(lr=0.1, reg=1e-4, batch_size=8, negatives_per_positive=2)
    teacher = init_params(30, 50, 16, seed=[9, 0, 0])
    student = init_params(30, 50, 4, seed=[9, 0, 1])
    bd_cfg = BdConfig(
        lambda_ts=0.0, lambda_st=0.0, sample_size=5, eta=0.5, truncate_rank=25, epochs=1
    )
    t1, s1, _ = cotrain_epoch(teacher, student, dataset, base_cfg, bd_cfg, np.random.default_rng(91))
    teacher_rng, student_rng, _ = np.random.default_rng(91).spawn(3)
    t2, _ = pointwise_epoch(teacher, dataset, base_cfg, teacher_rng)
    s2, _ = pointwise_epoch(student, dataset, base_cfg, student_rng)
    for got, want in ((t1, t2), (s1, s2)):
        assert np.array_equal(got.user_emb, want.user_emb)
        assert np.array_equal(got.item_emb, want.item_emb)
        assert np.array_equal(got.item_bias, want.item_bias)

    # weight properties on the product's top-T rows: each row is one user's
    # learner (own) and counterpart (other) ranking of n items, cut at T
    rng = np.random.default_rng(92)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        trunc = int(rng.integers(1, 50))
        eta = float(rng.uniform(0.05, 2.0))
        own = np.array([rng.permutation(n) for _ in range(3)])
        other = np.array([rng.permutation(n) for _ in range(3)])
        width = min(n, trunc)
        weights = top_t_weights(own[:, :width], other[:, :width], eta, trunc)
        for u in range(3):
            rank_this = np.argsort(own[u]) + 1  # rank_this[item] is the learner's rank
            for j, item in enumerate(other[u, :width]):
                gap = min(rank_this[item], trunc) - min(j + 1, trunc)
                assert (weights[u, j] > 0) == (gap > 0)
                assert weights[u, j] == pytest.approx(np.tanh(eta * max(0, gap)))
    # nondecreasing in the discrepancy at fixed eta: row d has the learner
    # rank item 0 at 1 + d and the counterpart at 1
    own = np.array([np.roll(np.arange(200), d) for d in range(200)])
    other = np.tile(np.arange(200), (200, 1))
    values = top_t_weights(own, other, 0.25, 10_000)[:, 0]
    assert all(b >= a for a, b in zip(values, values[1:]))


@criterion(10, "end-to-end pipeline smoke", limit_s=600.0)
def test_c10_end_to_end_smoke(tmp_path):
    root = tmp_path
    csv = root / "interactions.csv"
    write_interactions_csv(
        csv,
        low_rank_interactions(900, 1400, rank=8, per_user=90, noise=0.3, seed=100),
        with_timestamps=True,
    )

    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, argv
        return code

    run("ingest", "--input", csv, "--out", root / "bundle")
    run(
        "train", "--data", root / "bundle", "--out", root / "ckpt",
        "--set", "train.epochs=6", "--set", "train.dim=16",
        "--set", "train.lr=0.1", "--set", "train.batch_size=256",
    )
    run("calibrate", "--data", root / "bundle", "--ckpt", root / "ckpt", "--out", root / "calib")
    report = json.loads((root / "calib" / "calibration_report.json").read_text())
    assert report["ece_calibrated"] < report["ece_raw"]

    run(
        "recommend", "--data", root / "bundle", "--ckpt", root / "ckpt",
        "--out", root / "fixed.jsonl", "--k", "20",
    )
    run(
        "recommend", "--data", root / "bundle", "--ckpt", root / "ckpt",
        "--out", root / "perk.jsonl", "--perk",
        "--calibrator", root / "calib" / "calibrator.json",
        "--summary", root / "perk_summary.json",
        "--set", "perk.k_max=50", "--set", "perk.rest_pool=300",
    )
    run(
        "eval", "--data", root / "bundle", "--recs", root / "fixed.jsonl",
        "--perk-recs", root / "perk.jsonl", "--out", root / "report.json",
    )

    evaluation = json.loads((root / "report.json").read_text())
    labels = [row["label"] for row in evaluation["rows"]]
    assert labels == ["k=1", "k=5", "k=10", "k=20", "perk"]
    assert evaluation["users_evaluated"] > 0
    perk_rows = read_jsonl(root / "perk.jsonl")
    assert len(perk_rows) == 900
    assert all(row["k_star"] == select_k(row["curve"]) for row in perk_rows)
