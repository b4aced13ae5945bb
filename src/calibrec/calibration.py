"""Mapping raw ranking scores to calibrated interaction probabilities.

Three parametric calibrators, all logistic maps of simple score features,
plus an equal-mass histogram-binning baseline:

    platt      p(s) = sigmoid(a*s + b),            a >= 0 enforced at fit
    gaussian   p(s) = sigmoid(a*s^2 + b*s + c)
    gamma      p(s) = sigmoid(a*ln(s) + b*s + c),  needs s > 0
    histogram  p(s) = weighted positive fraction of the bin containing s

Fitting minimizes a weighted negative log-likelihood by damped Newton
with a backtracking line search. In the default (biased) mode weights are
the labels themselves. In unbiased mode each sample carries an inverse
propensity: w+ = y/theta and w- = 1 - y/theta, which makes the risk an
unbiased estimate of the fully-observed one under exposure probability
theta, at the price of possibly negative weights. Since w+ + w- = 1 in
both modes, the objective is mean(softplus(z) - w+ z) with z the logit, and
its Hessian weights every sample by sigma(z)(1 - sigma(z)) >= 0: it stays
convex with negative weights too. What negative weights can do is make it
unbounded below, for example when the positives' 1/theta sum to more than
the sample count (the fit then stops at its iteration cap or a stalled line
search and reports that it has not converged).

Diagnostics: expected calibration error and reliability tables over
equal-width or equal-mass bins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .atomic import atomic_open
from .dataset import SPLITS, Dataset, sample_negatives
from .ranker import MfParams, score_items

CALIBRATOR_KINDS = ("platt", "gaussian", "gamma", "histogram")
PARAMETRIC_KINDS = ("platt", "gaussian", "gamma")

# clamp floor for probabilities entering logs
_P_EPS = 1e-12

# smallest shifted score the gamma map sees; gamma_shift guarantees the
# fitted scores start here
GAMMA_EPS = 1e-6


@dataclass
class Calibrator:
    """A fitted score-to-probability map.

    ``score_shift`` is added to every incoming score before the map is
    evaluated; it is only ever nonzero for the gamma kind, whose log feature
    needs positive inputs (see ``gamma_shift``). ``bins`` is a list of
    (upper_edge, value) pairs, present only for the histogram kind.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    score_shift: float = 0.0
    bins: list[tuple[float, float]] | None = None


@dataclass
class PropensityModel:
    """Per-item observation propensities from a popularity power law."""

    theta: np.ndarray
    tau: float
    theta_min: float


@dataclass
class CalibrationSample:
    """One (score, label, propensity) fitting point."""

    s: float
    y: int
    theta: float = 1.0


@dataclass
class CalibrationSamples:
    """Fitting points as parallel arrays of scores, labels and propensities."""

    s: np.ndarray
    y: np.ndarray
    theta: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


def gamma_shift(scores, eps: float = GAMMA_EPS) -> float:
    """Order-preserving shift making every score positive: s + shift >= eps."""
    return float(eps - np.min(scores))


def _features(kind: str, s: np.ndarray) -> np.ndarray:
    """Design matrix phi(s) such that logit(p) = phi @ (a, b, c)."""
    if kind == "platt":
        return np.column_stack([s, np.ones_like(s), np.zeros_like(s)])
    if kind == "gaussian":
        return np.column_stack([s * s, s, np.ones_like(s)])
    if kind == "gamma":
        if np.any(s <= 0):
            raise ValueError("gamma calibrator needs positive (shifted) scores")
        return np.column_stack([np.log(s), s, np.ones_like(s)])
    raise ValueError(f"unknown parametric kind {kind!r}")


def apply(cal: Calibrator, s) -> float | np.ndarray:
    """Evaluate a calibrator at a score (or array of scores).

    The recorded score shift is applied first. A raw gamma map (no shift)
    rejects nonpositive scores; once a shift is recorded, scores below the
    fitted range saturate at the shift epsilon instead of failing, since
    serving-time scores can legitimately fall below the fit-time minimum.
    Returns values in [0, 1]; scalar in, scalar out.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError("NaN score")
    shifted = arr + cal.score_shift
    scalar = arr.ndim == 0
    shifted = np.atleast_1d(shifted)
    if cal.kind == "gamma" and cal.score_shift != 0.0:
        shifted = np.maximum(shifted, GAMMA_EPS)

    if cal.kind in PARAMETRIC_KINDS:
        phi = _features(cal.kind, shifted)
        out = expit(phi @ np.array([cal.a, cal.b, cal.c]))
    elif cal.kind == "histogram":
        if not cal.bins:
            raise ValueError("histogram calibrator has no bins")
        edges = np.array([e for e, _ in cal.bins])
        values = np.array([v for _, v in cal.bins])
        idx = np.minimum(np.searchsorted(edges, shifted, side="left"), len(values) - 1)
        out = values[idx]
    else:
        raise ValueError(f"unknown calibrator kind {cal.kind!r}")
    return float(out[0]) if scalar else out


def _samples_to_arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(samples, CalibrationSamples):
        s, y, theta = (np.asarray(a, dtype=float) for a in (samples.s, samples.y, samples.theta))
    else:
        s = np.array([smp.s for smp in samples], dtype=float)
        y = np.array([smp.y for smp in samples], dtype=float)
        theta = np.array([smp.theta for smp in samples], dtype=float)
    if np.any((theta <= 0) | (theta > 1)):
        raise ValueError("propensities must lie in (0, 1]")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("labels must be 0 or 1")
    return s, y, theta


def _weights(y: np.ndarray, theta: np.ndarray, unbiased: bool) -> tuple[np.ndarray, np.ndarray]:
    if unbiased:
        return y / theta, 1.0 - y / theta
    return y, 1.0 - y


def nll(cal: Calibrator, samples, unbiased: bool = False) -> float:
    """Mean weighted negative log-likelihood of samples under a calibrator."""
    s, y, theta = _samples_to_arrays(samples)
    w_pos, w_neg = _weights(y, theta, unbiased)
    p = np.clip(np.atleast_1d(apply(cal, s)), _P_EPS, 1.0 - _P_EPS)
    return float(np.mean(w_pos * -np.log(p) + w_neg * -np.log1p(-p)))


def _objective(theta_vec, phi, w_pos, w_neg) -> float:
    z = phi @ theta_vec
    # -ln sigmoid(z) = softplus(-z);  -ln(1 - sigmoid(z)) = softplus(z)
    return float(np.mean(w_pos * np.logaddexp(0.0, -z) + w_neg * np.logaddexp(0.0, z)))


def _derivatives(theta_vec, phi, w_pos, w_neg) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``_objective`` at ``theta_vec``.

    The Hessian is phi' diag(sigma (1 - sigma)) phi / n because w+ + w- = 1
    in both weighting modes, so it is positive semidefinite even when the
    unbiased weights are negative.
    """
    sig = expit(phi @ theta_vec)
    grad = phi.T @ (w_pos * (sig - 1.0) + w_neg * sig) / len(sig)
    hess = (phi.T * (sig * (1.0 - sig))) @ phi / len(sig)
    return grad, hess


def _free(kind: str, theta_vec, grad) -> np.ndarray:
    """Indices of the parameters a step may move.

    Platt fits (a, b) only, and holds a at its bound a = 0 while the
    gradient pushes it further down; the stop rule and ``gradient_norm``
    read the gradient on these indices alone.
    """
    if kind != "platt":
        return np.arange(3)
    if theta_vec[0] <= 0.0 and grad[0] > 0.0:
        return np.array([1])
    return np.array([0, 1])


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve hess @ d = -grad by Cholesky.

    A Hessian that is singular or ill-conditioned (a pivot below 1e-12 of the
    largest) gets a Levenberg ridge of 1e-10, 1e-8, ... up to 1 times its
    largest diagonal entry; if none helps, the step is the negative gradient.
    """
    scale = np.max(np.diag(hess))
    for ridge in scale * np.array([0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0]):
        try:
            factor = np.linalg.cholesky(hess + ridge * np.eye(len(grad)))
        except np.linalg.LinAlgError:
            continue
        pivots = np.diag(factor) ** 2
        if pivots.min() >= 1e-12 * pivots.max():
            direction = np.linalg.solve(factor.T, np.linalg.solve(factor, -grad))
            if np.all(np.isfinite(direction)):
                return direction
    return -grad


def fit(
    kind: str,
    samples: CalibrationSamples | Sequence[CalibrationSample],
    unbiased: bool = False,
    max_iters: int = 1000,
    tol: float = 1e-8,
    score_shift: float = 0.0,
    num_bins: int = 15,
    full_output: bool = False,
):
    """Fit a calibrator by (weighted) maximum likelihood.

    Parametric kinds run damped Newton on the kind's parameters, (a, b) for
    platt and (a, b, c) for gaussian and gamma, from (a,b,c) = (1,0,0) for
    platt/gamma and (0,1,0) for gaussian. Each iteration solves H d = -g
    (Cholesky, with a Levenberg ridge when H is singular or ill-conditioned,
    and -g as the last resort) and halves the step from 1 until it meets
    the Armijo condition, so accepted steps never increase the objective; a
    step whose objective is not finite counts as too long. Platt keeps
    a >= 0 as an active set: a step that would cross the bound is clipped
    onto it, and while a = 0 and the gradient pushes a below zero, a is
    held and the step moves b alone.

    The fit stops when the gradient infinity-norm over the free parameters
    drops below ``tol`` (converged), after ``max_iters`` accepted steps (the
    iteration cap), or when the line search cannot move the parameters at
    float precision (stalled). The histogram kind ignores the optimizer
    settings and sets each of ``num_bins`` equal-mass bins to its weighted
    positive fraction.

    ``score_shift`` is added to all sample scores before fitting and
    recorded on the returned calibrator (used for gamma on sign-unconstrained
    scores; see ``gamma_shift``).

    With ``full_output`` returns (calibrator, loss_trace) where the trace
    holds the objective at the start and after every accepted step, so
    ``len(trace) - 1`` is the number of Newton iterations taken.

    Raises ValueError on one-class input, on nonpositive shifted scores for
    gamma, and if the objective is not finite at the start point.
    """
    if kind not in CALIBRATOR_KINDS:
        raise ValueError(f"unknown calibrator kind {kind!r}")
    s, y, theta = _samples_to_arrays(samples)
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("need at least one positive and one negative sample")
    s = s + score_shift
    w_pos, w_neg = _weights(y, theta, unbiased)

    if kind == "histogram":
        cal = _fit_histogram(s, w_pos, num_bins, score_shift)
        return (cal, np.array([])) if full_output else cal

    phi = _features(kind, s)
    theta_vec = np.array([1.0, 0.0, 0.0]) if kind in ("platt", "gamma") else np.array([0.0, 1.0, 0.0])

    loss = _objective(theta_vec, phi, w_pos, w_neg)
    if not math.isfinite(loss):
        raise ValueError("non-finite loss at iteration 0")
    trace = [loss]
    armijo = 1e-4

    for _ in range(max_iters):
        grad, hess = _derivatives(theta_vec, phi, w_pos, w_neg)
        free = _free(kind, theta_vec, grad)
        if np.max(np.abs(grad[free])) < tol:
            break
        direction = np.zeros(3)
        direction[free] = _newton_direction(hess[np.ix_(free, free)], grad[free])
        step = 1.0
        while True:
            cand = theta_vec + step * direction
            if kind == "platt" and cand[0] < 0.0:
                cand[0] = 0.0
            if np.array_equal(cand, theta_vec):
                break
            cand_loss = _objective(cand, phi, w_pos, w_neg)
            # a clipped step need not point downhill: it must still not ascend
            decrease = min(0.0, armijo * float(grad @ (cand - theta_vec)))
            if math.isfinite(cand_loss) and cand_loss <= loss + decrease:
                break
            step *= 0.5
        if np.array_equal(cand, theta_vec):
            break  # line search stalled: no descent at float precision
        theta_vec, loss = cand, cand_loss
        trace.append(loss)

    cal = Calibrator(
        kind=kind,
        a=float(theta_vec[0]),
        b=float(theta_vec[1]),
        c=float(theta_vec[2]),
        score_shift=score_shift,
    )
    return (cal, np.array(trace)) if full_output else cal


def gradient_norm(cal: Calibrator, samples, unbiased: bool = False) -> float:
    """Infinity-norm of the fitting objective's gradient at a parametric calibrator.

    The objective is the one ``fit`` minimizes, on the samples shifted by
    ``cal.score_shift``, and the norm is over the parameters ``fit`` may
    move there (platt's a is left out while it sits at its bound a = 0 with
    the gradient pushing it below); ``fit`` stops once this drops below
    ``tol``.
    """
    s, y, theta = _samples_to_arrays(samples)
    w_pos, w_neg = _weights(y, theta, unbiased)
    phi = _features(cal.kind, s + cal.score_shift)
    theta_vec = np.array([cal.a, cal.b, cal.c])
    grad, _ = _derivatives(theta_vec, phi, w_pos, w_neg)
    return float(np.max(np.abs(grad[_free(cal.kind, theta_vec, grad)])))


def _fit_histogram(s, w_pos, num_bins, score_shift) -> Calibrator:
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    w_sorted = w_pos[order]
    n = len(s_sorted)
    counts = [n // num_bins + (1 if b < n % num_bins else 0) for b in range(num_bins)]
    groups: list[list[float]] = []  # [upper_edge, positive_weight, count]
    start = 0
    for count in counts:
        if count == 0:
            continue
        stop = start + count
        edge = float(s_sorted[stop - 1])
        pos_weight = float(w_sorted[start:stop].sum())
        if groups and edge <= groups[-1][0]:
            # tied scores across the boundary: fold into the previous bin so
            # upper edges stay strictly increasing
            groups[-1][1] += pos_weight
            groups[-1][2] += count
        else:
            groups.append([edge, pos_weight, count])
        start = stop
    bins = [(edge, float(np.clip(w / cnt, 0.0, 1.0))) for edge, w, cnt in groups]
    return Calibrator(kind="histogram", score_shift=score_shift, bins=bins)


def estimate_propensity(
    item_popularity, tau: float = 0.5, theta_min: float = 0.01
) -> PropensityModel:
    """Popularity-power propensities: theta_i = clip((pop_i/max_pop)^tau, theta_min, 1)."""
    pop = np.asarray(item_popularity, dtype=float)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if not 0 < theta_min <= 1:
        raise ValueError("theta_min must be in (0, 1]")
    max_pop = pop.max() if pop.size else 0.0
    if max_pop <= 0:
        raise ValueError("all-zero item popularity")
    theta = np.clip((pop / max_pop) ** tau, theta_min, 1.0)
    return PropensityModel(theta=theta, tau=tau, theta_min=theta_min)


def _bin_rows(pairs, num_bins: int, scheme: str):
    """Shared binning for ece / reliability_table.

    Returns a list of (lower, upper, count, mean_p, frac_pos) rows, one per
    bin, empty bins included with count 0.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        raise ValueError("empty pairs")
    arr = arr.reshape(-1, 2)
    p, y = arr[:, 0], arr[:, 1]
    if np.any((p < 0) | (p > 1)) or np.any(np.isnan(p)):
        raise ValueError("probabilities must lie in [0, 1]")
    n = len(p)

    rows = []
    if scheme == "equal_width":
        idx = np.minimum((p * num_bins).astype(int), num_bins - 1)
        for b in range(num_bins):
            mask = idx == b
            count = int(mask.sum())
            lower, upper = b / num_bins, (b + 1) / num_bins
            if count:
                rows.append((lower, upper, count, float(p[mask].mean()), float(y[mask].mean())))
            else:
                rows.append((lower, upper, 0, 0.0, 0.0))
    elif scheme == "equal_mass":
        order = np.argsort(p, kind="stable")
        counts = [n // num_bins + (1 if b < n % num_bins else 0) for b in range(num_bins)]
        start = 0
        prev_upper = 0.0
        for count in counts:
            if count == 0:
                rows.append((prev_upper, prev_upper, 0, 0.0, 0.0))
                continue
            sel = order[start : start + count]
            lower, upper = float(p[sel[0]]), float(p[sel[-1]])
            rows.append((lower, upper, count, float(p[sel].mean()), float(y[sel].mean())))
            prev_upper = upper
            start += count
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}")
    return rows


def reliability_table(pairs, num_bins: int = 15, scheme: str = "equal_width"):
    """Reliability-diagram rows: (bin_lower, bin_upper, count, mean_p, frac_pos)."""
    return _bin_rows(pairs, num_bins, scheme)


def ece(pairs, num_bins: int = 15, scheme: str = "equal_width") -> float:
    """Expected calibration error: bin-weighted |positive fraction - mean p|."""
    rows = _bin_rows(pairs, num_bins, scheme)
    n = sum(count for _, _, count, _, _ in rows)
    return float(
        sum(count / n * abs(frac_pos - mean_p) for _, _, count, mean_p, frac_pos in rows)
    )


def save_calibrator(cal: Calibrator, path) -> None:
    """Serialize to JSON: {kind, a, b, c, score_shift, bins?}."""
    payload = {
        "kind": cal.kind,
        "a": cal.a,
        "b": cal.b,
        "c": cal.c,
        "score_shift": cal.score_shift,
    }
    if cal.bins is not None:
        payload["bins"] = [[float(e), float(v)] for e, v in cal.bins]
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_calibrator(path) -> Calibrator:
    """Read a calibrator written by ``save_calibrator``, checking every field.

    Raises ValueError for an unknown kind, a non-finite a, b, c or
    score_shift, and a histogram whose bins are missing or empty, whose upper
    edges do not strictly increase, or whose values fall outside [0, 1].
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("kind") not in CALIBRATOR_KINDS:
        raise ValueError(f"{path}: calibrator kind must be one of {CALIBRATOR_KINDS}")
    fields = {}
    for name in ("a", "b", "c", "score_shift"):
        value = payload.get(name, 0.0)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            raise ValueError(f"{path}: calibrator field {name} must be a finite number")
        fields[name] = float(value)
    bins = None
    if payload["kind"] == "histogram":
        try:
            table = np.array(payload.get("bins"), dtype=float)
        except (TypeError, ValueError):
            table = np.empty(0)
        if table.ndim != 2 or table.shape[0] == 0 or table.shape[1] != 2:
            raise ValueError(f"{path}: histogram calibrator needs a non-empty bins list of pairs")
        edges, values = table[:, 0], table[:, 1]
        if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
            raise ValueError(f"{path}: histogram bin edges must strictly increase")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError(f"{path}: histogram bin values must lie in [0, 1]")
        bins = [(float(e), float(v)) for e, v in table]
    return Calibrator(kind=payload["kind"], bins=bins, **fields)


RELIABILITY_HEADER = "bin_lower,bin_upper,count,mean_p,frac_pos"


def write_reliability_csv(rows, path) -> None:
    with atomic_open(path) as fh:
        fh.write(RELIABILITY_HEADER + "\n")
        for lower, upper, count, mean_p, frac_pos in rows:
            fh.write(f"{lower},{upper},{count},{mean_p},{frac_pos}\n")


def read_reliability_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != RELIABILITY_HEADER:
            raise ValueError(f"unexpected reliability header {header!r}")
        for line in fh:
            if line.strip():
                lower, upper, count, mean_p, frac_pos = line.strip().split(",")
                rows.append((float(lower), float(upper), int(count), float(mean_p), float(frac_pos)))
    return rows


def collect_calibration_samples(
    params: MfParams,
    dataset: Dataset,
    rng: np.random.Generator,
    split: str = "validation",
    negatives_per_positive: int = 1,
    propensity: PropensityModel | None = None,
) -> CalibrationSamples:
    """Build the (score, label, propensity) fitting set from held-out data.

    Every split positive (u, i) yields one y=1 sample; for each positive,
    ``negatives_per_positive`` items the user never interacted with (in any
    split) yield y=0 samples, drawn by ``sample_negatives``. Samples are laid
    out user by user, each positive followed by its negatives. theta is 1
    everywhere unless a propensity model is supplied.
    """
    if split != "validation":
        raise ValueError("calibration samples are collected from the validation split")
    held = dataset.split(split)
    if not len(held):
        raise ValueError(f"split {split!r} is empty")
    users, positives = held.pairs()
    negatives = sample_negatives(dataset, users, negatives_per_positive, rng, exclude=SPLITS)
    items = np.column_stack([positives, negatives])
    labels = np.zeros(items.shape, dtype=np.int64)
    labels[:, 0] = 1
    scores = np.empty(items.shape)
    for user in np.flatnonzero(held.sizes()):
        rows = slice(held.indptr[user], held.indptr[user + 1])
        user_scores = score_items(params, int(user), items[rows].ravel())
        scores[rows] = user_scores.reshape(-1, items.shape[1])
    theta = propensity.theta[items] if propensity is not None else np.ones(items.shape)
    return CalibrationSamples(scores.ravel(), labels.ravel(), theta.ravel())
