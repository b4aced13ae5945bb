"""Mapping raw ranking scores to calibrated interaction probabilities.

Three parametric calibrators, all logistic maps of simple score features,
plus an equal-mass histogram-binning baseline:

    platt      p(s) = sigmoid(a*s + b),            a >= 0 enforced at fit
    gaussian   p(s) = sigmoid(a*s^2 + b*s + c)
    gamma      p(s) = sigmoid(a*ln(s) + b*s + c),  needs s > 0
    histogram  p(s) = weighted positive fraction of the bin containing s

Fitting minimizes a weighted negative log-likelihood by damped Newton
with a backtracking line search. Each sample carries its exposure
propensity theta and is weighted by w+ = y/theta and w- = 1 - y/theta,
which makes the risk an unbiased estimate of the fully-observed one, at the
price of possibly negative weights. Samples collected without a propensity
model carry theta = 1, where the weights are the labels themselves, bit for
bit. Since w+ + w- = 1, the objective is mean(softplus(z) - w+ z) with z
the logit, and its Hessian weights every sample by sigma(z)(1 - sigma(z))
>= 0: it stays convex with negative weights too. What negative weights can
do is make it unbounded below, for example when the positives' 1/theta sum
to more than the sample count (the fit then stops at its iteration cap or a
stalled line search, and its ``Fit`` result says so).

Diagnostics: expected calibration error and reliability tables over
equal-width or equal-mass bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open, read_json, write_json
from .dataset import Dataset, sample_negatives
from .ranker import MfParams, score_pairs, sigmoid

CALIBRATOR_KINDS = ("platt", "gaussian", "gamma", "histogram")
PARAMETRIC_KINDS = ("platt", "gaussian", "gamma")
BINNING_SCHEMES = ("equal_width", "equal_mass")

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
        out = sigmoid(phi @ np.array([cal.a, cal.b, cal.c]))
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


def _samples_to_arrays(samples: CalibrationSamples) -> tuple[np.ndarray, ...]:
    """Scores, labels and propensities as float arrays, after the input checks."""
    s, y, theta = (np.asarray(a, dtype=float) for a in (samples.s, samples.y, samples.theta))
    if np.any((theta <= 0) | (theta > 1)):
        raise ValueError("propensities must lie in (0, 1]")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("labels must be 0 or 1")
    return s, y, theta


def _weights(y: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-propensity weights w+ = y/theta and w- = 1 - y/theta."""
    return y / theta, 1.0 - y / theta


def _objective(theta_vec, phi, w_pos, w_neg) -> float:
    z = phi @ theta_vec
    # -ln sigmoid(z) = softplus(-z);  -ln(1 - sigmoid(z)) = softplus(z)
    return float(np.mean(w_pos * np.logaddexp(0.0, -z) + w_neg * np.logaddexp(0.0, z)))


def _derivatives(theta_vec, phi, w_pos, w_neg) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``_objective`` at ``theta_vec``.

    The Hessian is phi' diag(sigma (1 - sigma)) phi / n because w+ + w- = 1,
    so it is positive semidefinite even when some weights are negative.
    """
    sig = sigmoid(phi @ theta_vec)
    grad = phi.T @ (w_pos * (sig - 1.0) + w_neg * sig) / len(sig)
    hess = (phi.T * (sig * (1.0 - sig))) @ phi / len(sig)
    return grad, hess


def _free(kind: str, theta_vec, grad) -> np.ndarray:
    """Indices of the parameters a step may move.

    Platt fits (a, b) only, and holds a at its bound a = 0 while the
    gradient pushes it further down; the stop rule and ``Fit.grad_norm``
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


class Fit(NamedTuple):
    """What ``fit`` returns: the calibrator and how its Newton loop ended.

    ``losses`` holds the objective at the start and after each accepted
    step, so ``len(losses) - 1`` steps were taken; ``grad_norm`` is the
    gradient infinity-norm over the free parameters where the loop ended;
    ``stop`` is "converged", "iteration_cap" or "stalled". A histogram fit
    has no loop: its ``losses`` is empty, its ``grad_norm`` None and its
    ``stop`` "converged".
    """

    calibrator: Calibrator
    losses: np.ndarray
    grad_norm: float | None
    stop: str


def fit(
    kind: str,
    samples: CalibrationSamples,
    max_iters: int = 1000,
    tol: float = 1e-8,
    num_bins: int = 15,
) -> Fit:
    """Fit a calibrator by inverse-propensity-weighted maximum likelihood.

    Parametric kinds run damped Newton on the kind's parameters, (a, b) for
    platt and (a, b, c) for gaussian and gamma, from (a,b,c) = (1,0,0) for
    platt/gamma and (0,1,0) for gaussian. Each iteration solves H d = -g
    (Cholesky, with a Levenberg ridge when H is singular or ill-conditioned,
    and -g as the last resort) and halves the step from 1 until it meets
    the Armijo condition with an objective lower at float precision, so
    every accepted step lowers it; a step whose objective is not finite
    counts as too long. Platt keeps
    a >= 0 as an active set: a step that would cross the bound is clipped
    onto it, and while a = 0 and the gradient pushes a below zero, a is
    held and the step moves b alone.

    The loop ends "converged" once the gradient infinity-norm over the free
    parameters is below ``tol``, checked before every step and once more
    after the last allowed one; "iteration_cap" when ``max_iters`` accepted
    steps leave it at or above ``tol``; and "stalled" when no step the line
    search can take at float precision lowers the objective. The histogram kind
    ignores the optimizer settings and sets each of ``num_bins`` equal-mass
    bins to its weighted positive fraction.

    A gamma fit adds ``gamma_shift(samples.s)`` to every sample score, so
    the log feature sees positive scores, and records it as the returned
    calibrator's ``score_shift``; the other kinds record 0.

    Raises ValueError on one-class input, on a negative ``max_iters``, on
    fewer than one bin for histogram, and if the objective is not finite at
    the start point.
    """
    if kind not in CALIBRATOR_KINDS:
        raise ValueError(f"unknown calibrator kind {kind!r}")
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    s, y, theta = _samples_to_arrays(samples)
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("need at least one positive and one negative sample")
    score_shift = gamma_shift(s) if kind == "gamma" else 0.0
    s = s + score_shift
    w_pos, w_neg = _weights(y, theta)

    if kind == "histogram":
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        return Fit(_fit_histogram(s, w_pos, num_bins), np.array([]), None, "converged")

    phi = _features(kind, s)
    theta_vec = np.array([1.0, 0.0, 0.0]) if kind in ("platt", "gamma") else np.array([0.0, 1.0, 0.0])

    loss = _objective(theta_vec, phi, w_pos, w_neg)
    if not math.isfinite(loss):
        raise ValueError("non-finite loss at iteration 0")
    losses = [loss]
    armijo = 1e-4

    stop = "iteration_cap"
    for step_count in range(max_iters + 1):
        grad, hess = _derivatives(theta_vec, phi, w_pos, w_neg)
        free = _free(kind, theta_vec, grad)
        grad_norm = float(np.max(np.abs(grad[free])))
        if grad_norm < tol:
            stop = "converged"
            break
        if step_count == max_iters:
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
            # Armijo, and a loss lower at float precision: a clipped step,
            # which need not point downhill, gets no Armijo term, and a tiny
            # one rounds away in loss + decrease; either leaves the strict test
            decrease = min(0.0, armijo * float(grad @ (cand - theta_vec)))
            if math.isfinite(cand_loss) and cand_loss < loss and cand_loss <= loss + decrease:
                break
            step *= 0.5
        if np.array_equal(cand, theta_vec):
            stop = "stalled"  # no descent at float precision
            break
        theta_vec, loss = cand, cand_loss
        losses.append(loss)

    cal = Calibrator(
        kind=kind,
        a=float(theta_vec[0]),
        b=float(theta_vec[1]),
        c=float(theta_vec[2]),
        score_shift=score_shift,
    )
    return Fit(cal, np.array(losses), grad_norm, stop)


def _fit_histogram(s, w_pos, num_bins) -> Calibrator:
    groups: list[list[float]] = []  # [upper_edge, positive_weight, count]
    for sel in np.array_split(np.argsort(s, kind="stable"), num_bins):
        if not len(sel):
            continue
        edge = float(s[sel[-1]])
        pos_weight = float(w_pos[sel].sum())
        if groups and edge <= groups[-1][0]:
            # tied scores across the boundary: fold into the previous bin so
            # upper edges stay strictly increasing
            groups[-1][1] += pos_weight
            groups[-1][2] += len(sel)
        else:
            groups.append([edge, pos_weight, len(sel)])
    bins = [(edge, float(np.clip(w / cnt, 0.0, 1.0))) for edge, w, cnt in groups]
    return Calibrator(kind="histogram", bins=bins)


def check_tau(tau: float) -> float:
    """``tau`` if it is a finite nonnegative popularity exponent; raises ValueError otherwise."""
    if not 0 <= tau < math.inf:  # NaN fails too
        raise ValueError("tau must be nonnegative and finite")
    return tau


def check_theta_min(theta_min: float) -> float:
    """``theta_min`` if it is a propensity floor in (0, 1]; raises ValueError otherwise."""
    if not 0 < theta_min <= 1:
        raise ValueError("theta_min must be in (0, 1]")
    return theta_min


def estimate_propensity(item_popularity, tau: float = 0.5, theta_min: float = 0.01) -> np.ndarray:
    """Popularity-power propensities: theta_i = clip((pop_i/max_pop)^tau, theta_min, 1)."""
    pop = np.asarray(item_popularity, dtype=float)
    check_tau(tau)
    check_theta_min(theta_min)
    max_pop = pop.max() if pop.size else 0.0
    if max_pop <= 0:
        raise ValueError("all-zero item popularity")
    return np.clip((pop / max_pop) ** tau, theta_min, 1.0)


def reliability_table(p, y, num_bins: int = 15, scheme: str = "equal_width"):
    """(bin_lower, bin_upper, count, mean_p, frac_pos) rows over ``num_bins`` bins of ``p``.

    frac_pos is the mean of the bin's labels ``y``. Equal-mass bins split
    the stably sorted samples as the histogram calibrator does. An empty
    bin has count 0 and means 0.0; an empty equal-mass bin (only the last
    ones can be) takes the last upper edge as both edges. Raises ValueError
    for fewer than one bin, no samples, ``p`` and ``y`` of different
    lengths, and ``p`` outside [0, 1] or NaN.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    p, y = np.asarray(p, dtype=float), np.asarray(y, dtype=float)
    if p.ndim != 1 or p.shape != y.shape:
        raise ValueError("p and y must be 1-D arrays of the same length")
    if p.size == 0:
        raise ValueError("no samples")
    if np.any((p < 0) | (p > 1)) or np.any(np.isnan(p)):
        raise ValueError("probabilities must lie in [0, 1]")

    if scheme == "equal_width":
        idx = np.minimum((p * num_bins).astype(int), num_bins - 1)
        members = [np.flatnonzero(idx == b) for b in range(num_bins)]
        edges = [(b / num_bins, (b + 1) / num_bins) for b in range(num_bins)]
    elif scheme == "equal_mass":
        order = np.argsort(p, kind="stable")
        members = np.array_split(order, num_bins)
        top = float(p[order[-1]])
        edges = [(float(p[s[0]]), float(p[s[-1]])) if len(s) else (top, top) for s in members]
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}, not one of {BINNING_SCHEMES}")
    return [
        (lower, upper, len(sel), float(p[sel].mean()), float(y[sel].mean()))
        if len(sel)
        else (lower, upper, 0, 0.0, 0.0)
        for (lower, upper), sel in zip(edges, members)
    ]


def ece(rows) -> float:
    """Expected calibration error of a ``reliability_table``: bin-weighted |frac_pos - mean_p|.

    Raises ValueError for a table that holds no samples.
    """
    n = sum(count for _, _, count, _, _ in rows)
    if n == 0:
        raise ValueError("reliability table holds no samples")
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
    write_json(path, payload)


def load_calibrator(path) -> Calibrator:
    """Read a calibrator written by ``save_calibrator``, checking every field.

    Raises ValueError, naming ``path``, for a file that is not JSON, an
    unknown kind, an a, b, c or score_shift that is missing or not a finite
    number, and a histogram whose bins are missing or empty, whose upper
    edges do not strictly increase, or whose values fall outside [0, 1].
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("kind") not in CALIBRATOR_KINDS:
        raise ValueError(f"{path}: calibrator kind must be one of {CALIBRATOR_KINDS}")
    fields = {}
    for name in ("a", "b", "c", "score_shift"):
        value = payload.get(name)  # a missing field is None, not a number
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


def collect_calibration_samples(
    params: MfParams,
    dataset: Dataset,
    rng: np.random.Generator,
    negatives_per_positive: int = 1,
    propensity: np.ndarray | None = None,
) -> CalibrationSamples:
    """Build the (score, label, propensity) fitting set from held-out data.

    Every validation positive (u, i) yields one y=1 sample; for each positive,
    ``negatives_per_positive`` items outside the user's train and validation
    rows yield y=0 samples, drawn by ``sample_negatives``. Test items are not
    excluded: excluding them would read the test labels, so a test item can
    be drawn as a negative. Samples are laid out user by user, each positive
    followed by its negatives. A sample's theta is its item's entry of
    ``propensity`` (per-item, as ``estimate_propensity`` returns), or 1
    without one.
    """
    held = dataset.validation
    if not len(held):
        raise ValueError("split 'validation' is empty")
    users, positives = held.pairs()
    negatives = sample_negatives(
        dataset, users, negatives_per_positive, rng, exclude=("train", "validation")
    )
    items = np.column_stack([positives, negatives])
    labels = np.zeros(items.shape, dtype=np.int64)
    labels[:, 0] = 1
    scores = score_pairs(params, np.repeat(users, items.shape[1]), items)
    theta = propensity[items] if propensity is not None else np.ones(items.shape)
    return CalibrationSamples(scores, labels.ravel(), theta.ravel())
