"""Turning ranking scores into probabilities you can trust.

Trains a small factorization model on synthetic implicit feedback, then
compares raw sigmoid(score) against fitted calibrators: expected calibration
error, a reliability table, and the effect of inverse-propensity weighting.
"""

import numpy as np

from calibrec.calibration import (
    apply,
    collect_calibration_samples,
    ece,
    estimate_propensity,
    fit,
    reliability_table,
)
from calibrec.ranker import TrainConfig, bpr_epoch, init_params, sigmoid
from calibrec.synthetic import low_rank_dataset

SEED = 7

# ----------------------------------------------------------------------
# 1. data and a trained backbone

dataset = low_rank_dataset(120, 200, rank=2, per_user=25, noise=0.25, seed=SEED)
params = init_params(120, 200, 8, seed=[SEED, 0])
cfg = TrainConfig(lr=0.15, reg=1e-4, batch_size=16)
for epoch in range(20):
    params, loss = bpr_epoch(params, dataset, cfg, np.random.default_rng([SEED, 1 + epoch]))
print(f"backbone trained, final pairwise loss {loss:.4f}")

# ----------------------------------------------------------------------
# 2. validation-derived fitting samples: held-out positives vs sampled
# unobserved items

fit_samples = collect_calibration_samples(
    params, dataset, np.random.default_rng([SEED, 100]), negatives_per_positive=4
)
eval_samples = collect_calibration_samples(
    params, dataset, np.random.default_rng([SEED, 101]), negatives_per_positive=4
)
eval_scores, eval_labels = eval_samples.s, eval_samples.y
print(f"{len(fit_samples)} fitting samples, {fit_samples.y.sum()} positive")

raw_ece = ece(reliability_table(sigmoid(eval_scores), eval_labels))
print(f"\nraw sigmoid(score) ECE: {raw_ece:.4f}")

# ----------------------------------------------------------------------
# 3. fit every calibrator kind and compare held-out ECE

# a gamma fit shifts the scores positive itself and records the shift
for kind in ("platt", "gaussian", "gamma", "histogram"):
    cal = fit(kind, fit_samples).calibrator
    rows = reliability_table(apply(cal, eval_scores), eval_labels)
    print(f"{kind:>9}: ECE {ece(rows):.4f}")

# ----------------------------------------------------------------------
# 4. reliability table for the platt map: confidence vs observed frequency

result = fit("platt", fit_samples)
cal = result.calibrator
print(
    f"\nplatt fit: {result.stop} after {len(result.losses) - 1} Newton steps, "
    f"gradient norm {result.grad_norm:.2e}"
)
rows = reliability_table(apply(cal, eval_scores), eval_labels, num_bins=10)
print("\nreliability (platt, 10 equal-width bins)")
print("  bin            count  mean_p  frac_pos")
for lower, upper, count, mean_p, frac_pos in rows:
    if count:
        print(f"  [{lower:.2f}, {upper:.2f})  {count:5d}  {mean_p:.4f}  {frac_pos:.4f}")

# ----------------------------------------------------------------------
# 5. popularity propensities: weighting the likelihood by 1/theta removes
# the exposure bias of popular items. fit weights every sample by its
# theta, which is 1 for the samples above. Weights for observed pairs grow
# as 1/theta (and the unobserved side can go negative), so the floor
# matters: a low floor buys less bias at the cost of much more variance.

for floor in (0.1, 0.01):
    propensity = estimate_propensity(dataset.item_popularity, tau=0.5, theta_min=floor)
    weighted = collect_calibration_samples(
        params,
        dataset,
        np.random.default_rng([SEED, 100]),
        negatives_per_positive=4,
        propensity=propensity,
    )
    weighted_fit = fit("platt", weighted)
    cal_unbiased = weighted_fit.calibrator
    print(
        f"\npropensity floor {floor}: theta in "
        f"[{propensity.min():.3f}, {propensity.max():.3f}], "
        f"weighted platt a={cal_unbiased.a:.3f} b={cal_unbiased.b:.3f} ({weighted_fit.stop})"
    )
print(
    "\n(the weighted fit estimates calibration against *all* relevant items,\n"
    "not just exposed ones, so its ECE on the observed pairs above is not\n"
    "the number it optimizes)"
)
