"""Why one list length cannot fit every user.

With calibrated relevance probabilities, the expected F1 or NDCG at every
cutoff k has a closed form (via the Poisson-binomial count distribution), so
each user can get the list length that maximizes it. This demo feeds known per-user probabilities straight in
and shows the personalized cutoff beating every fixed k on realized F1.
"""

import numpy as np

from calibrec.perk import select_k, utility_curves

SEED = 21
N_USERS, N_TOP, N_REST = 400, 25, 25
FIXED_KS = (1, 5, 10, 20)
DRAWS = 25

rng = np.random.default_rng(SEED)

# ----------------------------------------------------------------------
# 1. heterogeneous users: some with many likely-relevant items, some with
# almost none

users = []
for _ in range(N_USERS):
    quality = rng.uniform(0.15, 0.9)
    decay = rng.uniform(0.7, 0.98)
    users.append(quality * decay ** np.arange(N_TOP + N_REST))

table = np.array(users)
curves = utility_curves(table[:, :N_TOP], table[:, N_TOP:], "f1")
k_stars = [select_k(c) for c in curves]

hist = np.bincount(k_stars, minlength=N_TOP + 1)[1:]
print("distribution of chosen list lengths k*")
for k, count in enumerate(hist, start=1):
    if count:
        print(f"  k={k:2d}  {'#' * (count // 4)} {count}")

# a couple of example curves
for idx in (0, 1, 2):
    curve = curves[idx]
    head = " ".join(f"{v:.3f}" for v in curve[:8])
    print(f"user {idx}: expected F1 by k -> {head} ...  k*={k_stars[idx]}")

# ----------------------------------------------------------------------
# 2. realized F1 under the true probabilities: the personalized cutoff
# dominates every fixed one

at_star, at_fixed = [], {k: [] for k in FIXED_KS}
for u, probs in enumerate(users):
    for d in range(DRAWS):
        rel = np.random.default_rng([SEED, u, d]).random(len(probs)) < probs
        total = rel.sum()

        def f1(k):
            return 2.0 * rel[:k].sum() / (k + total)

        at_star.append(f1(k_stars[u]))
        for k in FIXED_KS:
            at_fixed[k].append(f1(k))

print(f"\nmean realized F1 at k*: {np.mean(at_star):.4f}")
for k in FIXED_KS:
    print(f"mean realized F1 at fixed k={k:2d}: {np.mean(at_fixed[k]):.4f}")
