"""A big and a small model teaching each other.

Co-trains a 32-dimensional teacher with a 4-dimensional student. Each epoch
both models rank all candidate items; where the counterpart ranks an item
far better than the learner (rank discrepancy), that item is sampled as a
distillation target and the learner regresses onto the counterpart's
sigmoid(score). The demo prints the co-trained student's validation recall@10
next to that of the same student trained alone on the same random stream.
No gain is claimed: which of the two is higher depends on the seed.
"""

import numpy as np

from calibrec.distill import BdConfig, cotrain_epoch
from calibrec.metrics import evaluate
from calibrec.ranker import TrainConfig, init_params, pointwise_epoch, top_k
from calibrec.synthetic import low_rank_dataset

SEED = 13
EPOCHS = 25

dataset = low_rank_dataset(150, 250, rank=4, per_user=30, noise=0.3, seed=SEED)
base_cfg = TrainConfig(lr=0.15, reg=1e-4, batch_size=16, negatives_per_positive=4)
bd_cfg = BdConfig(
    lambda_ts=0.3, lambda_st=1.0, sample_size=10, eta=0.3, truncate_rank=100,
    epochs=EPOCHS,
)


def recall_at_10(model):
    users = np.arange(dataset.num_users)
    top = top_k(model, users, 10, dataset.train)
    result = evaluate(users, top, dataset, split="validation", metrics=("recall",), ks=(10,))
    return result.rows[0].means["recall"]


# ----------------------------------------------------------------------
# 1. co-training

teacher = init_params(150, 250, 32, seed=[SEED, 0, 0])
student = init_params(150, 250, 4, seed=[SEED, 0, 1])
print("epoch | teacher base/distill | student base/distill")
for epoch in range(EPOCHS):
    teacher, student, report = cotrain_epoch(
        teacher, student, dataset, base_cfg, bd_cfg, np.random.default_rng([SEED, 1 + epoch])
    )
    if epoch % 5 == 0 or epoch == EPOCHS - 1:
        print(
            f"{epoch:5d} | {report.teacher.base_loss:.4f} / {report.teacher.distill_loss:.4f}"
            f"      | {report.student.base_loss:.4f} / {report.student.distill_loss:.4f}"
        )

# ----------------------------------------------------------------------
# 2. the same student trained alone, on the identical random stream

alone = init_params(150, 250, 4, seed=[SEED, 0, 1])
for epoch in range(EPOCHS):
    _, student_rng, _ = np.random.default_rng([SEED, 1 + epoch]).spawn(3)
    alone, _ = pointwise_epoch(alone, dataset, base_cfg, student_rng)

print(f"\nvalidation recall@10")
print(f"  teacher (dim 32, co-trained): {recall_at_10(teacher):.4f}")
print(f"  student (dim 4, co-trained):  {recall_at_10(student):.4f}")
print(f"  student (dim 4, alone):       {recall_at_10(alone):.4f}")
