"""Calibrated recommendation toolkit.

Three capabilities on a matrix-factorization backbone:

- ``calibration``: map ranking scores to interaction probabilities (Platt,
  quadratic-logistic, log-linear-logistic, histogram binning), fitted by
  inverse-propensity-weighted likelihood (plain likelihood where every
  sample's propensity is 1), with ECE/reliability diagnostics.
- ``distill``: bidirectional teacher-student co-training with
  rank-discrepancy-aware target sampling.
- ``perk``: per-user recommendation-list sizing by exact expected utility
  under independent Bernoulli relevance.

Supporting modules: ``atomic`` (all-or-nothing file output, and the
JSON header plus binary sidecar that checkpoints and bundle splits share),
``dataset`` (ingestion, CSR splits and the negative sampler), ``ranker``
(the MF backbone, the batched pair scorer and top-K), ``metrics``
(realized ranking metrics), ``synthetic`` (seeded data generators),
``cli`` (the end-to-end pipeline driver).
"""

from . import atomic, calibration, cli, dataset, distill, metrics, perk, ranker, seeding, synthetic
from .calibration import (
    CalibrationSamples,
    Calibrator,
    Fit,
    collect_calibration_samples,
    ece,
    estimate_propensity,
    gamma_shift,
    load_calibrator,
    reliability_table,
    save_calibrator,
)
from .dataset import (
    Csr,
    DataFormatError,
    Dataset,
    IdMaps,
    load_interactions,
    sample_negatives,
    split_per_user,
)
from .distill import BdConfig, CotrainReport, bd_loss, cotrain_epoch
from .metrics import EvalResult, evaluate
from .perk import PerkConfig, PerkLists, perk_recommend_users, select_k, utility_curves
from .ranker import (
    MfParams,
    TrainConfig,
    bpr_epoch,
    init_params,
    load_checkpoint,
    pointwise_epoch,
    save_checkpoint,
    score_items,
    score_pairs,
    top_k,
)

__version__ = "0.1.0"
