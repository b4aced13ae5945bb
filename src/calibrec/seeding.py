"""One global seed, expanded into independent per-stage streams.

Every randomized stage derives its generator from the entropy sequence
``[global_seed, STAGE_OFFSETS[stage], *extra]``, so stages never share a
stream and any single stage can be reproduced in isolation. ``extra`` is
used for sub-streams, e.g. the epoch number during training.
"""

from __future__ import annotations

STAGE_OFFSETS = {
    "data": 1,
    "train": 2,
    "calib": 3,
    "bd": 4,
}


def stream_seed(seed: int, stage: str, *extra: int) -> list[int]:
    if stage not in STAGE_OFFSETS:
        raise ValueError(f"unknown stage {stage!r}")
    return [int(seed), STAGE_OFFSETS[stage], *map(int, extra)]
