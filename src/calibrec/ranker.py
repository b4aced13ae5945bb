"""Matrix-factorization scoring backbone.

Scores are s(u, i) = <user_emb[u], item_emb[i]> + item_bias[i]. Training is
plain SGD on either a pairwise ranking loss (observed item scored above a
sampled unobserved one) or a pointwise logistic loss with sampled negatives.
Parameters are float64 in memory; checkpoints store float32.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
from scipy.special import expit

from .atomic import atomic_open
from .dataset import Dataset, sample_negatives

LOSS_KINDS = ("bpr", "pointwise")

# users scored together by top_k: the dense score block is at most
# TOP_K_BLOCK x num_items
TOP_K_BLOCK = 256


@dataclass
class MfParams:
    """Embedding matrices and item biases of one factorization model."""

    user_emb: np.ndarray
    item_emb: np.ndarray
    item_bias: np.ndarray

    @property
    def num_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.user_emb.shape[1]

    def copy(self) -> "MfParams":
        return MfParams(self.user_emb.copy(), self.item_emb.copy(), self.item_bias.copy())


@dataclass
class TrainConfig:
    lr: float = 0.05
    reg: float = 0.0
    epochs: int = 10
    batch_size: int = 1
    loss_kind: str = "bpr"
    negatives_per_positive: int = 1

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.reg < 0:
            raise ValueError("reg must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


def init_params(num_users: int, num_items: int, dim: int, seed) -> MfParams:
    """Fresh parameters: N(0, 0.01^2) embeddings, zero biases, seeded."""
    if num_users < 1 or num_items < 1:
        raise ValueError("need at least one user and one item")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    return MfParams(
        user_emb=rng.normal(0.0, 0.01, size=(num_users, dim)),
        item_emb=rng.normal(0.0, 0.01, size=(num_items, dim)),
        item_bias=np.zeros(num_items),
    )


def _check_user(params: MfParams, u: int):
    if not 0 <= u < params.num_users:
        raise IndexError(f"user index {u} out of range [0, {params.num_users})")


def _check_item(params: MfParams, i: int):
    if not 0 <= i < params.num_items:
        raise IndexError(f"item index {i} out of range [0, {params.num_items})")


def score(params: MfParams, u: int, i: int) -> float:
    """Ranking score for one (user, item) pair."""
    _check_user(params, u)
    _check_item(params, i)
    return float(params.user_emb[u] @ params.item_emb[i] + params.item_bias[i])


def score_items(params: MfParams, u: int, items=None) -> np.ndarray:
    """Scores of ``items`` (or all items) for one user, as a vector."""
    _check_user(params, u)
    if items is None:
        return params.item_emb @ params.user_emb[u] + params.item_bias
    idx = np.asarray(items, dtype=np.int64)
    return params.item_emb[idx] @ params.user_emb[u] + params.item_bias[idx]


def bpr_epoch(
    params: MfParams, dataset: Dataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[MfParams, float]:
    """One pass of pairwise training over shuffled train positives.

    Each positive (u, i+) is paired with a sampled negative i- and stepped on

        L = -ln sigmoid(s(u,i+) - s(u,i-))
            + reg * (|p_u|^2 + |q_i+|^2 + |q_i-|^2)

    Steps use the mean gradient over each batch of ``cfg.batch_size``
    triples (batch_size=1 is exact per-triple SGD). Returns the updated
    parameters and the mean data-term loss, measured before each batch's
    update. The regularizer shapes the updates but is not included in the
    reported loss.
    """
    if cfg.loss_kind != "bpr":
        raise ValueError(f"bpr_epoch requires loss_kind='bpr', got {cfg.loss_kind!r}")
    out = params.copy()
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    negatives = sample_negatives(dataset, users[order], 1, rng)[:, 0]
    total_loss = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        bu, bi = users[batch], items[batch]
        bj = negatives[start : start + cfg.batch_size]

        P = out.user_emb[bu]
        Qp = out.item_emb[bi]
        Qn = out.item_emb[bj]
        x = np.sum(P * (Qp - Qn), axis=1) + out.item_bias[bi] - out.item_bias[bj]
        total_loss += np.logaddexp(0.0, -x).sum()

        g = expit(x) - 1.0  # dL/dx
        coef = cfg.lr / len(batch)
        dP = g[:, None] * (Qp - Qn) + 2.0 * cfg.reg * P
        dQp = g[:, None] * P + 2.0 * cfg.reg * Qp
        dQn = -g[:, None] * P + 2.0 * cfg.reg * Qn
        np.add.at(out.user_emb, bu, -coef * dP)
        np.add.at(out.item_emb, bi, -coef * dQp)
        np.add.at(out.item_emb, bj, -coef * dQn)
        np.add.at(out.item_bias, bi, -coef * g)
        np.add.at(out.item_bias, bj, coef * g)
    return out, total_loss / len(order)


def pointwise_epoch(
    params: MfParams, dataset: Dataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[MfParams, float]:
    """One pass of logistic training over shuffled train positives.

    A positive (u, i) contributes -ln sigmoid(s); each of its
    ``negatives_per_positive`` sampled negatives j contributes
    -ln(1 - sigmoid(s)). Every example carries reg * (|p_u|^2 + |q|^2) on
    the embeddings it touches. Updates use the mean gradient over each
    batch's examples; returns (updated params, mean per-example data loss).
    """
    if cfg.loss_kind != "pointwise":
        raise ValueError(
            f"pointwise_epoch requires loss_kind='pointwise', got {cfg.loss_kind!r}"
        )
    out = params.copy()
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    npp = cfg.negatives_per_positive
    negatives = sample_negatives(dataset, users[order], npp, rng).ravel()
    total_loss = 0.0
    total_examples = 0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        bu, bi = users[batch], items[batch]
        neg = negatives[start * npp : (start + len(batch)) * npp]

        ex_u = np.concatenate([bu, np.repeat(bu, npp)])
        ex_i = np.concatenate([bi, neg])
        ex_y = np.concatenate([np.ones(len(batch)), np.zeros(len(neg))])

        P = out.user_emb[ex_u]
        Q = out.item_emb[ex_i]
        s = np.sum(P * Q, axis=1) + out.item_bias[ex_i]
        # -ln sigmoid(s) for positives, -ln(1 - sigmoid(s)) for negatives
        total_loss += np.where(ex_y == 1.0, np.logaddexp(0.0, -s), np.logaddexp(0.0, s)).sum()
        total_examples += len(ex_u)

        g = expit(s) - ex_y  # dL/ds
        coef = cfg.lr / len(ex_u)
        dP = g[:, None] * Q + 2.0 * cfg.reg * P
        dQ = g[:, None] * P + 2.0 * cfg.reg * Q
        np.add.at(out.user_emb, ex_u, -coef * dP)
        np.add.at(out.item_emb, ex_i, -coef * dQ)
        np.add.at(out.item_bias, ex_i, -coef * g)
    return out, total_loss / total_examples


def _ranked_block(
    params: MfParams, users: np.ndarray, width: int, ex_rows: np.ndarray, ex_items: np.ndarray
) -> np.ndarray:
    """Best ``width`` items of each user in one dense score block, -1 padded.

    ``(ex_rows, ex_items)`` lists excluded (position in ``users``, item)
    pairs. Order is score descending, ties toward the smaller item index:
    the items strictly above each row's ``width``-th best score are kept, and
    the tied ones at that score are filled in by index.
    """
    scores = params.user_emb[users] @ params.item_emb.T
    scores += params.item_bias
    scores[ex_rows, ex_items] = -np.inf
    kth = np.partition(scores, params.num_items - width, axis=1)[:, params.num_items - width]
    keep = scores > kth[:, None]
    tied = scores == kth[:, None]
    tied[ex_rows, ex_items] = False
    need = width - keep.sum(axis=1)
    # only rows with more ties at the cut than free places need the prefix count
    crowded = np.flatnonzero(tied.sum(axis=1) > need)
    tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= need[crowded, None]
    keep |= tied
    rows, items = np.nonzero(keep)
    order = np.lexsort((items, -scores[rows, items], rows))
    rows, items = rows[order], items[order]
    counts = np.bincount(rows, minlength=len(users))
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.full((len(users), width), -1, dtype=np.int64)
    out[rows, cols] = items
    return out


def top_k(params: MfParams, users, k: int, exclude=None) -> np.ndarray:
    """Each user's ``k`` best items, best first, as a (len(users), k') array.

    Items rank by score descending with ties broken toward the smaller item
    index, the order of ``rank_items``. ``exclude`` removes candidates: one
    array of item indices per entry of ``users`` (such as CSR rows).
    k' = min(k, num_items); users with fewer candidates than that have their
    row padded with -1. Users are scored ``TOP_K_BLOCK`` at a time, so no
    users x items matrix is ever formed.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    if k < 0:
        raise ValueError("k must be nonnegative")
    if users.size and (users.min() < 0 or users.max() >= params.num_users):
        raise IndexError(f"user index out of range [0, {params.num_users})")
    width = min(k, params.num_items)
    out = np.full((len(users), width), -1, dtype=np.int64)
    if width == 0:
        return out
    for start in range(0, len(users), TOP_K_BLOCK):
        block = users[start : start + TOP_K_BLOCK]
        if exclude is None:
            ex_rows = ex_items = np.empty(0, dtype=np.int64)
        else:
            rows = [np.asarray(r, dtype=np.int64) for r in exclude[start : start + len(block)]]
            ex_rows = np.repeat(np.arange(len(block)), [len(r) for r in rows])
            ex_items = np.concatenate(rows)
        if ex_items.size and (ex_items.min() < 0 or ex_items.max() >= params.num_items):
            raise IndexError(f"excluded item out of range [0, {params.num_items})")
        out[start : start + len(block)] = _ranked_block(params, block, width, ex_rows, ex_items)
    return out


def rank_items(params: MfParams, u: int, exclude: Iterable[int] = ()) -> list[int]:
    """All non-excluded items sorted by score descending.

    Ties break toward the smaller item index, so the ordering is a total
    order and identical across runs. The one-user, full-length ``top_k``.
    """
    _check_user(params, u)
    row = top_k(params, [u], params.num_items, [np.fromiter(exclude, dtype=np.int64)])[0]
    return row[row >= 0].tolist()


def auc(
    params: MfParams,
    dataset: Dataset,
    split: str,
    rng: np.random.Generator,
    pairs_per_user: int = 50,
) -> float:
    """Monte Carlo pairwise ranking accuracy on a held-out split.

    Per user with split items, samples ``pairs_per_user`` (positive,
    negative) pairs, the negative drawn uniformly outside train and the
    split; a pair scores 1 if the positive ranks higher, 0.5 on a tie.
    Returns the per-user mean averaged over users. Users whose train and
    split rows cover every item are skipped.
    """
    held = dataset.split(split)
    sizes = held.sizes()
    users = np.flatnonzero(
        (sizes > 0) & (dataset.train.sizes() + sizes < dataset.num_items)
    )
    if not users.size:
        raise ValueError(f"split {split!r} is empty for every user")
    picks = rng.integers(0, np.repeat(sizes[users], pairs_per_user))
    positives = held.indices[np.repeat(held.indptr[users], pairs_per_user) + picks]
    positives = positives.reshape(len(users), pairs_per_user)
    negatives = sample_negatives(dataset, users, pairs_per_user, rng, exclude=("train", split))
    per_user = np.empty(len(users))
    for row, user in enumerate(users):
        s = score_items(params, int(user), np.concatenate([positives[row], negatives[row]]))
        s_pos, s_neg = s[:pairs_per_user], s[pairs_per_user:]
        per_user[row] = np.mean((s_pos > s_neg) + 0.5 * (s_pos == s_neg))
    return float(np.mean(per_user))


# ---------------------------------------------------------------------------
# Checkpoint format: <base>.json header + <base>.bin sidecar holding flat
# row-major little-endian float32 arrays (user_emb, item_emb, item_bias).

_ARRAY_ORDER = ("user_emb", "item_emb", "item_bias")


def save_checkpoint(
    params: MfParams,
    base_path,
    seed: int = 0,
    loss_kind: str = "bpr",
    epochs_trained: int = 0,
) -> tuple[Path, Path]:
    """Write ``<base>.json`` + ``<base>.bin`` atomically and return both paths.

    Both are written to ``.partial`` files first. A failure while writing
    removes them and leaves the pair already under those names as it was.
    """
    base = Path(base_path)
    header_path = base.with_name(base.name + ".json")
    sidecar_path = base.with_name(base.name + ".bin")

    arrays = {}
    offset = 0
    blobs = []
    for name in _ARRAY_ORDER:
        arr = np.ascontiguousarray(getattr(params, name), dtype="<f4")
        blob = arr.tobytes()
        arrays[name] = {
            "shape": list(arr.shape),
            "dtype": "<f4",
            "offset": offset,
            "bytes": len(blob),
        }
        offset += len(blob)
        blobs.append(blob)

    header = {
        "format": "mf-checkpoint-v1",
        "num_users": params.num_users,
        "num_items": params.num_items,
        "dim": params.dim,
        "seed": seed,
        "loss_kind": loss_kind,
        "epochs_trained": epochs_trained,
        "sidecar": sidecar_path.name,
        "arrays": arrays,
    }
    # the sidecar is renamed into place first, then the header that lists it
    with (
        atomic_open(header_path) as header_fh,
        atomic_open(sidecar_path, binary=True) as sidecar_fh,
    ):
        for blob in blobs:
            sidecar_fh.write(blob)
        json.dump(header, header_fh, indent=2)
        header_fh.write("\n")
    return header_path, sidecar_path


def load_checkpoint(base_path) -> tuple[MfParams, dict]:
    """Read a checkpoint written by save_checkpoint; returns (params, header)."""
    base = Path(base_path)
    header_path = base if base.suffix == ".json" else base.with_name(base.name + ".json")
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    sidecar_path = header_path.with_name(header["sidecar"])
    raw = sidecar_path.read_bytes()
    expected = sum(header["arrays"][name]["bytes"] for name in _ARRAY_ORDER)
    if len(raw) != expected:
        raise ValueError(
            f"checkpoint sidecar {sidecar_path} holds {len(raw)} bytes, header lists {expected}"
        )

    parts = {}
    for name in _ARRAY_ORDER:
        meta = header["arrays"][name]
        start, n = meta["offset"], meta["bytes"]
        if start + n > len(raw):
            raise ValueError(f"checkpoint sidecar truncated reading {name}")
        arr = np.frombuffer(raw[start : start + n], dtype=meta["dtype"])
        parts[name] = arr.reshape(meta["shape"]).astype(np.float64)
    return MfParams(parts["user_emb"], parts["item_emb"], parts["item_bias"]), header
