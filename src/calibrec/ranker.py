"""Matrix-factorization scoring backbone.

Scores are s(u, i) = <user_emb[u], item_emb[i]> + item_bias[i]. Training is
plain SGD on either a pairwise ranking loss (observed item scored above a
sampled unobserved one) or a pointwise logistic loss with sampled negatives.
Parameters are float64 in memory; checkpoints store float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import read_json, read_sidecar, write_with_sidecar
from .dataset import Csr, Dataset, sample_negatives

# users scored together by top_k: the dense score block is at most
# TOP_K_BLOCK x num_items
TOP_K_BLOCK = 256
# pairs scored together by score_pairs: each gathered (SCORE_CHUNK, dim)
# table is 2 MB at dim 32
SCORE_CHUNK = 1 << 13


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


@dataclass
class TrainConfig:
    """SGD settings of the ``loss_epochs`` functions; only ``pointwise_epoch`` reads
    ``negatives_per_positive``. The CLI's ``train.*`` defaults are these."""

    lr: float = 0.05
    reg: float = 1e-4
    batch_size: int = 128
    negatives_per_positive: int = 4

    def __post_init__(self):
        if not 0 <= self.lr < np.inf:  # NaN fails too
            raise ValueError("lr must be nonnegative and finite")
        if not 0 <= self.reg < np.inf:
            raise ValueError("reg must be nonnegative and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
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


def sigmoid(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise.

    Below x of about -709.8, exp(-x) overflows to inf and the result is
    exactly 0.0; that overflow is expected, so it raises no warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def score_items(params: MfParams, u: int, items) -> np.ndarray:
    """Scores of ``items`` for one user, as a vector."""
    if not 0 <= u < params.num_users:
        raise IndexError(f"user index {u} out of range [0, {params.num_users})")
    idx = np.asarray(items, dtype=np.int64)
    # numpy would wrap a negative index silently
    if idx.size and (idx.min() < 0 or idx.max() >= params.num_items):
        raise IndexError(f"item index out of range [0, {params.num_items})")
    return params.item_emb[idx] @ params.user_emb[u] + params.item_bias[idx]


def score_pairs(params: MfParams, users, items) -> np.ndarray:
    """Scores s(users[j], items[j]) of paired indices, as a vector.

    Each chunk of ``SCORE_CHUNK`` pairs gathers its user and item rows and
    takes their row-wise dot products, so no temporary grows with the
    number of pairs beyond the output.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    items = np.asarray(items, dtype=np.int64).ravel()
    if len(users) != len(items):
        raise ValueError(f"{len(users)} users paired with {len(items)} items")
    # numpy would wrap a negative index silently
    for name, idx, n in (("user", users, params.num_users), ("item", items, params.num_items)):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"{name} index out of range [0, {n})")
    out = np.empty(len(users))
    for start in range(0, len(users), SCORE_CHUNK):
        u = users[start : start + SCORE_CHUNK]
        i = items[start : start + SCORE_CHUNK]
        out[start : start + len(u)] = (
            np.einsum("ij,ij->i", params.user_emb[u], params.item_emb[i]) + params.item_bias[i]
        )
    return out


def _scatter_rows(
    table: np.ndarray,
    rows: np.ndarray,
    gathered: np.ndarray,
    values: np.ndarray,
    slot: np.ndarray,
    positions: np.ndarray,
    repeated: np.ndarray,
) -> None:
    """``table[rows[j]] += values[j]`` in place for a (N, D) table, repeated
    rows summed, at a cost that follows ``len(rows)`` rather than N.
    ``gathered`` is ``table[rows]`` as read before the update; ``values`` is
    overwritten.

    A row that appears once becomes ``gathered[j] + values[j]``, and all
    rows are written back by one fancy assignment. ``slot`` (an int64 array
    of length N whose contents do not matter) finds the repeated rows: each
    gets one compact id, one ``np.bincount`` over ``id * D + d`` sums its
    values in input order, and the row is then overwritten with its
    gathered value plus that sum, so no result depends on which repeat the
    assignment wrote last. ``positions`` holds ``arange(k)`` and
    ``repeated`` is a bool array of length k, for some k >= ``len(rows)``;
    the caller allocates them once, and only ``repeated`` is written.
    Each row's values are summed in input order and added once, and rows
    not in ``rows`` are never written.
    """
    positions, repeated = positions[: len(rows)], repeated[: len(rows)]
    slot[rows] = positions
    # every occurrence of a row reads the one position its assignment kept
    winner = slot.take(rows)
    repeated.fill(False)
    repeated[winner[winner != positions]] = True
    heads = repeated.nonzero()[0]
    if heads.size:
        # a repeated row's occurrences, in input order, are the positions
        # whose winner is flagged; slot now gives each repeated row the
        # offset of its compact id's first cell in the sums
        occurs = repeated.take(winner).nonzero()[0]
        dim = table.shape[1]
        head_rows = rows.take(heads)
        slot[head_rows] = np.arange(0, heads.size * dim, dim)
        cells = (slot.take(rows.take(occurs))[:, None] + np.arange(dim)).ravel()
        summed = np.bincount(
            cells, weights=values.take(occurs, axis=0).ravel(), minlength=heads.size * dim
        )
        summed = summed.reshape(heads.size, dim)
        summed += gathered.take(heads, axis=0)
    values += gathered
    table[rows] = values
    if heads.size:
        table[head_rows] = summed


def _sigmoid_of_negated(t: np.ndarray) -> np.ndarray:
    """Overwrite ``t``, which holds -x, with sigmoid(x) and return it.

    The same operations as ``sigmoid``, in place; the overflow of exp is
    expected there, so only that call ignores it.
    """
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def _batches(table, bias, dataset: Dataset, cfg: TrainConfig, rng, npp: int):
    """The SGD batch loop both epochs share; yields ``(B, G, bias, D)``.

    ``table`` (the user rows over the item rows) and ``bias`` (the item
    biases) are updated in place. The positives are shuffled and given
    ``npp`` sampled negatives each before the first batch. A batch of B
    positives has B·(1 + npp) examples, the positives and then each one's
    negatives: ``G`` holds the table rows of its B users and then of its
    examples' items, ``bias`` the examples' item biases. The caller writes
    the step into ``D`` (shaped as ``G``) and ``bias`` and leaves ``G`` as
    gathered; the loop then scatters both. Every buffer is allocated once
    per epoch, a batch in its first rows (docs/data-layer.md, "Training step").
    Raises ValueError, before any random draw, when the train split is empty.
    """
    if not len(dataset.train):
        raise ValueError("the train split is empty: an epoch needs at least one train pair")
    U = len(table) - len(bias)
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    negatives = sample_negatives(dataset, users[order], npp, rng).ravel()
    cap = min(cfg.batch_size, len(order))
    # rows: the batch's users, then the examples' items + U
    rows_buf = np.empty(cap * (2 + npp), dtype=np.int64)
    ex_items_buf = np.empty(cap * (1 + npp), dtype=np.int64)
    ex_bias_buf = np.empty(cap * (1 + npp))
    gathered_buf = np.empty((cap * (2 + npp), table.shape[1]))
    grad_buf = np.empty_like(gathered_buf)
    # _scatter_rows' index buffers
    slot = np.empty(len(table), dtype=np.int64)
    positions = np.arange(len(rows_buf))
    repeated = np.empty(len(rows_buf), dtype=bool)
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        B = len(batch)
        E = B * (1 + npp)
        rows, ex_items, ex_bias = rows_buf[: B + E], ex_items_buf[:E], ex_bias_buf[:E]
        G, D = gathered_buf[: B + E], grad_buf[: B + E]
        # every index is in range, and "clip" lets take write straight into
        # ``out``, where the default "raise" copies through a temporary
        users.take(batch, out=rows[:B], mode="clip")
        items.take(batch, out=ex_items[:B], mode="clip")
        ex_items[B:] = negatives[start * npp : (start + B) * npp]
        bias.take(ex_items, out=ex_bias, mode="clip")
        np.add(ex_items, U, out=rows[B:])
        table.take(rows, axis=0, out=G, mode="clip")
        yield B, G, ex_bias, D
        _scatter_rows(table, rows, G, D, slot, positions, repeated)
        bias += np.bincount(ex_items, weights=ex_bias, minlength=bias.size)


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

    Batches are ``_batches``' at npp 1: rows of B users, positives, negatives.
    An empty train split raises ValueError.
    """
    table, bias = np.concatenate([params.user_emb, params.item_emb]), params.item_bias.copy()
    cap = min(cfg.batch_size, len(dataset.train))
    diff_buf = np.empty((cap, table.shape[1]))
    x_buf, t_buf = np.empty(cap), np.empty(cap)
    two_reg = 2.0 * cfg.reg
    total_loss = 0.0
    for B, G, item_bias, D in _batches(table, bias, dataset, cfg, rng, 1):
        diff, x, t = diff_buf[:B], x_buf[:B], t_buf[:B]
        P = G[:B]
        np.subtract(G[B : 2 * B], G[2 * B :], out=diff)
        # D's user rows hold P * diff until the gradient overwrites them
        np.multiply(P, diff, out=D[:B])
        np.add.reduce(D[:B], axis=1, out=x)
        x += item_bias[:B]
        x -= item_bias[B:]
        np.negative(x, out=t)
        total_loss += np.add.reduce(np.logaddexp(0.0, t, out=x))

        g = _sigmoid_of_negated(t)
        g -= 1.0  # dL/dx
        coef = cfg.lr / B
        # D takes the L2 term first; diff, free now, each part added to it
        np.multiply(G, two_reg, out=D)
        diff *= g[:, None]
        D[:B] += diff
        gP = np.multiply(g[:, None], P, out=diff)
        D[B : 2 * B] += gP
        D[2 * B :] -= gP
        D *= -coef
        np.multiply(g, -coef, out=item_bias[:B])
        np.multiply(g, coef, out=item_bias[B:])
    U = params.num_users
    return MfParams(table[:U], table[U:], bias), total_loss / len(dataset.train)


def pointwise_epoch(
    params: MfParams, dataset: Dataset, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[MfParams, float]:
    """One pass of logistic training over shuffled train positives.

    A positive (u, i) contributes -ln sigmoid(s); each of its
    ``negatives_per_positive`` sampled negatives j contributes
    -ln(1 - sigmoid(s)). Every example carries reg * (|p_u|^2 + |q|^2) on
    the embeddings it touches. Updates use the mean gradient over each
    batch's examples; returns (updated params, mean per-example data loss).
    A batch user's gradient is summed over its positive and negatives
    before the scatter, so its L2 term enters once as 2·reg·(npp+1)·p_u.
    Scores are ``score_pairs``' einsum over the gathered rows, bit for bit.
    The batches are ``_batches``'. An empty train split raises ValueError.
    """
    table, bias = np.concatenate([params.user_emb, params.item_emb]), params.item_bias.copy()
    npp = cfg.negatives_per_positive
    cap = min(cfg.batch_size, len(dataset.train)) * (1 + npp)
    work_buf = np.empty((cap, table.shape[1]))
    s_buf, t_buf = np.empty(cap), np.empty(cap)
    two_reg = 2.0 * cfg.reg
    two_reg_user = 2.0 * cfg.reg * (npp + 1)
    total_loss = 0.0
    for B, G, ex_bias, D in _batches(table, bias, dataset, cfg, rng, npp):
        E = len(ex_bias)
        P, Q, work = G[:B], G[B:], work_buf[:E]
        Q_neg = Q[B:].reshape(B, npp, -1)  # each positive's negatives' rows
        s, t = s_buf[:E], t_buf[:E]
        # score_pairs' row-wise einsum; each user row is read in place, not copied
        np.einsum("bd,bd->b", P, Q[:B], out=s[:B])
        np.einsum("bd,bkd->bk", P, Q_neg, out=s[B:].reshape(B, npp))
        s += ex_bias
        # -ln sigmoid(s) for positives, -ln(1 - sigmoid(s)) for negatives
        np.negative(s[:B], out=t[:B])
        t[B:] = s[B:]
        total_loss += np.add.reduce(np.logaddexp(0.0, t, out=t))

        g = _sigmoid_of_negated(np.negative(s, out=t))
        g[:B] -= 1.0  # dL/ds; a negative's label 0 leaves its sigmoid as is
        g_neg = g[B:].reshape(B, npp)
        coef = cfg.lr / E
        # an item row's gradient is g times its example's user row, broadcast
        np.multiply(g[:B, None], P, out=D[B : 2 * B])
        np.multiply(g_neg[:, :, None], P[:, None], out=D[2 * B :].reshape(B, npp, -1))
        # a user's gradient adds its npp negatives' g * q in turn to 0.0,
        # then its positive's; work takes that and the L2 terms
        np.einsum("bk,bkd->bd", g_neg, Q_neg, out=D[:B])
        D[:B] += np.multiply(g[:B, None], Q[:B], out=work[:B])
        D[B:] += np.multiply(Q, two_reg, out=work)
        D[:B] += np.multiply(P, two_reg_user, out=work[:B])
        D *= -coef
        np.multiply(g, -coef, out=ex_bias)
    U = params.num_users
    return MfParams(table[:U], table[U:], bias), total_loss / (len(dataset.train) * (1 + npp))


def loss_epochs() -> dict:
    """``train.loss`` name -> epoch function; built per call, so a profiler's rebinding is seen."""
    return {"bpr": bpr_epoch, "pointwise": pointwise_epoch}


def _ranked_block(
    params: MfParams, users: np.ndarray, width: int, ex_rows: np.ndarray, ex_items: np.ndarray
) -> np.ndarray:
    """Best ``width`` items of each user in one dense score block, -1 padded.

    ``(ex_rows, ex_items)`` lists excluded (position in ``users``, item)
    pairs. Order is score descending, ties toward the smaller item index.
    One ``np.argpartition`` takes each row's ``width`` best. A row with more
    than ``width`` items at or above its ``width``-th best score (a tie at the
    cut, or a short row, whose ``width``-th best is -inf) takes instead the
    items above that score, then the tied ones by index. Each row, sorted by
    index, is then ordered by a stable sort of its scores. Excluded items
    score -inf, so they become -1 and sort last. The parameters must be
    finite: a NaN score would break the count.
    """
    scores = params.user_emb[users] @ params.item_emb.T
    scores += params.item_bias
    scores[ex_rows, ex_items] = -np.inf
    best = np.argpartition(scores, params.num_items - width, axis=1)[:, params.num_items - width :]
    kth = np.take_along_axis(scores, best, axis=1).min(axis=1)
    # every item outside ``best`` scores at most kth, so more than width
    # items at or above it means the cut splits a tie (at -inf in a short row)
    at_or_above = np.count_nonzero(scores >= kth[:, None], axis=1)
    redo = np.flatnonzero(at_or_above > width)
    if redo.size:
        redone, cut = scores[redo], kth[redo, None]
        keep = redone > cut
        tied = redone == cut
        tied &= np.cumsum(tied, axis=1) <= width - keep.sum(axis=1, keepdims=True)
        keep |= tied
        # row-major, so each row's width kept items come in index order
        best[redo] = keep.nonzero()[1].reshape(-1, width)
    # a sorted copy, so the (block, num_items) argpartition output is freed
    best = np.sort(best, axis=1)
    key = np.take_along_axis(scores, best, axis=1)
    np.negative(key, out=key)
    best[key == np.inf] = -1
    return np.take_along_axis(best, np.argsort(key, axis=1, kind="stable"), axis=1)


def top_k(params: MfParams, users, k: int, exclude: Csr | None = None) -> np.ndarray:
    """Each user's ``k`` best items, best first, as a (len(users), k') array.

    Items rank by score descending with ties broken toward the smaller item
    index. ``exclude``, one row per model user, removes that user's items
    from the candidates. k' = min(k, num_items); users with fewer candidates
    than that have their row padded with -1. Users are scored
    ``TOP_K_BLOCK`` at a time, so no users x items matrix is ever formed.
    Raises ValueError, before any scoring, when a parameter is not finite.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    if k < 0:
        raise ValueError("k must be nonnegative")
    if users.size and (users.min() < 0 or users.max() >= params.num_users):
        raise IndexError(f"user index out of range [0, {params.num_users})")
    if exclude is not None and (exclude.num_rows, exclude.num_cols) != (
        params.num_users, params.num_items
    ):
        raise ValueError(
            f"exclude is {exclude.num_rows} x {exclude.num_cols}, "
            f"the model {params.num_users} users x {params.num_items} items"
        )
    for name in _ARRAY_ORDER:
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"{name} holds values that are not finite")
    width = min(k, params.num_items)
    out = np.full((len(users), width), -1, dtype=np.int64)
    if width == 0:
        return out
    empty = np.empty(0, dtype=np.int64)
    for start in range(0, len(users), TOP_K_BLOCK):
        block = users[start : start + TOP_K_BLOCK]
        ex_rows, ex_items = (empty, empty) if exclude is None else exclude.gather(block)
        out[start : start + len(block)] = _ranked_block(params, block, width, ex_rows, ex_items)
    return out


# ---------------------------------------------------------------------------
# Checkpoint format: <base>.json header + <base>.bin sidecar holding flat
# row-major little-endian float32 arrays (user_emb, item_emb, item_bias).

CHECKPOINT_FORMAT = "mf-checkpoint-v1"
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
    Raises ValueError, before any file is opened, when a value is not finite
    in float32.
    """
    base = Path(base_path)
    header_path = base.with_name(base.name + ".json")
    sidecar_path = base.with_name(base.name + ".bin")

    arrays = {}
    for name in _ARRAY_ORDER:
        # a value beyond float32's range is reported below, not warned about
        with np.errstate(over="ignore"):
            arrays[name] = np.ascontiguousarray(getattr(params, name), dtype="<f4")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"checkpoint {name} holds values that are not finite in float32")

    header = {
        "format": CHECKPOINT_FORMAT,
        "num_users": params.num_users,
        "num_items": params.num_items,
        "dim": params.dim,
        "seed": seed,
        "loss_kind": loss_kind,
        "epochs_trained": epochs_trained,
    }
    write_with_sidecar(header_path, sidecar_path, header, arrays)
    return header_path, sidecar_path


def load_checkpoint(base_path) -> tuple[MfParams, dict]:
    """Read a checkpoint written by save_checkpoint; returns (params, header).

    Raises ValueError, naming the checkpoint's file, when the header is not
    JSON, when its ``format`` is missing or other than ``CHECKPOINT_FORMAT``,
    when it lacks a key the format requires, when the sidecar's length
    differs from the one the header lists, when an array's dtype is not
    ``'<f4'`` (the one ``save_checkpoint`` writes), when a value is not
    finite, when the arrays' shapes disagree (embeddings that are not 2-D or
    differ in dimension, or an ``item_bias`` that is not one entry per item
    row), when the header's ``num_users``, ``num_items`` or ``dim`` differs
    from the arrays', or when its ``epochs_trained`` is not an int >= 0.
    """
    base = Path(base_path)
    header_path = base if base.suffix == ".json" else base.with_name(base.name + ".json")
    header = read_json(header_path)
    found = header.get("format") if isinstance(header, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint {header_path}: format {found!r} is not {CHECKPOINT_FORMAT}")
    parts = read_sidecar(header_path, header, _ARRAY_ORDER, "checkpoint")
    for name, part in parts.items():
        # the dtype save_checkpoint writes; any other would load as other numbers
        if part.dtype.str != "<f4":
            raise ValueError(
                f"checkpoint {header_path}: {name} dtype {part.dtype.str!r} is not '<f4'"
            )
        if not np.isfinite(part).all():
            raise ValueError(f"checkpoint {header_path}: {name} holds values that are not finite")
    params = MfParams(*(parts[name].astype(np.float64) for name in _ARRAY_ORDER))
    users, items, bias = (getattr(params, name).shape for name in _ARRAY_ORDER)
    if not (len(users) == len(items) == 2 and users[1] == items[1] and bias == items[:1]):
        raise ValueError(
            f"checkpoint {header_path}: array shapes disagree: user_emb {users}, "
            f"item_emb {items}, item_bias {bias}"
        )
    for key, size in (("num_users", users[0]), ("num_items", items[0]), ("dim", users[1])):
        if header.get(key) != size:
            raise ValueError(
                f"checkpoint {header_path}: header {key} {header.get(key)!r} "
                f"disagrees with the arrays' {size}"
            )
    trained = header.get("epochs_trained")
    if type(trained) is not int or trained < 0:
        raise ValueError(
            f"checkpoint {header_path}: header epochs_trained {trained!r} is not an int >= 0"
        )
    return params, header
