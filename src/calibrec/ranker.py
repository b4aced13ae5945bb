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

import numpy as np

from .atomic import read_sidecar, write_with_sidecar
from .dataset import Csr, Dataset, sample_negatives

# users scored together by top_k: the dense score block is at most
# TOP_K_BLOCK x num_items
TOP_K_BLOCK = 256
# pairs scored together by score_pairs: each gathered (SCORE_CHUNK, dim)
# table is 2 MB at dim 32
SCORE_CHUNK = 1 << 13
# _scatter_rows writes back the touched rows alone only when the table has
# more than this many rows per scattered row; at or below it a full-table
# bincount is no slower on pointwise's repeat-heavy batches, and the S-shape
# benchmark workloads keep running that branch (docs/data-layer.md,
# "Training step")
SCATTER_ROW_RATIO = 4


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
    """SGD settings of ``bpr_epoch`` and ``pointwise_epoch``: the epoch
    function called names the loss, and only the pointwise one reads
    ``negatives_per_positive``. The CLI's ``train.*`` defaults are these."""

    lr: float = 0.05
    reg: float = 1e-4
    batch_size: int = 128
    negatives_per_positive: int = 4

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.reg < 0:
            raise ValueError("reg must be nonnegative")
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


def _scatter_add(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``target[rows[j]] += values[j]`` in place, repeated rows summed.

    One ``np.bincount`` over the flat index ``rows * D + d`` of a (N, D)
    target, or over ``rows`` itself for a 1-D one. Each row's values are
    summed first and then added to the target once, so the result differs
    from adding them one at a time only in summation order.
    """
    if target.ndim == 1:
        target += np.bincount(rows, weights=values, minlength=target.size)
        return
    dim = target.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).ravel()
    summed = np.bincount(flat, weights=values.ravel(), minlength=target.size)
    target += summed.reshape(target.shape)


def _scatter_rows(
    table: np.ndarray, rows: np.ndarray, gathered: np.ndarray, values: np.ndarray, slot: np.ndarray
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
    assignment wrote last. A table of at most ``SCATTER_ROW_RATIO`` rows per
    scattered row takes the full-table ``_scatter_add`` instead, which is
    cheaper there. Both forms sum each row in input order and add the sum
    once, so their results are equal; the full-table form adds +0.0 to
    every row, so a -0.0 can come out as +0.0 there.
    """
    m = len(rows)
    if len(table) <= SCATTER_ROW_RATIO * m:
        _scatter_add(table, rows, values)
        return
    positions = np.arange(m)
    slot[rows] = positions
    # every occurrence of a row reads the one position its assignment kept
    winner = slot[rows]
    repeated = np.zeros(m, dtype=bool)
    repeated[winner[winner != positions]] = True
    heads = np.flatnonzero(repeated)
    if heads.size:
        # a repeated row's occurrences, in input order, are the positions
        # whose winner is flagged; slot now gives each repeated row the
        # offset of its compact id's first cell in the sums
        occurs = np.flatnonzero(repeated[winner])
        dim = table.shape[1]
        slot[rows[heads]] = np.arange(0, heads.size * dim, dim)
        cells = (slot[rows[occurs]][:, None] + np.arange(dim)).ravel()
        summed = np.bincount(cells, weights=values[occurs].ravel(), minlength=heads.size * dim)
        summed = summed.reshape(heads.size, dim)
        summed += gathered[heads]
    values += gathered
    table[rows] = values
    if heads.size:
        table[rows[heads]] = summed


def _epoch_tables(params: MfParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An epoch's working copies: the user rows stacked over the item rows
    as one (num_users + num_items, dim) table, the item biases, and the
    ``_scatter_rows`` slot array for that table. The epoch returns
    ``MfParams(table[:num_users], table[num_users:], bias)``."""
    table = np.concatenate([params.user_emb, params.item_emb])
    return table, params.item_bias.copy(), np.empty(len(table), dtype=np.int64)


def _sigmoid_of_negated(t: np.ndarray) -> np.ndarray:
    """Overwrite ``t``, which holds -x, with sigmoid(x) and return it.

    The same operations as ``sigmoid``, in place; the overflow of exp is
    expected there, so only that call ignores it.
    """
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


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

    Every batch works in buffers allocated once per epoch, a batch of B
    triples in their first rows (docs/data-layer.md, "Training step").
    """
    table, bias, slot = _epoch_tables(params)
    U = params.num_users
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    negatives = sample_negatives(dataset, users[order], 1, rng)[:, 0]
    cap = min(cfg.batch_size, len(order))
    # rows: the batch's users, positives + U, negatives + U; item_rows: the
    # positives, then the negatives
    rows_buf = np.empty(3 * cap, dtype=np.int64)
    item_rows_buf = np.empty(2 * cap, dtype=np.int64)
    item_bias_buf = np.empty(2 * cap)
    gathered_buf = np.empty((3 * cap, table.shape[1]))
    grad_buf = np.empty_like(gathered_buf)
    diff_buf = np.empty((cap, table.shape[1]))
    x_buf, t_buf = np.empty(cap), np.empty(cap)
    two_reg = 2.0 * cfg.reg
    total_loss = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        B = len(batch)
        rows, item_rows = rows_buf[: 3 * B], item_rows_buf[: 2 * B]
        item_bias, G, D = item_bias_buf[: 2 * B], gathered_buf[: 3 * B], grad_buf[: 3 * B]
        diff, x, t = diff_buf[:B], x_buf[:B], t_buf[:B]
        # every index is in range, and "clip" lets np.take write straight
        # into ``out``, where the default "raise" copies through a temporary
        np.take(users, batch, out=rows[:B], mode="clip")
        np.take(items, batch, out=item_rows[:B], mode="clip")
        item_rows[B:] = negatives[start : start + B]
        np.take(bias, item_rows, out=item_bias, mode="clip")
        np.add(item_rows, U, out=rows[B:])
        np.take(table, rows, axis=0, out=G, mode="clip")
        P = G[:B]
        np.subtract(G[B : 2 * B], G[2 * B :], out=diff)
        # D's user rows hold P * diff until the gradient overwrites them
        np.multiply(P, diff, out=D[:B])
        np.sum(D[:B], axis=1, out=x)
        x += item_bias[:B]
        x -= item_bias[B:]
        np.negative(x, out=t)
        total_loss += np.logaddexp(0.0, t, out=x).sum()

        g = _sigmoid_of_negated(t)
        g -= 1.0  # dL/dx
        coef = cfg.lr / B
        # G stays as gathered, since _scatter_rows writes the rows back from
        # it: D takes the L2 term first, and diff, free now, each gradient
        # part before it is added
        np.multiply(G, two_reg, out=D)
        diff *= g[:, None]
        D[:B] += diff
        gP = np.multiply(g[:, None], P, out=diff)
        D[B : 2 * B] += gP
        D[2 * B :] -= gP
        D *= -coef
        _scatter_rows(table, rows, G, D, slot)
        np.multiply(g, -coef, out=item_bias[:B])
        np.multiply(g, coef, out=item_bias[B:])
        _scatter_add(bias, item_rows, item_bias)
    return MfParams(table[:U], table[U:], bias), total_loss / len(order)


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

    Every batch works in buffers allocated once per epoch, a batch of B
    positives in their first rows (docs/data-layer.md, "Training step").
    """
    table, bias, slot = _epoch_tables(params)
    U = params.num_users
    users, items = dataset.train.pairs()
    order = rng.permutation(len(users))
    npp = cfg.negatives_per_positive
    negatives = sample_negatives(dataset, users[order], npp, rng).ravel()
    cap = min(cfg.batch_size, len(order))
    # examples: the B positives, then each batch row's npp negatives in turn;
    # rows: the batch's users, then the examples' items + U
    rows_buf = np.empty(cap * (2 + npp), dtype=np.int64)
    ex_items_buf = np.empty(cap * (1 + npp), dtype=np.int64)
    ex_bias_buf = np.empty(cap * (1 + npp))
    gathered_buf = np.empty((cap * (2 + npp), table.shape[1]))
    grad_buf = np.empty_like(gathered_buf)
    ex_users_buf = np.empty((cap * (1 + npp), table.shape[1]))
    s_buf, t_buf = np.empty(cap * (1 + npp)), np.empty(cap * (1 + npp))
    two_reg = 2.0 * cfg.reg
    two_reg_user = 2.0 * cfg.reg * (npp + 1)
    total_loss = 0.0
    total_examples = 0
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        B = len(batch)
        E = B * (1 + npp)
        rows, ex_items, ex_bias = rows_buf[: B + E], ex_items_buf[:E], ex_bias_buf[:E]
        G, D, P_ex = gathered_buf[: B + E], grad_buf[: B + E], ex_users_buf[:E]
        s, t = s_buf[:E], t_buf[:E]
        # in-range indices, gathered without a temporary as in bpr_epoch
        np.take(users, batch, out=rows[:B], mode="clip")
        np.take(items, batch, out=ex_items[:B], mode="clip")
        ex_items[B:] = negatives[start * npp : (start + B) * npp]
        np.take(bias, ex_items, out=ex_bias, mode="clip")
        np.add(ex_items, U, out=rows[B:])
        np.take(table, rows, axis=0, out=G, mode="clip")
        P, Q = G[:B], G[B:]
        # each example's user row: the B users, then each one npp times
        P_ex[:B] = P
        P_ex[B:].reshape(B, npp, -1)[:] = P[:, None]
        # D's item rows hold P_ex * Q until the gradient overwrites them
        np.multiply(P_ex, Q, out=D[B:])
        np.sum(D[B:], axis=1, out=s)
        s += ex_bias
        # -ln sigmoid(s) for positives, -ln(1 - sigmoid(s)) for negatives
        np.negative(s[:B], out=t[:B])
        t[B:] = s[B:]
        total_loss += np.logaddexp(0.0, t, out=t).sum()
        total_examples += E

        g = _sigmoid_of_negated(np.negative(s, out=t))
        g[:B] -= 1.0  # dL/ds; a negative's label 0 leaves its sigmoid as is
        coef = cfg.lr / E
        np.multiply(g[:, None], P_ex, out=D[B:])
        # P_ex is free now and takes g * Q
        gQ = np.multiply(g[:, None], Q, out=P_ex)
        np.sum(gQ[B:].reshape(B, npp, -1), axis=1, out=D[:B])
        D[:B] += gQ[:B]
        # G stays as gathered, as in bpr_epoch; P_ex, free again, holds the
        # L2 terms, so the epoch needs no (B + E, dim) buffer for them
        reg = np.multiply(Q, two_reg, out=P_ex)
        D[B:] += reg
        reg = np.multiply(P, two_reg_user, out=P_ex[:B])
        D[:B] += reg
        D *= -coef
        _scatter_rows(table, rows, G, D, slot)
        g *= -coef
        _scatter_add(bias, ex_items, g)
    return MfParams(table[:U], table[U:], bias), total_loss / total_examples


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
    # row-major, so each row's kept items come in ascending index order
    rows, items = np.nonzero(keep)
    counts = np.bincount(rows, minlength=len(users))
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    kept = np.full((len(users), width), -1, dtype=np.int64)
    kept[rows, cols] = items
    key = np.full((len(users), width), np.inf)
    key[rows, cols] = -scores[rows, items]
    # a stable sort of each row keeps tied items in index order; the +inf
    # padding sits after every kept item, so it stays at the end
    order = np.argsort(key, axis=1, kind="stable")
    return np.take_along_axis(kept, order, axis=1)


def top_k(params: MfParams, users, k: int, exclude: Csr | None = None) -> np.ndarray:
    """Each user's ``k`` best items, best first, as a (len(users), k') array.

    Items rank by score descending with ties broken toward the smaller item
    index. ``exclude``, one row per model user, removes that user's items
    from the candidates. k' = min(k, num_items); users with fewer candidates
    than that have their row padded with -1. Users are scored
    ``TOP_K_BLOCK`` at a time, so no users x items matrix is ever formed.
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
        "format": "mf-checkpoint-v1",
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

    Raises ValueError, naming the checkpoint's file, when the header lacks a
    key the format requires, when the sidecar's length differs from the one
    the header lists, when a value is not finite, when the arrays' shapes
    disagree (embeddings that are not 2-D or differ in dimension, or an
    ``item_bias`` that is not one entry per item row), or when the header's
    ``num_users``, ``num_items`` or ``dim`` differs from the arrays'.
    """
    base = Path(base_path)
    header_path = base if base.suffix == ".json" else base.with_name(base.name + ".json")
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    parts = read_sidecar(header_path, header, _ARRAY_ORDER, "checkpoint")
    params = MfParams(*(parts[name].astype(np.float64) for name in _ARRAY_ORDER))
    for name in _ARRAY_ORDER:
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"checkpoint {header_path}: {name} holds values that are not finite")
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
    return params, header
