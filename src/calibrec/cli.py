"""Command-line pipeline: ingest, train, calibrate, distill, recommend, eval.

Configuration is a flat ``key=value`` file with namespaced keys (see
``CONFIG_SPEC``), overridable per invocation with ``--set key=value``.
Unknown keys are rejected, and every value is checked as the configuration
is read, before any stage starts. Exit codes: 0 success, 1 I/O failure,
2 validation failure, including a train or distill run whose loss stops
being finite.

Randomness derives from one global seed expanded into per-stage streams
(see ``seeding``); train and distill additionally key each epoch's stream
by the epoch number, so a resumed training run consumes the same streams
an uninterrupted run would.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import calibration, metrics, ranker
from .atomic import atomic_open, output_set, read_json, read_sidecar, write_json, write_with_sidecar
from .calibration import (
    apply as apply_calibrator,
    check_tau,
    check_theta_min,
    collect_calibration_samples,
    ece,
    estimate_propensity,
    fit,
    load_calibrator,
    reliability_table,
    save_calibrator,
    write_reliability_csv,
)
from .dataset import (
    SPLITS, Csr, DataFormatError, Dataset, check_ratios, load_interactions, split_per_user,
)
from .distill import BdConfig, CotrainReport, cotrain_epoch
from .perk import UTILITIES, PerkConfig, perk_recommend_users
from .ranker import (
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
    top_k,
)
from .seeding import stream_seed


# ---------------------------------------------------------------------------
# configuration registry


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _at_least(minimum, noun: str, kind=int):
    """Parser of a finite ``kind`` ``noun`` of at least ``minimum``."""

    def parse(text: str):
        value = kind(text)
        if not minimum <= value < math.inf:  # NaN fails too
            problem = f"below {minimum}" if value < minimum else "not finite"
            raise ValueError(f"{noun} {value} is {problem}")
        return value

    return parse


def _delimiter(text: str) -> str:
    # values are stripped, so a whitespace delimiter comes quoted, as a JSON string
    if len(text) > 1 and text[0] == text[-1] == '"':
        text = json.loads(text)
    if not text:
        raise ValueError("expected a non-empty value")
    return text


def _distinct(parse_one):
    """Parser of a comma-separated list of ``parse_one`` values: at least one, none repeated."""

    def parse(text: str) -> tuple:
        values = tuple(parse_one(part.strip()) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError("expected at least one entry")
        if len(set(values)) < len(values):
            raise ValueError(f"an entry repeats in {text!r}")
        return values

    return parse


def _checked(parse, check):
    """Parser that hands ``parse``'s value to ``check``, which returns it or raises ValueError."""
    return lambda text: check(parse(text))


def _choice(*options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return parse


# the settings dataclasses and the config section of their keys, one
# <section>.<field> key per field; CONFIG_SPEC reads those keys' defaults
# from the dataclasses, so each is written once, and the dataclasses check
# those keys' values, which CONFIG_SPEC's parsers only convert
CONFIG_SECTIONS = {TrainConfig: "train", BdConfig: "bd", PerkConfig: "perk"}


# key -> (parser, default, help); the parser checks a key that sets no dataclass field
CONFIG_SPEC = {
    "seed": (_at_least(0, "seed"), 0, "global seed; every stage derives its own stream from it"),
    "data.delimiter": (
        _delimiter, ",", "field separator of the input and the text splits (ingest only); "
        'a value in double quotes is read as a JSON string, such as "\\t", " " or "\\u3000"'
    ),
    "data.ratios": (
        _checked(_floats, check_ratios), (0.8, 0.1, 0.1), "train,validation,test split fractions"
    ),
    "train.dim": (_at_least(1, "dimension"), 32, "embedding dimension"),
    "train.lr": (
        float,
        TrainConfig().lr,
        "SGD learning rate on the batch-mean gradient: per example lr/batch_size (bpr), "
        "lr/(batch_size*(1+negatives_per_positive)) (pointwise); distill also steps each "
        "user's distillation items by lr*lambda/(items drawn)",
    ),
    "train.reg": (float, TrainConfig().reg, "L2 weight on embeddings"),
    "train.epochs": (
        _at_least(0, "epoch count"), 10, "training epochs (0 writes the initialization)"
    ),
    "train.batch_size": (int, TrainConfig().batch_size, "positives per SGD batch"),
    "train.loss": (_choice(*ranker.loss_epochs()), "bpr", "training objective"),
    "train.negatives_per_positive": (
        int, TrainConfig().negatives_per_positive, "sampled negatives per positive (pointwise)"
    ),
    "calib.kind": (_choice(*calibration.CALIBRATOR_KINDS), "platt", "calibration map"),
    "calib.negatives_per_positive": (
        _at_least(1, "negative count"), 4, "sampled negatives per validation positive"
    ),
    "calib.unbiased": (_bool, False, "weight the likelihood by inverse propensities"),
    "calib.tau": (_checked(float, check_tau), 0.5, "propensity popularity exponent"),
    "calib.theta_min": (_checked(float, check_theta_min), 0.01, "propensity clip floor"),
    "calib.max_iters": (_at_least(0, "iteration cap"), 1000, "Newton iteration cap"),
    "calib.tol": (_at_least(0.0, "tolerance", float), 1e-8, "optimizer gradient tolerance"),
    "calib.num_bins": (
        _at_least(1, "bin count"), 15, "bins for ECE / reliability / histogram calibrator"
    ),
    "calib.scheme": (_choice(*calibration.BINNING_SCHEMES), "equal_width", "binning scheme"),
    "bd.teacher_dim": (_at_least(1, "dimension"), 64, "teacher embedding dimension"),
    "bd.student_dim": (_at_least(1, "dimension"), 8, "student embedding dimension"),
    "bd.lambda_ts": (float, BdConfig().lambda_ts, "teacher's distillation-from-student weight"),
    "bd.lambda_st": (float, BdConfig().lambda_st, "student's distillation-from-teacher weight"),
    "bd.sample_size": (
        int, BdConfig().sample_size, "distillation items sampled per user per epoch"
    ),
    "bd.eta": (float, BdConfig().eta, "rank-discrepancy sharpness"),
    "bd.truncate_rank": (int, BdConfig().truncate_rank, "ranks beyond this are clamped"),
    "bd.epochs": (int, BdConfig().epochs, "co-training epochs"),
    "perk.k_max": (int, PerkConfig().k_max, "largest cutoff considered"),
    "perk.utility": (
        str, PerkConfig().utility, f"expected utility maximized per user: {' or '.join(UTILITIES)}"
    ),
    "perk.rest_pool": (
        int, PerkConfig().rest_pool, "extra candidates feeding the remaining-relevant count"
    ),
    "eval.split": (_choice(*SPLITS), "test", "split evaluated against"),
    "eval.ks": (
        _distinct(_at_least(1, "cutoff")), (1, 5, 10, 20), "fixed cutoffs in evaluation reports"
    ),
    "eval.metrics": (
        _distinct(_choice(*metrics.METRIC_NAMES)),
        metrics.METRIC_NAMES,
        "metrics in evaluation reports",
    ),
}


def config_reference() -> str:
    lines = ["configuration keys (key = default): description", ""]
    for key, (_, default, help_text) in CONFIG_SPEC.items():
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"{key} = {default}")
        lines.append(f"    {help_text}")
    return "\n".join(lines) + "\n"


def load_config(path=None, overrides=()) -> dict:
    """Defaults, then the config file, then --set overrides; unknown keys and bad values fail.

    Each ``CONFIG_SECTIONS`` dataclass is built from its keys, under its section's name.
    """
    cfg = {key: default for key, (_, default, _) in CONFIG_SPEC.items()}

    def assign(key: str, raw: str, where: str):
        if key not in CONFIG_SPEC:
            raise ValueError(f"{where}: unknown configuration key {key!r}")
        parser = CONFIG_SPEC[key][0]
        try:
            cfg[key] = parser(raw)
        except ValueError as exc:
            raise ValueError(f"{where}: bad value for {key}: {exc}") from None

    if path is not None:
        # utf-8-sig drops a leading byte order mark, as ingest does
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ValueError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
                key, _, raw = stripped.partition("=")
                assign(key.strip(), raw.strip(), f"{path}:{line_no}")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        assign(key.strip(), raw.strip(), "--set")
    for cls, section in CONFIG_SECTIONS.items():
        fields = {field.name: cfg[f"{section}.{field.name}"] for field in dataclasses.fields(cls)}
        try:
            cfg[section] = cls(**fields)
        except ValueError as exc:
            raise ValueError(f"bad {section}.* value: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# file helpers

# stages read the splits from splits.bin; the splits.json header lists its
# arrays, the user and item counts, and the SHA-256 of each text split, an
# export of the same splits
SPLITS_HEADER, SPLITS_SIDECAR = "splits.json", "splits.bin"
SPLITS_FORMAT = "splits-v2"


# json.dumps builds an encoder per call for any non-default option such as sort_keys
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


def _jsonl_line(row) -> str:
    return _JSONL_ENCODER.encode(row) + "\n"


def _sha256(data=b""):
    """A SHA-256 hash object; hashlib is imported on first use, not with the CLI."""
    import hashlib

    return hashlib.sha256(data)


# rows formatted into one string per write call when writing a split
WRITE_ROWS = 1 << 16


def _write_split(path, split: Csr, delimiter) -> str:
    """Write one ``%d<delim>%d\\n`` line per entry; returns the SHA-256 of the bytes written."""
    users, items = split.pairs()
    row = "%d" + delimiter.replace("%", "%%") + "%d\n"
    digest = _sha256()
    with atomic_open(path, binary=True) as fh:
        for start in range(0, len(split), WRITE_ROWS):
            stop = start + WRITE_ROWS
            chunk = np.column_stack((users[start:stop], items[start:stop]))
            data = (row * len(chunk) % tuple(chunk.ravel().tolist())).encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _write_splits(out: Path, dataset: Dataset, delimiter) -> None:
    """The three text splits, then the sidecar of their CSR arrays and its header."""
    digests, arrays = {}, {}
    for name in SPLITS:
        split = dataset.split(name)
        digests[f"{name}.txt"] = _write_split(out / f"{name}.txt", split, delimiter)
        arrays[f"{name}.indptr"] = np.ascontiguousarray(split.indptr, dtype="<i8")
        arrays[f"{name}.indices"] = np.ascontiguousarray(split.indices, dtype="<i8")
    header = {"format": SPLITS_FORMAT, "num_users": dataset.num_users,
              "num_items": dataset.num_items, "sha256": digests}
    write_with_sidecar(out / SPLITS_HEADER, out / SPLITS_SIDECAR, header, arrays)


def _csr_problem(indptr, indices, num_rows, num_cols) -> str | None:
    """What keeps ``indptr`` and ``indices`` from being a ``Csr`` of that shape, or None."""
    if len(indptr) != num_rows + 1:
        return f"indptr holds {len(indptr)} entries, not num_users + 1 = {num_rows + 1}"
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(indptr[1:] < indptr[:-1]):
        return f"indptr does not run nondecreasing from 0 to {len(indices)}"
    if len(indices) and (indices.min() < 0 or indices.max() >= num_cols):
        return f"an item index lies outside [0, {num_cols})"
    # each step inside a row must rise; the steps from one row into the next are exempt
    rises = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    rises[starts[(starts > 0) & (starts < len(indices))] - 1] = True
    if not rises.all():
        return "a row is not strictly increasing"
    return None


def load_bundle(bundle_dir) -> Dataset:
    """Read the dataset bundle ``ingest`` wrote to ``bundle_dir`` from its splits sidecar.

    Raises DataFormatError, naming the file and asking for ``ingest`` to be
    run again, when a part of the bundle is missing or malformed: a
    ``splits.json`` that is not JSON or of another format, a text split
    whose SHA-256 differs from the recorded one (a bundle edited by hand),
    or a sidecar that does not hold exact CSR rows of the header's user and
    item counts. A ``bundle_dir`` that does not exist stays an OSError.
    """
    header_path = Path(bundle_dir) / SPLITS_HEADER
    try:
        header = read_json(header_path)
        if not isinstance(header, dict) or header.get("format") != SPLITS_FORMAT:
            raise ValueError(f"{header_path}: not a {SPLITS_FORMAT} header")
        counts = (header.get("num_users"), header.get("num_items"))
        if not (all(type(n) is int and n >= 0 for n in counts)
                and isinstance(header.get("sha256"), dict)):
            raise ValueError(f"{header_path}: user or item count or digests malformed")
        num_users, num_items = counts
        for name in SPLITS:
            text = header_path.with_name(f"{name}.txt")
            if header["sha256"].get(text.name) != _sha256(text.read_bytes()).hexdigest():
                raise ValueError(f"{text} differs from the split {SPLITS_HEADER} records")
        names = [f"{name}.{part}" for name in SPLITS for part in ("indptr", "indices")]
        arrays = read_sidecar(header_path, header, names, "splits")
        sidecar_path = header_path.with_name(SPLITS_SIDECAR)
        splits = {}
        for name in SPLITS:
            indptr, indices = arrays[f"{name}.indptr"], arrays[f"{name}.indices"]
            if any(arr.dtype.str != "<i8" or arr.ndim != 1 for arr in (indptr, indices)):
                raise ValueError(f"{sidecar_path}: {name} arrays are not 1-D '<i8'")
            # '<i8' is int64 on a little-endian host, so no copy is made there
            indptr = indptr.astype(np.int64, copy=False)
            indices = indices.astype(np.int64, copy=False)
            problem = _csr_problem(indptr, indices, num_users, num_items)
            if problem:
                raise ValueError(f"{sidecar_path}: {name} split: {problem}")
            splits[name] = Csr(indptr, indices, num_items)
    except (FileNotFoundError, ValueError) as exc:
        missing = isinstance(exc, FileNotFoundError)
        if missing and not header_path.parent.is_dir():
            raise  # no bundle at all: an i/o error
        problem = f"{exc.filename} is missing" if missing else exc
        raise DataFormatError(
            f"{problem}; run ingest again to rewrite the bundle in {header_path.parent}"
        ) from None
    return Dataset(num_users, num_items, **splits)


def _load_model(path, dataset: Dataset):
    """Checkpoint whose user and item counts must match the bundle's."""
    params, header = load_checkpoint(path)
    if (params.num_users, params.num_items) != (dataset.num_users, dataset.num_items):
        raise ValueError(
            f"checkpoint {path} has {params.num_users} users x {params.num_items} items, "
            f"the bundle {dataset.num_users} x {dataset.num_items}"
        )
    return params, header


def _recommendation_problem(row, personalized: bool, num_users: int, num_items: int,
                            seen: dict) -> str | None:
    """What is wrong with one recommendation row, or None if nothing is.

    ``seen`` maps each user of the earlier rows to its line. JSON's numbers
    are exactly int or float (bool is its own type), so ``type`` tests a
    value, and one set of types a whole list.
    """
    if not isinstance(row, dict):
        return "a row must be a JSON object"
    needed = ("user", "k_star", "curve", "items") if personalized else ("user", "items")
    missing = [key for key in needed if key not in row]
    if missing:
        return f"row lacks {', '.join(missing)}"
    user, items = row["user"], row["items"]
    if type(user) is not int:
        return f"user {user!r} is not an integer"
    if not (type(items) is list and set(map(type, items)) <= {int}):
        return "items must be a list of integers"
    if personalized:
        curve, k_star = row["curve"], row["k_star"]
        if not (type(curve) is list and set(map(type, curve)) <= {int, float}):
            return "curve must be a list of numbers"
        if not (type(k_star) is int and 1 <= k_star <= len(curve)):
            return f"k_star {k_star!r} is not an integer in 1..{len(curve)}"
        if len(items) != k_star:
            return f"items holds {len(items)} entries where k_star is {k_star}"
    if not 0 <= user < num_users:
        return f"recommendation user {user} outside dataset"
    if items and (min(items) < 0 or max(items) >= num_items):
        item = next(i for i in items if not 0 <= i < num_items)
        return f"recommended item {item} outside dataset"
    if len(set(items)) < len(items):
        item = next(i for i in items if items.count(i) > 1)
        return f"item {item} repeats in the list"
    if user in seen:
        return f"user {user} repeats the row on line {seen[user]}"
    return None


# json.loads checks its options and matches whitespace at both ends on every
# call; a stripped line needs neither, only raw_decode's end
_JSONL_DECODER = json.JSONDecoder()


def load_recommendations(path, num_users: int, num_items: int):
    """Read a recommendation JSONL file as ``(users, items, k_star)`` arrays.

    Row r of ``items`` holds line r's list, -1-padded, as ``ranker.top_k``
    returns lists. The first row decides the kind: ``k_star`` is None unless
    the rows have one. Each row is checked as it is read; raises ValueError,
    naming the file and the first bad line, for a row that is not JSON,
    lacks a key of its kind, holds a user or item that is not an integer, a
    k_star outside 1..len(curve) or other than its item count, a user
    outside [0, num_users) or one an earlier row already named, or an item
    outside [0, num_items); and, naming the file, for a file without rows.
    """
    rows, seen = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                row, end = _JSONL_DECODER.raw_decode(text)
                if end < len(text):
                    raise json.JSONDecodeError("Extra data", text, end)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if not rows:
                personalized = isinstance(row, dict) and "k_star" in row
            problem = _recommendation_problem(row, personalized, num_users, num_items, seen)
            if problem:
                raise ValueError(f"{path}:{line_no}: {problem}")
            seen[row["user"]] = line_no
            rows.append(row)
    if not rows:
        raise ValueError(f"{path} holds no recommendation rows")
    lists = [row["items"] for row in rows]
    lengths = np.fromiter(map(len, lists), np.int64, len(lists))
    flat = np.fromiter(itertools.chain.from_iterable(lists), np.int64, int(lengths.sum()))
    listed = np.arange(lengths.max()) < lengths[:, None]
    items = np.full(listed.shape, -1, dtype=np.int64)
    items[listed] = flat
    users = np.fromiter(seen, np.int64, len(rows))  # one key per row, in file order
    k_star = np.array([row["k_star"] for row in rows], dtype=np.int64) if personalized else None
    return users, items, k_star


# ---------------------------------------------------------------------------
# subcommands


def _stop_if_diverged(epoch: int, lr: float, losses: dict) -> None:
    """Raise ValueError when one of an epoch's named losses is not finite."""
    for name, value in losses.items():
        if not math.isfinite(value):
            raise ValueError(
                f"training diverged: epoch {epoch} {name} is {value}; "
                f"lower train.lr (now {lr:g})"
            )


def cmd_ingest(args, cfg) -> int:
    pairs, maps = load_interactions(args.input, delimiter=cfg["data.delimiter"])
    dataset = split_per_user(
        pairs,
        ratios=cfg["data.ratios"],
        seed=stream_seed(cfg["seed"], "data"),
        num_users=maps.num_users,
        num_items=maps.num_items,
    )
    out = Path(args.out)
    write_json(out / "user_map.json", maps.user_to_index)
    write_json(out / "item_map.json", maps.item_to_index)
    _write_splits(out, dataset, cfg["data.delimiter"])
    print(
        f"ingested {len(pairs)} interactions: {maps.num_users} users, "
        f"{maps.num_items} items; splits train={len(dataset.train)} "
        f"validation={len(dataset.validation)} test={len(dataset.test)}"
    )
    return 0


def cmd_train(args, cfg) -> int:
    train_cfg = cfg["train"]
    epoch_fn = ranker.loss_epochs()[cfg["train.loss"]]
    dataset = load_bundle(args.data)

    if args.resume:
        params, header = _load_model(args.resume, dataset)
        for key, wanted, trained in (
            ("train.loss", cfg["train.loss"], header.get("loss_kind")),
            ("train.dim", cfg["train.dim"], params.dim),
        ):
            if wanted != trained:
                raise ValueError(
                    f"{key} is {wanted}, but checkpoint {args.resume} was trained with {trained}"
                )
        start_epoch = header["epochs_trained"]
    else:
        params = init_params(
            dataset.num_users,
            dataset.num_items,
            cfg["train.dim"],
            seed=stream_seed(cfg["seed"], "train", 0),
        )
        start_epoch = 0

    log_path = Path(args.log) if args.log else Path(str(args.out) + "_log.jsonl")
    with atomic_open(log_path, keep_existing=bool(args.resume)) as log:
        for epoch in range(start_epoch, cfg["train.epochs"]):
            rng = np.random.default_rng(stream_seed(cfg["seed"], "train", 1 + epoch))
            params, loss = epoch_fn(params, dataset, train_cfg, rng)
            _stop_if_diverged(epoch, train_cfg.lr, {"loss": loss})
            log.write(_jsonl_line({"epoch": epoch, "loss": loss}))
            print(f"epoch {epoch}: loss {loss:.6f}")
    save_checkpoint(
        params,
        args.out,
        seed=cfg["seed"],
        loss_kind=cfg["train.loss"],
        epochs_trained=max(start_epoch, cfg["train.epochs"]),
    )
    return 0


def cmd_calibrate(args, cfg) -> int:
    dataset = load_bundle(args.data)
    params, _ = _load_model(args.ckpt, dataset)
    propensity = (
        estimate_propensity(dataset.item_popularity, cfg["calib.tau"], cfg["calib.theta_min"])
        if cfg["calib.unbiased"]
        else None
    )
    fit_samples = collect_calibration_samples(
        params,
        dataset,
        rng=np.random.default_rng(stream_seed(cfg["seed"], "calib", 0)),
        negatives_per_positive=cfg["calib.negatives_per_positive"],
        propensity=propensity,
    )
    eval_samples = collect_calibration_samples(
        params,
        dataset,
        rng=np.random.default_rng(stream_seed(cfg["seed"], "calib", 1)),
        negatives_per_positive=cfg["calib.negatives_per_positive"],
    )

    kind = cfg["calib.kind"]
    max_iters = cfg["calib.max_iters"]
    cal, losses, grad_norm, stop = fit(
        kind,
        fit_samples,
        max_iters=max_iters,
        tol=cfg["calib.tol"],
        num_bins=cfg["calib.num_bins"],
    )
    iterations = max(len(losses) - 1, 0)
    if stop != "converged":
        if stop == "iteration_cap":
            ended = f"stopped at the iteration cap ({iterations}/{max_iters})"
        else:
            ended = f"stalled in its line search after {iterations}/{max_iters} iterations"
        print(
            f"calibrec: warning: {kind} fit {ended} before the gradient fell below "
            f"calib.tol (gradient norm {grad_norm:.3g})",
            file=sys.stderr,
        )

    s, y = eval_samples.s, eval_samples.y
    num_bins, scheme = cfg["calib.num_bins"], cfg["calib.scheme"]
    ece_raw = ece(reliability_table(sigmoid(s), y, num_bins, scheme))
    cal_rows = reliability_table(apply_calibrator(cal, s), y, num_bins, scheme)
    ece_cal = ece(cal_rows)

    out = Path(args.out)
    save_calibrator(cal, out / "calibrator.json")
    write_reliability_csv(cal_rows, out / "reliability.csv")
    write_json(
        out / "calibration_report.json",
        {
            "kind": kind,
            "unbiased": cfg["calib.unbiased"],
            "score_shift": cal.score_shift,
            "num_fit_samples": len(fit_samples),
            "num_eval_samples": len(eval_samples),
            "ece_raw": ece_raw,
            "ece_calibrated": ece_cal,
            "iterations": iterations,
            "hit_iter_cap": stop == "iteration_cap",
            "grad_norm": grad_norm,
            "converged": stop == "converged",
            "num_bins": num_bins,
            "scheme": scheme,
        },
    )
    print(f"{kind}: ece raw {ece_raw:.4f} -> calibrated {ece_cal:.4f}")
    return 0


def cmd_distill(args, cfg) -> int:
    base_cfg, bd_cfg = cfg["train"], cfg["bd"]
    dataset = load_bundle(args.data)
    roles = CotrainReport._fields
    models = [
        init_params(dataset.num_users, dataset.num_items, cfg[f"bd.{role}_dim"],
                    seed=stream_seed(cfg["seed"], "bd", 0, k))
        for k, role in enumerate(roles)
    ]

    out = Path(args.out)
    report = CotrainReport(None, None)  # the last epoch's, None per role when none ran
    with atomic_open(out / "cotrain_log.jsonl") as log:
        for epoch in range(bd_cfg.epochs):
            rng = np.random.default_rng(stream_seed(cfg["seed"], "bd", 1 + epoch))
            *models, report = cotrain_epoch(*models, dataset, base_cfg, bd_cfg, rng)
            for role, stats in zip(roles, report):
                _stop_if_diverged(epoch, base_cfg.lr, {f"{role} base loss": stats.base_loss,
                                                       f"{role} distill loss": stats.distill_loss})
                log.write(_jsonl_line(stats.as_row(epoch, role)))
            print(f"epoch {epoch}: " + " | ".join(
                f"{role} base {stats.base_loss:.4f} distill {stats.distill_loss:.4f}"
                for role, stats in zip(roles, report)
            ))
    # cotrain_epoch trains both roles by pointwise_epoch; the checkpoints record its name
    loss_kind = next(k for k, fn in ranker.loss_epochs().items() if fn is ranker.pointwise_epoch)
    for role, params in zip(roles, models):
        save_checkpoint(params, out / role, seed=cfg["seed"],
                        loss_kind=loss_kind, epochs_trained=bd_cfg.epochs)

    # evaluate raises when no user has validation items; the summary says null
    recall = None
    if len(dataset.validation):
        users = np.arange(dataset.num_users)
        result = metrics.evaluate(
            users, top_k(models[1], users, 10, dataset.train), dataset,
            split="validation", metrics=("recall",), ks=(10,),
        )
        recall = result.rows[0].means["recall"]
    summary = {
        "epochs": bd_cfg.epochs,
        "student_recall_at_10": recall,
        # users of the last epoch with no item the counterpart ranks better
        "empty_users": {
            role: stats.empty_users if stats else None for role, stats in zip(roles, report)
        },
        "final": {
            role: stats.as_row(bd_cfg.epochs - 1, role) if stats else None
            for role, stats in zip(roles, report)
        },
    }
    write_json(out / "distill_summary.json", summary)
    if recall is None:
        print("student validation recall@10: none, the validation split has no items")
    else:
        print(f"student validation recall@10: {recall:.4f}")
    return 0


def cmd_recommend(args, cfg) -> int:
    # each mode refuses the other's flags instead of ignoring them
    if args.perk:
        foreign = {"--k": args.k is not None, "--allow-fewer": args.allow_fewer}
    else:
        foreign = {"--calibrator": args.calibrator is not None,
                   "--summary": args.summary is not None}
    given = [flag for flag, passed in foreign.items() if passed]
    if given:
        rule = "cannot be used with --perk" if args.perk else "can only be used with --perk"
        raise ValueError(f"{' and '.join(given)} {rule}")
    if args.perk:
        if not args.calibrator:
            raise ValueError("--perk requires --calibrator")
    elif args.k is None:
        raise ValueError("fixed mode requires --k (or pass --perk)")
    elif args.k < 1:
        raise ValueError("--k must be >= 1")
    dataset = load_bundle(args.data)
    params, _ = _load_model(args.ckpt, dataset)
    out_path = Path(args.out)
    excluded = dataset.excluded(
        ("train", "validation") if args.exclude_validation else ("train",)
    )

    if args.perk:
        cal = load_calibrator(args.calibrator)
        # users whose excluded items cover the catalog get no list, as in fixed mode
        users = np.flatnonzero(excluded.sizes() < dataset.num_items)
        lists = perk_recommend_users(params, cal, excluded, users, cfg["perk"])
        columns = (lists.users, lists.k_star, lists.k_max_effective, lists.curves, lists.items)
        with atomic_open(out_path) as fh:
            for user, k_star, length, curve, items in zip(*(col.tolist() for col in columns)):
                row = {"user": user, "k_star": k_star, "curve": curve[:length],
                       "items": items[:k_star]}
                fh.write(_jsonl_line(row))
        if args.summary:
            _write_perk_summary(args.summary, lists, dataset, cfg)
        print(f"wrote {len(lists.users)} personalized lists to {out_path}")
    else:
        lists = top_k(params, np.arange(dataset.num_users), args.k, excluded)
        lengths = (lists >= 0).sum(axis=1)  # rows are -1-padded at the end
        users = np.flatnonzero(lengths)
        short = users[lengths[users] < args.k]
        if short.size and not args.allow_fewer:
            raise ValueError(
                f"user {short[0]} has only {lengths[short[0]]} candidates for k={args.k}; "
                "pass --allow-fewer to emit short lists"
            )
        rows = zip(users.tolist(), lengths[users].tolist(), lists[users].tolist())
        with atomic_open(out_path) as fh:
            for user, length, items in rows:
                fh.write(_jsonl_line({"user": user, "items": items[:length]}))
        print(f"wrote {len(users)} top-{args.k} lists to {out_path}")
    return 0


def _write_perk_summary(path, lists, dataset, cfg):
    split, utility = cfg["eval.split"], cfg["perk.utility"]
    k_values, k_counts = np.unique(lists.k_star, return_counts=True)
    expected = lists.curves[np.arange(len(lists.users)), lists.k_star - 1]
    # evaluate raises when no listed user has held-out items; the summary says null
    realized = None
    if np.any(dataset.split(split).sizes()[lists.users] > 0):
        result = metrics.evaluate(lists.users, lists.items, dataset, split=split,
                                  metrics=(utility,), k_star=lists.k_star)
        realized = result.rows[0].means[utility]
    write_json(
        path,
        {
            "utility": utility,
            "num_users": len(lists.users),
            "mean_k_star": float(np.mean(lists.k_star)) if len(lists.users) else None,
            "k_star_histogram": dict(zip(map(str, k_values.tolist()), k_counts.tolist())),
            "mean_expected_utility_at_k_star": float(np.mean(expected)) if len(expected) else None,
            "mean_realized_utility_at_k_star": realized,
            "realized_split": split,
        },
    )


def cmd_eval(args, cfg) -> int:
    if not args.recs and not args.perk_recs:
        raise ValueError("need --recs and/or --perk-recs")
    dataset = load_bundle(args.data)
    split = cfg["eval.split"]
    ks = cfg["eval.ks"]
    names = cfg["eval.metrics"]

    rows = []
    users_evaluated = users_skipped = None
    for path, personalized in ((args.recs, False), (args.perk_recs, True)):
        if not path:
            continue
        users, items, k_star = load_recommendations(path, dataset.num_users, dataset.num_items)
        if personalized != (k_star is not None):
            held, flag = ("fixed", "--recs") if personalized else ("personalized", "--perk-recs")
            raise ValueError(f"{path} holds {held} rows; pass it as {flag}")
        result = metrics.evaluate(users, items, dataset, split=split, metrics=names, ks=ks,
                                  k_star=k_star)
        rows.extend(result.rows)
        if users_evaluated is None:
            users_evaluated, users_skipped = result.users_evaluated, result.users_skipped

    report = {
        "split": split,
        "users_evaluated": users_evaluated,
        "users_skipped": users_skipped,
        "rows": [row.to_dict() for row in rows],
    }
    write_json(args.out, report)
    if args.per_user_csv:
        with atomic_open(args.per_user_csv) as fh:
            fh.write("label,user,metric,value\n")
            for row in rows:
                for metric_name, values in row.per_user.items():
                    for user, value in sorted(values.items()):
                        fh.write(f"{row.label},{user},{metric_name},{value}\n")
    for row in rows:
        shown = " ".join(f"{m}={v:.4f}" for m, v in row.means.items())
        print(f"{row.label}: {shown}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub):
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibrec",
        description="calibrated recommendation pipeline",
        epilog=config_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--write-config-reference",
        metavar="PATH",
        help="write the configuration key reference to PATH and exit",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("ingest", help="read an interaction log and write a dataset bundle")
    p.add_argument("--input", required=True, help="delimiter-separated interaction file")
    p.add_argument("--out", required=True, help="bundle output directory")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("train", help="train the factorization backbone")
    p.add_argument("--data", required=True, help="dataset bundle directory")
    p.add_argument("--out", required=True, help="checkpoint base path (writes .json/.bin)")
    p.add_argument("--resume", help="checkpoint base to continue from")
    p.add_argument("--log", help="loss log path (JSON lines)")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("calibrate", help="fit a score calibrator on validation data")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="checkpoint base path")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("distill", help="co-train teacher and student models")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_distill)

    p = subs.add_parser("recommend", help="write fixed-K or personalized-K lists")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="recommendations path (JSON lines)")
    p.add_argument("--k", type=int, help="fixed list length (fixed mode)")
    p.add_argument("--perk", action="store_true", help="personalized list lengths")
    p.add_argument("--calibrator", help="calibrator JSON (required with --perk)")
    p.add_argument("--summary", help="aggregate summary JSON path (--perk mode)")
    p.add_argument(
        "--allow-fewer",
        action="store_true",
        help="permit lists shorter than --k when candidates run out (fixed mode)",
    )
    p.add_argument(
        "--exclude-validation",
        action="store_true",
        help="drop validation items from the candidate pool (for clean "
        "test-split evaluation)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_recommend)

    p = subs.add_parser("eval", help="score recommendation files against a split")
    p.add_argument("--data", required=True)
    p.add_argument("--recs", help="fixed-K recommendations (JSON lines)")
    p.add_argument("--perk-recs", help="personalized recommendations (JSON lines)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--per-user-csv", help="optional per-user metric dump")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command is None and not args.write_config_reference:
        parser.print_help()
        return 2

    try:
        if args.write_config_reference:
            with atomic_open(args.write_config_reference) as fh:
                fh.write(config_reference())
            return 0
        cfg = load_config(args.config, args.set)
        # a stage's files appear together when it returns, or none of them
        with output_set():
            return args.func(args, cfg)
    except DataFormatError as exc:
        print(f"calibrec: invalid input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"calibrec: validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"calibrec: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
