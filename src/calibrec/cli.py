"""Command-line pipeline: ingest, train, calibrate, distill, recommend, eval.

Configuration is a flat ``key=value`` file with namespaced keys (see
``CONFIG_SPEC``), overridable per invocation with ``--set key=value``.
Unknown keys are rejected. Exit codes: 0 success, 1 I/O failure,
2 validation failure.

Randomness derives from one global seed expanded into per-stage streams
(see ``seeding``); train and distill additionally key each epoch's stream
by the epoch number, so a resumed training run consumes the same streams
an uninterrupted run would.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import calibration, metrics
from .atomic import atomic_open
from .calibration import (
    PARAMETRIC_KINDS,
    apply as apply_calibrator,
    collect_calibration_samples,
    ece,
    estimate_propensity,
    fit,
    gamma_shift,
    gradient_norm,
    load_calibrator,
    reliability_table,
    save_calibrator,
    write_reliability_csv,
)
from .dataset import Csr, DataFormatError, Dataset, IdMaps, load_interactions, split_per_user
from .distill import BdConfig, cotrain_epoch
from .perk import PerkConfig, PersonalizedCut, perk_recommend_users
from .ranker import (
    TrainConfig,
    bpr_epoch,
    init_params,
    load_checkpoint,
    pointwise_epoch,
    save_checkpoint,
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


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _choice(*options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return parse


# key -> (parser, default, help)
CONFIG_SPEC = {
    "seed": (int, 0, "global seed; every stage derives its own stream from it"),
    "data.delimiter": (str, ",", "field separator of interaction and split files"),
    "data.ratios": (_floats, (0.8, 0.1, 0.1), "train,validation,test split fractions"),
    "train.dim": (int, 32, "embedding dimension"),
    "train.lr": (
        float,
        0.05,
        "SGD learning rate on the batch-mean gradient: per example lr/batch_size (bpr), "
        "lr/(batch_size*(1+negatives_per_positive)) (pointwise)",
    ),
    "train.reg": (float, 1e-4, "L2 weight on embeddings"),
    "train.epochs": (int, 10, "training epochs (0 writes the initialization)"),
    "train.batch_size": (int, 128, "positives per SGD batch"),
    "train.loss": (_choice("bpr", "pointwise"), "bpr", "training objective"),
    "train.negatives_per_positive": (int, 4, "sampled negatives per positive (pointwise)"),
    "calib.kind": (
        _choice("platt", "gaussian", "gamma", "histogram"),
        "platt",
        "calibration map",
    ),
    "calib.negatives_per_positive": (int, 4, "sampled negatives per validation positive"),
    "calib.unbiased": (_bool, False, "weight the likelihood by inverse propensities"),
    "calib.tau": (float, 0.5, "propensity popularity exponent"),
    "calib.theta_min": (float, 0.01, "propensity clip floor"),
    "calib.max_iters": (int, 1000, "Newton iteration cap"),
    "calib.tol": (float, 1e-8, "optimizer gradient tolerance"),
    "calib.num_bins": (int, 15, "bins for ECE / reliability / histogram calibrator"),
    "calib.scheme": (_choice("equal_width", "equal_mass"), "equal_width", "binning scheme"),
    "bd.teacher_dim": (int, 64, "teacher embedding dimension"),
    "bd.student_dim": (int, 8, "student embedding dimension"),
    "bd.lambda_ts": (float, 0.5, "teacher's distillation-from-student weight"),
    "bd.lambda_st": (float, 0.5, "student's distillation-from-teacher weight"),
    "bd.sample_size": (int, 10, "distillation items sampled per user per epoch"),
    "bd.eta": (float, 0.1, "rank-discrepancy sharpness"),
    "bd.truncate_rank": (int, 100, "ranks beyond this are clamped"),
    "bd.epochs": (int, 10, "co-training epochs"),
    "bd.save_every": (int, 0, "checkpoint interval in epochs (0 = final only)"),
    "perk.k_max": (int, 50, "largest cutoff considered"),
    "perk.utility": (
        _choice("precision", "recall", "f1", "ndcg"),
        "f1",
        "expected utility maximized per user",
    ),
    "perk.rest_pool": (int, 500, "extra candidates feeding the remaining-relevant count"),
    "eval.split": (_choice("validation", "test"), "test", "split evaluated against"),
    "eval.ks": (_ints, (1, 5, 10, 20), "fixed cutoffs in evaluation reports"),
    "eval.metrics": (
        _names,
        ("precision", "recall", "f1", "ndcg"),
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
    """Defaults, then the config file, then --set overrides; unknown keys fail."""
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
        with open(path, "r", encoding="utf-8") as fh:
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
    return cfg


# ---------------------------------------------------------------------------
# file helpers

BUNDLE_FILES = ("user_map.json", "item_map.json", "train.txt", "validation.txt", "test.txt")


def _write_json(path, payload):
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonl_line(row) -> str:
    return json.dumps(row, sort_keys=True) + "\n"


# rows formatted into one string per write call when writing a split
WRITE_ROWS = 1 << 16


def _write_split(path, split: Csr, delimiter):
    users, items = split.pairs()
    row = "%d" + delimiter.replace("%", "%%") + "%d\n"
    with atomic_open(path) as fh:
        for start in range(0, len(split), WRITE_ROWS):
            stop = start + WRITE_ROWS
            chunk = np.column_stack((users[start:stop], items[start:stop]))
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _read_split(path, delimiter, num_users, num_items) -> Csr:
    """Parse a split file of the ``%d<delim>%d\\n`` lines ``_write_split`` writes into rows."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # NUL marks each delimiter; a NUL of the file's own turns into "x", which is rejected
    marked = text.replace("\0", "x").replace(delimiter, "\0").encode()
    buf = np.frombuffer(marked, dtype=np.uint8)
    # delimiter, newline, delimiter, newline, ..., no empty field, digits in between
    seps = np.flatnonzero(buf < ord("0"))
    if (
        buf.max(initial=0) > ord("9") or np.any(buf[seps[0::2]]) or marked[-1:] not in (b"", b"\n")
        or np.any(buf[seps[1::2]] != ord("\n")) or np.any(np.diff(seps, prepend=-1) < 2)
    ):
        raise DataFormatError(f"{path}: expected 'user{delimiter}item' lines")
    pairs = np.fromstring(marked.replace(b"\0", b" "), dtype=np.int64, sep=" ").reshape(-1, 2)
    try:
        return Csr.from_pairs(pairs[:, 0], pairs[:, 1], num_users, num_items)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def load_bundle(bundle_dir, delimiter=",") -> tuple[Dataset, IdMaps]:
    """Read a dataset bundle written by ``ingest``."""
    bundle = Path(bundle_dir)
    with open(bundle / "user_map.json", "r", encoding="utf-8") as fh:
        user_map = json.load(fh)
    with open(bundle / "item_map.json", "r", encoding="utf-8") as fh:
        item_map = json.load(fh)
    maps = IdMaps(user_to_index=user_map, item_to_index=item_map)
    splits = {
        name: _read_split(bundle / f"{name}.txt", delimiter, maps.num_users, maps.num_items)
        for name in ("train", "validation", "test")
    }
    dataset = Dataset(
        num_users=maps.num_users,
        num_items=maps.num_items,
        item_popularity=np.bincount(splits["train"].indices, minlength=maps.num_items),
        **splits,
    )
    return dataset, maps


def _load_model(path, dataset: Dataset):
    """Checkpoint whose user and item counts must match the bundle's."""
    params, header = load_checkpoint(path)
    if (params.num_users, params.num_items) != (dataset.num_users, dataset.num_items):
        raise ValueError(
            f"checkpoint {path} has {params.num_users} users x {params.num_items} items, "
            f"the bundle {dataset.num_users} x {dataset.num_items}"
        )
    return params, header


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_recommendation(row, personalized: bool) -> str | None:
    """What is wrong with one recommendation row, or None if nothing is."""
    if not isinstance(row, dict):
        return "a row must be a JSON object"
    needed = ("user", "k_star", "curve", "items") if personalized else ("user", "items")
    missing = [key for key in needed if key not in row]
    if missing:
        return f"row lacks {', '.join(missing)}"
    if not _is_int(row["user"]):
        return f"user {row['user']!r} is not an integer"
    if not (isinstance(row["items"], list) and all(_is_int(i) for i in row["items"])):
        return "items must be a list of integers"
    if personalized:
        curve = row["curve"]
        if not (isinstance(curve, list) and all(_is_number(v) for v in curve)):
            return "curve must be a list of numbers"
        if not (_is_int(row["k_star"]) and 1 <= row["k_star"] <= len(curve)):
            return f"k_star {row['k_star']!r} is not an integer in 1..{len(curve)}"
    return None


def load_recommendations(path):
    """Read a recommendation JSONL file into lists or PersonalizedCuts.

    The first row decides the kind: rows with ``k_star`` are personalized
    cuts. Raises ValueError, naming the file and line, for a row that is not
    JSON, lacks a key of its kind, holds a user or item that is not an
    integer, a k_star outside 1..len(curve), or a user an earlier row
    already named; and for a file without rows.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append((line_no, json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} holds no recommendation rows")
    personalized = isinstance(rows[0][1], dict) and "k_star" in rows[0][1]
    first_line: dict[int, int] = {}
    for line_no, row in rows:
        problem = _check_recommendation(row, personalized)
        if problem is None and row["user"] in first_line:
            problem = f"user {row['user']} repeats the row on line {first_line[row['user']]}"
        if problem:
            raise ValueError(f"{path}:{line_no}: {problem}")
        first_line[row["user"]] = line_no
    if personalized:
        return [
            PersonalizedCut(
                user=row["user"],
                k_star=row["k_star"],
                curve=np.array(row["curve"], dtype=float),
                items=list(row["items"]),
                k_max_effective=len(row["curve"]),
            )
            for _, row in rows
        ]
    return {row["user"]: list(row["items"]) for _, row in rows}


# ---------------------------------------------------------------------------
# subcommands


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
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "user_map.json", maps.user_to_index)
    _write_json(out / "item_map.json", maps.item_to_index)
    delim = cfg["data.delimiter"]
    _write_split(out / "train.txt", dataset.train, delim)
    _write_split(out / "validation.txt", dataset.validation, delim)
    _write_split(out / "test.txt", dataset.test, delim)
    print(
        f"ingested {len(pairs)} interactions: {maps.num_users} users, "
        f"{maps.num_items} items; splits train={len(dataset.train)} "
        f"validation={len(dataset.validation)} test={len(dataset.test)}"
    )
    return 0


def cmd_train(args, cfg) -> int:
    dataset, _ = load_bundle(args.data, cfg["data.delimiter"])
    train_cfg = TrainConfig(
        lr=cfg["train.lr"],
        reg=cfg["train.reg"],
        batch_size=cfg["train.batch_size"],
        loss_kind=cfg["train.loss"],
        negatives_per_positive=cfg["train.negatives_per_positive"],
    )
    epoch_fn = bpr_epoch if train_cfg.loss_kind == "bpr" else pointwise_epoch

    if args.resume:
        params, header = _load_model(args.resume, dataset)
        start_epoch = header.get("epochs_trained", 0)
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
            log.write(_jsonl_line({"epoch": epoch, "loss": loss}))
            print(f"epoch {epoch}: loss {loss:.6f}")
    save_checkpoint(
        params,
        args.out,
        seed=cfg["seed"],
        loss_kind=train_cfg.loss_kind,
        epochs_trained=max(start_epoch, cfg["train.epochs"]),
    )
    return 0


def cmd_calibrate(args, cfg) -> int:
    dataset, _ = load_bundle(args.data, cfg["data.delimiter"])
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
    shift = gamma_shift(fit_samples.s) if kind == "gamma" else 0.0
    max_iters = cfg["calib.max_iters"]
    cal, trace = fit(
        kind,
        fit_samples,
        unbiased=cfg["calib.unbiased"],
        max_iters=max_iters,
        tol=cfg["calib.tol"],
        score_shift=shift,
        num_bins=cfg["calib.num_bins"],
        full_output=True,
    )
    # the trace holds the start loss plus one entry per accepted step
    iterations = max(len(trace) - 1, 0)
    if kind in PARAMETRIC_KINDS:
        grad_norm = gradient_norm(cal, fit_samples, unbiased=cfg["calib.unbiased"])
        converged = grad_norm < cfg["calib.tol"]
    else:
        grad_norm, converged = None, True
    # a fit whose last allowed step lands below tol converged; the cap did not stop it
    hit_iter_cap = iterations == max_iters and not converged
    if not converged:
        if hit_iter_cap:
            stop = f"stopped at the iteration cap ({iterations}/{max_iters})"
        else:
            stop = f"stalled in its line search after {iterations}/{max_iters} iterations"
        print(
            f"calibrec: warning: {kind} fit {stop} before the gradient fell below "
            f"calib.tol (gradient norm {grad_norm:.3g})",
            file=sys.stderr,
        )

    eval_scores = eval_samples.s
    eval_labels = eval_samples.y.astype(float)
    raw_pairs = np.column_stack([expit(eval_scores), eval_labels])
    cal_pairs = np.column_stack([np.atleast_1d(apply_calibrator(cal, eval_scores)), eval_labels])
    num_bins, scheme = cfg["calib.num_bins"], cfg["calib.scheme"]
    ece_raw = ece(raw_pairs, num_bins, scheme)
    ece_cal = ece(cal_pairs, num_bins, scheme)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_calibrator(cal, out / "calibrator.json")
    write_reliability_csv(reliability_table(cal_pairs, num_bins, scheme), out / "reliability.csv")
    _write_json(
        out / "calibration_report.json",
        {
            "kind": kind,
            "unbiased": cfg["calib.unbiased"],
            "score_shift": shift,
            "num_fit_samples": len(fit_samples),
            "num_eval_samples": len(eval_samples),
            "ece_raw": ece_raw,
            "ece_calibrated": ece_cal,
            "iterations": iterations,
            "hit_iter_cap": hit_iter_cap,
            "grad_norm": grad_norm,
            "converged": converged,
            "num_bins": num_bins,
            "scheme": scheme,
        },
    )
    print(f"{kind}: ece raw {ece_raw:.4f} -> calibrated {ece_cal:.4f}")
    return 0


def cmd_distill(args, cfg) -> int:
    dataset, _ = load_bundle(args.data, cfg["data.delimiter"])
    base_cfg = TrainConfig(
        lr=cfg["train.lr"],
        reg=cfg["train.reg"],
        batch_size=cfg["train.batch_size"],
        loss_kind="pointwise",
        negatives_per_positive=cfg["train.negatives_per_positive"],
    )
    bd_cfg = BdConfig(
        lambda_ts=cfg["bd.lambda_ts"],
        lambda_st=cfg["bd.lambda_st"],
        sample_size=cfg["bd.sample_size"],
        eta=cfg["bd.eta"],
        truncate_rank=cfg["bd.truncate_rank"],
        epochs=cfg["bd.epochs"],
    )
    teacher = init_params(
        dataset.num_users, dataset.num_items, cfg["bd.teacher_dim"],
        seed=stream_seed(cfg["seed"], "bd", 0, 0),
    )
    student = init_params(
        dataset.num_users, dataset.num_items, cfg["bd.student_dim"],
        seed=stream_seed(cfg["seed"], "bd", 0, 1),
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_every = cfg["bd.save_every"]

    def save_both(epochs_done):
        save_checkpoint(teacher, out / "teacher", seed=cfg["seed"],
                        loss_kind="pointwise", epochs_trained=epochs_done)
        save_checkpoint(student, out / "student", seed=cfg["seed"],
                        loss_kind="pointwise", epochs_trained=epochs_done)

    report = None
    with atomic_open(out / "cotrain_log.jsonl") as log:
        for epoch in range(bd_cfg.epochs):
            rng = np.random.default_rng(stream_seed(cfg["seed"], "bd", 1 + epoch))
            teacher, student, report = cotrain_epoch(
                teacher, student, dataset, base_cfg, bd_cfg, rng
            )
            log.write(_jsonl_line(report.teacher.as_row(epoch, "teacher")))
            log.write(_jsonl_line(report.student.as_row(epoch, "student")))
            print(
                f"epoch {epoch}: teacher base {report.teacher.base_loss:.4f} "
                f"distill {report.teacher.distill_loss:.4f} | student base "
                f"{report.student.base_loss:.4f} distill {report.student.distill_loss:.4f}"
            )
            if save_every and (epoch + 1) % save_every == 0:
                save_both(epoch + 1)
    save_both(bd_cfg.epochs)

    top = top_k(student, np.arange(dataset.num_users), 10, dataset.train)
    student_lists = {u: row[row >= 0].tolist() for u, row in enumerate(top)}
    recall_result = metrics.evaluate(
        student_lists, dataset, split="validation", metrics=("recall",), ks=(10,)
    )
    summary = {
        "epochs": bd_cfg.epochs,
        "student_recall_at_10": recall_result.rows[0].means["recall"],
        # users of the last epoch with no item the counterpart ranks better
        "empty_users": {
            "teacher": report.teacher.empty_users if report else None,
            "student": report.student.empty_users if report else None,
        },
        "final": {
            "teacher": report.teacher.as_row(bd_cfg.epochs - 1, "teacher") if report else None,
            "student": report.student.as_row(bd_cfg.epochs - 1, "student") if report else None,
        },
    }
    _write_json(out / "distill_summary.json", summary)
    print(f"student validation recall@10: {summary['student_recall_at_10']:.4f}")
    return 0


def cmd_recommend(args, cfg) -> int:
    dataset, _ = load_bundle(args.data, cfg["data.delimiter"])
    params, _ = _load_model(args.ckpt, dataset)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    excluded = dataset.excluded(
        ("train", "validation") if args.exclude_validation else ("train",)
    )

    if args.perk:
        if not args.calibrator:
            raise ValueError("--perk requires --calibrator")
        cal = load_calibrator(args.calibrator)
        perk_cfg = PerkConfig(
            k_max=cfg["perk.k_max"], utility=cfg["perk.utility"], rest_pool=cfg["perk.rest_pool"]
        )
        # users whose excluded items cover the catalog get no list, as in fixed mode
        users = np.flatnonzero(excluded.sizes() < dataset.num_items)
        cuts = perk_recommend_users(params, cal, excluded, users, perk_cfg)
        with atomic_open(out_path) as fh:
            for cut in cuts:
                fh.write(
                    _jsonl_line(
                        {
                            "user": cut.user,
                            "k_star": cut.k_star,
                            "curve": [float(v) for v in cut.curve],
                            "items": cut.items,
                        }
                    )
                )
        if args.summary:
            _write_perk_summary(args.summary, cuts, dataset, cfg)
        print(f"wrote {len(cuts)} personalized lists to {out_path}")
    else:
        if args.k is None:
            raise ValueError("fixed mode requires --k (or pass --perk)")
        if args.k < 1:
            raise ValueError("--k must be >= 1")
        lists = top_k(params, np.arange(dataset.num_users), args.k, excluded)
        written = 0
        with atomic_open(out_path) as fh:
            for user, row in enumerate(lists):
                items = row[row >= 0]
                if not items.size:
                    continue
                if len(items) < args.k and not args.allow_fewer:
                    raise ValueError(
                        f"user {user} has only {len(items)} candidates for k={args.k}; "
                        "pass --allow-fewer to emit short lists"
                    )
                fh.write(_jsonl_line({"user": user, "items": items.tolist()}))
                written += 1
        print(f"wrote {written} top-{args.k} lists to {out_path}")
    return 0


def _write_perk_summary(path, cuts, dataset, cfg):
    split, utility = cfg["eval.split"], cfg["perk.utility"]
    histogram: dict[int, int] = {}
    for cut in cuts:
        histogram[cut.k_star] = histogram.get(cut.k_star, 0) + 1
    expected = [float(cut.curve[cut.k_star - 1]) for cut in cuts]
    # evaluate raises when no cut's user has held-out items; the summary says null
    realized = None
    if np.any(dataset.split(split).sizes()[[cut.user for cut in cuts]] > 0):
        result = metrics.evaluate(cuts, dataset, split=split, metrics=(utility,))
        realized = result.rows[0].means[utility]
    _write_json(
        path,
        {
            "utility": utility,
            "num_users": len(cuts),
            "mean_k_star": float(np.mean([c.k_star for c in cuts])) if cuts else None,
            "k_star_histogram": {str(k): v for k, v in sorted(histogram.items())},
            "mean_expected_utility_at_k_star": float(np.mean(expected)) if expected else None,
            "mean_realized_utility_at_k_star": realized,
            "realized_split": split,
        },
    )


def cmd_eval(args, cfg) -> int:
    if not args.recs and not args.perk_recs:
        raise ValueError("need --recs and/or --perk-recs")
    dataset, _ = load_bundle(args.data, cfg["data.delimiter"])
    split = cfg["eval.split"]
    ks = cfg["eval.ks"]
    names = cfg["eval.metrics"]

    def check_shapes(lists):
        for u, items in lists.items():
            if not 0 <= u < dataset.num_users:
                raise ValueError(f"recommendation user {u} outside dataset")
            for i in items:
                if not 0 <= i < dataset.num_items:
                    raise ValueError(f"recommended item {i} outside dataset")

    rows = []
    users_evaluated = users_skipped = None
    if args.recs:
        fixed = load_recommendations(args.recs)
        if not isinstance(fixed, dict):
            raise ValueError(f"{args.recs} holds personalized rows; pass it as --perk-recs")
        check_shapes(fixed)
        result = metrics.evaluate(fixed, dataset, split=split, metrics=names, ks=ks)
        rows.extend(result.rows)
        users_evaluated, users_skipped = result.users_evaluated, result.users_skipped
    if args.perk_recs:
        cuts = load_recommendations(args.perk_recs)
        if isinstance(cuts, dict):
            raise ValueError(f"{args.perk_recs} holds fixed rows; pass it as --recs")
        check_shapes({c.user: c.items for c in cuts})
        result = metrics.evaluate(cuts, dataset, split=split, metrics=names, ks=ks)
        rows.extend(result.rows)
        if users_evaluated is None:
            users_evaluated, users_skipped = result.users_evaluated, result.users_skipped

    report = {
        "split": split,
        "users_evaluated": users_evaluated,
        "users_skipped": users_skipped,
        "rows": [row.to_dict() for row in rows],
    }
    _write_json(args.out, report)
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
    p.add_argument("--k", type=int, help="fixed list length")
    p.add_argument("--perk", action="store_true", help="personalized list lengths")
    p.add_argument("--calibrator", help="calibrator JSON (required with --perk)")
    p.add_argument("--summary", help="aggregate summary JSON path (perk mode)")
    p.add_argument(
        "--allow-fewer",
        action="store_true",
        help="permit lists shorter than --k when candidates run out",
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

    if args.write_config_reference:
        Path(args.write_config_reference).write_text(config_reference(), encoding="utf-8")
        return 0
    if args.command is None:
        parser.print_help()
        return 2

    try:
        cfg = load_config(args.config, args.set)
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
