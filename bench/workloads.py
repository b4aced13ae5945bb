"""The benchmark's workloads: a synthetic data shape and a sequence of CLI stages.

Each stage is one ``calibrec`` subcommand run in process through
``calibrec.cli.main``. Arguments hold ``{placeholders}`` that the harness fills
with paths inside the run's work directory. The config ``seed`` stays at its
default of 0: only the workload seed, which generates the data, varies.

All workloads are closed-loop: one process runs one pipeline at a time.
NOTES.md explains why each workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Shape:
    """Arguments of ``synthetic.low_rank_interactions`` (the seed comes from --seed)."""

    users: int
    items: int
    rank: int
    per_user: int
    noise: float


@dataclass(frozen=True)
class Stage:
    """One CLI invocation."""

    command: str
    args: tuple[str, ...]

    @property
    def label(self) -> str:
        """Per-layer name of the stage; the two recommend modes are told apart."""
        if self.command == "recommend":
            return "recommend_perk" if "--perk" in self.args else "recommend_fixed"
        return self.command

    def argv(self, paths: dict[str, str]) -> list[str]:
        return [self.command] + [arg.format(**paths) for arg in self.args]

    def settings(self) -> list[str]:
        """The ``key=value`` strings passed with ``--set``."""
        return [self.args[n + 1] for n, arg in enumerate(self.args) if arg == "--set"]

    def option(self, name: str) -> str | None:
        """Value of a plain ``--name value`` argument, unformatted."""
        if name in self.args:
            return self.args[self.args.index(name) + 1]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    stages: tuple[Stage, ...]
    # checkpoint base that calibrate, recommend and the log-loss probe read
    model: str = "{model}"

    def tiny(self) -> "Workload":
        """The same stages at the smoke-test shape (60 users x 120 items)."""
        return replace(self, shape=Shape(60, 120, rank=4, per_user=20, noise=0.3))


def _sets(*pairs: str) -> tuple[str, ...]:
    return tuple(part for pair in pairs for part in ("--set", pair))


def _train(*extra: str) -> Stage:
    return Stage("train", ("--data", "{bundle}", "--out", "{model}") + _sets(*extra))


def _calibrate(*extra: str) -> Stage:
    return Stage(
        "calibrate", ("--data", "{bundle}", "--ckpt", "{model}", "--out", "{calib}") + _sets(*extra)
    )


def _perk(*extra: str) -> Stage:
    return Stage(
        "recommend",
        ("--data", "{bundle}", "--ckpt", "{model}", "--out", "{perk}", "--perk",
         "--calibrator", "{calib}/calibrator.json", "--summary", "{perk_summary}")
        + _sets(*extra),
    )


def _eval(*recs: str) -> Stage:
    return Stage("eval", ("--data", "{bundle}") + recs + ("--out", "{report}"))


INGEST = Stage("ingest", ("--input", "{csv}", "--out", "{bundle}"))
FIXED_20 = Stage(
    "recommend", ("--data", "{bundle}", "--ckpt", "{model}", "--out", "{fixed}", "--k", "20")
)

S = Shape(900, 1400, rank=8, per_user=90, noise=0.3)

PIPELINE_S = Workload(
    name="pipeline-s",
    shape=S,
    stages=(
        INGEST,
        # the c10 acceptance config (lr 0.1, 6 epochs) leaves the model near
        # random: recall@20 about 0.05 against 0.64 with this one
        _train("train.epochs=10", "train.dim=32", "train.lr=20", "train.batch_size=256"),
        _calibrate("calib.kind=platt"),
        FIXED_20,
        _perk("perk.utility=f1", "perk.k_max=50", "perk.rest_pool=300"),
        _eval("--recs", "{fixed}", "--perk-recs", "{perk}"),
    ),
)

CATALOG_L = Workload(
    name="catalog-l",
    # half the MovieLens-1M user count keeps a run near 40 s; per-user work
    # (top-K over the catalog, calibration samples) is that of the full shape
    shape=Shape(3000, 3700, rank=8, per_user=160, noise=0.3),
    stages=(
        INGEST,
        # lr 20 leaves one or two epochs near random here (recall@20 0.02)
        _train("train.epochs=2", "train.dim=32", "train.lr=40", "train.batch_size=256"),
        _calibrate("calib.kind=histogram"),
        FIXED_20,
        _eval("--recs", "{fixed}"),
    ),
)

COTRAIN_S = Workload(
    name="cotrain-s",
    shape=S,
    model="{distill}/student",
    stages=(
        INGEST,
        Stage(
            "distill",
            ("--data", "{bundle}", "--out", "{distill}")
            + _sets("bd.epochs=1", "train.lr=20", "train.batch_size=256"),
        ),
        _calibrate("calib.kind=gaussian", "calib.unbiased=true"),
        FIXED_20,
        # the ndcg curve costs about k_max^3 fold steps per user: 12 keeps the
        # stage near 7 s where 20 takes about 25 s
        _perk("perk.utility=ndcg", "perk.k_max=12", "perk.rest_pool=100"),
        _eval("--recs", "{fixed}", "--perk-recs", "{perk}"),
    ),
)

WORKLOADS = {w.name: w for w in (PIPELINE_S, CATALOG_L, COTRAIN_S)}
