"""Experiment pipelines behind the CLI: synth, train, figures, bounds, report.

``train`` and every figure kind are one declarative grid of training arms.
``PIPELINES`` maps each to the arms it trains per seed and to a reducer that
writes its plot-ready CSVs. One runner serves them all: it expands the seeds
into ``ArmSpec``s, resolves the mixture once, trains every arm (seeds
optionally thread-parallel, with one arm or stack training at a time;
results are collected in grid order, so thread count never changes output),
calls the reducer, and writes a normalized ``summary.csv`` with one row per
arm, which is what ``report`` merges across runs. A seed's consecutive arms
that train a feature map and share their training rows and objective train
as one stack through ``training.train_stack``, each with the bits of its
solo run; every other arm trains alone through ``run_arm``, so the
benchmark harness, which counts ``run_arm`` and ``train`` calls, still sees
one of each per arm (see ROADMAP item 1). Diverging arms fail the run with
the error of the first of them in grid order, as if the arms had trained one
after the other.
``pc_scatter`` trains nothing: its grid is empty. Every pipeline writes through an ArtifactSession
and finishes with a manifest. Only the arms of ``HISTORY_PIPELINES`` record
validation CE and accuracy at every epoch; every other arm only checks its
validation logits for divergence there and is evaluated once, when trained.

Dataset streams are fixed functions of the run seed: train and validation
sets use distinct derived seeds, and label corruption has its own stream, so
any two arms at the same seed see identical data. The runner therefore
samples the train and validation sets once per seed and trains that seed's
arms in turn on the same read-only pair; label noise and data fractions make
an arm its own copy. Only the seeds in flight hold datasets.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._streams import _parallel
from .bounds import (
    BOUNDS_SUMMARY_CSV_HEADER,
    VERIFY_CSV_HEADER,
    uniform_model_sampler,
    verify_bounds,
)
from .checkpoint import save_checkpoint
from .configio import ExperimentConfig, resolve_mixture, serialize_config, serialize_mixture
from .core import LinearSoftmaxModel
from .csvio import csv_text, read_csv
from .datasets import LabeledDataset, dataset_csv_chunks
from .diversity import (
    DiversityReport,
    empirical_diversity,
    spectrum_csv_rows,
    spectrum_tail_mass,
    top_principal_components,
)
from .errors import DivergenceError, ManifestError, ValidationError
from .fixtures import make_regime_fixtures
from .manifest import ArtifactSession, load_manifest
from .mixtures import GaussianMixture, sample
from .training import (
    HISTORY_CSV_HEADER,
    EvalReport,
    TrainHistory,
    TrainConfig,
    evaluate,
    init_model,
    inject_label_noise,
    train,
    train_stack,
)

SUMMARY_CSV_NAME = "summary.csv"
SUMMARY_CSV_HEADER = (
    "regime,figure,objective,gamma,epsilon,noise_fraction,data_fraction,seed,"
    "val_acc,val_ce,val_entropy,train_ce,train_entropy,top_prob_mean,w_l2,tail_mass"
)
SWEEP_CSV_HEADER = "gamma,val_acc,val_entropy,w_l2"

# Held by ``run_arm`` while it trains an arm, and by ``_train_group`` while it
# trains a stack. SGD on small batches spends its time in the interpreter, so
# two arms cannot train at once under the GIL. When they try from threads on
# two cores, every short numpy call that drops the GIL wakes the other thread
# on the other core: figure spectrum at --threads 2 made about 110,000 such
# switches a run, took about a quarter more CPU time and a wall time that
# followed the host's scheduling. Taking turns, a seed's sampling and an
# arm's evaluation and feature spectrum still overlap another seed's
# training. A stack gets its speed from sharing each step's interpreter
# calls among its arms, not from threads.
_TRAINING = threading.Lock()

# (mixture, cfg, seed, datasets) of the seed whose arms ``_train_seed`` is
# training on this thread; ``run_arm`` takes those datasets instead of
# sampling the same ones again, so the grid still trains each arm through
# the public ``run_arm`` and its signature.
_SEED_DATASETS: ContextVar[tuple | None] = ContextVar("seed_datasets", default=None)


def train_dataset_seed(seed: int) -> int:
    return seed * 1000 + 1


def val_dataset_seed(seed: int) -> int:
    return seed * 1000 + 2


def noise_seed(seed: int) -> int:
    return seed * 77 + 5


@dataclass(frozen=True)
class ArmSpec:
    """One training run of a pipeline; its fields are ``run_arm``'s arguments."""

    figure: str
    seed: int
    objective: str = "maxent"
    gamma: float | None = None
    noise_fraction: float = 0.0
    data_fraction: float = 1.0


@dataclass(eq=False)
class ArmResult:
    regime: str
    figure: str
    objective: str
    gamma: float
    epsilon: float | None
    noise_fraction: float
    data_fraction: float
    seed: int
    history: TrainHistory
    model: object
    val_report: EvalReport
    tail_mass: float | None = None
    # validation-set spectrum of the learned features, when a feature map is trained
    spectrum: DiversityReport | None = None

    def summary_row(self) -> tuple:
        return (
            self.regime,
            self.figure,
            self.objective,
            self.gamma,
            self.epsilon,
            self.noise_fraction,
            self.data_fraction,
            self.seed,
            self.val_report.accuracy,
            self.val_report.mean_ce,
            self.val_report.mean_entropy,
            self.history.final.train_ce,
            self.history.final.train_entropy,
            self.val_report.top_prob_mean,
            self.model.w_l2(),
            self.tail_mass,
        )


def make_datasets(
    mixture: GaussianMixture, cfg: ExperimentConfig, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    tr = sample(mixture, cfg.train_n, seed=train_dataset_seed(seed))
    va = sample(mixture, cfg.val_n, seed=val_dataset_seed(seed))
    return tr, va


def run_arm(
    mixture: GaussianMixture,
    cfg: ExperimentConfig,
    figure: str,
    seed: int,
    objective: str = "maxent",
    gamma: float | None = None,
    noise_fraction: float = 0.0,
    data_fraction: float = 1.0,
) -> ArmResult:
    """One training run; all arms at a given seed share datasets.

    Inside the grid runner's ``_train_seed`` for this mixture, config and
    seed, the arm reads the datasets sampled there; elsewhere it samples them.
    """
    arm = ArmSpec(figure, seed, objective, gamma, noise_fraction, data_fraction)
    shared = _SEED_DATASETS.get()
    if shared is not None and shared[0] is mixture and shared[1] is cfg and shared[2] == seed:
        datasets = shared[3]
    else:
        datasets = make_datasets(mixture, cfg, seed)
    tr, va, run_cfg, model0 = _arm_inputs(mixture, cfg, arm, datasets)
    with _TRAINING:
        trained, history = train(model0, tr, va, run_cfg, val_metrics=figure in HISTORY_PIPELINES)
    return _arm_result(mixture, cfg, arm, run_cfg, va, trained, history)


def _arm_inputs(
    mixture: GaussianMixture,
    cfg: ExperimentConfig,
    arm: ArmSpec,
    datasets: tuple[LabeledDataset, LabeledDataset],
) -> tuple[LabeledDataset, LabeledDataset, TrainConfig, LinearSoftmaxModel]:
    """(train set, validation set, train config, initial model) of an arm on its seed's datasets."""
    tr, va = datasets
    if arm.noise_fraction > 0:
        tr = inject_label_noise(tr, arm.noise_fraction, seed=noise_seed(arm.seed))
    if arm.data_fraction < 1.0:
        tr = tr.subset(np.arange(int(np.floor(arm.data_fraction * tr.size))))
    tc = cfg.train
    gamma = tc.gamma if arm.gamma is None else float(arm.gamma)
    run_cfg = dataclasses.replace(tc, objective=arm.objective, gamma=gamma, seed=arm.seed)
    model0 = init_model(
        mixture.count,
        mixture.dim,
        mixture.dim,
        run_cfg.init_scale,
        arm.seed,
        with_feature_map=run_cfg.train_feature_map,
    )
    return tr, va, run_cfg, model0


def _arm_result(
    mixture: GaussianMixture,
    cfg: ExperimentConfig,
    arm: ArmSpec,
    run_cfg: TrainConfig,
    va: LabeledDataset,
    trained: LinearSoftmaxModel,
    history: TrainHistory,
) -> ArmResult:
    """An arm's result: its trained model evaluated, with its feature spectrum when it has a map."""
    report = evaluate(trained, va)
    spectrum = tail = None
    if trained.feature_map is not None:
        spectrum = empirical_diversity(trained.transform(va.features))
        tail = spectrum_tail_mass(spectrum, max(1, mixture.dim // 4))
    objective, gamma = arm.objective, run_cfg.gamma
    return ArmResult(
        regime=cfg.regime,
        figure=arm.figure,
        objective=objective if objective != "maxent" or gamma > 0 else "ce",
        gamma=gamma if objective == "maxent" else 0.0,
        epsilon=run_cfg.lsr_epsilon if objective == "lsr" else None,
        noise_fraction=arm.noise_fraction,
        data_fraction=arm.data_fraction,
        seed=arm.seed,
        history=history,
        model=trained,
        val_report=report,
        tail_mass=tail,
        spectrum=spectrum,
    )


def _open_session(cfg: ExperimentConfig, out_dir: Path, command: str) -> ArtifactSession:
    return ArtifactSession(out_dir, command, serialize_config(cfg), __version__)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


# ---------------------------------------------------------------------------
# The arm grid: per pipeline, the arms it trains at each seed and a reducer
# that writes its CSVs from the trained arms
# ---------------------------------------------------------------------------


def _accuracy(arms) -> float:
    return _median([r.val_report.accuracy for r in arms])


def _reduce_train(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    session.write_text("mixture.txt", serialize_mixture(mixture))
    for res in results:
        history = csv_text(HISTORY_CSV_HEADER, res.history.csv_rows())
        session.write_text(f"history_seed{res.seed}.csv", history)
        save_checkpoint(res.model, session.path(f"model_seed{res.seed}.ckpt"))


def _reduce_pc_scatter(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    """Top-2 principal components of both regimes in one shared basis."""
    fine, large = make_regime_fixtures(cfg.fixture_seed, cfg.dim, cfg.components)
    fine_ds = sample(fine, cfg.val_n, seed=val_dataset_seed(seeds[0]))
    large_ds = sample(large, cfg.val_n, seed=val_dataset_seed(seeds[0]) + 1)
    pooled = np.vstack([fine_ds.features, large_ds.features])
    projected, ratios = top_principal_components(pooled, 2)
    split = fine_ds.size
    stats_rows = []
    for regime, name, block, labels in (
        ("fine_grained", "pc_scatter_fine.csv", projected[:split], fine_ds.labels),
        ("large_scale", "pc_scatter_large.csv", projected[split:], large_ds.labels),
    ):
        rows = [(float(p[0]), float(p[1]), int(lab)) for p, lab in zip(block, labels)]
        session.write_text(name, csv_text("pc1,pc2,label", rows))
        plane_var = float(block.var(axis=0).sum())
        stats_rows.append((regime, plane_var, float(ratios[0]), float(ratios[1])))
    session.write_text(
        "pc_summary.csv", csv_text("regime,plane_variance,ratio_pc1,ratio_pc2", stats_rows)
    )


def _reduce_spectrum(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    """Eigenvalue spectra of learned features: untrained vs gamma=0 vs gamma=1."""
    session.write_text("mixture.txt", serialize_mixture(mixture))
    k = max(1, mixture.dim // 4)
    spectra = []
    for seed in seeds:
        rep = empirical_diversity(sample(mixture, cfg.val_n, seed=val_dataset_seed(seed)).features)
        spectra.append(("none", seed, rep, spectrum_tail_mass(rep, k)))
    spectra += [(r.objective, r.seed, r.spectrum, r.tail_mass) for r in results]
    tails: dict[str, list[float]] = {"none": [], "ce": [], "maxent": []}
    for label, seed, rep, tail in spectra:
        session.write_text(
            f"spectrum_{label}_seed{seed}.csv",
            csv_text("rank,eigenvalue,log_eigenvalue", spectrum_csv_rows(rep)),
        )
        tails[label].append(tail)
    rows = [(arm, k, _median(values)) for arm, values in tails.items() if values]
    session.write_text("spectrum_tails.csv", csv_text("arm,k,median_tail_mass", rows))


def _reduce_top_prob_hist(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    edges = np.linspace(0.0, 1.0, 21)
    for res in results:
        counts = res.val_report.top_prob_histogram
        rows = [(float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(counts)]
        session.write_text(
            f"top_prob_hist_{res.objective}_seed{res.seed}.csv", csv_text("bin_lo,bin_hi,count", rows)
        )
    med = [
        (label, _median([r.val_report.top_prob_mean for r in results if r.objective == label]))
        for label in ("ce", "maxent")
    ]
    session.write_text("top_prob_means.csv", csv_text("arm,median_top_prob_mean", med))


def _reduce_gamma_sweep(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    def row(gamma: float, arms: list[ArmResult]) -> tuple:
        entropy = _median([r.val_report.mean_entropy for r in arms])
        return (gamma, _accuracy(arms), entropy, _median([r.model.w_l2() for r in arms]))

    for seed in dict.fromkeys(seeds):
        rows = [row(r.gamma, [r]) for r in results if r.seed == seed]
        session.write_text(f"sweep_seed{seed}.csv", csv_text(SWEEP_CSV_HEADER, rows))
    medians = [row(g, [r for r in results if r.gamma == g]) for g in cfg.gammas]
    session.write_text("sweep_medians.csv", csv_text(SWEEP_CSV_HEADER, medians))


def _reduce_noise_sweep(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    rows = [
        (f, g, _accuracy([r for r in results if r.noise_fraction == f and r.gamma == g]))
        for f in cfg.noise_fractions
        for g in (0.0, cfg.train.gamma)
    ]
    session.write_text("noise_medians.csv", csv_text("noise_fraction,gamma,median_val_acc", rows))


def _reduce_ce_vs_val(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    for res in results:
        history = csv_text(HISTORY_CSV_HEADER, res.history.csv_rows())
        session.write_text(f"history_{res.objective}_seed{res.seed}.csv", history)


def _reduce_data_fraction_sweep(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    fracs = cfg.data_fractions
    rows = [(f, _accuracy([r for r in results if r.data_fraction == f])) for f in fracs]
    session.write_text("data_fraction_medians.csv", csv_text("data_fraction,median_val_acc", rows))


def _reduce_lsr_compare(cfg, session: ArtifactSession, seeds, mixture, results) -> None:
    labels = ("ce", "maxent", "lsr")
    acc = {label: _accuracy([r for r in results if r.objective == label]) for label in labels}
    rows = [(label, acc[label], acc[label] - acc["ce"]) for label in labels]
    session.write_text("lsr_compare.csv", csv_text("objective,median_val_acc,gain_over_ce", rows))


def _two_gammas(cfg: ExperimentConfig) -> list[dict]:
    """A plain cross-entropy arm and a max-entropy arm at ``[train] gamma``."""
    if cfg.train.gamma == 0.0:
        # both arms would be gamma = 0: the same run under the same artifact names
        raise ValidationError(
            "this figure compares gamma = 0 with train.gamma, which must be > 0",
            field="train.gamma",
        )
    return [dict(gamma=0.0), dict(gamma=cfg.train.gamma)]


def _spectrum_arms(cfg: ExperimentConfig) -> list[dict]:
    if not cfg.train.train_feature_map:
        raise ValidationError(
            "spectrum figure requires train.train_feature_map = true",
            field="train.train_feature_map",
        )
    return _two_gammas(cfg)


# pipeline -> (its arms at one seed, as ArmSpec fields; its reducer)
PIPELINES = {
    "train": (lambda c: [dict(objective=c.train.objective, gamma=c.train.gamma)], _reduce_train),
    "pc_scatter": (lambda c: [], _reduce_pc_scatter),
    "spectrum": (_spectrum_arms, _reduce_spectrum),
    "top_prob_hist": (_two_gammas, _reduce_top_prob_hist),
    "gamma_sweep": (lambda c: [dict(gamma=g) for g in c.gammas], _reduce_gamma_sweep),
    "noise_sweep": (
        lambda c: [dict(arm, noise_fraction=f) for f in c.noise_fractions for arm in _two_gammas(c)],
        _reduce_noise_sweep,
    ),
    "ce_vs_val": (_two_gammas, _reduce_ce_vs_val),
    "data_fraction_sweep": (
        lambda c: [dict(gamma=c.train.gamma, data_fraction=f) for f in c.data_fractions],
        _reduce_data_fraction_sweep,
    ),
    "lsr_compare": (
        lambda c: _two_gammas(c) + [dict(objective="lsr", gamma=c.train.gamma)],
        _reduce_lsr_compare,
    ),
}

FIGURE_KINDS = tuple(kind for kind in PIPELINES if kind != "train")

# The pipelines whose reducers write per-epoch validation CE and accuracy (the
# history CSVs). Arms of any other figure, the acceptance bundle's among them,
# train with ``val_metrics=False``: their records only check the validation
# logits for divergence, and no artifact reads the skipped fields.
HISTORY_PIPELINES = frozenset({"train", "ce_vs_val"})


def _stack_groups(cfg: ExperimentConfig, arms: list[ArmSpec]) -> list[list[int]]:
    """Runs of consecutive grid indices of a seed's arms that train together.

    Consecutive arms that train a feature map and share their training rows
    and objective (so their train configs differ in gamma alone) form one
    stack; every other arm is a group of one.
    """
    if not cfg.train.train_feature_map:
        return [[i] for i in range(len(arms))]

    def key(i: int) -> tuple:
        return arms[i].noise_fraction, arms[i].data_fraction, arms[i].objective

    return [list(group) for _, group in itertools.groupby(range(len(arms)), key)]


def _train_group(
    mixture: GaussianMixture,
    cfg: ExperimentConfig,
    arms: list[ArmSpec],
    datasets: tuple[LabeledDataset, LabeledDataset],
) -> list[ArmResult]:
    """Train one group of ``_stack_groups``: a lone arm through ``run_arm``, more as one stack.

    A DivergenceError's ``arm`` is the index of the diverged arm in ``arms``.
    """
    if len(arms) == 1:
        return [run_arm(mixture, cfg, **dataclasses.asdict(arms[0]))]
    train_sets, val_sets, run_cfgs, models = zip(
        *(_arm_inputs(mixture, cfg, arm, datasets) for arm in arms)
    )
    # the arms share their training rows, and every arm its seed's validation set
    tr, va = train_sets[0], val_sets[0]
    with _TRAINING:
        trained = train_stack(
            list(models), tr, va, list(run_cfgs), val_metrics=arms[0].figure in HISTORY_PIPELINES
        )
    return [
        _arm_result(mixture, cfg, arm, run_cfg, va, model, history)
        for arm, run_cfg, (model, history) in zip(arms, run_cfgs, trained)
    ]


def _train_seed(
    mixture: GaussianMixture, cfg: ExperimentConfig, arms: list[ArmSpec]
) -> list[ArmResult]:
    """Train the arms of one seed on one read-only sample of its datasets; results in grid order.

    The groups train in grid order, so a diverging run fails with the error
    of its first diverging arm, as if the arms had trained one after the other.
    """
    seed = arms[0].seed
    datasets = make_datasets(mixture, cfg, seed)
    for ds in datasets:
        # an arm that wrote into them would change the data of the arms after it
        for array in (ds.features, ds.labels, ds.noise_mask):
            array.flags.writeable = False
    results: list[ArmResult] = []
    token = _SEED_DATASETS.set((mixture, cfg, seed, datasets))
    try:
        for group in _stack_groups(cfg, arms):
            try:
                results += _train_group(mixture, cfg, [arms[i] for i in group], datasets)
            except DivergenceError as err:
                arm = arms[group[err.arm]]
                raise DivergenceError(f"{arm}: {err}", epoch=err.epoch, batch=err.batch) from err
    finally:
        _SEED_DATASETS.reset(token)
    return results


def _run_grid(cfg: ExperimentConfig, kind: str, command: str, out_dir: Path, seeds, threads):
    """Train ``kind``'s arm grid, reduce it to CSVs, write summary.csv and the manifest."""
    seeds = list(seeds)
    arms_at_seed, reduce = PIPELINES[kind]
    per_seed = arms_at_seed(cfg)
    # an arm with a feature map reports the spectrum of its validation features,
    # a covariance that needs two rows: fail before the first arm trains
    if per_seed and cfg.train.train_feature_map and cfg.val_n < 2:
        raise ValidationError(
            f"experiment.val_n must be >= 2 when train.train_feature_map = true"
            f" (the feature spectrum needs two rows), got {cfg.val_n}",
            field="experiment.val_n",
        )
    grid = [[ArmSpec(kind, seed, **arm) for arm in per_seed] for seed in seeds]
    with _open_session(cfg, out_dir, command) as session:
        mixture, results = None, []
        if per_seed:
            mixture = resolve_mixture(cfg)
            tasks = [lambda a=arms: _train_seed(mixture, cfg, a) for arms in grid]
            results = [res for seed_results in _parallel(tasks, threads) for res in seed_results]
            session.mark_stage("train")
        reduce(cfg, session, seeds, mixture, results)
        rows = [r.summary_row() for r in results]
        session.write_text(SUMMARY_CSV_NAME, csv_text(SUMMARY_CSV_HEADER, rows))
        session.mark_stage("write")
        return session.finish()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run_synth(cfg: ExperimentConfig, out_dir: Path, seeds, threads: int = 1) -> Path:
    mixture = resolve_mixture(cfg)
    with _open_session(cfg, out_dir, "synth") as session:
        session.write_text("mixture.txt", serialize_mixture(mixture))
        for seed in seeds:
            tr, va = make_datasets(mixture, cfg, seed)
            session.write_text(f"train_seed{seed}.csv", dataset_csv_chunks(tr))
            session.write_text(f"val_seed{seed}.csv", dataset_csv_chunks(va))
        session.mark_stage("synth")
        return session.finish()


def run_train(cfg: ExperimentConfig, out_dir: Path, seeds, threads: int = 1) -> Path:
    return _run_grid(cfg, "train", "train", out_dir, seeds, threads)


def run_figure(cfg: ExperimentConfig, kind: str, out_dir: Path, seeds, threads: int = 1) -> Path:
    if kind not in FIGURE_KINDS:
        raise ValidationError(f"unknown figure kind {kind!r}", field="figure")
    return _run_grid(cfg, kind, f"figure {kind}", out_dir, seeds, threads)


def _bound_jobs(cfg: ExperimentConfig) -> list[tuple[str, int]]:
    """A bounds run's (kind, N) jobs in config order; weight_norm runs at the first N only."""
    counts = cfg.bounds_sample_counts
    return [
        (kind, n)
        for kind in cfg.bounds_kinds
        for n in (counts[:1] if kind == "weight_norm" else counts)
    ]


def run_bounds_verify(cfg: ExperimentConfig, out_dir: Path, seeds, threads: int = 1) -> Path:
    """Verify each bound kind at each sample count at the first seed only.

    All jobs share one pass over the trials (``verify_bounds``); ``threads``
    runs its shares of trials.
    """
    mixture = resolve_mixture(cfg)
    with _open_session(cfg, out_dir, "bounds verify") as session:
        session.write_text("mixture.txt", serialize_mixture(mixture))
        sampler = uniform_model_sampler(mixture.count, mixture.dim, cfg.bounds_scales)
        summaries = verify_bounds(
            _bound_jobs(cfg),
            mixture,
            sampler,
            delta=cfg.delta,
            trials=cfg.bounds_trials,
            seed=seeds[0],
            entropy_draws=cfg.bounds_entropy_draws,
            threads=threads,
        )
        session.mark_stage("verify")
        verify_rows = [row.csv_row() for summary in summaries for row in summary.rows]
        session.write_text("verify.csv", csv_text(VERIFY_CSV_HEADER, verify_rows))
        summary_rows = [summary.csv_row() for summary in summaries]
        session.write_text("bounds_summary.csv", csv_text(BOUNDS_SUMMARY_CSV_HEADER, summary_rows))
        session.write_text("bounds_summary.txt", "".join(summary.text() for summary in summaries))
        session.mark_stage("write")
        return session.finish()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def run_report(manifest_paths, out_dir: Path) -> Path:
    """Merge training summaries from verified manifests into one report."""
    manifests = []
    seen = set()
    for p in manifest_paths:
        man = load_manifest(Path(p), verify=True)
        digest = man.digest()
        if digest in seen:
            continue
        seen.add(digest)
        manifests.append((Path(p).parent, man))
    if not manifests:
        raise ManifestError("no manifests given")

    columns = SUMMARY_CSV_HEADER.split(",")
    rows, accs = [], []
    for base, man in manifests:
        names = {a["path"] for a in man.artifacts}
        if SUMMARY_CSV_NAME not in names:
            continue
        path = base / SUMMARY_CSV_NAME
        header, raw = read_csv(path)
        if header != columns:
            raise ManifestError(f"{base}: unexpected summary header")
        for line, row in enumerate(raw, start=2):
            if len(row) != len(columns):
                raise ManifestError(f"{path}: line {line} has {len(row)} cells, not {len(columns)}")
            cell = row[columns.index("val_acc")]
            try:
                accs.append(float(cell))
            except ValueError:
                msg = f"{path}: line {line}: val_acc {cell!r} is not a number"
                raise ManifestError(msg) from None
        rows.extend(raw)
    if not rows:
        raise ManifestError("no summary rows found in the given manifests")

    with ArtifactSession(out_dir, "report", "", __version__) as session:
        session.write_text(SUMMARY_CSV_NAME, csv_text(SUMMARY_CSV_HEADER, rows))

        def col(row, name):
            return row[columns.index(name)]

        groups: dict[tuple, list[float]] = {}
        for row, acc in zip(rows, accs):
            key = (col(row, "regime"), col(row, "objective"), col(row, "gamma"))
            if col(row, "noise_fraction") not in ("0.0", "0", "") or col(row, "data_fraction") not in ("1.0", "1", ""):
                continue
            groups.setdefault(key, []).append(acc)
        agg_rows = [
            (k[0], k[1], k[2], len(v), _median(v), float(np.min(v)), float(np.max(v)))
            for k, v in sorted(groups.items())
        ]
        session.write_text(
            "report.csv",
            csv_text("regime,objective,gamma,runs,median_val_acc,min_val_acc,max_val_acc", agg_rows),
        )

        deltas = {}
        for regime in ("fine_grained", "large_scale"):
            base_accs = [v for k, v in groups.items() if k[0] == regime and k[1] == "ce"]
            maxent_accs = [v for k, v in groups.items() if k[0] == regime and k[1] == "maxent"]
            if base_accs and maxent_accs:
                deltas[regime] = _median(sum(maxent_accs, [])) - _median(sum(base_accs, []))
        lines = ["regime, objective, gamma, runs, median val acc"]
        for row in agg_rows:
            lines.append(f"{row[0]:>13} {row[1]:>7} gamma={row[2]:>4} n={row[3]:>2} acc={row[4]:.4f}")
        delta_rows = [(regime, delta) for regime, delta in sorted(deltas.items())]
        if delta_rows:
            session.write_text("deltas.csv", csv_text("regime,delta_val_acc", delta_rows))
            for regime, delta in delta_rows:
                lines.append(f"delta({regime}) = {delta:+.4f}")
            if "fine_grained" in deltas and "large_scale" in deltas:
                ok = deltas["fine_grained"] >= deltas["large_scale"]
                lines.append(f"fine gain >= large gain: {'pass' if ok else 'fail'}")
        session.write_text("report.txt", "\n".join(lines) + "\n")
        return session.finish()
