"""Every figure pipeline runs end to end on a small config."""

import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from maxentlab.cli import main
from maxentlab.configio import parse_config
from maxentlab.csvio import read_csv
from maxentlab.errors import DivergenceError, ValidationError
from maxentlab.figures import (
    FIGURE_KINDS,
    run_bounds_verify,
    run_figure,
    run_report,
    run_synth,
    run_train,
)
from maxentlab.manifest import load_manifest
from maxentlab.training import train, train_stack

SMALL = """
[experiment]
regime = fine_grained
train_n = 48
val_n = 120
seeds = 1,2
[mixture]
fixture_seed = 7
[train]
epochs = 6
lr = constant:0.2
[sweep]
gammas = 0,1
noise_fractions = 0,0.5
data_fractions = 0.5,1.0
"""

SMALL_SPECTRUM = """
[experiment]
regime = fine_grained
train_n = 120
val_n = 120
seeds = 1
[mixture]
source = fixture_spectrum
fixture_seed = 7
[train]
epochs = 6
lr = constant:0.2
weight_decay = 0.003
train_feature_map = true
"""


@pytest.fixture
def small_cfg():
    return parse_config(SMALL)


def test_synth_exports_datasets(small_cfg, tmp_path):
    manifest = run_synth(small_cfg, tmp_path / "s", [1])
    man = load_manifest(manifest)
    names = {a["path"] for a in man.artifacts}
    assert {"mixture.txt", "train_seed1.csv", "val_seed1.csv"} <= names


def test_synth_export_memory_stays_below_its_csv(tmp_path):
    # the export streams each CSV in blocks of rows and samples in place, so
    # its peak of traced allocations (numpy's included) is the dataset arrays
    # and one block's text, not the text of the whole file
    cfg = parse_config(SMALL.replace("val_n = 120", "val_n = 16000"))
    tracemalloc.start()
    try:
        run_synth(cfg, tmp_path / "s", [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "s" / "val_seed1.csv").stat().st_size


def test_train_writes_history_and_checkpoints(small_cfg, tmp_path):
    manifest = run_train(small_cfg, tmp_path / "t", [1, 2])
    man = load_manifest(manifest)
    names = {a["path"] for a in man.artifacts}
    assert {"history_seed1.csv", "model_seed1.ckpt", "summary.csv"} <= names
    header, rows = read_csv(tmp_path / "t" / "history_seed1.csv")
    assert header[0] == "epoch" and len(rows) == 7  # epochs + 1


@pytest.mark.parametrize(
    "kind,expect",
    [
        ("pc_scatter", ("pc_scatter_fine.csv", "pc_scatter_large.csv", "pc_summary.csv")),
        ("top_prob_hist", ("top_prob_hist_ce_seed1.csv", "top_prob_means.csv")),
        ("gamma_sweep", ("sweep_seed1.csv", "sweep_medians.csv")),
        ("noise_sweep", ("noise_medians.csv",)),
        ("ce_vs_val", ("history_ce_seed1.csv", "history_maxent_seed1.csv")),
        ("data_fraction_sweep", ("data_fraction_medians.csv",)),
        ("lsr_compare", ("lsr_compare.csv",)),
    ],
)
def test_figure_kinds_produce_artifacts(small_cfg, tmp_path, kind, expect):
    manifest = run_figure(small_cfg, kind, tmp_path / kind, [1, 2])
    names = {a["path"] for a in load_manifest(manifest).artifacts}
    for name in expect:
        assert name in names, (kind, name, names)


def test_spectrum_figure(tmp_path):
    cfg = parse_config(SMALL_SPECTRUM)
    manifest = run_figure(cfg, "spectrum", tmp_path / "spec", [1])
    names = {a["path"] for a in load_manifest(manifest).artifacts}
    assert {
        "spectrum_none_seed1.csv",
        "spectrum_ce_seed1.csv",
        "spectrum_maxent_seed1.csv",
        "spectrum_tails.csv",
    } <= names
    header, rows = read_csv(tmp_path / "spec" / "spectrum_none_seed1.csv")
    assert header == ["rank", "eigenvalue", "log_eigenvalue"]
    assert len(rows) == cfg.dim


SMALL_BOUNDS = SMALL + "\n[bounds]\ntrials = 100\nsample_counts = 100\nentropy_draws = 500\n"


def test_bounds_verify_pipeline(tmp_path):
    cfg = parse_config(SMALL_BOUNDS)
    manifest = run_bounds_verify(cfg, tmp_path / "b", [1])
    names = {a["path"] for a in load_manifest(manifest).artifacts}
    assert {"verify.csv", "bounds_summary.csv", "bounds_summary.txt"} <= names
    header, rows = read_csv(tmp_path / "b" / "verify.csv")
    assert header == ["trial", "theorem", "observed", "bound", "margin", "violated"]
    assert all(row[5] in ("true", "false") for row in rows)
    text = (tmp_path / "b" / "bounds_summary.txt").read_text()
    assert "violation rate" in text and "delta" in text


def test_report_two_regimes_has_delta_verdict(tmp_path):
    fine = parse_config(SMALL)
    large = parse_config(SMALL.replace("regime = fine_grained", "regime = large_scale"))
    m1 = run_figure(fine, "gamma_sweep", tmp_path / "fine", [1, 2])
    m2 = run_figure(large, "gamma_sweep", tmp_path / "large", [1, 2])
    run_report([m1, m2], tmp_path / "rep")
    header, rows = read_csv(tmp_path / "rep" / "deltas.csv")
    assert header == ["regime", "delta_val_acc"]
    assert [r[0] for r in rows] == ["fine_grained", "large_scale"]
    text = (tmp_path / "rep" / "report.txt").read_text()
    assert "fine gain >= large gain:" in text


def _assert_threads_do_not_change_artifacts(cfg, kind, tmp_path):
    arts = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        if kind == "train":
            manifest = run_train(cfg, out, [1, 2], threads=threads)
        else:
            manifest = run_figure(cfg, kind, out, [1, 2], threads=threads)
        arts.append({a["path"]: a["sha256"] for a in load_manifest(manifest).artifacts})
    assert arts[0] == arts[1]


def test_threaded_figure_matches_serial(small_cfg, tmp_path):
    _assert_threads_do_not_change_artifacts(small_cfg, "gamma_sweep", tmp_path)


@pytest.mark.parametrize("kind", [k for k in ("train",) + FIGURE_KINDS if k != "gamma_sweep"])
def test_threaded_pipeline_matches_serial(small_cfg, tmp_path, kind):
    cfg = parse_config(SMALL_SPECTRUM) if kind == "spectrum" else small_cfg
    _assert_threads_do_not_change_artifacts(cfg, kind, tmp_path)


def spy_on_training(monkeypatch, spy):
    """Route the grid's ``train`` and ``train_stack`` calls through ``spy(fn, *args, **kwargs)``."""
    import maxentlab.figures as figures

    for name, fn in (("train", train), ("train_stack", train_stack)):
        monkeypatch.setattr(figures, name, lambda *a, _fn=fn, **k: spy(_fn, *a, **k))


def test_threaded_arms_train_one_at_a_time(small_cfg, tmp_path, monkeypatch):
    calls = train_one_at_a_time(small_cfg, "gamma_sweep", tmp_path, monkeypatch)
    assert calls == ["train"] * 4


def test_threaded_stacks_train_one_at_a_time(tmp_path, monkeypatch):
    calls = train_one_at_a_time(parse_config(SMALL_SPECTRUM), "spectrum", tmp_path, monkeypatch)
    # a seed's two feature-map arms train as one stack
    assert calls == ["train_stack"] * 2


def train_one_at_a_time(cfg, kind, tmp_path, monkeypatch) -> list[str]:
    """The training calls of ``kind`` at seeds 1 and 2 on two threads, checked to take turns."""
    guard = threading.Lock()
    state = {"running": 0, "most": 0, "threads": set(), "calls": []}

    def counting(fn, *args, **kwargs):
        with guard:
            state["running"] += 1
            state["most"] = max(state["most"], state["running"])
            state["threads"].add(threading.get_ident())
            state["calls"].append(fn.__name__)
        try:
            time.sleep(0.01)  # long enough for a second arm to start
            return fn(*args, **kwargs)
        finally:
            with guard:
                state["running"] -= 1

    spy_on_training(monkeypatch, counting)
    run_figure(cfg, kind, tmp_path / "out", [1, 2], threads=2)
    assert state["most"] == 1
    assert len(state["threads"]) == 2 and threading.get_ident() not in state["threads"]
    return state["calls"]


def _assert_threads_do_not_change_bounds(cfg, tmp_path):
    digests = [
        load_manifest(run_bounds_verify(cfg, tmp_path / f"threads{t}", [1], threads=t)).digest()
        for t in (1, 2)
    ]
    assert digests[0] == digests[1]


def test_threaded_bounds_verify_matches_serial(tmp_path):
    cfg = parse_config(SMALL_BOUNDS.replace("sample_counts = 100", "sample_counts = 50,200"))
    _assert_threads_do_not_change_bounds(cfg, tmp_path)


def test_threaded_bounds_verify_matches_serial_on_sliced_products(tmp_path):
    # about 3,000 draws per mixture component, more than the 2,621 columns one
    # logit slice holds at C = 10, rank 10, so every product runs in two slices
    cfg = parse_config(
        SMALL_BOUNDS.replace("entropy_draws = 500", "entropy_draws = 30000")
        .replace("trials = 100", "kinds = weight_norm\ntrials = 100")
    )
    _assert_threads_do_not_change_bounds(cfg, tmp_path)


def test_threaded_spectrum_matches_serial_on_sliced_products(tmp_path):
    # 2,100 validation rows: more than one slice holds of the 16 x 16 feature map
    # (1,024 rows) and of the 10 x 16 logits (1,638 rows), so every validation
    # pass and the feature spectrum run in slices
    cfg = parse_config(SMALL_SPECTRUM.replace("val_n = 120", "val_n = 2100"))
    digests = [
        load_manifest(run_figure(cfg, "spectrum", tmp_path / f"threads{t}", [1], threads=t)).digest()
        for t in (1, 2)
    ]
    assert digests[0] == digests[1]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _artifacts_and_digest(manifest: Path) -> tuple[dict, str]:
    man = load_manifest(manifest, verify=True)
    return {a["path"]: a["sha256"] for a in man.artifacts}, man.digest()


@pytest.mark.parametrize("kind", ("train",) + FIGURE_KINDS)
def test_skipped_val_metrics_are_never_read(tmp_path, monkeypatch, kind):
    # every arm of every pipeline computing its per-epoch validation metrics
    # must change no artifact: only the history pipelines write them
    import maxentlab.figures as figures

    if kind == "spectrum":
        text = (CONFIGS / "spectrum.cfg").read_text()
        text = text.replace("seeds = 1,2,3,4,5,6", "seeds = 1").replace("epochs = 200", "epochs = 4")
        path = tmp_path / "spectrum_short.cfg"
        path.write_text(text)
        cfg = parse_config(path.read_text(), base_dir=tmp_path)
    else:
        cfg = parse_config((CONFIGS / "quick.cfg").read_text(), base_dir=CONFIGS)

    def run(out):
        if kind == "train":
            return run_train(cfg, out, cfg.seeds)
        return run_figure(cfg, kind, out, cfg.seeds)

    normal = _artifacts_and_digest(run(tmp_path / "normal"))
    monkeypatch.setattr(figures, "HISTORY_PIPELINES", frozenset(figures.PIPELINES))
    forced = _artifacts_and_digest(run(tmp_path / "forced"))
    assert normal == forced


@pytest.mark.parametrize("kind", ("train",) + FIGURE_KINDS)
def test_only_history_pipelines_record_val_metrics(small_cfg, tmp_path, monkeypatch, kind):
    seen = []

    def spying(fn, *args, val_metrics, **kwargs):
        out = fn(*args, val_metrics=val_metrics, **kwargs)
        runs = out if fn is train_stack else [out]
        seen.extend((val_metrics, history) for _, history in runs)
        return out

    spy_on_training(monkeypatch, spying)
    cfg = parse_config(SMALL_SPECTRUM) if kind == "spectrum" else small_cfg
    if kind == "train":
        run_train(cfg, tmp_path / kind, [1, 2])
    else:
        run_figure(cfg, kind, tmp_path / kind, [1, 2])
    assert kind == "pc_scatter" or seen
    wanted = kind in ("train", "ce_vs_val")
    for val_metrics, history in seen:
        assert val_metrics is wanted
        for record in history.records:
            if wanted:
                assert np.isfinite([record.val_ce, record.val_accuracy]).all()
            else:
                assert record.val_ce is None and record.val_accuracy is None


def test_arms_outside_the_pipelines_skip_val_metrics(monkeypatch):
    # the acceptance bundle names its arms "fine", "large", "noise", ...
    import maxentlab.figures as figures

    seen = []

    def spying_train(*args, val_metrics, **kwargs):
        seen.append(val_metrics)
        return train(*args, val_metrics=val_metrics, **kwargs)

    monkeypatch.setattr(figures, "train", spying_train)
    cfg = parse_config(SMALL)
    mixture = figures.resolve_mixture(cfg)
    for figure in ("fine", "ce_vs_val"):
        figures.run_arm(mixture, cfg, figure, 1, gamma=0.5)
    assert seen == [False, True]


@pytest.mark.parametrize("kind", ["noise_sweep", "data_fraction_sweep", "lsr_compare"])
@pytest.mark.parametrize("threads", [1, 2])
def test_arms_sharing_datasets_equal_arms_sampling_their_own(
    small_cfg, tmp_path, monkeypatch, kind, threads
):
    # the grid samples each seed's datasets once and every arm at that seed
    # reads them; an arm must train exactly as if it had sampled them itself
    import maxentlab.figures as figures

    run_arm, make_datasets, shared, sampled = figures.run_arm, figures.make_datasets, [], []

    def spying_run_arm(mixture, cfg, *args, **kwargs):
        result = run_arm(mixture, cfg, *args, **kwargs)
        shared.append((mixture, cfg, args, kwargs, result))
        return result

    def spying_make_datasets(mixture, cfg, seed):
        sampled.append(seed)
        return make_datasets(mixture, cfg, seed)

    monkeypatch.setattr(figures, "run_arm", spying_run_arm)
    monkeypatch.setattr(figures, "make_datasets", spying_make_datasets)
    run_figure(small_cfg, kind, tmp_path / kind, [1, 2], threads)
    assert sorted(sampled) == [1, 2]
    assert len(shared) == 2 * len(figures.PIPELINES[kind][0](small_cfg))
    for mixture, cfg, args, kwargs, result in shared:
        alone = run_arm(mixture, cfg, *args, **kwargs)
        assert result.model.weights.tobytes() == alone.model.weights.tobytes()
        assert result.history.records == alone.history.records
        assert result.summary_row() == alone.summary_row()
        histogram = alone.val_report.top_prob_histogram
        assert result.val_report.top_prob_histogram.tolist() == histogram.tolist()
    assert len(sampled) == 2 + len(shared)  # each arm alone sampled its own


# ---------------------------------------------------------------------------
# Stacked arms: a seed's feature-map arms that share their training rows and
# objective train as one stack, with the bits of their solo runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "kind", ["spectrum", "noise_sweep", "data_fraction_sweep", "lsr_compare", "ce_vs_val"]
)
def test_stacked_arms_write_the_bytes_of_solo_arms(tmp_path, monkeypatch, kind, threads):
    import maxentlab.figures as figures

    cfg = parse_config(SMALL.replace("[sweep]", "train_feature_map = true\n[sweep]"))
    stacks = []

    def spying(fn, *args, **kwargs):
        if fn is train_stack:
            stacks.append(len(args[0]))
        return fn(*args, **kwargs)

    spy_on_training(monkeypatch, spying)
    stacked = _artifacts_and_digest(run_figure(cfg, kind, tmp_path / "stacked", [1, 2], threads))
    # noise_sweep stacks its two arms per noise fraction, lsr_compare its ce and
    # maxent arms beside the lone lsr arm, data_fraction_sweep nothing
    per_seed = {"noise_sweep": [2, 2], "data_fraction_sweep": [], "lsr_compare": [2]}
    assert stacks == per_seed.get(kind, [2]) * 2
    monkeypatch.setattr(figures, "_stack_groups", lambda cfg, arms: [[i] for i in range(len(arms))])
    solo = _artifacts_and_digest(run_figure(cfg, kind, tmp_path / "solo", [1, 2], threads))
    assert stacked == solo


@pytest.mark.parametrize("train_feature_map", [False, True])
def test_stack_groups_are_runs_of_consecutive_arms(train_feature_map):
    import maxentlab.figures as figures

    flag = "true" if train_feature_map else "false"
    cfg = parse_config(SMALL.replace("[sweep]", f"train_feature_map = {flag}\n[sweep]"))
    for kind, (arms_at_seed, _) in figures.PIPELINES.items():
        if kind == "spectrum" and not train_feature_map:
            continue  # the spectrum figure rejects an untrained feature map
        arms = [figures.ArmSpec(kind, 1, **arm) for arm in arms_at_seed(cfg)]
        groups = figures._stack_groups(cfg, arms)
        # the groups train in turn, so the first error is that of the first diverging arm
        assert [i for group in groups for i in group] == list(range(len(arms))), kind
        assert all(groups), kind
        if not train_feature_map:
            assert all(len(group) == 1 for group in groups), kind
            continue
        keys = [
            {(arms[i].noise_fraction, arms[i].data_fraction, arms[i].objective) for i in group}
            for group in groups
        ]
        assert all(len(key) == 1 for key in keys), kind
        # arms that could stack are adjacent in every grid, so none trains apart
        assert len(set().union(*keys)) == len(groups), kind


def solo_error(cfg, gamma: float) -> tuple[str, tuple[int, int]]:
    """The error line of the spectrum arm at ``gamma`` trained alone, as the grid reports it."""
    import maxentlab.figures as figures

    mixture = figures.resolve_mixture(cfg)
    with pytest.raises(DivergenceError) as err:
        figures.run_arm(mixture, cfg, "spectrum", 1, gamma=gamma)
    arm = figures.ArmSpec("spectrum", 1, gamma=gamma)
    return f"error: {arm}: {err.value}\n", (err.value.epoch, err.value.batch)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "lr, first",
    [
        # gamma 0 diverges batches after the huge gamma, and comes first in the grid
        ("constant:1e200", 0.0),
        # only the later arm diverges
        ("constant:0.2", sys.float_info.max),
    ],
)
def test_stacked_divergence_is_the_first_arm_solo_error(tmp_path, capsys, lr, first):
    # the first batch's entropy, ln 10, times the largest float overflows the loss
    body = SMALL_SPECTRUM.replace("lr = constant:0.2", f"lr = {lr}")
    path = tmp_path / "spectrum.cfg"
    path.write_text(body + f"gamma = {sys.float_info.max!r}\n")
    cfg = parse_config(path.read_text())
    expected, at = solo_error(cfg, first)
    if first == 0.0:
        _, huge_at = solo_error(cfg, sys.float_info.max)
        assert huge_at == (1, 0) < at
    out = tmp_path / "o"
    assert main(["figure", "spectrum", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize("kind", ["train", *FIGURE_KINDS])
def test_one_validation_row_fails_before_any_feature_map_arm_trains(tmp_path, monkeypatch, kind):
    # each feature-map arm reports its feature spectrum, a covariance of two or more rows
    import maxentlab.figures as figures

    trained = []
    monkeypatch.setattr(figures, "run_arm", lambda *a, **k: trained.append(a))
    monkeypatch.setattr(figures, "train_stack", lambda *a, **k: trained.append(a))
    cfg = parse_config(SMALL_SPECTRUM.replace("val_n = 120", "val_n = 1") + "[sweep]\ngammas = 0,1\n")
    out = tmp_path / "o"
    if kind == "pc_scatter":
        run_figure(cfg, kind, out, [1])  # trains nothing, so needs no spectrum
        return
    with pytest.raises(ValidationError) as err:
        if kind == "train":
            run_train(cfg, out, [1])
        else:
            run_figure(cfg, kind, out, [1])
    assert err.value.field == "experiment.val_n"
    assert trained == [] and not out.exists()
