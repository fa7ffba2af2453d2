"""CLI surface, artifact sessions, manifests, and the report merge."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxentlab.cli import main
from maxentlab.configio import parse_config
from maxentlab.csvio import csv_text, format_cell, read_csv
from maxentlab.errors import IoError, ManifestError
from maxentlab.figures import run_train
from maxentlab.manifest import ArtifactSession, load_manifest, sha256_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

QUICK = """
[experiment]
train_n = 48
val_n = 100
seeds = 1
[mixture]
fixture_seed = 7
[train]
epochs = 5
lr = constant:0.2
[sweep]
gammas = 0,1
"""

OVERFLOWING_SCALE = (
    "[bounds]\nkinds = weight_norm\ntrials = 100\nsample_counts = 10\n"
    "entropy_draws = 1000\nscales = 1e300\n"
)


# every kind of value csv_text formats
CSV_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.floats().map(np.float64),
    st.text(st.characters(exclude_characters=",\n", codec="utf-8")),
)


@pytest.fixture
def quick_cfg_path(tmp_path):
    p = tmp_path / "quick.cfg"
    p.write_text(QUICK)
    return p


class TestCsvIo:
    def test_format_cells(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "true"
        assert format_cell(np.int64(3)) == "3"
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(2.5)) == "2.5"

    def test_rejects_commas(self):
        with pytest.raises(IoError):
            format_cell("a,b")

    def test_header_width_enforced(self):
        with pytest.raises(IoError):
            csv_text("a,b", [(1, 2, 3)])

    def test_lf_endings(self, tmp_path):
        session = ArtifactSession(tmp_path, "test", "", "0")
        p = session.write_text("t.csv", csv_text("a,b", [(1, 2)]))
        assert p.read_bytes() == b"a,b\n1,2\n"
        header, rows = read_csv(p)
        assert header == ["a", "b"] and rows == [["1", "2"]]

    @given(
        table=st.integers(1, 4).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(st.lists(CSV_CELLS, min_size=width, max_size=width), max_size=5),
            )
        )
    )
    @example(table=(1, [[None]]))  # a row that is one empty cell
    @example(table=(2, [["x\ry", 1.5]]))  # only LF ends a line
    @settings(max_examples=100, deadline=None)
    def test_csv_round_trip_returns_each_formatted_cell(self, tmp_path_factory, table):
        width, rows = table
        header = ",".join(f"c{i}" for i in range(width))
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        path.write_bytes(csv_text(header, rows).encode("utf-8"))
        read_header, read_rows = read_csv(path)
        assert read_header == header.split(",")
        assert read_rows == [[format_cell(v) for v in row] for row in rows]


class TestArtifactSession:
    def test_abort_removes_files(self, tmp_path):
        out = tmp_path / "run"
        session = ArtifactSession(out, "test", "", "0")
        session.write_text("a.csv", "x\n")
        session.abort()
        assert not out.exists()

    def test_finish_writes_verifiable_manifest(self, tmp_path):
        out = tmp_path / "run"
        session = ArtifactSession(out, "test", "cfg", "0")
        session.write_text("a.csv", "x\n")
        session.mark_stage("write")
        manifest_path = session.finish()
        man = load_manifest(manifest_path)
        assert man.command == "test"
        assert [a["path"] for a in man.artifacts] == ["a.csv"]

    def test_tampered_artifact_fails_verification(self, tmp_path):
        out = tmp_path / "run"
        session = ArtifactSession(out, "test", "", "0")
        session.write_text("a.csv", "x\n")
        manifest_path = session.finish()
        (out / "a.csv").write_text("tampered\n")
        with pytest.raises(ManifestError):
            load_manifest(manifest_path)

    def test_name_created_twice_is_refused(self, tmp_path):
        session = ArtifactSession(tmp_path / "run", "test", "", "0")
        first = session.write_text("a.csv", "x\n")
        with pytest.raises(ManifestError):
            session.write_text("a.csv", "y\n")
        assert first.read_text() == "x\n"

    def test_missing_artifact_fails_verification(self, tmp_path):
        out = tmp_path / "run"
        session = ArtifactSession(out, "test", "", "0")
        session.write_text("a.csv", "x\n")
        manifest_path = session.finish()
        (out / "a.csv").unlink()
        with pytest.raises(ManifestError):
            load_manifest(manifest_path)


    def test_chunks_write_the_bytes_of_their_join(self, tmp_path):
        chunks = ["label,f0\n", "", "1,0.5\n2,-1e-300\n", "3,\u00e9\n"]
        by_chunks = ArtifactSession(tmp_path / "chunks", "test", "", "0")
        by_chunks.write_text("a.csv", iter(chunks))
        joined = ArtifactSession(tmp_path / "joined", "test", "", "0")
        joined.write_text("a.csv", "".join(chunks))
        [left] = load_manifest(by_chunks.finish()).artifacts
        [right] = load_manifest(joined.finish()).artifacts
        assert left == right
        assert (tmp_path / "chunks" / "a.csv").read_bytes() == "".join(chunks).encode("utf-8")

    @pytest.mark.parametrize("previous_run", [False, True])
    def test_chunks_raising_midway_leave_the_directory_as_it_was(self, tmp_path, previous_run):
        out = tmp_path / "run"
        if previous_run:
            first = ArtifactSession(out, "test", "", "0")
            first.write_text("a.csv", "x\n")
            first.finish()
        before = {p.name: p.read_bytes() for p in out.iterdir()} if previous_run else None

        def chunks():
            yield "a,b\n"
            yield "1,2\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            with ArtifactSession(out, "test", "", "0") as session:
                session.write_text("b.csv", "y\n")
                session.write_text("a.csv", chunks())
        if previous_run:
            load_manifest(out / "manifest.json", verify=True)
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not out.exists()


class TestCliCommands:
    def test_synth_and_train(self, quick_cfg_path, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--config", str(quick_cfg_path), "--out", str(out)]) == 0
        assert (out / "train_seed1.csv").exists()
        header = (out / "train_seed1.csv").read_text().splitlines()[0]
        assert header == "label," + ",".join(f"f{j}" for j in range(16))

        tout = tmp_path / "train"
        assert main(["train", "--config", str(quick_cfg_path), "--out", str(tout)]) == 0
        assert (tout / "model_seed1.ckpt").exists()
        load_manifest(tout / "manifest.json")

    def test_figure_runs_and_is_deterministic(self, quick_cfg_path, tmp_path):
        outs = []
        for name in ("f1", "f2"):
            out = tmp_path / name
            code = main(
                ["figure", "gamma_sweep", "--config", str(quick_cfg_path), "--out", str(out)]
            )
            assert code == 0
            outs.append(out)
        for p in sorted(outs[0].glob("*.csv")):
            assert p.read_bytes() == (outs[1] / p.name).read_bytes(), p.name

    def test_seed_override(self, quick_cfg_path, tmp_path):
        out = tmp_path / "s"
        assert (
            main(["synth", "--config", str(quick_cfg_path), "--out", str(out), "--seeds", "3,4"])
            == 0
        )
        assert (out / "train_seed3.csv").exists()
        assert (out / "train_seed4.csv").exists()
        assert not (out / "train_seed1.csv").exists()

    def test_bounds_verify_runs_at_the_first_seed_only(self, tmp_path):
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(QUICK + "[bounds]\ntrials = 100\nsample_counts = 10\nentropy_draws = 200\n")
        outs = {}
        for seeds in ("1,2", "1", "2,1", "2"):
            out = outs[seeds] = tmp_path / seeds.replace(",", "_")
            argv = ["bounds", "verify", "--config", str(cfg), "--out", str(out), "--seeds", seeds]
            assert main(argv) == 0

        def artifacts(seeds):
            names = ("verify.csv", "bounds_summary.csv", "bounds_summary.txt")
            return [(outs[seeds] / name).read_bytes() for name in names]

        assert artifacts("1,2") == artifacts("1")
        assert artifacts("2,1") == artifacts("2")
        assert artifacts("1") != artifacts("2")

    def test_seed_override_with_an_empty_item_is_an_error(self, quick_cfg_path, tmp_path, capsys):
        # the config parser refuses "seeds = 1,,2"; the flag reads through the same codec
        out = tmp_path / "s"
        assert main(["train", "--config", str(quick_cfg_path), "--out", str(out), "--seeds", "1,,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seeds" in err, err
        assert not out.exists()

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[train]\ngamma = abc\n")
        assert main(["synth", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_nonzero(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "argv, body",
        [
            (["bounds", "verify"], "[bounds]\ntrials = 50\n"),
            (["synth"], "[mixture]\nsource = fixture_spectrum\ndim = 4\n"),
            (["bounds", "verify"], "[mixture]\ncomponents = 0\n"),
            (["bounds", "verify"], "[bounds]\nkinds =\n"),
            (["train"], "[train]\nlr = step:0.1:0.5:0\n"),
            (["train"], "[experiment]\nseeds = 1\nseeds = 2\n"),
            (["train", "--threads", "0"], "[train]\nepochs = 1\n"),
            (["train", "--threads", "-4"], "[train]\nepochs = 1\n"),
            # quick.cfg's train_n with a fraction that leaves no training rows
            (
                ["figure", "data_fraction_sweep"],
                "[experiment]\ntrain_n = 64\n[sweep]\ndata_fractions = 0.01,1.0\n",
            ),
            # the step schedule's lr overflows a Python float at the last epoch
            (
                ["train"],
                "[experiment]\ntrain_n = 40\nval_n = 40\nseeds = 1\n"
                "[train]\nlr = step:1:1e300:1\nepochs = 3\n",
            ),
            # weights near 1e300 overflow the mixture's logit covariances (1e150 runs)
            (["bounds", "verify"], OVERFLOWING_SCALE),
            (["bounds", "verify", "--threads", "2"], OVERFLOWING_SCALE),
        ],
    )
    def test_unrunnable_config_is_an_error(self, tmp_path, capsys, argv, body):
        p = tmp_path / "cfg.cfg"
        p.write_text(body)
        out = tmp_path / "o"
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, edit, field",
        [
            (["train"], {"init_scale = 0.0": "init_scale = 1e308"}, "train.init_scale"),
            (["bounds", "verify"], {"[bounds]\n": "[bounds]\nscales = 1e308\n"}, "bounds.scales"),
        ],
    )
    def test_uniform_draw_whose_range_overflows_is_an_error(
        self, tmp_path, capsys, argv, edit, field
    ):
        # Generator.uniform(-s, s) cannot draw once its range 2 s overflows
        body = (CONFIGS / "quick.cfg").read_text()
        for old, new in edit.items():
            assert old in body
            body = body.replace(old, new)
        p = tmp_path / "cfg.cfg"
        p.write_text(body)
        out = tmp_path / "o"
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, edit, field",
        [
            (["train", "--seeds", "1,1"], {}, "experiment.seeds"),
            (["synth"], {"seeds = 1": "seeds = 2,1,2"}, "experiment.seeds"),
            (["figure", "top_prob_hist"], {"epochs = 5": "epochs = 5\ngamma = 0"}, "train.gamma"),
            (["figure", "ce_vs_val"], {"epochs = 5": "epochs = 5\ngamma = 0"}, "train.gamma"),
            (["figure", "lsr_compare"], {"epochs = 5": "epochs = 5\ngamma = 0"}, "train.gamma"),
            (["figure", "noise_sweep"], {"epochs = 5": "epochs = 5\ngamma = 0"}, "train.gamma"),
            (
                ["figure", "spectrum"],
                {"epochs = 5": "epochs = 5\ngamma = 0\ntrain_feature_map = true"},
                "train.gamma",
            ),
        ],
    )
    def test_colliding_artifact_names_are_an_error(self, tmp_path, capsys, argv, edit, field):
        # repeated seeds, or two-gamma figures at gamma = 0, would write one artifact twice
        body = QUICK
        for old, new in edit.items():
            body = body.replace(old, new)
        p = tmp_path / "cfg.cfg"
        p.write_text(body)
        out = tmp_path / "o"
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, err
        assert not out.exists()

    def test_grid_never_lists_an_artifact_twice(self, quick_cfg_path, tmp_path):
        # the library entry point takes seeds unchecked; the session refuses the repeat
        cfg = parse_config(quick_cfg_path.read_text())
        out = tmp_path / "o"
        with pytest.raises(ManifestError):
            run_train(cfg, out, [1, 1])
        assert not out.exists()

    # a diverging arm's overflow is reported by the error line alone, never as a warning
    @pytest.mark.filterwarnings("error")
    def test_divergence_names_its_arm(self, tmp_path, capsys):
        # with lr * weight_decay >> 1 each step multiplies the weights by about -lr
        self.assert_one_divergence_line(
            tmp_path, capsys, "gamma_sweep", "lr = constant:1e200\nweight_decay = 1.0"
        )

    @pytest.mark.filterwarnings("error")
    def test_divergence_of_a_feature_map_stack_names_its_arm(self, tmp_path, capsys):
        # the decay terms of both gradients overflow
        self.assert_one_divergence_line(
            tmp_path,
            capsys,
            "spectrum",
            "lr = constant:0.2\nweight_decay = 1e200\ntrain_feature_map = true",
        )

    def assert_one_divergence_line(self, tmp_path, capsys, figure, train_lines):
        p = tmp_path / "cfg.cfg"
        p.write_text(QUICK.replace("lr = constant:0.2", train_lines))
        out = tmp_path / "o"
        assert main(["figure", figure, "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "gamma=0.0" in err and "seed=1" in err and "epoch" in err and "batch" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_divergence_report_on_a_wide_mixture(self, tmp_path, capsys, epochs):
        # means +-1000: the first update leaves weights near 1e155, whose logits
        # overflow in the second batch's forward pass, before any epoch-end record
        (tmp_path / "wide.mix").write_text(
            "dim = 2\n[component]\nweight = 0.5\nmean = 1000 0\ncov = 1\n"
            "[component]\nweight = 0.5\nmean = -1000 0\ncov = 1\n"
        )
        body = QUICK.replace("epochs = 5", f"epochs = {epochs}")
        body = body.replace("lr = constant:0.2", "lr = constant:1e152\nweight_decay = 1.0")
        p = tmp_path / "cfg.cfg"
        p.write_text(body + "[mixture]\nsource = file:wide.mix\n")
        out = tmp_path / "o"
        assert main(["figure", "gamma_sweep", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ArmSpec(figure='gamma_sweep', seed=1,") and "gamma=0.0" in err
        assert err.endswith("non-finite parameters at epoch 1, batch 1: logits must be finite\n")
        assert not out.exists()

    def test_mixture_file_resolves_against_the_config_directory(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "sub"
        cfg_dir.mkdir()
        (cfg_dir / "two.mix").write_text(
            "dim = 2\n[component]\nweight = 0.5\nmean = 1 0\ncov = 0.1\n"
            "[component]\nweight = 0.5\nmean = -1 0\ncov = 0.1\n"
        )
        (cfg_dir / "exp.cfg").write_text(QUICK + "[mixture]\nsource = file:two.mix\n")
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", "sub/exp.cfg", "--out", "out"]) == 0
        load_manifest(tmp_path / "out" / "manifest.json")

    def test_mixture_file_setting_a_key_twice_is_an_error(self, tmp_path, capsys):
        (tmp_path / "two.mix").write_text(
            "dim = 2\n[component]\nweight = 0.5\nmean = 1 0\ncov = 0.1\n"
            "[component]\nweight = 0.5\nmean = -1 0\nweight = 0.4\ncov = 0.1\n"
        )
        (tmp_path / "exp.cfg").write_text(QUICK + "[mixture]\nsource = file:two.mix\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(tmp_path / "exp.cfg"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 9: weight is set twice (first on line 7)\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["train"], ["figure", "spectrum"], ["figure", "gamma_sweep"]])
    def test_one_validation_row_under_a_feature_map_is_an_error(self, tmp_path, capsys, argv):
        # each arm's feature spectrum is a covariance of the validation rows
        body = QUICK.replace("val_n = 100", "val_n = 1").replace(
            "epochs = 5", "epochs = 5\ntrain_feature_map = true"
        )
        p = tmp_path / "cfg.cfg"
        p.write_text(body)
        out = tmp_path / "o"
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment.val_n must be >= 2") and err.count("\n") == 1, err
        assert not out.exists()

    def test_failure_leaves_no_partial_artifacts(self, tmp_path):
        # spectrum without a trainable feature map is a config error
        p = tmp_path / "cfg.cfg"
        p.write_text(QUICK)
        out = tmp_path / "spec"
        assert main(["figure", "spectrum", "--config", str(p), "--out", str(out)]) == 1
        assert not out.exists()


class TestFailedRerun:
    """A failed rerun into an existing run directory leaves the previous run intact."""

    def _train(self, out, seeds):
        return main(["train", "--config", str(CONFIGS / "quick.cfg"), "--seeds", seeds, "--out", str(out)])

    def _assert_previous_run_intact(self, out):
        load_manifest(out / "manifest.json", verify=True)
        assert not list(out.glob(".staging-*")) and not list(out.glob(".previous-*"))

    def test_directory_in_place_of_an_artifact(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert self._train(out, "1") == 0
        (out / "history_seed2.csv").mkdir()
        assert self._train(out, "1,2") == 1
        assert capsys.readouterr().err.startswith("error: ")
        self._assert_previous_run_intact(out)

    def test_write_failing_mid_run(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "r"
        assert self._train(out, "1") == 0

        def failing_open(file, mode="r", *args, **kwargs):
            # the second seed's history fails after mixture.txt and seed 1 are staged
            if Path(file).name == "history_seed2.csv":
                raise OSError(28, "No space left on device")
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr("maxentlab.manifest.open", failing_open, raising=False)
        assert self._train(out, "1,2") == 1
        assert capsys.readouterr().err.startswith("error: ")
        self._assert_previous_run_intact(out)

    def _configs(self, tmp_path):
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text(QUICK)
        second.write_text(QUICK.replace("epochs = 5", "epochs = 6"))
        return first, second

    def _rerun(self, tmp_path, monkeypatch, fail_at=()):
        """Train into a directory, then rerun it with other epochs and one more seed.

        The rerun replaces every name of the first run and adds two, so its
        publish makes 12 renames: five old files aside, then seven new ones
        in. Each rename whose number is in ``fail_at`` raises. Returns the
        directory, the rerun's exit code, its renames and the first run's files.
        """
        out = tmp_path / "r"
        first, second = self._configs(tmp_path)
        assert main(["train", "--config", str(first), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        replace, renames = os.replace, []

        def counting_replace(src, dst):
            renames.append(dst)
            if len(renames) in fail_at:
                raise OSError(5, "Input/output error")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        code = main(["train", "--config", str(second), "--seeds", "1,2", "--out", str(out)])
        monkeypatch.undo()
        return out, code, renames, before

    def test_rerun_publish_renames(self, tmp_path, monkeypatch):
        out, code, renames, _ = self._rerun(tmp_path, monkeypatch)
        assert code == 0 and len(renames) == 12
        man = load_manifest(out / "manifest.json", verify=True)
        assert len(man.artifacts) == 6 and "epochs = 6" in man.config_text
        assert not list(out.glob(".staging-*")) and not list(out.glob(".previous-*"))

    @pytest.mark.parametrize("fail_at", range(1, 13))
    def test_rename_failing_mid_publish(self, tmp_path, capsys, monkeypatch, fail_at):
        # a rename failing after some new artifacts are in place must take them
        # back: the old manifest would otherwise list files it no longer matches
        out, code, renames, before = self._rerun(tmp_path, monkeypatch, (fail_at,))
        assert code == 1 and len(renames) >= fail_at
        assert capsys.readouterr().err.startswith("error: cannot publish the run")
        self._assert_previous_run_intact(out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_rollback_keeps_the_old_files(self, tmp_path, capsys, monkeypatch):
        # rename 8 (the third new file in) fails, then rename 9, the first
        # old file going back: the files not put back must survive the abort
        out, code, renames, before = self._rerun(tmp_path, monkeypatch, (8, 9))
        assert code == 1 and len(renames) == 8 + 5  # then the five old files back
        err = capsys.readouterr().err
        assert err.startswith("error: cannot publish the run") and "could not roll back" in err
        assert not list(out.glob(".staging-*"))
        [kept] = out.glob(".previous-*")
        assert str(kept) in err
        old = {p.name: p.read_bytes() for p in kept.iterdir()}
        assert len(old) == 1 and old.items() <= before.items()
        left = {p.name: p.read_bytes() for p in out.iterdir() if p != kept}
        assert {**left, **old} == before


class TestReport:
    def _run_figure(self, quick_cfg_path, out):
        assert (
            main(["figure", "gamma_sweep", "--config", str(quick_cfg_path), "--out", str(out)])
            == 0
        )
        return out / "manifest.json"

    def test_single_manifest_identity(self, quick_cfg_path, tmp_path):
        man = self._run_figure(quick_cfg_path, tmp_path / "f")
        rep = tmp_path / "rep"
        assert main(["report", str(man), "--out", str(rep)]) == 0
        merged = (rep / "summary.csv").read_text()
        original = (tmp_path / "f" / "summary.csv").read_text()
        assert merged == original

    def test_duplicate_manifests_deduplicated(self, quick_cfg_path, tmp_path):
        m1 = self._run_figure(quick_cfg_path, tmp_path / "f1")
        m2 = self._run_figure(quick_cfg_path, tmp_path / "f2")
        rep1, rep2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", str(m1), str(m1), "--out", str(rep1)]) == 0
        assert main(["report", str(m1), str(m2), "--out", str(rep2)]) == 0
        # same content digests merge to the same report
        assert (rep1 / "summary.csv").read_bytes() == (rep2 / "summary.csv").read_bytes()

    def test_digest_mismatch_fails(self, quick_cfg_path, tmp_path, capsys):
        man = self._run_figure(quick_cfg_path, tmp_path / "f")
        (tmp_path / "f" / "summary.csv").write_text("tampered\n")
        assert main(["report", str(man), "--out", str(tmp_path / "rep")]) == 1
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("row, damage", [(0, "val_acc"), (1, "val_acc"), (1, "width")])
    def test_malformed_summary_row_is_an_error(self, quick_cfg_path, tmp_path, capsys, row, damage):
        man = self._run_figure(quick_cfg_path, tmp_path / "f")
        summary = tmp_path / "f" / "summary.csv"
        header, rows = read_csv(summary)
        if damage == "val_acc":
            rows[row][header.index("val_acc")] = "n/a"
            message = "val_acc 'n/a' is not a number"
        else:
            rows[row].pop()
            message = f"has {len(header) - 1} cells, not {len(header)}"
        summary.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]))
        # the manifest is rewritten to match, so it still verifies
        doc = json.loads(man.read_text())
        for art in doc["artifacts"]:
            if art["path"] == "summary.csv":
                art["sha256"], art["bytes"] = sha256_file(summary), summary.stat().st_size
        man.write_text(json.dumps(doc))
        load_manifest(man, verify=True)
        rep = tmp_path / "rep"
        capsys.readouterr()
        assert main(["report", str(man), "--out", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"{summary}: line {row + 2}" in err and message in err
        assert not rep.exists()

    @pytest.mark.parametrize(
        "entry", ['{"path": "a.csv"}', '{"sha256": "00"}', '"a.csv"', '{"path": 1, "sha256": "00"}']
    )
    def test_malformed_artifact_entry_is_an_error(self, tmp_path, capsys, entry):
        man = tmp_path / "manifest.json"
        man.write_text(
            '{"tool_version": "0", "command": "train", "config": "", "stages": [], '
            f'"artifacts": [{entry}]}}'
        )
        rep = tmp_path / "rep"
        assert main(["report", str(man), "--out", str(rep)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not rep.exists()


class TestShippedConfigsParse:
    def test_all_shipped_configs_parse(self):
        from maxentlab.configio import parse_config

        for cfg_file in sorted(CONFIGS.glob("*.cfg")):
            parse_config(cfg_file.read_text(), base_dir=CONFIGS)
