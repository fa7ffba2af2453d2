"""Config text round trips and strict rejection of malformed input."""

import dataclasses

import numpy as np
import pytest

from maxentlab.configio import (
    ExperimentConfig,
    parse_config,
    parse_lr,
    parse_mixture,
    resolve_mixture,
    serialize_config,
    serialize_mixture,
)
from maxentlab.errors import ParseError, ValidationError
from maxentlab.mixtures import GaussianMixture
from maxentlab.training import LrSchedule

from conftest import random_mixture


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.train.gamma == 1.0
        assert cfg.delta == 0.1
        assert cfg.train.batch_size == 32
        assert cfg.seeds == (1, 2, 3, 4, 5, 6)

    def test_gamma_default_when_section_present(self):
        cfg = parse_config("[train]\nepochs = 3\n")
        assert cfg.train.gamma == 1.0
        assert cfg.train.epochs == 3


class TestParseErrors:
    def test_garbage_value_reports_line(self):
        text = "[train]\n# comment\ngamma = abc\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line_no == 3

    def test_missing_equals(self):
        with pytest.raises(ParseError) as err:
            parse_config("[train]\nthis is not a pair\n")
        assert err.value.line_no == 2

    def test_unknown_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config("[train]\nbogus = 1\n")
        assert "bogus" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ValidationError):
            parse_config("[wat]\n")

    def test_unknown_objective(self):
        with pytest.raises(ValidationError):
            parse_config("[train]\nobjective = adam\n")

    def test_bad_delta(self):
        with pytest.raises(ValidationError):
            parse_config("[experiment]\ndelta = 0.7\n")

    def test_empty_seed_list(self):
        with pytest.raises(ParseError):
            parse_config("[experiment]\nseeds = \n")

    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_bound_kinds(self, value):
        with pytest.raises(ParseError) as err:
            parse_config(f"[bounds]\nkinds = {value}\n")
        assert err.value.line_no == 2

    def test_missing_mixture_file(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_config("[mixture]\nsource = file:nope.mix\n", base_dir=tmp_path)

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[experiment]\nval_n = 0\n", "experiment.val_n"),
            ("[bounds]\ntrials = 50\n", "bounds.trials"),
            ("[bounds]\nentropy_draws = 50\n", "bounds.entropy_draws"),
            ("[bounds]\nsample_counts = 100,0\n", "bounds.sample_counts"),
            ("[bounds]\nscales = 0.1,-1.0\n", "bounds.scales"),
            ("[bounds]\nscales = 1.0,inf\n", "bounds.scales"),
            ("[mixture]\ncomponents = 0\n", "mixture.components"),
            ("[mixture]\nsource = fixture_spectrum\ncomponents = 1\n", "mixture.components"),
            ("[mixture]\ndim = 0\n", "mixture.dim"),
            ("[experiment]\nseeds = 1,2,1\n", "experiment.seeds"),
        ],
    )
    def test_rejects_values_the_pipelines_cannot_run(self, text, field):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.field == field


class TestLrParsing:
    def test_forms(self):
        assert parse_lr("constant:0.5") == LrSchedule("constant", 0.5)
        assert parse_lr("linear:0.3") == LrSchedule("linear", 0.3)
        assert parse_lr("step:1.0:0.5:10") == LrSchedule("step", 1.0, 0.5, 10)

    def test_rejects_malformed(self):
        for bad in ("constant", "step:1.0", "cosine:0.1", "linear:a"):
            with pytest.raises(ParseError):
                parse_lr(bad)


class TestRoundTrip:
    def test_serialize_parse_identity_on_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    @staticmethod
    def _random_schedule(rng):
        kind = str(rng.choice(["constant", "linear", "step"]))
        if kind == "step":
            return LrSchedule(
                "step",
                float(rng.uniform(0.001, 1.0)),
                float(rng.uniform(0.1, 0.9)),
                int(rng.integers(1, 50)),
            )
        # factor and interval are meaningless off the step schedule
        return LrSchedule(kind, float(rng.uniform(0.001, 1.0)))

    def test_round_trip_random_configs(self, rng):
        for _ in range(25):
            cfg = ExperimentConfig(
                regime=str(rng.choice(["fine_grained", "large_scale"])),
                train_n=int(rng.integers(1, 500)),
                val_n=int(rng.integers(1, 500)),
                out_dir="runs/x",
                # a repeated seed is rejected, so repeats are dropped
                seeds=tuple(
                    dict.fromkeys(int(s) for s in rng.integers(0, 100, size=rng.integers(1, 5)))
                ),
                delta=float(rng.uniform(0.01, 0.49)),
                fixture_seed=int(rng.integers(0, 1000)),
                dim=int(rng.integers(2, 32)),
                components=int(rng.integers(2, 12)),
                train=dataclasses.replace(
                    ExperimentConfig().train,
                    gamma=float(rng.uniform(0, 10)),
                    objective=str(rng.choice(["maxent", "ce", "lsr"])),
                    lsr_epsilon=float(rng.uniform(0, 0.9)),
                    lr=self._random_schedule(rng),
                    weight_decay=float(rng.uniform(0, 0.1)),
                    batch_size=int(rng.integers(1, 128)),
                    epochs=int(rng.integers(0, 500)),
                    train_feature_map=bool(rng.integers(0, 2)),
                    init_scale=float(rng.uniform(0, 0.1)),
                ),
                gammas=tuple(float(g) for g in rng.uniform(0, 5, size=rng.integers(1, 4))),
            )
            text = serialize_config(cfg)
            assert parse_config(text) == cfg, text

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# leading comment\n[train]\n\ngamma = 2.0  # trailing\n\n"
        assert parse_config(text).train.gamma == 2.0


class TestMixtureFiles:
    def test_scalar_cov(self):
        text = "dim = 2\n[component]\nweight = 1.0\nmean = 0 0\ncov = 0.5\n"
        mix = parse_mixture(text)
        np.testing.assert_allclose(mix.covariances[0], 0.5 * np.eye(2))

    def test_diag_cov(self):
        text = "dim = 2\n[component]\nweight = 1.0\nmean = 0 0\ncov = 0.5 2.0\n"
        mix = parse_mixture(text)
        np.testing.assert_allclose(mix.covariances[0], np.diag([0.5, 2.0]))

    def test_full_rows(self):
        text = (
            "dim = 2\n[component]\nweight = 1.0\nmean = 0 0\n"
            "cov_row = 1.0 0.2\ncov_row = 0.2 1.0\n"
        )
        mix = parse_mixture(text)
        np.testing.assert_allclose(mix.covariances[0], [[1.0, 0.2], [0.2, 1.0]])

    def test_round_trip(self, rng):
        mix = random_mixture(rng, n=3, m=2)
        parsed = parse_mixture(serialize_mixture(mix))
        np.testing.assert_allclose(parsed.weights, mix.weights)
        np.testing.assert_allclose(parsed.means, mix.means)
        np.testing.assert_allclose(parsed.covariances, mix.covariances)

    def test_missing_dim(self):
        with pytest.raises(ParseError):
            parse_mixture("[component]\nweight = 1\nmean = 0\ncov = 1\n")

    def test_wrong_mean_length(self):
        with pytest.raises(ValidationError):
            parse_mixture("dim = 3\n[component]\nweight = 1\nmean = 0 0\ncov = 1\n")

    def test_invalid_weights_rejected(self):
        text = (
            "dim = 1\n[component]\nweight = 0.4\nmean = 0\ncov = 1\n"
            "[component]\nweight = 0.4\nmean = 0\ncov = 1\n"
        )
        from maxentlab.errors import WeightError

        with pytest.raises(WeightError):
            parse_mixture(text)


class TestResolveMixture:
    def test_fixture_regimes_differ(self):
        fine = resolve_mixture(parse_config("[experiment]\nregime = fine_grained\n"))
        large = resolve_mixture(parse_config("[experiment]\nregime = large_scale\n"))
        assert float(np.abs(large.means).max()) > float(np.abs(fine.means).max())

    def test_spectrum_fixture(self):
        mix = resolve_mixture(parse_config("[mixture]\nsource = fixture_spectrum\n"))
        assert isinstance(mix, GaussianMixture)

    def test_file_source(self, tmp_path):
        (tmp_path / "m.mix").write_text(
            "dim = 1\n[component]\nweight = 1.0\nmean = 0\ncov = 2.0\n"
        )
        cfg = parse_config("[mixture]\nsource = file:m.mix\n", base_dir=tmp_path)
        assert cfg.mixture_source == f"file:{tmp_path / 'm.mix'}"
        mix = resolve_mixture(cfg)
        np.testing.assert_allclose(mix.covariances[0], [[2.0]])
