"""Config text round trips and strict rejection of malformed input."""

import dataclasses
import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentlab.bounds import BOUND_KINDS, MIN_TRIALS
from maxentlab.configio import (
    _SCHEMA,
    REGIMES,
    ExperimentConfig,
    parse_config,
    parse_lr,
    parse_mixture,
    resolve_mixture,
    serialize_config,
    serialize_mixture,
)
from maxentlab.core import MIN_MC_DRAWS
from maxentlab.errors import ParseError, ValidationError
from maxentlab.mixtures import GaussianMixture
from maxentlab.training import OBJECTIVES, LrSchedule, TrainConfig

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
            ("[experiment]\nregime = medium\n", "experiment.regime"),
            ("[train]\nobjective = adam\n", "train.objective"),
            ("[train]\ngamma = -0.5\n", "train.gamma"),
            ("[train]\nlsr_epsilon = 1.0\n", "train.lsr_epsilon"),
            ("[train]\nbatch_size = 0\n", "train.batch_size"),
            ("[train]\nlr = step:0.1:0.5:0\n", "train.lr"),
            ("[train]\nlr = step:0.1:0.5:-2\n", "train.lr"),
            ("[train]\nlr = constant:inf\n", "train.lr"),
            ("[train]\nlr = step:0.1:nan:5\n", "train.lr"),
            # 1e300 ** 2 overflows a Python float at the last epoch
            ("[train]\nlr = step:1:1e300:1\nepochs = 3\n", "train.lr"),
            # a data-fraction arm trains on floor(fraction * train_n) rows
            ("[experiment]\ntrain_n = 64\n[sweep]\ndata_fractions = 0.01,1.0\n", "sweep.data_fractions"),
            ("[sweep]\ndata_fractions = 0\n", "sweep.data_fractions"),
            ("[experiment]\ntrain_n = 3\n", "sweep.data_fractions"),
        ],
    )
    def test_rejects_values_the_pipelines_cannot_run(self, text, field):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.field == field

    def test_data_fraction_leaving_one_row_is_accepted(self):
        cfg = parse_config("[experiment]\ntrain_n = 64\n[sweep]\ndata_fractions = 0.015625,1\n")
        assert cfg.data_fractions == (0.015625, 1.0)

    @pytest.mark.parametrize(
        "text",
        [
            "[experiment]\nseeds = 1\n\nseeds = 2\n",
            # a repeated header is legal, but it does not reopen its keys
            "[train]\nepochs = 3\n[sweep]\ngammas = 0\n[train]\nepochs = 4\n",
        ],
    )
    def test_key_set_twice(self, text):
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line_no == len(text.splitlines())
        assert "is set twice" in str(err.value)


class TestLrParsing:
    def test_forms(self):
        assert parse_lr("constant:0.5") == LrSchedule("constant", 0.5)
        assert parse_lr("linear:0.3") == LrSchedule("linear", 0.3)
        assert parse_lr("step:1.0:0.5:10") == LrSchedule("step", 1.0, 0.5, 10)

    def test_rejects_malformed(self):
        for bad in ("constant", "step:1.0", "cosine:0.1", "linear:a"):
            with pytest.raises(ParseError):
                parse_lr(bad)


def _runnable_data_fractions(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` with each data fraction that leaves no training row replaced by 1.0."""
    fracs = tuple(f if math.floor(f * cfg.train_n) >= 1 else 1.0 for f in cfg.data_fractions)
    return dataclasses.replace(cfg, data_fractions=fracs)


def _finite_last_lr(cfg: ExperimentConfig) -> bool:
    """Whether ``cfg``'s lr schedule stays finite up to its last epoch, as parse_config requires."""
    lr, epochs = cfg.train.lr, cfg.train.epochs
    try:
        return epochs == 0 or math.isfinite(lr.value(epochs - 1, epochs))
    except OverflowError:
        return False


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

    @given(cfg=st.builds(
        ExperimentConfig,
        regime=st.sampled_from(REGIMES),
        train_n=st.integers(1, 10**9),
        val_n=st.integers(1, 10**9),
        out_dir=st.text("ab/_. -", max_size=12).filter(lambda s: s == s.strip()),
        seeds=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=6, unique=True).map(tuple),
        delta=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        # any existing file passes parse_config's file: check
        mixture_source=st.sampled_from(
            ["fixture", "fixture_spectrum", "file:" + os.path.abspath(__file__)]
        ),
        fixture_seed=st.integers(-(2**40), 2**40),
        dim=st.integers(1, 512),
        components=st.integers(2, 512),
        train=st.builds(
            TrainConfig,
            gamma=st.floats(0.0, 1e300),
            objective=st.sampled_from(OBJECTIVES),
            lsr_epsilon=st.floats(0.0, 1.0, exclude_max=True),
            lr=st.one_of(
                st.builds(
                    LrSchedule,
                    st.sampled_from(["constant", "linear"]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                st.builds(
                    LrSchedule,
                    st.just("step"),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(1, 10**6),
                ),
            ),
            weight_decay=st.floats(0.0, 1e300),
            batch_size=st.integers(1, 10**6),
            epochs=st.integers(0, 10**6),
            train_feature_map=st.booleans(),
            init_scale=st.floats(allow_nan=False, allow_infinity=False),
        ),
        gammas=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=5).map(tuple),
        noise_fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).map(tuple),
        data_fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).map(tuple),
        bounds_kinds=st.lists(st.sampled_from(BOUND_KINDS), min_size=1, max_size=4).map(tuple),
        bounds_trials=st.integers(MIN_TRIALS, 10**9),
        bounds_sample_counts=st.lists(st.integers(1, 10**9), min_size=1, max_size=4).map(tuple),
        bounds_entropy_draws=st.integers(MIN_MC_DRAWS, 10**9),
        bounds_scales=st.lists(
            st.floats(0.0, exclude_min=True, allow_infinity=False), min_size=1, max_size=4
        ).map(tuple),
    ).map(_runnable_data_fractions).filter(_finite_last_lr))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_varies_every_key(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_serialize_to_the_manifest_echo(self):
        # manifest.json echoes this text: a change here changes every run's digest
        assert serialize_config(ExperimentConfig()) == (
            "[experiment]\nregime = fine_grained\ntrain_n = 200\nval_n = 5000\nout_dir = \n"
            "seeds = 1,2,3,4,5,6\ndelta = 0.1\n\n"
            "[mixture]\nsource = fixture\nfixture_seed = 7\ndim = 16\ncomponents = 10\n\n"
            "[train]\ngamma = 1.0\nobjective = maxent\nlsr_epsilon = 0.1\nlr = constant:0.1\n"
            "weight_decay = 0.0\nbatch_size = 32\nepochs = 100\ntrain_feature_map = false\n"
            "init_scale = 0.0\n\n"
            "[sweep]\ngammas = 0.0,0.5,1.0\nnoise_fractions = 0.0,0.1,0.2,0.3\n"
            "data_fractions = 0.25,0.5,1.0\n\n"
            "[bounds]\nkinds = weight_norm,entropy_deviation,empirical_weight_norm\n"
            "trials = 1000\nsample_counts = 100,1000,10000\nentropy_draws = 100000\n"
            "scales = 0.1,1.0,10.0\n"
        )

    def test_every_field_has_exactly_one_key(self):
        # TrainConfig.seed has no key: each arm sets its own
        keyed = Counter(
            (section == "train", name)
            for section, keys in _SCHEMA.items()
            for name, _ in keys.values()
        )
        fields = {(False, f.name) for f in dataclasses.fields(ExperimentConfig) if f.name != "train"}
        fields |= {(True, f.name) for f in dataclasses.fields(TrainConfig) if f.name != "seed"}
        assert set(keyed) == fields
        assert set(keyed.values()) == {1}

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
