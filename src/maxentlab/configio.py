"""Experiment configuration: sectioned key=value text, parsed strictly.

Grammar: ``[section]`` headers, ``key = value`` lines, ``#`` starts a comment
anywhere, blank lines ignored. Unknown sections or keys are errors, never
silently ignored, and so is a key set twice, even under a repeated section
header. Every key has a default, so the empty string parses to the default
experiment.

    [experiment]                      [train]
    regime = fine_grained             gamma = 1.0
    train_n = 200                     objective = maxent      # maxent|ce|lsr
    val_n = 5000                      lsr_epsilon = 0.1
    out_dir =                         lr = constant:0.1        # constant:B | step:B:F:I | linear:B
    seeds = 1,2,3,4,5,6               weight_decay = 0.0
    delta = 0.1                       batch_size = 32
                                      epochs = 100
    [mixture]                         train_feature_map = false
    source = fixture                  init_scale = 0.0
    fixture_seed = 7
    dim = 16                          [sweep]
    components = 10                   gammas = 0,0.5,1
                                      noise_fractions = 0,0.1,0.2,0.3
    [bounds]                          data_fractions = 0.25,0.5,1.0
    kinds = weight_norm,entropy_deviation,empirical_weight_norm
    trials = 1000
    sample_counts = 100,1000,10000
    entropy_draws = 100000
    scales = 0.1,1.0,10.0

``source`` may also be ``fixture_spectrum`` (the trainable-feature-map
mixture) or ``file:PATH`` pointing at a mixture definition file; a relative
PATH is taken from the config file's directory, and the parsed config holds
it as an absolute path:

    dim = 2
    [component]
    weight = 0.5
    mean = 1.0 0.0
    cov = 0.25            # scalar s -> s * I; a vector lists the diagonal
    [component]
    weight = 0.5
    mean = -1.0 0.0
    cov_row = 0.25 0.0    # or n rows of the full matrix
    cov_row = 0.0 0.25
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._streams import MAX_UNIFORM_SCALE
from .bounds import BOUND_KINDS, MIN_TRIALS
from .core import MIN_MC_DRAWS
from .errors import IoError, ParseError, ValidationError
from .fixtures import make_regime_fixtures, make_spectrum_fixture
from .mixtures import GaussianMixture, validate
from .training import LrSchedule, TrainConfig

REGIMES = ("fine_grained", "large_scale")


@dataclass(frozen=True)
class ExperimentConfig:
    regime: str = "fine_grained"
    train_n: int = 200
    val_n: int = 5000
    out_dir: str = ""
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    delta: float = 0.1
    mixture_source: str = "fixture"
    fixture_seed: int = 7
    dim: int = 16
    components: int = 10
    train: TrainConfig = field(default_factory=TrainConfig)
    gammas: tuple[float, ...] = (0.0, 0.5, 1.0)
    noise_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    data_fractions: tuple[float, ...] = (0.25, 0.5, 1.0)
    bounds_kinds: tuple[str, ...] = ("weight_norm", "entropy_deviation", "empirical_weight_norm")
    bounds_trials: int = 1000
    bounds_sample_counts: tuple[int, ...] = (100, 1000, 10000)
    bounds_entropy_draws: int = 100_000
    bounds_scales: tuple[float, ...] = (0.1, 1.0, 10.0)


def _split_lines(text: str):
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _parse_sections(text: str) -> list[tuple[int, str, str, str]]:
    """(line_no, section, key, value) tuples; section '[component]' may repeat."""
    out = []
    section = None
    for line_no, line in _split_lines(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.append((line_no, section, "", ""))
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"missing key before '=' in {line!r}", line_no)
        if section is None:
            section = ""
        out.append((line_no, section, key, value))
    return out


def _as_int(value: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"expected an integer, got {value!r}", line_no) from None


def _as_float(value: str, line_no: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"expected a number, got {value!r}", line_no) from None


def _as_bool(value: str, line_no: int) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ParseError(f"expected true/false, got {value!r}", line_no)


def _as_float_list(value: str, line_no: int) -> tuple[float, ...]:
    if not value.strip():
        raise ParseError("expected a comma-separated list", line_no)
    return tuple(_as_float(v.strip(), line_no) for v in value.split(","))


def _as_int_list(value: str, line_no: int) -> tuple[int, ...]:
    if not value.strip():
        raise ParseError("expected a comma-separated list", line_no)
    return tuple(_as_int(v.strip(), line_no) for v in value.split(","))


def _as_str_list(value: str, line_no: int) -> tuple[str, ...]:
    items = tuple(v.strip() for v in value.split(",") if v.strip())
    if not items:
        raise ParseError("expected a comma-separated list", line_no)
    return items


def parse_lr(value: str, line_no: int = 0) -> LrSchedule:
    parts = value.split(":")
    kind = parts[0].strip()
    if kind == "constant" and len(parts) == 2:
        return LrSchedule("constant", _as_float(parts[1], line_no))
    if kind == "linear" and len(parts) == 2:
        return LrSchedule("linear", _as_float(parts[1], line_no))
    if kind == "step" and len(parts) == 4:
        return LrSchedule(
            "step", _as_float(parts[1], line_no), _as_float(parts[2], line_no), _as_int(parts[3], line_no)
        )
    raise ParseError(
        f"lr must be constant:B, linear:B or step:B:F:I, got {value!r}", line_no
    )


def serialize_lr(lr: LrSchedule) -> str:
    if lr.kind == "step":
        return f"step:{lr.base!r}:{lr.factor!r}:{lr.interval}"
    return f"{lr.kind}:{lr.base!r}"


class _Codec(NamedTuple):
    """How one key's value reads from config text and writes back to it."""

    read: Callable[[str, int], object]
    write: Callable[[object], str]


_TEXT = _Codec(lambda value, line_no: value, str)
_INT = _Codec(_as_int, str)
_FLOAT = _Codec(_as_float, repr)
_BOOL = _Codec(_as_bool, lambda flag: "true" if flag else "false")
_INTS = _Codec(_as_int_list, lambda values: ",".join(map(str, values)))
_FLOATS = _Codec(_as_float_list, lambda values: ",".join(map(repr, values)))
_TEXTS = _Codec(_as_str_list, ",".join)
_LR = _Codec(parse_lr, serialize_lr)

# section -> key -> (field, codec): the one list of config keys. Fields are
# ExperimentConfig's, except under [train], where they are TrainConfig's.
# serialize_config writes the keys in this order.
_SCHEMA: dict[str, dict[str, tuple[str, _Codec]]] = {
    "experiment": {
        "regime": ("regime", _TEXT),
        "train_n": ("train_n", _INT),
        "val_n": ("val_n", _INT),
        "out_dir": ("out_dir", _TEXT),
        "seeds": ("seeds", _INTS),
        "delta": ("delta", _FLOAT),
    },
    "mixture": {
        "source": ("mixture_source", _TEXT),
        "fixture_seed": ("fixture_seed", _INT),
        "dim": ("dim", _INT),
        "components": ("components", _INT),
    },
    "train": {
        "gamma": ("gamma", _FLOAT),
        "objective": ("objective", _TEXT),
        "lsr_epsilon": ("lsr_epsilon", _FLOAT),
        "lr": ("lr", _LR),
        "weight_decay": ("weight_decay", _FLOAT),
        "batch_size": ("batch_size", _INT),
        "epochs": ("epochs", _INT),
        "train_feature_map": ("train_feature_map", _BOOL),
        "init_scale": ("init_scale", _FLOAT),
    },
    "sweep": {
        "gammas": ("gammas", _FLOATS),
        "noise_fractions": ("noise_fractions", _FLOATS),
        "data_fractions": ("data_fractions", _FLOATS),
    },
    "bounds": {
        "kinds": ("bounds_kinds", _TEXTS),
        "trials": ("bounds_trials", _INT),
        "sample_counts": ("bounds_sample_counts", _INTS),
        "entropy_draws": ("bounds_entropy_draws", _INT),
        "scales": ("bounds_scales", _FLOATS),
    },
}


def parse_config(text: str, base_dir: str | Path = ".") -> ExperimentConfig:
    fields: dict[str, object] = {}
    train: dict[str, object] = {}
    first_line: dict[str, int] = {}

    for line_no, section, key, value in _parse_sections(text):
        if key == "":
            if section not in _SCHEMA:
                raise ValidationError(f"unknown section [{section}]", field=section)
            continue
        slot = f"{section}.{key}"
        if key not in _SCHEMA.get(section, {}):
            raise ValidationError(f"unknown key {key!r} in section [{section}]", field=slot)
        if slot in first_line:
            raise ParseError(f"{slot} is set twice (first on line {first_line[slot]})", line_no)
        first_line[slot] = line_no
        name, codec = _SCHEMA[section][key]
        (train if section == "train" else fields)[name] = codec.read(value, line_no)

    src = fields.get("mixture_source", "")
    if src.startswith("file:"):
        # relative to the config file, not to the working directory
        fields["mixture_source"] = "file:" + os.path.abspath(Path(base_dir) / src[len("file:") :])
    cfg = ExperimentConfig(train=TrainConfig(**train).validated(), **fields)
    _validate_config(cfg)
    return cfg


def check_seeds(seeds) -> None:
    """Reject an empty seed list, or one that repeats a seed.

    Every pipeline names its per-seed artifacts by seed, so a repeated seed
    would write, and list in the manifest, the same artifact twice.
    """
    if not seeds:
        raise ValidationError("seed list may not be empty", field="experiment.seeds")
    repeated = sorted(s for s, count in Counter(seeds).items() if count > 1)
    if repeated:
        raise ValidationError(
            f"experiment.seeds repeats {', '.join(map(str, repeated))}: per-seed artifacts "
            "would collide",
            field="experiment.seeds",
        )


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.regime not in REGIMES:
        raise ValidationError(
            f"regime must be one of {REGIMES}, got {cfg.regime!r}", field="experiment.regime"
        )
    if cfg.train_n < 1:
        raise ValidationError(
            f"train_n must be >= 1, got {cfg.train_n}", field="experiment.train_n"
        )
    # every pipeline samples the validation set, and sampling needs a row
    if cfg.val_n < 1:
        raise ValidationError(f"val_n must be >= 1, got {cfg.val_n}", field="experiment.val_n")
    check_seeds(cfg.seeds)
    if not 0.0 < cfg.delta < 0.5:
        raise ValidationError(f"delta must lie in (0, 0.5), got {cfg.delta}", field="experiment.delta")
    src = cfg.mixture_source
    if src not in ("fixture", "fixture_spectrum") and not src.startswith("file:"):
        raise ValidationError(
            f"mixture source must be fixture, fixture_spectrum or file:PATH, got {src!r}",
            field="mixture.source",
        )
    if src.startswith("file:"):
        path = Path(src[len("file:") :])
        if not path.is_file():
            raise ValidationError(f"mixture file not found: {path}", field="mixture.source")
    else:
        # a classifier needs two classes; the fixtures weight each component 1/components
        if cfg.components < 2:
            raise ValidationError(
                f"components must be >= 2, got {cfg.components}", field="mixture.components"
            )
        if cfg.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {cfg.dim}", field="mixture.dim")
    for kind in cfg.bounds_kinds:
        if kind not in BOUND_KINDS:
            raise ValidationError(f"unknown bound kind {kind!r}", field="bounds.kinds")
    if cfg.bounds_trials < MIN_TRIALS:
        raise ValidationError(
            f"trials must be >= {MIN_TRIALS}, got {cfg.bounds_trials}", field="bounds.trials"
        )
    if cfg.bounds_entropy_draws < MIN_MC_DRAWS:
        raise ValidationError(
            f"entropy_draws must be >= {MIN_MC_DRAWS}, got {cfg.bounds_entropy_draws}",
            field="bounds.entropy_draws",
        )
    if any(n < 1 for n in cfg.bounds_sample_counts):
        raise ValidationError(
            f"sample counts must be >= 1, got {cfg.bounds_sample_counts}",
            field="bounds.sample_counts",
        )
    if not all(0 < s <= MAX_UNIFORM_SCALE for s in cfg.bounds_scales):
        raise ValidationError(
            f"bounds.scales must lie in (0, {MAX_UNIFORM_SCALE:g}], got {cfg.bounds_scales}",
            field="bounds.scales",
        )
    for frac in cfg.noise_fractions + cfg.data_fractions:
        if not 0.0 <= frac <= 1.0:
            raise ValidationError(f"fractions must lie in [0, 1], got {frac}", field="sweep")
    # a data-fraction arm trains on the first floor(fraction * train_n) rows
    for frac in cfg.data_fractions:
        if math.floor(frac * cfg.train_n) < 1:
            raise ValidationError(
                f"sweep.data_fractions holds {frac}, which leaves no rows of train_n = {cfg.train_n}",
                field="sweep.data_fractions",
            )
    if any(g < 0 for g in cfg.gammas):
        raise ValidationError("gammas must be >= 0", field="sweep.gammas")


def serialize_config(cfg: ExperimentConfig) -> str:
    blocks = []
    for section, keys in _SCHEMA.items():
        owner = cfg.train if section == "train" else cfg
        lines = [f"[{section}]"]
        lines += [f"{key} = {codec.write(getattr(owner, name))}" for key, (name, codec) in keys.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def resolve_mixture(cfg: ExperimentConfig) -> GaussianMixture:
    """The mixture this experiment samples from, per regime and source."""
    if cfg.mixture_source == "fixture":
        fine, large = make_regime_fixtures(cfg.fixture_seed, cfg.dim, cfg.components)
        return fine if cfg.regime == "fine_grained" else large
    if cfg.mixture_source == "fixture_spectrum":
        return make_spectrum_fixture(cfg.fixture_seed, cfg.dim, cfg.components)
    path = Path(cfg.mixture_source[len("file:") :])
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise IoError(f"cannot read mixture file {path}: {err}") from err
    return parse_mixture(text)


# ---------------------------------------------------------------------------
# Mixture definition files
# ---------------------------------------------------------------------------


def parse_mixture(text: str) -> GaussianMixture:
    dim = None
    components: list[dict] = []
    current: dict | None = None

    def finish(line_no: int) -> None:
        if current is None:
            return
        for need in ("weight", "mean"):
            if need not in current:
                raise ParseError(f"component missing {need!r}", line_no)
        if "cov" not in current and "cov_rows" not in current:
            raise ParseError("component missing cov or cov_row lines", line_no)
        components.append(current)

    last_line = 0
    for line_no, section, key, value in _parse_sections(text):
        last_line = line_no
        if key == "":
            if section != "component":
                raise ValidationError(f"unknown section [{section}] in mixture file", field=section)
            finish(line_no)
            current = {}
            continue
        if current is None:
            if key == "dim":
                dim = _as_int(value, line_no)
                continue
            raise ValidationError(f"unknown key {key!r} before first component", field=key)
        if key == "weight":
            current["weight"] = _as_float(value, line_no)
        elif key == "mean":
            current["mean"] = [_as_float(v, line_no) for v in value.split()]
        elif key == "cov":
            current["cov"] = [_as_float(v, line_no) for v in value.split()]
        elif key == "cov_row":
            current.setdefault("cov_rows", []).append([_as_float(v, line_no) for v in value.split()])
        else:
            raise ValidationError(f"unknown key {key!r} in [component]", field=key)
    finish(last_line)

    if dim is None:
        raise ParseError("mixture file must declare dim", None)
    if not components:
        raise ParseError("mixture file has no components", None)

    weights, means, covs = [], [], []
    for comp in components:
        weights.append(comp["weight"])
        mean = comp["mean"]
        if len(mean) != dim:
            raise ValidationError(f"mean has {len(mean)} entries, dim is {dim}", field="mean")
        means.append(mean)
        if "cov_rows" in comp:
            rows = comp["cov_rows"]
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValidationError(f"cov_row block must be {dim} rows of {dim}", field="cov_row")
            covs.append(rows)
        else:
            spec = comp["cov"]
            if len(spec) == 1:
                covs.append((spec[0] * np.eye(dim)).tolist())
            elif len(spec) == dim:
                covs.append(np.diag(spec).tolist())
            else:
                raise ValidationError(
                    f"cov must be a scalar or {dim} diagonal entries, got {len(spec)}", field="cov"
                )
    return validate(GaussianMixture(np.array(weights), np.array(means), np.array(covs)))


def serialize_mixture(mixture: GaussianMixture) -> str:
    lines = [f"dim = {mixture.dim}"]
    for i in range(mixture.count):
        lines.append("[component]")
        lines.append(f"weight = {float(mixture.weights[i])!r}")
        lines.append("mean = " + " ".join(repr(float(v)) for v in mixture.means[i]))
        for row in mixture.covariances[i]:
            lines.append("cov_row = " + " ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
