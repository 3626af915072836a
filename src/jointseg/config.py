"""Run configuration: defaults, flat key-value config files, and digests."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field, fields

from .backbone import LayerSpec
from .data import SyntheticSceneSpec
from .inference import MeanShiftConfig
from .losses import LossConfig

_SCENE_SEED_STRIDE = 100003  # keeps per-scene seeds distinct across nearby run seeds


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0

    # data: either a directory of scene files or inline synthetic generation
    data_dir: str = ""
    num_scenes: int = 8
    room_extent: tuple[float, float, float] = (1.0, 1.0, 0.8)
    num_classes: int = 4
    min_instances: int = 2
    max_instances: int = 6
    min_points_per_instance: int = 50
    max_points_per_instance: int = 90
    noise_std: float = 0.005

    # block splitting
    block_size: float = 1.0
    stride: float = 0.5
    points_per_block: int = 512
    min_block_points: int = 64
    center_xy: bool = True

    # backbone geometry
    npoints: tuple[int, int, int] = (128, 32, 8)
    widths: tuple[int, int, int] = (64, 128, 256)
    radii: tuple[float, float, float] = (0.2, 0.4, 0.8)
    nsamples: tuple[int, int, int] = (16, 16, 16)
    density_reweight: bool = False

    # heads and loss
    embedding_dim: int = 5
    delta_v: float = 0.5
    delta_d: float = 1.5

    # clustering
    bandwidth: float = 0.6
    ms_max_iter: int = 300
    ms_tol: float = 1e-4

    # block merging
    voxel_divisions: int = 400
    overlap_threshold: float = 0.3

    # optimizer / training
    learning_rate: float = 0.001
    momentum: float = 0.9
    beta2: float = 0.999
    lr_decay: float = 0.5
    decay_every: int = 500
    batch_size: int = 4
    iterations: int = 2000
    dtype: str = "float32"

    # ablations and strategies
    feature_fusion: bool = True
    instance_fusion: bool = True
    semantic_fusion: bool = True
    early_stopping: bool = False
    patience: int = 10
    val_fraction: float = 0.1
    random_sample: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name in ("momentum", "beta2"):
            if not 0 <= getattr(self, name) < 1:  # false for nan as well
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.decay_every < 0:
            raise ConfigError(f"decay_every must be >= 0 (0 never decays), got {self.decay_every}")
        for name in ("batch_size", "iterations", "patience", "num_scenes", "min_block_points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.block_size, self.stride)):
            raise ConfigError(f"block_size and stride must be positive and finite, "
                              f"got {self.block_size}, {self.stride}")
        if self.voxel_divisions < 1:
            raise ConfigError(f"voxel_divisions must be >= 1, got {self.voxel_divisions}")
        if not 0 < self.overlap_threshold <= 1:
            raise ConfigError(f"overlap_threshold must be in (0, 1], got {self.overlap_threshold}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if not 0 < self.val_fraction < 1:  # false for nan as well
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        try:
            self.scene_spec(0)
        except ValueError as e:
            raise ConfigError(f"synthetic data (room_extent, instances, points per instance, noise_std): {e}") from e
        try:
            self.loss_config()
        except ValueError as e:
            raise ConfigError(f"loss (delta_v, delta_d): {e}") from e
        try:
            self.mean_shift_config()
        except ValueError as e:
            raise ConfigError(f"clustering (bandwidth, ms_max_iter, ms_tol): {e}") from e
        try:
            self.layer_spec()
        except ValueError as e:
            raise ConfigError(f"backbone (npoints, widths, radii, nsamples): {e}") from e
        if self.npoints[0] > self.points_per_block:
            raise ConfigError(f"npoints[0] = {self.npoints[0]} exceeds points_per_block")

    def scene_spec(self, index: int) -> SyntheticSceneSpec:
        """The synthetic scene ``index`` of this run."""
        return SyntheticSceneSpec(
            seed=self.seed * _SCENE_SEED_STRIDE + index,
            room_extent=self.room_extent,
            num_classes=self.num_classes,
            instance_range=(self.min_instances, self.max_instances),
            points_per_instance=(self.min_points_per_instance, self.max_points_per_instance),
            noise_std=self.noise_std,
        )

    def layer_spec(self) -> LayerSpec:
        return LayerSpec(npoints=self.npoints, widths=self.widths, radii=self.radii,
                         nsamples=self.nsamples, density_reweight=self.density_reweight)

    def loss_config(self) -> LossConfig:
        return LossConfig(delta_v=self.delta_v, delta_d=self.delta_d)

    def mean_shift_config(self) -> MeanShiftConfig:
        return MeanShiftConfig(bandwidth=self.bandwidth, max_iter=self.ms_max_iter,
                               tol=self.ms_tol)

    def to_kv_lines(self) -> list[str]:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return lines

    def digest(self) -> str:
        payload = "\n".join(sorted(self.to_kv_lines())).encode()
        return hashlib.sha256(payload).hexdigest()

    def model_digest(self) -> str:
        """Digest over the fields that determine the parameter set, so a
        checkpoint can detect architectural drift without pinning every
        inference knob."""
        arch = ("npoints", "widths", "radii", "nsamples", "density_reweight",
                "num_classes", "embedding_dim", "feature_fusion", "instance_fusion",
                "semantic_fusion", "dtype")
        lines = sorted(l for l in self.to_kv_lines() if l.split(" = ")[0] in arch)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_FIELD_TYPES = {f.name: f for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    f = _FIELD_TYPES[name]
    default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = [p for p in raw.split(",") if p.strip()]
            kind = type(default[0])
            return tuple(kind(p) for p in parts)
        return raw
    except ValueError as e:
        raise ConfigError(f"config key {name!r}: cannot parse {raw!r} ({e})") from e


def parse_config_text(text: str) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {e}") from e
    return parse_config_text(text)
