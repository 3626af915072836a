"""Training loop, gradient checking, and checkpoint wiring."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .data import Scene, generate_scene, load_scene, split_into_blocks
from .losses import InstanceGrouping, total_loss
from .network import SegmentationNetwork
from .optim import Adam

def load_scenes(cfg: RunConfig) -> list[Scene]:
    """Scenes from ``data_dir`` if configured, otherwise generated inline."""
    if cfg.data_dir:
        paths = sorted(Path(cfg.data_dir).glob("*.scene")) + sorted(Path(cfg.data_dir).glob("*.txt"))
        if not paths:
            raise ConfigError(f"no scene files found in {cfg.data_dir!r}")
        return [load_scene(p) for p in paths]
    return [generate_scene(cfg.scene_spec(i)) for i in range(cfg.num_scenes)]


def split_scenes(scenes: list[Scene], cfg: RunConfig, rng: np.random.Generator):
    blocks = []
    for scene in scenes:
        blocks.extend(split_into_blocks(scene, cfg.block_size, cfg.stride,
                                        cfg.points_per_block, cfg.min_block_points,
                                        cfg.center_xy, rng))
    if not blocks:
        raise ConfigError("block splitting produced no blocks; check block/stride settings")
    for b in blocks:
        if b.semantic_labels.max() >= cfg.num_classes:
            raise ConfigError(
                f"num_classes={cfg.num_classes} but data contains class {int(b.semantic_labels.max())}")
    return blocks


def build_network(cfg: RunConfig) -> SegmentationNetwork:
    dtype = np.float32 if cfg.dtype == "float32" else np.float64
    return SegmentationNetwork(cfg.layer_spec(), cfg.num_classes, cfg.embedding_dim,
                               seed=cfg.seed, dtype=dtype, use_fusion=cfg.feature_fusion,
                               instance_fusion=cfg.instance_fusion,
                               semantic_fusion=cfg.semantic_fusion)


class PreparedBlock:
    """A block plus its cached geometry and instance grouping; the geometry
    depends only on coordinates so it is reused across iterations."""

    def __init__(self, block, network: SegmentationNetwork):
        self.block = block
        self.geometry = network.compute_geometry(block.features)
        self.grouping = InstanceGrouping.from_labels(block.instance_ids)


def _block_loss(network: SegmentationNetwork, prepared: PreparedBlock, cfg: RunConfig) -> ad.Tensor:
    block = prepared.block
    out = network.forward(block.features, prepared.geometry)
    return total_loss(out.logits, block.semantic_labels, out.embeddings,
                      prepared.grouping, cfg.loss_config())


@dataclass
class TrainResult:
    checkpoint_path: str
    trace_path: str
    losses: list[float]
    iterations_run: int
    stopped_early: bool


def train(cfg: RunConfig, out_dir) -> TrainResult:
    """Run the optimization loop and write the checkpoint plus loss trace.

    Deterministic given (config, seed): all randomness flows from one
    generator consumed in a fixed order. A run whose loss or parameters turn
    non-finite raises ``ConfigError`` and writes no checkpoint.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    scenes = load_scenes(cfg)
    raw_blocks = split_scenes(scenes, cfg, rng)
    network = build_network(cfg)

    val_blocks: list[PreparedBlock] = []
    if cfg.early_stopping:
        n_val = max(1, round(cfg.val_fraction * len(raw_blocks)))
        if n_val >= len(raw_blocks):
            raise ConfigError("early stopping needs at least one training block left over")
        order = rng.permutation(len(raw_blocks))
        val_blocks = [PreparedBlock(raw_blocks[i], network) for i in order[:n_val]]
        raw_blocks = [raw_blocks[i] for i in order[n_val:]]
    blocks = [PreparedBlock(b, network) for b in raw_blocks]

    adam = Adam(network.parameters(), lr=cfg.learning_rate, beta1=cfg.momentum,
                beta2=cfg.beta2, decay_factor=cfg.lr_decay, decay_every=cfg.decay_every)

    iters_per_epoch = max(1, len(blocks) // cfg.batch_size)
    epoch_order: np.ndarray = np.empty(0, dtype=np.int64)
    cursor = 0
    best_val = float("inf")
    bad_epochs = 0
    trace: list[float] = []
    stopped_early = False

    def validation_loss() -> float:
        with ad.no_grad():
            return float(np.mean([_block_loss(network, b, cfg).item() for b in val_blocks]))

    iterations_run = 0
    for it in range(cfg.iterations):
        if it % iters_per_epoch == 0:
            if cfg.random_sample and it > 0:
                blocks = [PreparedBlock(b, network) for b in split_scenes(scenes, cfg, rng)]
            epoch_order = rng.permutation(len(blocks))
            cursor = 0
        batch = [blocks[epoch_order[(cursor + k) % len(blocks)]] for k in range(cfg.batch_size)]
        cursor = (cursor + cfg.batch_size) % len(blocks)

        network.zero_grad()
        batch_loss = 0.0
        for block in batch:
            loss = _block_loss(network, block, cfg)
            ad.backward(ad.mul_scalar(loss, 1.0 / cfg.batch_size))
            batch_loss += loss.item()
        if not math.isfinite(batch_loss):
            raise ConfigError(f"training diverged: non-finite loss at iteration {it + 1} "
                              f"(learning_rate = {cfg.learning_rate})")
        adam.step()
        trace.append(batch_loss / cfg.batch_size)
        iterations_run = it + 1

        if cfg.early_stopping and (it + 1) % iters_per_epoch == 0:
            vl = validation_loss()
            if vl < best_val - 1e-12:
                best_val = vl
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    stopped_early = True
                    break

    for p in network.parameters():
        if not np.isfinite(p.values).all():
            raise ConfigError(f"training diverged: parameter {p.name!r} is non-finite "
                              f"after iteration {iterations_run}")
    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt_path,
                    {p.name: p.values for p in network.parameters()},
                    adam.state_arrays(), iterations_run, adam.t,
                    cfg.digest(), cfg.model_digest())
    trace_path = out / "loss_trace.txt"
    with open(trace_path, "w") as f:
        for v in trace:
            f.write(f"{v:.17g}\n")
    with open(out / "config.txt", "w") as f:
        f.write("\n".join(cfg.to_kv_lines()) + "\n")
    return TrainResult(str(ckpt_path), str(trace_path), trace, iterations_run, stopped_early)


def load_network(cfg: RunConfig, checkpoint_path) -> SegmentationNetwork:
    """Rebuild the model described by ``cfg`` and load checkpoint parameters.

    A checkpoint whose parameters hold NaN or inf, as a diverged training run
    writes, is refused with the name of the first such parameter."""
    ckpt = load_checkpoint(checkpoint_path)
    if ckpt.model_digest != cfg.model_digest():
        raise CheckpointError(
            "checkpoint was trained with a different model configuration "
            f"(digest {ckpt.model_digest[:12]} vs {cfg.model_digest()[:12]})")
    for name, values in ckpt.parameters.items():
        if not np.isfinite(values).all():
            raise CheckpointError(f"parameter {name!r} has non-finite values")
    network = build_network(cfg)
    try:
        network.assign_parameters(ckpt.parameters)
    except (KeyError, ad.DimensionError) as e:
        raise CheckpointError(str(e)) from e
    return network


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_parameter: str
    entries_checked: int
    runtime_seconds: float
    per_parameter: dict[str, float]

    def to_text(self) -> str:
        lines = [f"gradient check: max rel error {self.max_rel_error:.3e} "
                 f"({self.entries_checked} entries, {self.runtime_seconds:.2f}s)",
                 f"worst parameter: {self.worst_parameter}"]
        for name, err in sorted(self.per_parameter.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {err:.3e}  {name}")
        return "\n".join(lines)


def relative_error(a: float, b: float, floor: float = 1e-3) -> float:
    # The floor masks central-difference noise (~1e-10 at these loss scales)
    # without hiding genuinely wrong gradients.
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_check_config(base: RunConfig | None = None) -> RunConfig:
    """A 32-point, 64-bit variant of the given config for finite differences."""
    base = base or RunConfig()
    return dataclasses.replace(
        base, dtype="float64", points_per_block=32, min_block_points=8,
        npoints=(8, 4, 2), nsamples=(8, 8, 8), radii=(0.5, 1.0, 2.0),
        min_instances=3, max_instances=3, min_points_per_instance=20,
        max_points_per_instance=40,
    )


def grad_check(cfg: RunConfig | None = None, entries_per_param: int = 3,
               step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of the full-network loss against central
    finite differences on a tiny block, sweeping every parameter tensor."""
    cfg = grad_check_config(cfg)
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    scene = generate_scene(cfg.scene_spec(0))
    network = build_network(cfg)
    prepared = PreparedBlock(split_scenes([scene], cfg, rng)[0], network)

    def loss_value() -> float:
        with ad.no_grad():
            return _block_loss(network, prepared, cfg).item()

    network.zero_grad()
    ad.backward(_block_loss(network, prepared, cfg))

    per_param: dict[str, float] = {}
    checked = 0
    for p in network.parameters():
        grad = p.grad
        if grad is None:
            grad = np.zeros_like(p.values)
        flat = p.tensor.values.reshape(-1)
        n = min(entries_per_param, flat.size)
        picks = rng.choice(flat.size, size=n, replace=False)
        worst = 0.0
        for i in picks:
            original = flat[i]
            flat[i] = original + step
            up = loss_value()
            flat[i] = original - step
            down = loss_value()
            flat[i] = original
            fd = (up - down) / (2 * step)
            worst = max(worst, relative_error(float(grad.reshape(-1)[i]), fd))
            checked += 1
        per_param[p.name] = worst
    worst_name = max(per_param, key=per_param.get)
    return GradCheckReport(max_rel_error=max(per_param.values()),
                           worst_parameter=worst_name, entries_checked=checked,
                           runtime_seconds=time.perf_counter() - started,
                           per_parameter=per_param)
