"""The three workloads, run through jointseg's public entry points.

Every run is a closed loop in one process: one caller, and the next training
step or scene starts only when the previous one has returned.

- ``train-512``: ``jointseg.train.train`` at the default ``RunConfig`` (8
  synthetic 1 m scenes, 512-point blocks, batch 4) in episodes of
  ``TRAIN_ITERATIONS`` steps, one per seed of ``TRAIN_SEEDS`` derived from the
  run seed, repeated in turn while time remains. The only instrumentation of
  an untraced run is one timestamp per ``Adam.step`` return.
- ``segment-4096`` / ``segment-512-dense``: ``jointseg.inference.segment_scene``
  then ``jointseg.metrics.evaluate`` on each scene of a seeded pool, with the
  committed checkpoint. The only instrumentation of an untraced run is one
  timestamp per ``predict_block`` return.

Each workload also reports the end-to-end metrics that belong to the other
kind, from a short phase after its timed loop (see README.md): train-512
segments its training scenes with the committed model, and the segment
workloads score the committed model's loss on their blocks.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through module attributes, so the traced run's rebinding sees them.
from jointseg import autodiff as ad
from jointseg import data, inference, metrics, optim
from jointseg.config import RunConfig
from jointseg.data import Scene, SyntheticSceneSpec
from jointseg.losses import InstanceGrouping, total_loss

from . import layers
from .stats import mean, median, percentile
from .trace import Tracer

jtrain = importlib.import_module("jointseg.train")  # the package re-exports train() under this name

BENCH_DIR = Path(__file__).resolve().parent.parent
CHECKPOINT = BENCH_DIR / "model" / "c3_seed0.ckpt"
CHECKPOINT_SHA256 = BENCH_DIR / "model" / "c3_seed0.sha256"

TRAIN_ITERATIONS = 50     # steps per train() episode; the first one is not timed
TRAIN_SEEDS = 4           # run seed s trains RunConfig(seed=4s .. 4s+3), one episode each
MIN_TIMED_STEPS = 100     # so step_ms.p90 has at least ten samples beyond it
FINAL_LOSS_STEPS = 10     # final_loss: mean over TRAIN_SEEDS episodes of their last 10 losses
SETUP_REPEATS = 5         # segment workloads set up this many times per run
SCENE_SEED_STRIDE = 1009  # scene j of run seed s uses seed s * stride + j


@dataclass(frozen=True)
class SegmentWorkload:
    room: float                          # square room side, metres
    points_per_instance: tuple[int, int]
    points_per_block: int
    scenes: int                          # scene pool per run; scene j is generated with seed j


# Scene layouts are fixed because scene time (26-37 s at 4096 points) and
# coverage (0.50-0.84) vary more between layouts than a run of one or two
# scenes can average out; the run seed varies which points each block samples.
SEGMENT_WORKLOADS = {
    # paper-scale blocks: mean-shift over 4096 embeddings dominates time and memory
    "segment-4096": SegmentWorkload(1.5, (1400, 1550), 4096, 1),
    # many small blocks over a dense room: merging and per-block forward work
    "segment-512-dense": SegmentWorkload(3.0, (4700, 4950), 512, 2),
}
WORKLOADS = ("train-512", *SEGMENT_WORKLOADS)

QUALITY = {"mwcov": "mean_weighted_coverage", "miou": "mean_iou",
           "mprec": "mean_precision", "mrec": "mean_recall"}


class SetupError(RuntimeError):
    """The benchmark's own inputs are missing or altered."""


@dataclass
class Tally:
    """Attempted and failed operations (steps or scenes) plus check notes."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)


def verified_checkpoint() -> Path:
    want = CHECKPOINT_SHA256.read_text().split()[0]
    got = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if got != want:
        raise SetupError(f"{CHECKPOINT.name} has sha256 {got}, expected {want}")
    return CHECKPOINT


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stamps:
    """Appends a timestamp each time ``owner.attr`` returns."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.times: list[float] = []

    def __enter__(self) -> "Stamps":
        self.original = getattr(self.owner, self.attr)
        original, times = self.original, self.times

        def stamped(*args, **kwargs):
            result = original(*args, **kwargs)
            times.append(time.perf_counter())
            return result

        setattr(self.owner, self.attr, stamped)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self.original)


def _tracing(tracer: Tracer | None):
    """Install the layer wrappers on a tracer (removed when the block exits),
    or do nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.install(layers.targets())
    return tracer


# ---------------------------------------------------------------------------
# segmentation of one scene, shared by all workloads

def scene_seed(seed: int, j: int) -> int:
    return seed * SCENE_SEED_STRIDE + j


def scene_spec(w: SegmentWorkload, j: int) -> SyntheticSceneSpec:
    return SyntheticSceneSpec(seed=j, room_extent=(w.room, w.room, 0.8),
                              num_classes=4, instance_range=(6, 6),
                              points_per_instance=w.points_per_instance)


def _segment_checked(network, scene: Scene, cfg: RunConfig, points_per_block: int, seed: int,
                     tally: Tally, label: str):
    """One closed-loop scene, segment then evaluate: (seconds, result, report),
    or None when it raised or failed a check, which ``tally`` counts."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        seg = inference.segment_scene(
            network, scene, block_size=cfg.block_size, stride=cfg.stride,
            points_per_block=points_per_block, min_points=cfg.min_block_points,
            center_xy=cfg.center_xy, mean_shift_cfg=cfg.mean_shift_config(), seed=seed,
            voxel_divisions=cfg.voxel_divisions, overlap_threshold=cfg.overlap_threshold)
        report = metrics.evaluate(scene.instance_ids, scene.semantic_labels,
                                  seg.instance, seg.semantic)
    except Exception as e:  # counted, never dropped
        tally.fail(1, f"{label} raised {type(e).__name__}: {e}")
        return None
    dt = time.perf_counter() - t0
    why = check_segmentation(seg, scene, report, cfg.num_classes)
    if why:
        tally.fail(1, f"{label}: {why}")
        return None
    return dt, seg, report


def check_segmentation(seg, scene: Scene, report, num_classes: int) -> str | None:
    """Why a scene result is invalid, or None when every point has a class in
    range and a dense instance id, and every score is finite."""
    n = scene.num_points
    if seg.semantic.shape != (n,) or seg.instance.shape != (n,):
        return f"result covers {seg.semantic.shape}/{seg.instance.shape} of {n} points"
    if seg.semantic.min() < 0 or seg.semantic.max() >= num_classes:
        return f"class ids outside [0, {num_classes})"
    if not np.array_equal(np.unique(seg.instance), np.arange(seg.num_instances)):
        return "instance ids are not dense 0..num_instances-1"
    scores = [getattr(report, a) for a in QUALITY.values()]
    if not all(math.isfinite(v) for v in scores):
        return f"non-finite scores {scores}"
    return None


def _quality(reports) -> dict[str, float]:
    return {k: mean(getattr(r, a) for r in reports) for k, a in QUALITY.items()}


def _block_steps(stamps: list[float], scene_starts: list[float]) -> list[float]:
    """Per-block step times (ms) from predict_block returns; each scene's first
    block is timed from the scene's start."""
    starts = sorted(scene_starts)
    steps, prev, k = [], None, 0
    for t in stamps:
        while k < len(starts) and starts[k] <= t:
            prev, k = starts[k], k + 1
        steps.append((t - prev) * 1e3)
        prev = t
    return steps


# ---------------------------------------------------------------------------
# train-512

def _train_episode(cfg: RunConfig, out_dir: Path, tally: Tally):
    """One train() call. Returns (setup_s, step ms, losses, step-return
    timestamps), or None when it raised."""
    tally.attempted += cfg.iterations
    t0 = time.perf_counter()
    try:
        with Stamps(optim.Adam, "step") as st:
            result = jtrain.train(cfg, out_dir)
    except Exception as e:  # a failing episode counts every step it did not finish
        done = len(st.times)
        tally.fail(cfg.iterations - done, f"train raised {type(e).__name__}: {e}")
        return None
    losses = result.losses
    bad = sum(not math.isfinite(v) for v in losses)
    if bad:
        tally.fail(bad, f"{bad} non-finite step losses")
    if len(st.times) != cfg.iterations:
        tally.fail(cfg.iterations - len(st.times), "fewer optimizer steps than iterations")
    setup_s = st.times[0] - t0
    steps = [(b - a) * 1e3 for a, b in zip(st.times, st.times[1:])]
    return setup_s, steps, losses, st.times


def _write_training_scenes(out_dir: Path) -> Path:
    """The 8 scenes ``RunConfig(seed=0)`` generates (the acceptance-criterion-3
    dataset) as scene files that every train-512 episode loads."""
    scene_dir = out_dir / "scenes"
    scene_dir.mkdir(parents=True, exist_ok=True)
    for i, scene in enumerate(jtrain.load_scenes(RunConfig(seed=0))):
        data.save_scene(scene_dir / f"scene_{i:03d}.scene", scene)
    return scene_dir


def run_train(seed: int, seconds: float, tracer: Tracer | None, out_root: Path) -> dict:
    out_dir = out_root / f"train-seed{seed}"
    try:
        return _run_train(seed, seconds, tracer, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _run_train(seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> dict:
    scene_dir = _write_training_scenes(out_dir)
    # TRAIN_SEEDS distinct configs per run; later episodes repeat them in turn
    configs = [RunConfig(seed=seed * TRAIN_SEEDS + e, iterations=TRAIN_ITERATIONS,
                         data_dir=str(scene_dir)) for e in range(TRAIN_SEEDS)]
    tally = Tally()
    setups, steps, traced_steps, step_bounds = [], [], [], []
    first_losses: list[list[float]] = []
    started = time.perf_counter()
    episode_s = 0.0
    n = 0
    # trace runs alternate untraced and traced episodes, so both see the same drift
    while (n < len(configs) or len(steps) + len(traced_steps) < MIN_TIMED_STEPS
           or time.perf_counter() - started + episode_s <= seconds):
        traced = tracer is not None and n % 2 == 1
        t = time.perf_counter()
        with _tracing(tracer if traced else None):
            got = _train_episode(configs[n % len(configs)], out_dir, tally)
        episode_s = time.perf_counter() - t
        n += 1
        if got is None:
            break
        setup_s, ep_steps, losses, stamps = got
        if len(first_losses) < len(configs):
            first_losses.append(losses)
        elif losses != first_losses[(n - 1) % len(configs)]:
            tally.fail(len(losses), "a repeated episode's loss trace differs (non-deterministic)")
        (traced_steps if traced else steps).extend(ep_steps)
        if traced:
            step_bounds.append(stamps)
        setups.append(setup_s)

    out = {"tally": tally, "e2e": {}, "raw": {"step_ms": steps, "setup_s": setups},
           "samples": {"steps": len(steps), "episodes": n, "setups": len(setups)}}
    if len(first_losses) < len(configs):
        return out
    if tracer is not None:
        out.update(traced_steps=traced_steps, untraced_steps=steps, step_bounds=step_bounds)
        return out

    cfg = configs[0]
    step_s = sum(steps) / 1e3
    e2e = {
        "setup_s": median(setups),
        "step_ms.p50": median(steps),
        "step_ms.p90": percentile(steps, 90),
        "blocks_per_s": cfg.batch_size * len(steps) / step_s,
        "points_per_s": cfg.batch_size * cfg.points_per_block * len(steps) / step_s,
        "final_loss": mean(mean(losses[-FINAL_LOSS_STEPS:]) for losses in first_losses),
    }
    # the scene and quality metrics: the committed model segments the training
    # scenes after the timed loop, sampling blocks with each config's seed
    network = jtrain.load_network(RunConfig(seed=0), verified_checkpoint())
    scene_times, reports = [], []
    for c in configs:
        for j, scene in enumerate(jtrain.load_scenes(c)):
            got = _segment_checked(network, scene, c, c.points_per_block, scene_seed(c.seed, j),
                                   tally, f"training scene {j} with seed {c.seed}")
            if got:
                scene_times.append(got[0])
                reports.append(got[2])
    if scene_times:
        e2e["scene_s.p50"] = median(scene_times)
        e2e.update(_quality(reports))
    out["samples"]["scenes"] = len(scene_times)
    out["raw"]["scene_s"] = scene_times
    out["e2e"] = e2e
    return out


# ---------------------------------------------------------------------------
# segment-*

def _segment_setup(w: SegmentWorkload, seed: int, cfg: RunConfig):
    scenes = [data.generate_scene(scene_spec(w, j)) for j in range(w.scenes)]
    blocks = [data.split_into_blocks(s, cfg.block_size, cfg.stride, w.points_per_block,
                                cfg.min_block_points, cfg.center_xy,
                                np.random.default_rng(scene_seed(seed, j)))
              for j, s in enumerate(scenes)]
    network = jtrain.load_network(cfg, verified_checkpoint())
    return scenes, blocks, network


def run_segment(name: str, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    w = SEGMENT_WORKLOADS[name]
    cfg = RunConfig(seed=0)  # the committed checkpoint's configuration
    tally = Tally()
    setups = []
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with _tracing(tracer if r == 0 else None):
            scenes, blocks, network = _segment_setup(w, seed, cfg)
        setups.append(time.perf_counter() - t0)

    first: list = [None] * len(scenes)
    scene_times, traced_times, untraced_times, scene_starts, scene_bounds = [], [], [], [], []
    reports = [None] * len(scenes)
    started = time.perf_counter()
    pass_s = 0.0
    passes = 0
    with Stamps(inference, "predict_block") as st:
        while passes < 1 or time.perf_counter() - started + pass_s <= seconds:
            t_pass = time.perf_counter()
            for j, scene in enumerate(scenes):
                modes = [None, tracer] if tracer is not None else [None]
                for mode in modes:
                    with _tracing(mode):
                        scene_starts.append(time.perf_counter())
                        got = _segment_checked(network, scene, cfg, w.points_per_block,
                                               scene_seed(seed, j), tally, f"scene {j}")
                    if got is None:
                        continue
                    dt, seg, report = got
                    if first[j] is None:
                        first[j], reports[j] = seg, report
                    elif not (np.array_equal(seg.instance, first[j].instance)
                              and np.array_equal(seg.semantic, first[j].semantic)):
                        tally.fail(1, f"scene {j}: differs from its first pass (non-deterministic)")
                        continue
                    if mode is None:
                        (untraced_times if tracer else scene_times).append(dt)
                    else:
                        traced_times.append(dt)
                        scene_bounds.append((scene_starts[-1], scene_starts[-1] + dt))
            passes += 1
            pass_s = time.perf_counter() - t_pass

    out = {"tally": tally, "e2e": {}, "raw": {"scene_s": scene_times, "setup_s": setups},
           "samples": {"scenes": len(scene_times) + len(untraced_times) + len(traced_times),
                       "passes": passes, "setups": len(setups)}}
    if tracer is not None:
        out.update(traced_scene_s=traced_times, untraced_scene_s=untraced_times,
                   scene_bounds=scene_bounds)
        return out
    if not scene_times or any(r is None for r in reports):
        return out

    n_points = sum(s.num_points for s in scenes) * passes
    n_blocks = sum(len(b) for b in blocks) * passes
    steps = _block_steps(st.times, scene_starts)
    e2e = {
        "setup_s": median(setups),
        "step_ms.p50": median(steps),
        "step_ms.p90": percentile(steps, 90),
        "blocks_per_s": n_blocks / sum(scene_times),
        "points_per_s": n_points / sum(scene_times),
        "scene_s.p50": median(scene_times),
        **_quality(reports),
    }
    out["samples"]["steps"] = len(steps)
    out["raw"]["step_ms"] = steps
    # final_loss: the committed model's training loss on this run's blocks
    with ad.no_grad():
        losses = []
        for block in (b for bs in blocks for b in bs):
            o = network.forward(block.features)
            losses.append(total_loss(o.logits, block.semantic_labels, o.embeddings,
                                     InstanceGrouping.from_labels(block.instance_ids),
                                     cfg.loss_config()).item())
    if not all(math.isfinite(v) for v in losses):
        tally.fail(0, "non-finite loss of the committed model")
    e2e["final_loss"] = mean(losses)
    out["e2e"] = e2e
    return out
