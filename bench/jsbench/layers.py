"""Which jointseg calls the traced run wraps, and the per-layer metrics it
derives from their spans."""

from __future__ import annotations

from collections import defaultdict

from .stats import mean
from .trace import Span, Target, covered_within, self_times

# Top-level spans that stand for a whole step or scene; the share of a step or
# scene that the spans cover counts every span except these.
ROOTS = {"train.train", "inference.segment_scene"}


def _graph_nodes(args, kwargs, result):
    from jointseg import autodiff as ad

    return {"graph_nodes": len(ad.graph_nodes(args[0]))}


def _modes(args, kwargs, result):
    _, centers = result
    return {"modes": centers.shape[0], "seeds": args[0].shape[0]}


def _merge(args, kwargs, result):
    import numpy as np

    scene = args[1]
    return {"instances": result.num_instances, "uncovered": result.uncovered_points,
            "points": scene.num_points,
            "true_instances": int(np.unique(scene.instance_ids[scene.instance_ids >= 0]).size)}


def targets() -> list[Target]:
    return [
        Target("jointseg.train", "train", "train.train"),
        Target("jointseg.data", "generate_scene", "data.generate_scene"),
        Target("jointseg.data", "split_into_blocks", "data.split_into_blocks"),
        Target("jointseg.backbone", "Backbone.compute_geometry", "backbone.compute_geometry"),
        Target("jointseg.backbone", "Encoder.apply", "backbone.encoder"),
        Target("jointseg.backbone", "Decoder.apply", "backbone.decoders"),
        Target("jointseg.fusion", "FeatureFusion.apply", "fusion"),
        Target("jointseg.joint", "JointSegmentationHead.__call__", "joint"),
        Target("jointseg.network", "SegmentationNetwork.forward", "network.forward"),
        Target("jointseg.losses", "total_loss", "losses.total_loss"),
        Target("jointseg.autodiff", "backward", "autodiff.backward", before=_graph_nodes),
        Target("jointseg.optim", "Adam.step", "optim.step"),
        Target("jointseg.inference", "segment_scene", "inference.segment_scene"),
        Target("jointseg.inference", "predict_block", "inference.predict_block"),
        Target("jointseg.inference", "mean_shift", "inference.mean_shift", after=_modes),
        Target("jointseg.inference", "block_merging", "inference.block_merging", after=_merge),
        Target("jointseg.metrics", "evaluate", "metrics.evaluate"),
        Target("jointseg.checkpoint", "load_checkpoint", "checkpoint.load"),
        Target("jointseg.checkpoint", "save_checkpoint", "checkpoint.save"),
    ]


# per-layer metric -> (span name, statistic); statistics:
#   per_call  mean inclusive ms per call      per_forward  inclusive ms per forward
#   self      mean self ms per call           count:<key>  mean of a span count
PER_CALL = {
    "network.forward.ms": ("network.forward", "per_call"),
    "backbone.encoder.ms": ("backbone.encoder", "per_forward"),
    "backbone.decoders.ms": ("backbone.decoders", "per_forward"),
    "fusion.ms": ("fusion", "per_forward"),
    "joint.ms": ("joint", "per_forward"),
    "losses.total_loss.ms": ("losses.total_loss", "per_call"),
    "autodiff.backward.ms": ("autodiff.backward", "per_call"),
    "autodiff.graph_nodes": ("autodiff.backward", "count:graph_nodes"),
    "optim.step.ms": ("optim.step", "per_call"),
    "data.generate_scene.ms": ("data.generate_scene", "per_call"),
    "data.split_into_blocks.ms": ("data.split_into_blocks", "per_call"),
    "backbone.compute_geometry.ms": ("backbone.compute_geometry", "per_call"),
    "checkpoint.load.ms": ("checkpoint.load", "per_call"),
    "checkpoint.save.ms": ("checkpoint.save", "per_call"),
    "inference.predict_block.self_ms": ("inference.predict_block", "self"),
    "inference.mean_shift.ms": ("inference.mean_shift", "per_call"),
    "inference.mean_shift.modes": ("inference.mean_shift", "count:modes"),
    "inference.block_merging.ms": ("inference.block_merging", "per_call"),
    "inference.uncovered_points": ("inference.block_merging", "count:uncovered"),
    "metrics.evaluate.ms": ("metrics.evaluate", "per_call"),
    "inference.segment_scene.self_ms": ("inference.segment_scene", "self"),
}
DERIVED = ("train.loop.self_ms", "inference.mean_shift.modes_per_seed",
           "inference.covered_ratio", "inference.instances_per_true", "blocks_per_scene",
           "trace.span_coverage", "trace.overhead_pct")
PER_LAYER_METRICS = (*PER_CALL, *DERIVED)


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive ms, self ms."""
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for s, own in zip(spans, selfs):
        row = table[s.name]
        row["calls"] += 1
        row["ms"] += s.duration * 1e3
        row["self_ms"] += own * 1e3
    return dict(table)


def unit_coverage(spans: list[Span], units: list[tuple[float, float]]) -> tuple[float, float, float]:
    """For closed-loop units (steps or scenes) given as (start, end): the mean
    uncovered ms per unit, the share of all unit time that spans cover, and
    the lowest share of any one unit."""
    names = {s.name for s in spans} - ROOTS
    total = covered = 0.0
    lowest = 1.0
    for lo, hi in units:
        c = covered_within(spans, lo, hi, names)
        total += hi - lo
        covered += c
        lowest = min(lowest, c / (hi - lo))
    if not units or total <= 0:
        return 0.0, 0.0, 0.0
    return (total - covered) / len(units) * 1e3, covered / total, lowest


def per_layer_metrics(spans: list[Span], units: list[tuple[float, float]], step_units: bool,
                      overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric; a layer the spans never reach reads 0."""
    table = layer_table(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    forwards = table.get("network.forward", {}).get("calls", 0)

    out: dict[str, float] = {}
    for metric, (name, stat) in PER_CALL.items():
        row = table.get(name)
        if row is None:
            out[metric] = 0.0
        elif stat == "per_call":
            out[metric] = row["ms"] / row["calls"]
        elif stat == "per_forward":
            out[metric] = row["ms"] / forwards if forwards else 0.0
        elif stat == "self":
            out[metric] = row["self_ms"] / row["calls"]
        else:
            key = stat.split(":", 1)[1]
            out[metric] = mean(s.counts.get(key, 0) for s in by_name[name])

    def total(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in by_name[name])

    seeds = total("inference.mean_shift", "seeds")
    points = total("inference.block_merging", "points")
    true = total("inference.block_merging", "true_instances")
    scenes = table.get("inference.segment_scene", {}).get("calls", 0)
    uncovered_ms, coverage, _ = unit_coverage(spans, units)
    out["train.loop.self_ms"] = uncovered_ms if step_units else 0.0
    out["inference.mean_shift.modes_per_seed"] = (
        total("inference.mean_shift", "modes") / seeds if seeds else 0.0)
    out["inference.covered_ratio"] = (
        1.0 - total("inference.block_merging", "uncovered") / points if points else 0.0)
    out["inference.instances_per_true"] = (
        total("inference.block_merging", "instances") / true if true else 0.0)
    out["blocks_per_scene"] = (
        table.get("inference.predict_block", {}).get("calls", 0) / scenes if scenes else 0.0)
    out["trace.span_coverage"] = coverage
    out["trace.overhead_pct"] = overhead_pct
    return out
