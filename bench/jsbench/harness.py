"""Runs a workload, checks it, and reports its metrics and environment."""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import layers, workloads
from .env import environment
from .stats import median
from .trace import Tracer

OUT_DIR = ".bench_out"


def declared_metrics(root: Path) -> dict[str, dict[str, dict]]:
    """{"end_to_end": {name: decl}, "per_layer": {name: decl}} from BENCHMARK.json."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise workloads.SetupError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def _run_workload(workload: str, seed: int, seconds: float, tracer, out_root: Path) -> dict:
    if workload == "train-512":
        return workloads.run_train(seed, seconds, tracer, out_root)
    return workloads.run_segment(workload, seed, seconds, tracer)


def _traced_metrics(workload: str, got: dict, tracer: Tracer):
    """Per-layer metrics, the overhead figures and the step or scene intervals
    of a traced run."""
    if workload == "train-512":
        units = [(a, b) for stamps in got.get("step_bounds", []) for a, b in zip(stamps, stamps[1:])]
        traced, untraced = got.get("traced_steps", []), got.get("untraced_steps", [])
        unit = "step_ms.p50"
    else:
        units = got.get("scene_bounds", [])
        traced, untraced = got.get("traced_scene_s", []), got.get("untraced_scene_s", [])
        unit = "scene_s.p50"
    overhead = {}
    pct = 0.0
    if traced and untraced:
        t, u = median(traced), median(untraced)
        pct = (t - u) / u * 100.0
        overhead = {f"{unit} untraced": u, f"{unit} traced": t, "overhead %": pct,
                    "samples each": (len(untraced), len(traced))}
    values = layers.per_layer_metrics(tracer.spans, units, workload == "train-512", pct)
    return values, overhead, units


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, threads: int) -> int:
    declared = declared_metrics(root)
    env = environment(root, threads, seed)
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"

    tracer = Tracer(run_id=stem) if trace else None
    got = _run_workload(workload, seed, seconds, tracer, out_root)
    tally = got["tally"]
    extras: dict = {}
    if trace:
        kind = "per_layer"
        values, extras["tracing overhead"], units = _traced_metrics(workload, got, tracer)
        tracer.write_jsonl(out_root / f"{stem}-spans.jsonl")
        table = layers.layer_table(tracer.spans)
        traced_ms = sum(r["self_ms"] for r in table.values())
        lines = [f"{'span':32s} {'calls':>7s} {'incl ms':>11s} {'self ms':>11s} {'self %':>7s}"]
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
            lines.append(f"{name:32s} {row['calls']:7d} {row['ms']:11.1f} {row['self_ms']:11.1f} "
                         f"{100 * row['self_ms'] / traced_ms if traced_ms else 0:7.2f}")
        unit = "step" if workload == "train-512" else "scene"
        _, share, lowest = layers.unit_coverage(tracer.spans, units)
        lines.append(f"spans cover {100 * share:.1f}% of {unit} time; "
                     f"{100 * lowest:.1f}% of the least covered {unit}")
        (out_root / f"{stem}-layers.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
    else:
        kind = "end_to_end"
        values = dict(got.get("e2e", {}))
        if values:
            values["peak_rss_mb"] = workloads.peak_rss_mb()
        extras["not gated (zero on some workloads)"] = {
            k: values.pop(k) for k in ("mprec", "mrec") if k in values}

    missing = sorted(set(declared[kind]) - set(values))
    if missing:
        tally.notes.append(f"metrics not measured: {missing}")
    undeclared = sorted(set(values) - set(declared[kind]))
    if undeclared:
        tally.notes.append(f"metrics not declared in BENCHMARK.json: {undeclared}")
    if any(not math.isfinite(v) for v in values.values()):
        tally.notes.append("a metric is not finite")
    correct = not tally.notes and tally.failed == 0 and tally.attempted > 0

    metrics = {name: {"value": float(values[name]), "unit": declared[kind][name]["unit"]}
               for name in declared[kind] if name in values}
    extras["failed_ratio"] = tally.failed / tally.attempted if tally.attempted else 1.0
    record = {"workload": workload, "trace": int(trace), "seconds": seconds, "environment": env,
              "samples": got.get("samples", {}), "raw_samples": got.get("raw", {}),
              "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "notes": tally.notes, "metrics": metrics, "extras": extras}
    (out_root / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  samples {got.get('samples', {})}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        better = declared[kind][name].get("better", "")
        print(f"  {name:36s} {_fmt(m['value']):>14s} {m['unit']:8s} ({better} is better)")
    for k, v in extras.items():
        print(f"  {k}: {json.dumps(v, default=_fmt) if isinstance(v, dict) else _fmt(v)}")
    for note in tally.notes:
        print(f"CHECK FAILED: {note}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1
