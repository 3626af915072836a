"""Self-test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from jsbench import harness, layers, workloads  # noqa: E402
from jsbench.trace import Span, Tracer, covered_within, jointseg_modules, self_times  # noqa: E402


def original_bindings() -> dict[tuple[str, str], int]:
    """id() of every jointseg module global and of every attribute of the
    classes jointseg defines, to compare before and after tracing."""
    out = {}
    for mod in jointseg_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("jointseg"):
                for attr, member in vars(value).items():
                    out[(mod.__name__, f"{name}.{attr}")] = id(member)
    return out


def test_self_time_of_nested_spans():
    #  train.train [0, 10]
    #    a [1, 4]        b [5, 9]
    #      a1 [2, 3]       b1 [5, 6]  b2 [7, 9]
    spans = [
        Span("train.train", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a1", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        Span("b1", 5.0, 6.0, 3, "r"),
        Span("b2", 7.0, 9.0, 3, "r"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])
    assert covered_within(spans, 0.0, 10.0, {"a", "b"}) == pytest.approx(7.0)
    assert covered_within(spans, 3.5, 6.0, {"a", "b"}) == pytest.approx(1.5)
    uncovered_ms, share, lowest = layers.unit_coverage(spans, [(0.0, 5.0), (5.0, 10.0)])
    assert share == pytest.approx(0.7)  # every span but the root covers
    assert uncovered_ms == pytest.approx(1.5e3)
    assert lowest == pytest.approx(0.6)  # [0, 5] is covered by a for 3 of 5


def test_overlapping_children_are_not_counted_twice():
    spans = [Span("p", 0.0, 4.0, None, "r"), Span("c", 0.0, 2.0, 0, "r"),
             Span("d", 1.0, 3.0, 0, "r")]
    assert self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A checkout-like root with the real BENCHMARK.json and tiny workloads."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(workloads, "TRAIN_ITERATIONS", 3)
    monkeypatch.setattr(workloads, "MIN_TIMED_STEPS", 1)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "SEGMENT_WORKLOADS", {
        name: workloads.SegmentWorkload(1.0, (60, 80), 512, 1)
        for name in workloads.SEGMENT_WORKLOADS})
    return tmp_path


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_are_declared(tiny, capsys, workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    before = original_bindings()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        code = harness.run(workload, 3, 0.0, trace, tiny, threads=1)
        result = _last_json(capsys)
        assert code == 0 and result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
        for m in spec[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert original_bindings() == before
    assert (tiny / harness.OUT_DIR / f"{workload}-seed3-trace1-spans.jsonl").stat().st_size > 0


def test_traced_run_restores_every_wrapped_name():
    before = original_bindings()
    tracer = Tracer()
    with tracer:
        tracer.install(layers.targets())
        changed = {k for k, v in original_bindings().items() if before.get(k) != v}
        # the wrappers reach train() both as jointseg.train.train and jointseg.train
        assert ("jointseg.train", "train") in changed and ("jointseg", "train") in changed
        assert ("jointseg.optim", "Adam.step") in changed
    assert original_bindings() == before


def test_install_failure_leaves_nothing_patched():
    before = original_bindings()
    bad = layers.targets() + [layers.Target("jointseg.inference", "no_such_function", "x")]
    with pytest.raises(AttributeError):
        Tracer().install(bad)
    assert original_bindings() == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-512", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_altered_checkpoint_is_refused(monkeypatch, tmp_path):
    fake = tmp_path / "c.ckpt"
    raw = workloads.CHECKPOINT.read_bytes()
    fake.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
    monkeypatch.setattr(workloads, "CHECKPOINT", fake)
    with pytest.raises(workloads.SetupError):
        workloads.verified_checkpoint()
