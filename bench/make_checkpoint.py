"""Train the fixed model that the segment workloads load.

Trains ``RunConfig(seed=0)`` for its default 2000 iterations (the training run
of acceptance criterion 3), then writes its parameters without the optimizer
moments to ``bench/model/c3_seed0.ckpt`` and its sha256 next to it. The
benchmark refuses to run when the file does not match that digest, so both
sides of a comparison cluster the same embeddings.

    python3 bench/make_checkpoint.py

Takes about four minutes on one core. Committing a new checkpoint changes the
segment workloads' inputs; it is a change to the benchmark, not to the program.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from jointseg.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from jointseg.config import RunConfig  # noqa: E402
from jointseg.train import train  # noqa: E402

CHECKPOINT = BENCH_DIR / "model" / "c3_seed0.ckpt"


def main() -> int:
    cfg = RunConfig(seed=0)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        result = train(cfg, tmp)
        ckpt = load_checkpoint(result.checkpoint_path)
    CHECKPOINT.parent.mkdir(exist_ok=True)
    save_checkpoint(CHECKPOINT, ckpt.parameters, {}, ckpt.iteration, ckpt.optimizer_step,
                    ckpt.config_digest, ckpt.model_digest)
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    CHECKPOINT.with_suffix(".sha256").write_text(digest + "\n")
    print(f"{CHECKPOINT.relative_to(BENCH_DIR.parent)}: {CHECKPOINT.stat().st_size} bytes, "
          f"final loss {result.losses[-1]:.4f}, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
