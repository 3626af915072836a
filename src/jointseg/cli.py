"""Command-line front end.

Subcommands: gen-data, train, infer, eval, grad-check. Exit codes are
category-coded: 0 success, 2 configuration, 3 data files/generation,
4 checkpoints, 5 internal shape/graph contracts, 1 a failed grad-check or
anything else. File formats live in ``data`` and ``checkpoint``; this module
only maps their errors to exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

from . import autodiff as ad
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, load_config
from .data import (SceneFormatError, SceneGenerationError, generate_scene, load_result,
                   load_scene, save_result, save_scene)
from .inference import NoBlocksError, NonFiniteOutputError, segment_scene
from .metrics import evaluate
from .train import grad_check, load_network, train

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_CONTRACT = 5


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


@contextlib.contextmanager
def _output_dir(path):
    """Create the ``--out`` directory (if one is given) before any work, so a
    path that cannot be one is a config error; remove the directories made
    here again, while still empty, when the command then fails."""
    if path is None:
        yield
        return
    out = Path(path)
    made = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {path} cannot be created as a directory: {e}") from e
    try:
        yield
    except BaseException:
        with contextlib.suppress(OSError):
            for p in made:
                p.rmdir()
        raise


def cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out)
    for i in range(cfg.num_scenes):
        scene = generate_scene(cfg.scene_spec(i))
        path = out / f"scene_{i:03d}.scene"
        save_scene(path, scene)
        print(f"wrote {path} ({scene.num_points} points, "
              f"{int(scene.instance_ids.max()) + 1} instances)")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    result = train(cfg, args.out)
    print(f"trained {result.iterations_run} iterations"
          + (" (stopped early)" if result.stopped_early else ""))
    print(f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_infer(args) -> int:
    cfg = _resolve_config(args)
    network = load_network(cfg, args.checkpoint)
    scene = load_scene(args.scene)
    try:
        seg = segment_scene(network, scene, block_size=cfg.block_size, stride=cfg.stride,
                            points_per_block=cfg.points_per_block,
                            min_points=cfg.min_block_points, center_xy=cfg.center_xy,
                            mean_shift_cfg=cfg.mean_shift_config(), seed=cfg.seed,
                            voxel_divisions=cfg.voxel_divisions,
                            overlap_threshold=cfg.overlap_threshold)
    except NonFiniteOutputError as e:  # load_scene checked the scene, so the model is at fault
        raise CheckpointError(f"{args.checkpoint}: {e}") from e
    except NoBlocksError as e:
        raise ConfigError(f"{args.scene}: {e}") from e
    path = Path(args.out) / (Path(args.scene).stem + ".result")
    save_result(path, seg.semantic, seg.instance)
    print(f"segmented {len(seg.semantic)} points into {seg.num_instances} instances "
          f"({seg.uncovered_points} resolved via nearest voxel)")
    print(f"result: {path}")
    return 0


def cmd_eval(args) -> int:
    scene = load_scene(args.scene)
    pred_classes, pred_instances = load_result(args.result)
    if len(pred_classes) != scene.num_points:
        raise SceneFormatError(
            f"result has {len(pred_classes)} points but scene has {scene.num_points}")
    report = evaluate(scene.instance_ids, scene.semantic_labels, pred_instances, pred_classes)
    print(report.to_text())
    if args.out:
        out = Path(args.out)
        (out / "report.txt").write_text(report.to_text() + "\n")
        (out / "report.kv").write_text("\n".join(report.to_kv_lines()) + "\n")
        print(f"report: {out / 'report.txt'}")
    return 0


def cmd_grad_check(args) -> int:
    report = grad_check(_resolve_config(args))
    print(report.to_text())
    if args.out:
        (Path(args.out) / "grad_check.txt").write_text(report.to_text() + "\n")
    return 0 if report.max_rel_error < 1e-5 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jointseg",
                                     description="joint instance/semantic point-cloud segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="write synthetic labeled scenes")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="segment a scene with a trained checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score a segmentation result against ground truth")
    p.add_argument("--result", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", default=None, help="optional report directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference check of all gradients")
    common(p, needs_out=False)
    p.add_argument("--out", default=None, help="optional report directory")
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _output_dir(args.out):
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SceneFormatError, SceneGenerationError, OSError) as e:  # missing file, directory
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (ad.DimensionError, ad.GraphError) as e:
        print(f"contract error: {e}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
