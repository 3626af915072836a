"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

The overfit criterion trains a full model for 2000 iterations and takes a few
minutes of CPU time; everything else is fast.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from jointseg import autodiff as ad
from jointseg.config import RunConfig
from jointseg.data import SyntheticSceneSpec, generate_scene, split_into_blocks
from jointseg.inference import BlockPrediction, MeanShiftConfig, block_merging, mean_shift, segment_scene
from jointseg.joint import JointSegmentationHead
from jointseg.losses import InstanceGrouping, LossConfig, discriminative_loss
from jointseg.metrics import coverage, evaluate, precision_recall
from jointseg.train import grad_check, load_network, load_scenes, train
from oracles import coverage_loops, precision_recall_loops, random_region_sets, region_set


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    result = grad_check(RunConfig(seed=0))
    elapsed = time.perf_counter() - started
    assert result.max_rel_error < 1e-5, result.to_text()
    assert elapsed < 60.0
    report(1, f"full-network 32-point gradient check: max rel error "
              f"{result.max_rel_error:.2e} < 1e-5 over {result.entries_checked} entries "
              f"in {elapsed:.1f}s")


def test_criterion_2_loss_analytic_cases():
    cfg = LossConfig(delta_v=0.5, delta_d=1.5)

    # embeddings at their instance means, means separated beyond 2*delta_d
    zero = discriminative_loss(ad.Tensor(np.array([[0.0], [0.0], [4.0], [4.0]])),
                               InstanceGrouping([[0, 1], [2, 3]]), cfg)
    assert abs(zero.total.item()) < 1e-12

    # one instance, 1-D embeddings {0, 2}
    pull = discriminative_loss(ad.Tensor(np.array([[0.0], [2.0]])),
                               InstanceGrouping([[0, 1]]), cfg)
    assert abs(pull.pull.item() - 0.25) < 1e-12

    # two singleton instances at 0 and 1
    push = discriminative_loss(ad.Tensor(np.array([[0.0], [1.0]])),
                               InstanceGrouping([[0], [1]]), cfg)
    assert abs(push.push.item() - 4.0) < 1e-12

    report(2, f"analytic embedding-loss cases exact to 1e-12 "
              f"(zero={zero.total.item():.1e}, pull={pull.pull.item():.15f}, "
              f"push={push.push.item():.15f})")


def test_criterion_3_overfit_sanity(tmp_path):
    started = time.perf_counter()
    cfg = RunConfig(seed=0, num_scenes=8, points_per_block=512, num_classes=4,
                    min_instances=2, max_instances=6, iterations=2000)
    result = train(cfg, tmp_path / "overfit")
    ratio = result.losses[-1] / result.losses[0]
    assert ratio < 0.10, f"final/initial loss ratio {ratio:.3f}"

    network = load_network(cfg, result.checkpoint_path)
    scenes = load_scenes(cfg)
    wcov, miou = [], []
    for scene in scenes:
        seg = segment_scene(network, scene, block_size=cfg.block_size, stride=cfg.stride,
                            points_per_block=cfg.points_per_block,
                            min_points=cfg.min_block_points, center_xy=cfg.center_xy,
                            mean_shift_cfg=cfg.mean_shift_config(), seed=cfg.seed,
                            voxel_divisions=cfg.voxel_divisions,
                            overlap_threshold=cfg.overlap_threshold)
        rep = evaluate(scene.instance_ids, scene.semantic_labels, seg.instance, seg.semantic)
        wcov.append(rep.mean_weighted_coverage)
        miou.append(rep.mean_iou)
    elapsed = time.perf_counter() - started
    assert np.mean(wcov) >= 0.85, f"mWCov {np.mean(wcov):.3f}"
    assert np.mean(miou) >= 0.85, f"mIoU {np.mean(miou):.3f}"
    assert elapsed < 600.0
    report(3, f"8-scene overfit: loss {result.losses[0]:.2f} -> {result.losses[-1]:.3f} "
              f"(ratio {ratio:.3f} < 0.10), mWCov {np.mean(wcov):.3f}, "
              f"mIoU {np.mean(miou):.3f}, {elapsed:.0f}s")


def test_criterion_4_clustering_recovery():
    cfg = MeanShiftConfig(bandwidth=0.6)
    worst = 1.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        while True:  # rejection-sample 5 centers with pairwise distance >= 2
            centers = rng.uniform(0, 5, (5, 5))
            d = np.linalg.norm(centers[:, None] - centers[None], axis=2)
            if d[np.triu_indices(5, 1)].min() >= 2.0:
                break
        pts = np.concatenate([c + rng.normal(0, 0.05, (40, 5)) for c in centers])
        truth = np.repeat(np.arange(5), 40)
        labels, modes = mean_shift(pts, cfg)
        assert modes.shape[0] == 5, f"seed {seed}: {modes.shape[0]} clusters"
        agree = sum(np.bincount(labels[truth == t]).max() for t in range(5)) / len(truth)
        worst = min(worst, agree)
        assert agree >= 0.99, f"seed {seed}: agreement {agree:.4f}"
    report(4, f"mean-shift recovered 5/5 planted blobs over 20 seeds "
              f"(worst membership agreement {worst:.4f} >= 0.99)")


def test_criterion_5_metric_oracle_equivalence():
    rng = np.random.default_rng(12345)
    for trial in range(100):
        n, gt_raw, pred_raw = random_region_sets(rng, max_points=30, max_regions=5)
        gt = region_set(gt_raw, n)
        pred = region_set(pred_raw, n)

        assert abs(coverage(gt, pred) - coverage_loops(gt_raw, pred_raw, False)) < 1e-12
        assert abs(coverage(gt, pred, True) - coverage_loops(gt_raw, pred_raw, True)) < 1e-12
        pr = precision_recall(gt, pred)
        mp, mr, _ = precision_recall_loops(gt_raw, pred_raw)
        assert abs(pr.mean_precision - mp) < 1e-12
        assert abs(pr.mean_recall - mr) < 1e-12
    report(5, "Cov/WCov/mPrec/mRec equal the brute-force reference to 1e-12 "
              "on 100 random region sets")


def test_criterion_6_joint_head_structural_ablation():
    rng = np.random.default_rng(0)
    f_sem = ad.Tensor(rng.standard_normal((6, 16)))
    f_ins = ad.Tensor(rng.standard_normal((6, 16)))

    off = JointSegmentationHead(4, 3, width=16, rng=np.random.default_rng(1),
                                dtype=np.float64, instance_fusion=False, semantic_fusion=False)
    base = off(f_sem, f_ins)
    bumped = off(f_sem, ad.Tensor(f_ins.values + rng.standard_normal((6, 16))))
    assert bumped.logits.values.tobytes() == base.logits.values.tobytes()
    bumped = off(ad.Tensor(f_sem.values + rng.standard_normal((6, 16))), f_ins)
    assert bumped.embeddings.values.tobytes() == base.embeddings.values.tobytes()

    on = JointSegmentationHead(4, 3, width=16, rng=np.random.default_rng(1),
                               dtype=np.float64, instance_fusion=True, semantic_fusion=True)
    h = 1e-5

    def fd(fn, values, k):
        up, down = values.copy(), values.copy()
        up.flat[k] += h
        down.flat[k] -= h
        return abs(fn(up) - fn(down)) / (2 * h)

    sens_ins = max(fd(lambda v: float(on(f_sem, ad.Tensor(v)).logits.values.sum()),
                      f_ins.values, k) for k in range(8))
    sens_sem = max(fd(lambda v: float(on(ad.Tensor(v), f_ins).embeddings.values.sum()),
                      f_sem.values, k) for k in range(8))
    assert sens_ins > 1e-8 and sens_sem > 1e-8
    report(6, f"ablated joint head is bit-stable across branches; enabled head has "
              f"cross sensitivities {sens_ins:.2e} / {sens_sem:.2e}")


def test_criterion_7_block_merging_recovers_instance_count():
    spec = SyntheticSceneSpec(seed=21, room_extent=(2.0, 2.0, 0.8), num_classes=4,
                              instance_range=(6, 6), points_per_instance=(150, 250),
                              noise_std=0.003)
    scene = generate_scene(spec)
    blocks = split_into_blocks(scene, block_size=1.0, stride=0.5, points_per_block=512,
                               min_points=16, rng=np.random.default_rng(0))
    assert len(blocks) > 1, "scene must split into overlapping blocks"
    for b in blocks:  # consistency precondition: no window exceeded capacity
        assert np.unique(b.point_indices).size == np.unique(
            np.concatenate([b.point_indices])).size

    predictions = []
    for b in blocks:
        gt_inst = scene.instance_ids[b.point_indices]
        local_ids = np.unique(gt_inst)
        lut = {g: i for i, g in enumerate(local_ids)}
        predictions.append(BlockPrediction(
            semantic=scene.semantic_labels[b.point_indices],
            instance=np.array([lut[g] for g in gt_inst]),
            instance_categories=np.array(
                [int(scene.semantic_labels[scene.instance_ids == g][0]) for g in local_ids]),
            point_indices=b.point_indices))

    seg = block_merging(predictions, scene, num_classes=4)
    truth = np.unique(scene.instance_ids).size
    assert seg.num_instances == truth, f"{seg.num_instances} vs {truth} instances"
    report(7, f"{len(blocks)} overlapping blocks with ground-truth predictions merged "
              f"to exactly {truth} scene instances")


def test_criterion_8_training_determinism(tmp_path):
    cfg = RunConfig(seed=7, num_scenes=4, iterations=50)
    r1 = train(cfg, tmp_path / "a")
    r2 = train(cfg, tmp_path / "b")
    trace_equal = Path(r1.trace_path).read_bytes() == Path(r2.trace_path).read_bytes()
    ckpt_equal = Path(r1.checkpoint_path).read_bytes() == Path(r2.checkpoint_path).read_bytes()
    assert trace_equal, "loss traces differ"
    assert ckpt_equal, "checkpoints differ"
    report(8, f"two {cfg.iterations}-iteration runs produced byte-identical loss "
              f"traces and checkpoints")
