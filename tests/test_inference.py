import tracemalloc

import numpy as np
import pytest

from jointseg import inference
from jointseg.backbone import LayerSpec
from jointseg.data import Scene, SyntheticSceneSpec, generate_scene, split_into_blocks
from jointseg.inference import (BlockPrediction, MeanShiftConfig, block_merging, mean_shift,
                                predict_block, segment_scene)
from jointseg.network import SegmentationNetwork

from oracles import block_merging_loop, mean_shift_dense

CFG = MeanShiftConfig(bandwidth=0.6)


def planted_blobs(rng, centers, n_per=25, sigma=0.05):
    points = np.concatenate([c + rng.normal(0, sigma, (n_per, len(c))) for c in centers])
    truth = np.repeat(np.arange(len(centers)), n_per)
    return points, truth


def agreement(labels, truth) -> float:
    """Best-case fraction of points whose label maps onto their true cluster."""
    score = 0
    for t in np.unique(truth):
        members = labels[truth == t]
        score += np.bincount(members).max()
    return score / len(truth)


# ---------------------------------------------------------------------------
# mean shift

def test_identical_points_form_one_cluster():
    labels, modes = mean_shift(np.ones((10, 4)), CFG)
    assert np.array_equal(labels, np.zeros(10))
    assert modes.shape == (1, 4)
    assert np.allclose(modes[0], 1.0)


def test_single_point_is_its_own_mode():
    labels, modes = mean_shift(np.array([[2.0, -1.0]]), CFG)
    assert labels.tolist() == [0]
    assert np.allclose(modes[0], [2.0, -1.0])


def test_two_distant_blobs_recovered_exactly():
    rng = np.random.default_rng(0)
    pts, truth = planted_blobs(rng, [np.zeros(3), np.full(3, 5.0)], n_per=30)
    labels, modes = mean_shift(pts, CFG)
    assert modes.shape[0] == 2
    assert agreement(labels, truth) == 1.0


def test_output_is_a_partition():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 5))
    labels, modes = mean_shift(pts, CFG)
    assert labels.shape == (40,)
    assert labels.min() >= 0
    assert labels.max() < modes.shape[0]
    assert np.array_equal(np.unique(labels), np.arange(modes.shape[0]))


def test_permutation_invariance_up_to_renaming():
    rng = np.random.default_rng(2)
    pts, _ = planted_blobs(rng, [np.zeros(4), np.full(4, 4.0), np.array([0, 4, 0, 4.0])])
    labels, _ = mean_shift(pts, CFG)
    perm = rng.permutation(len(pts))
    permuted_labels, _ = mean_shift(pts[perm], CFG)
    # equality of the induced partitions
    for k in np.unique(labels):
        members = np.flatnonzero(labels == k)
        image = permuted_labels[np.argsort(perm)][members]
        assert np.unique(image).size == 1


def test_translation_invariance():
    rng = np.random.default_rng(3)
    pts, _ = planted_blobs(rng, [np.zeros(3), np.full(3, 3.0)])
    a, _ = mean_shift(pts, CFG)
    b, _ = mean_shift(pts + 11.5, CFG)
    assert np.array_equal(a, b)


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        MeanShiftConfig(bandwidth=0.0)


@pytest.mark.parametrize("kwargs", [
    dict(bandwidth=-1.0), dict(bandwidth=float("nan")), dict(bandwidth=float("inf")),
    dict(max_iter=0), dict(tol=0.0), dict(tol=-1e-4), dict(tol=float("nan")),
    dict(tol=float("inf")), dict(merge_radius=0.0), dict(merge_radius=-0.3),
])
def test_config_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        MeanShiftConfig(**kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    pts = np.zeros((6, 3))
    pts[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        mean_shift(pts, CFG)


# ---------------------------------------------------------------------------
# mean shift against the dense (n, n, K) reference

def criterion4_blobs(seed):
    """The planted-blob fixture of acceptance criterion 4."""
    rng = np.random.default_rng(seed)
    while True:  # rejection-sample 5 centers with pairwise distance >= 2
        centers = rng.uniform(0, 5, (5, 5))
        d = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        if d[np.triu_indices(5, 1)].min() >= 2.0:
            break
    return np.concatenate([c + rng.normal(0, 0.05, (40, 5)) for c in centers])


def integer_lattice(side=6, dim=3):
    axes = np.meshgrid(*[np.arange(float(side))] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


def assert_matches_dense(pts, cfg=CFG):
    labels, centers = mean_shift(pts, cfg)
    ref_labels, ref_centers = mean_shift_dense(pts, cfg)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(centers, ref_centers)


@pytest.mark.parametrize("seed", range(20))
def test_matches_dense_on_planted_blobs(seed):
    assert_matches_dense(criterion4_blobs(seed))


def test_matches_dense_on_rows_sampled_with_replacement():
    rng = np.random.default_rng(9)
    pts = criterion4_blobs(3)
    sampled = pts[rng.integers(0, len(pts), 3 * inference._CHUNK)]
    assert np.unique(sampled, axis=0).shape[0] < len(sampled)
    assert_matches_dense(sampled)


def test_matches_dense_far_from_origin():
    # the expanded distance cancels ~‖p‖² ≈ 660 down to d² ≈ bw² here
    assert_matches_dense(criterion4_blobs(5) + 11.5)


@pytest.mark.parametrize("offset", [0.0, 0.1])
def test_matches_dense_on_lattice_with_pairs_on_the_threshold(offset):
    # neighbours sit at d² == bw²; off the dyadic grid the two distance forms
    # round them to opposite sides, and the recheck must side with the direct one
    assert_matches_dense(integer_lattice() + offset, MeanShiftConfig(bandwidth=1.0))


@pytest.mark.parametrize("scale,offset,bandwidth", [
    (1.0, 0.0, 1.0), (1.0, 0.1, 1.0), (0.1, 0.0, 0.1), (0.7, 1.1, 0.7), (1.0, 0.1, np.sqrt(2.0)),
])
def test_window_is_exact_on_lattice_threshold_pairs(scale, offset, bandwidth):
    pts = integer_lattice() * scale + offset
    bw2 = bandwidth ** 2
    direct = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) <= bw2
    assert np.array_equal(inference._Window(pts, bw2)(pts), direct)


@pytest.mark.parametrize("n", [1, inference._CHUNK // 2, 2 * inference._CHUNK + 3])
def test_matches_dense_across_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    assert_matches_dense(rng.standard_normal((n, 5)))


def test_float32_embeddings_match_dense_at_block_scale():
    # Network embeddings are float32 values of similar magnitude, whose window
    # sums are exact in float64: the chunked mean equals the full-size product
    # bit for bit whichever BLAS kernel either shape selects.
    pts = np.random.default_rng(10).standard_normal((1024, 5)).astype(np.float32)
    assert_matches_dense(pts)


def test_float64_points_match_dense_to_rounding():
    # General float64 sums round differently when BLAS picks a different GEMM
    # kernel for a chunk than for the full (active seeds, n) product (it does
    # here), so modes may differ in their last bits; the partition and the
    # number of modes stay the same.
    pts = np.random.default_rng(11).standard_normal((1024, 5))
    labels, centers = mean_shift(pts, CFG)
    ref_labels, ref_centers = mean_shift_dense(pts, CFG)
    assert np.array_equal(labels, ref_labels)
    assert centers.shape == ref_centers.shape
    assert np.allclose(centers, ref_centers, rtol=0, atol=1e-12)


def test_peak_memory_at_paper_block_size():
    pts = np.random.default_rng(12).standard_normal((4096, 5))
    tracemalloc.start()
    try:
        mean_shift(pts, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


# ---------------------------------------------------------------------------
# block prediction

def test_predict_block_argmax_classes():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((20, 4))
    emb = np.zeros((20, 3))
    pred = predict_block(logits, emb, np.arange(20), CFG)
    assert np.array_equal(pred.semantic, logits.argmax(axis=1))
    assert pred.num_instances == 1


def test_predict_block_three_planted_clusters():
    rng = np.random.default_rng(5)
    emb, truth = planted_blobs(rng, [np.zeros(2), np.array([4.0, 0]), np.array([0, 4.0])], n_per=15)
    logits = np.zeros((45, 3))
    logits[np.arange(45), truth] = 10.0
    pred = predict_block(logits, emb, np.arange(45), CFG)
    assert pred.num_instances == 3
    assert agreement(pred.instance, truth) == 1.0
    # majority vote assigns each instance its members' class
    for k in range(3):
        members = truth[pred.instance == k]
        assert pred.instance_categories[k] == members[0]


def test_predict_block_vote_matches_per_instance_counts():
    rng = np.random.default_rng(13)
    emb, _ = planted_blobs(rng, [np.zeros(2), np.array([4.0, 0]), np.array([0, 4.0])], n_per=15)
    logits = rng.standard_normal((45, 4))
    pred = predict_block(logits, emb, np.arange(45), CFG, num_classes=6)
    for k in range(pred.num_instances):
        votes = np.bincount(pred.semantic[pred.instance == k], minlength=6)
        assert pred.instance_categories[k] == votes.argmax()


def test_predict_block_tie_vote_takes_lower_class():
    logits = np.zeros((4, 3))
    logits[[0, 1], 2] = 5.0  # two points vote class 2
    logits[[2, 3], 1] = 5.0  # two points vote class 1
    pred = predict_block(logits, np.zeros((4, 2)), np.arange(4), CFG)
    assert pred.num_instances == 1
    assert pred.instance_categories[0] == 1


# ---------------------------------------------------------------------------
# block merging

def scene_grid(n_side=24, extent=(1.5, 1.0, 0.5)):
    """A dense planar scene with two object strips plus background."""
    xs, ys = np.meshgrid(np.linspace(0.01, extent[0] - 0.01, n_side),
                         np.linspace(0.01, extent[1] - 0.01, n_side))
    pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(n_side * n_side)], axis=1)
    inst = np.zeros(len(pts), dtype=np.int64)
    cls = np.zeros(len(pts), dtype=np.int64)
    # both strips share at least 40% of their span with the window overlap
    # region, comfortably above the merge threshold
    strip1 = (pts[:, 0] > 0.2) & (pts[:, 0] < 0.7) & (pts[:, 1] > 0.3) & (pts[:, 1] < 0.6)
    strip2 = (pts[:, 0] > 0.8) & (pts[:, 0] < 1.3) & (pts[:, 1] > 0.3) & (pts[:, 1] < 0.6)
    inst[strip1], cls[strip1] = 1, 1
    inst[strip2], cls[strip2] = 2, 2
    return Scene(pts, np.zeros((len(pts), 3)), cls, inst, extent)


def gt_predictions(scene, blocks):
    """Per-block predictions copied from ground truth with dense local ids."""
    preds = []
    for b in blocks:
        gt_inst = scene.instance_ids[b.point_indices]
        local = np.unique(gt_inst)
        lut = {g: i for i, g in enumerate(local)}
        inst = np.array([lut[g] for g in gt_inst])
        cats = np.array([int(scene.semantic_labels[scene.instance_ids == g][0]) for g in local])
        preds.append(BlockPrediction(semantic=scene.semantic_labels[b.point_indices],
                                     instance=inst, instance_categories=cats,
                                     point_indices=b.point_indices))
    return preds


def test_single_block_merging_is_identity_relabeling():
    scene = scene_grid()
    blocks = split_into_blocks(scene, block_size=2.0, stride=1.0, points_per_block=576,
                               rng=np.random.default_rng(0))
    assert len(blocks) == 1
    seg = block_merging(gt_predictions(scene, blocks), scene, num_classes=3)
    assert seg.num_instances == 3
    assert np.array_equal(seg.semantic, scene.semantic_labels)


def test_overlapping_blocks_merge_consistent_instances():
    scene = scene_grid()
    blocks = split_into_blocks(scene, block_size=1.0, stride=0.5, points_per_block=400,
                               min_points=32, rng=np.random.default_rng(1))
    assert len(blocks) > 1
    seg = block_merging(gt_predictions(scene, blocks), scene, num_classes=3)
    assert seg.num_instances == 3  # background + two strips, despite block overlap


def test_disjoint_blocks_sum_instances():
    pts = np.array([[0.1, 0.1, 0], [0.2, 0.1, 0], [3.1, 0.1, 0], [3.2, 0.1, 0.0]])
    scene = Scene(pts, np.zeros((4, 3)), np.zeros(4, int), np.array([0, 0, 1, 1]),
                  (3.5, 0.5, 0.5))
    preds = [
        BlockPrediction(semantic=np.zeros(2, int), instance=np.zeros(2, int),
                        instance_categories=np.array([0]), point_indices=np.array([0, 1])),
        BlockPrediction(semantic=np.zeros(2, int), instance=np.zeros(2, int),
                        instance_categories=np.array([0]), point_indices=np.array([2, 3])),
    ]
    seg = block_merging(preds, scene, num_classes=1)
    assert seg.num_instances == 2
    assert seg.instance[0] == seg.instance[1]
    assert seg.instance[2] == seg.instance[3]
    assert seg.instance[0] != seg.instance[2]


def test_never_merges_disjoint_voxel_sets():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = 30
        pts = rng.uniform(0, 1, (n, 3))
        scene = Scene(pts, np.zeros((n, 3)), np.zeros(n, int), np.zeros(n, int), (1, 1, 1))
        half = n // 2
        preds = [
            BlockPrediction(semantic=np.zeros(half, int), instance=np.zeros(half, int),
                            instance_categories=np.array([0]),
                            point_indices=np.arange(half)),
            BlockPrediction(semantic=np.zeros(n - half, int), instance=np.zeros(n - half, int),
                            instance_categories=np.array([0]),
                            point_indices=np.arange(half, n)),
        ]
        seg = block_merging(preds, scene, num_classes=1)
        keys = np.floor(pts / (np.array([1, 1, 1.0]) / 400)).astype(int)
        voxels_a = {tuple(k) for k in keys[:half]}
        voxels_b = {tuple(k) for k in keys[half:]}
        if not voxels_a & voxels_b:
            assert seg.instance[0] != seg.instance[-1]


def tiny_network():
    spec = LayerSpec(npoints=(16, 8, 4), nsamples=(8, 8, 8), radii=(0.4, 0.8, 1.6))
    return SegmentationNetwork(spec, num_classes=3, embedding_dim=4, seed=0)


def test_forward_with_cached_geometry_is_bitwise_equal():
    # segment_scene lets forward compute the geometry; training passes a cached one
    rng = np.random.default_rng(6)
    feats = np.concatenate([rng.uniform(0, 1, (64, 6)), rng.uniform(0, 1, (64, 3))], axis=1)
    net = tiny_network()
    a = net.forward(feats)
    b = net.forward(feats, net.compute_geometry(feats))
    assert np.array_equal(a.logits.values, b.logits.values)
    assert np.array_equal(a.embeddings.values, b.embeddings.values)


def test_scene_without_instance_annotations_still_segments():
    # inference never reads ground-truth instance ids; the instance channel
    # comes purely from mean-shift clusters of the embeddings
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, (120, 3)) * [1, 1, 0.5]
    scene = Scene(pts, rng.uniform(0, 1, (120, 3)), rng.integers(0, 3, 120),
                  np.zeros(120, dtype=np.int64), (1, 1, 0.5))
    seg = segment_scene(tiny_network(), scene, points_per_block=64, min_points=8, seed=0)
    assert seg.num_instances >= 1
    assert seg.semantic.shape == (120,) and seg.instance.shape == (120,)


def test_segment_scene_is_deterministic():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, (100, 3)) * [1, 1, 0.5]
    scene = Scene(pts, rng.uniform(0, 1, (100, 3)), rng.integers(0, 3, 100),
                  rng.integers(0, 2, 100), (1, 1, 0.5))
    net = tiny_network()
    a = segment_scene(net, scene, points_per_block=64, min_points=8, seed=3)
    b = segment_scene(net, scene, points_per_block=64, min_points=8, seed=3)
    assert np.array_equal(a.semantic, b.semantic)
    assert np.array_equal(a.instance, b.instance)


def test_uncovered_points_resolved_and_counted():
    pts = np.array([[0.1, 0.1, 0], [0.11, 0.1, 0], [0.9, 0.9, 0.0]])
    scene = Scene(pts, np.zeros((3, 3)), np.zeros(3, int), np.zeros(3, int), (1, 1, 1))
    preds = [BlockPrediction(semantic=np.array([0, 0]), instance=np.array([0, 0]),
                             instance_categories=np.array([0]), point_indices=np.array([0, 1]))]
    seg = block_merging(preds, scene, num_classes=1)
    assert seg.uncovered_points == 1
    assert seg.instance[2] == seg.instance[0]  # adopted from the nearest labeled voxel


def test_block_merging_rejects_bad_settings():
    scene = scene_grid()
    with pytest.raises(ValueError, match="voxel_divisions"):
        block_merging([], scene, num_classes=3, voxel_divisions=0)
    with pytest.raises(ValueError, match="overlap_threshold"):
        block_merging([], scene, num_classes=3, overlap_threshold=float("nan"))
    preds = gt_predictions(scene, split_into_blocks(scene, block_size=2.0, stride=1.0,
                                                    points_per_block=576))
    with pytest.raises(ValueError, match="semantic ids"):
        block_merging(preds, scene, num_classes=2)  # the strips carry class 2


# ---------------------------------------------------------------------------
# block merging against the per-point loop reference

def criterion7_scene():
    return generate_scene(SyntheticSceneSpec(seed=21, room_extent=(2.0, 2.0, 0.8), num_classes=4,
                                             instance_range=(6, 6),
                                             points_per_instance=(150, 250), noise_std=0.003))


def dense_scene(seed):
    """A 3 m room of ~29k points, as in the segment-512-dense benchmark."""
    return generate_scene(SyntheticSceneSpec(seed=seed, room_extent=(3.0, 3.0, 0.8),
                                             num_classes=4, instance_range=(6, 6),
                                             points_per_instance=(4700, 4950)))


def noisy_predictions(scene, blocks, rng):
    """Ground-truth block predictions with instances cut in two along x,
    stray points moved to other instances, ids shuffled and classes flipped."""
    preds = []
    for pred in gt_predictions(scene, blocks):
        inst = pred.instance.copy()
        x = scene.points[pred.point_indices, 0]
        k = pred.num_instances
        for local in range(pred.num_instances):
            members = inst == local
            if rng.random() < 0.5:
                inst[members & (x > np.median(x[members]))] = k
                k += 1
        stray = rng.random(inst.size) < 0.05
        inst[stray] = rng.integers(0, k, int(stray.sum()))
        inst = rng.permutation(k)[inst]
        _, inst = np.unique(inst, return_inverse=True)  # dense again
        semantic = pred.semantic.copy()
        flip = rng.random(semantic.size) < 0.1
        semantic[flip] = rng.integers(0, 4, int(flip.sum()))
        preds.append(BlockPrediction(semantic=semantic, instance=inst,
                                     instance_categories=rng.integers(0, 4, int(inst.max()) + 1),
                                     point_indices=pred.point_indices))
    return preds


def assert_matches_loop(preds, scene, num_classes, voxel_divisions):
    seg = block_merging(preds, scene, num_classes, voxel_divisions)
    ref = block_merging_loop(preds, scene, num_classes, voxel_divisions)
    assert np.array_equal(seg.instance, ref.instance)
    assert np.array_equal(seg.semantic, ref.semantic)
    assert seg.num_instances == ref.num_instances
    assert seg.uncovered_points == ref.uncovered_points


MERGE_CASES = ([("grid", seed, ppb) for seed in range(5) for ppb in (100, 200, 400)]
               + [("criterion7", 0, 512), ("criterion7", 0, 128),
                  ("dense", 0, 512), ("dense", 1, 512)])


def merge_case(kind, seed, ppb):
    if kind == "grid":
        scene = scene_grid()
        blocks = split_into_blocks(scene, block_size=1.0, stride=0.5, points_per_block=ppb,
                                   min_points=32, rng=np.random.default_rng(seed))
        return scene, blocks, 3
    scene = criterion7_scene() if kind == "criterion7" else dense_scene(seed)
    blocks = split_into_blocks(scene, block_size=1.0, stride=0.5, points_per_block=ppb,
                               min_points=16, rng=np.random.default_rng(seed))
    return scene, blocks, 4


@pytest.mark.parametrize("voxel_divisions", [400, 25])
@pytest.mark.parametrize("kind,seed,ppb", MERGE_CASES)
def test_merging_matches_loop_on_ground_truth_blocks(kind, seed, ppb, voxel_divisions):
    scene, blocks, num_classes = merge_case(kind, seed, ppb)
    assert_matches_loop(gt_predictions(scene, blocks), scene, num_classes, voxel_divisions)


@pytest.mark.parametrize("voxel_divisions", [400, 25])
@pytest.mark.parametrize("kind,seed,ppb", MERGE_CASES)
def test_merging_matches_loop_on_noisy_blocks(kind, seed, ppb, voxel_divisions):
    scene, blocks, _ = merge_case(kind, seed, ppb)
    rng = np.random.default_rng(1000 + seed + ppb)
    assert_matches_loop(noisy_predictions(scene, blocks, rng), scene, 4, voxel_divisions)


def test_uncovered_point_on_an_exact_tie_takes_the_lower_voxel_key():
    # voxels of 0.25 m: centres are exact binary fractions, and the third
    # point lies exactly midway between the centres of voxels (0,0,0) and (2,0,0)
    pts = np.array([[0.1, 0.1, 0.1], [0.6, 0.1, 0.1], [0.375, 0.125, 0.125]])
    scene = Scene(pts, np.zeros((3, 3)), np.zeros(3, int), np.zeros(3, int), (1, 1, 1))
    preds = [  # voxel (2,0,0) is labeled first
        BlockPrediction(semantic=np.array([1]), instance=np.array([0]),
                        instance_categories=np.array([1]), point_indices=np.array([1])),
        BlockPrediction(semantic=np.array([2]), instance=np.array([0]),
                        instance_categories=np.array([2]), point_indices=np.array([0])),
    ]
    seg = block_merging(preds, scene, num_classes=3, voxel_divisions=4)
    assert seg.uncovered_points == 1
    assert seg.num_instances == 2
    assert seg.instance[2] == seg.instance[0]
    assert seg.semantic[2] == 2  # the vote of voxel (0,0,0)


@pytest.mark.parametrize("scale,offset", [(0.25, 0.0), (0.1, 0.37), (0.0075, 11.5)])
def test_nearest_voxel_query_matches_brute_force_near_ties(scale, offset):
    rng = np.random.default_rng(14)
    centres = integer_lattice(side=5) * scale + offset
    a = rng.integers(0, len(centres), 300)
    b = rng.integers(0, len(centres), 300)
    mid = (centres[a] + centres[b]) / 2  # equidistant from two centres, up to rounding
    nudge = rng.choice([0.0, 1e-15, -1e-15, 1e-12, -1e-9], size=(300, 1)) * scale
    points = np.concatenate([mid, mid + nudge, centres[a] + scale / 2,
                             rng.uniform(-1, 6, (37, 3)) * scale + offset])
    brute = np.array([((centres - p) ** 2).sum(axis=1).argmin() for p in points])
    assert np.array_equal(inference._nearest(points, centres), brute)


def test_merging_peak_memory_on_a_dense_scene():
    scene = dense_scene(0)
    preds = gt_predictions(scene, split_into_blocks(scene, points_per_block=512,
                                                    rng=np.random.default_rng(3)))
    tracemalloc.start()
    try:
        seg = block_merging(preds, scene, num_classes=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seg.uncovered_points > scene.num_points // 2  # the fallback query ran at scale
    assert peak < 24 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
