import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jointseg import autodiff as ad
from jointseg import inference
from jointseg.backbone import LayerSpec
from jointseg.config import RunConfig
from jointseg.data import Scene, SyntheticSceneSpec, generate_scene, split_into_blocks
from jointseg.inference import (BlockPrediction, MeanShiftConfig, block_merging, mean_shift,
                                predict_block, segment_scene)
from jointseg.network import SegmentationNetwork
from jointseg.train import load_network

from oracles import block_merging_loop, mean_shift_dense, nearest_full_scan

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
    # cell edges move with the translation, but every seed of a tight blob
    # still converges to the blob's mean
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
    dict(tol=float("inf")),
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
    sampled = pts[rng.integers(0, len(pts), 384)]
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


def window_membership(pts, bw2, centres=None):
    """The full (m, n) membership that ``_Window`` gives, called as mean_shift
    calls it: on chunks of ``_CHUNK`` centres."""
    window = inference._Window(pts, bw2)
    centres = pts if centres is None else centres
    return np.concatenate([window(centres[s:s + inference._CHUNK])
                           for s in range(0, len(centres), inference._CHUNK)])


def direct_membership(centres, pts, bw2):
    return ((centres[:, None, :] - pts[None, :, :]) ** 2).sum(-1) <= bw2


@pytest.mark.parametrize("scale,offset,bandwidth", [
    (1.0, 0.0, 1.0), (1.0, 0.1, 1.0), (0.1, 0.0, 0.1), (0.7, 1.1, 0.7), (1.0, 0.1, np.sqrt(2.0)),
])
def test_window_is_exact_on_lattice_threshold_pairs(scale, offset, bandwidth):
    pts = integer_lattice() * scale + offset
    bw2 = bandwidth ** 2
    assert np.array_equal(window_membership(pts, bw2), direct_membership(pts, pts, bw2))


def axis_lattice(bandwidth, offset):
    """A 3 x 12 x 3 lattice, widest along axis 1 with spacing bw there: every
    neighbour pair on that axis sits at Δ = bw and matches on the others."""
    grid = np.stack(np.meshgrid(np.arange(3.0), np.arange(12.0), np.arange(3.0),
                                indexing="ij"), axis=-1).reshape(-1, 3)
    return grid * [0.25 * bandwidth, bandwidth, 0.25 * bandwidth] + offset


@pytest.mark.parametrize("bandwidth,offset", [
    (1.0, 0.0), (0.75, 0.25), (0.7, 0.1), (0.1, 1.1), (0.3, -2.9), (0.3, 12345.6), (1.0, 1e7),
])
def test_window_is_exact_at_one_bandwidth_along_the_widest_axis(bandwidth, offset):
    pts = axis_lattice(bandwidth, offset)
    bw2 = bandwidth ** 2
    assert np.array_equal(window_membership(pts, bw2), direct_membership(pts, pts, bw2))
    # centres a hair beyond one bandwidth on the axis from a lattice row
    shifted = pts + np.array([0.0, bandwidth * (1 + 1e-15), 0.0])
    assert np.array_equal(window_membership(pts, bw2, shifted),
                          direct_membership(shifted, pts, bw2))


@pytest.mark.parametrize("bandwidth,offset", [(1.0, 0.0), (0.5, 0.0), (0.75, 0.25)])
def test_matches_dense_at_one_bandwidth_along_the_widest_axis(bandwidth, offset):
    # dyadic coordinates, so the window sums are exact in any order
    assert_matches_dense(axis_lattice(bandwidth, offset), MeanShiftConfig(bandwidth=bandwidth))


def test_window_is_exact_on_a_cloud_widest_along_its_third_axis():
    rng = np.random.default_rng(15)
    pts = (rng.standard_normal((700, 4)) * [0.3, 0.5, 2.5, 0.4]).astype(np.float32)
    pts64 = pts.astype(np.float64)
    assert np.array_equal(window_membership(pts64, 0.36),
                          direct_membership(pts64, pts64, 0.36))
    assert_matches_dense(pts)


def test_window_on_a_cloud_without_variance_takes_every_point():
    pts = np.full((70, 3), 0.375)
    within = inference._Window(pts, 0.36)(pts[:5])
    assert within.shape == (5, 70)
    assert within.all()
    assert_matches_dense(pts)


@pytest.mark.parametrize("n", [1, 9, 3 * inference._CHUNK])
def test_duplicate_rows_with_signed_zeros_match_dense(n):
    rng = np.random.default_rng(16)
    base = np.array([[0.0, 1.0, 0.0], [-0.0, 1.0, 0.0], [0.0, 1.0, -0.0],
                     [0.5, -0.0, 0.25], [0.5, 0.0, 0.25], [3.0, 3.0, 3.0]])
    pts = base[rng.integers(0, len(base), n)] if n > 1 else base[1:2]
    assert_matches_dense(pts)


def test_distinct_rows_group_as_numpy_unique():
    rng = np.random.default_rng(17)
    values = np.array([0.0, -0.0, 1.0, -1.5, 2.0 ** -1074, 1e300])
    rows = values[rng.integers(0, len(values), (3000, 3))]
    distinct, first, inverse = inference._distinct_rows(rows)
    ref, ref_first, ref_inverse = np.unique(rows, axis=0, return_index=True,
                                            return_inverse=True)
    # the same groups in the same order, each led by its lowest index
    assert (distinct == ref).all()
    assert np.array_equal(first, ref_first)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))  # numpy 2.0.0 returns it 2-D
    assert np.array_equal(distinct, rows[first])
    assert (distinct[inverse] == rows).all()


def test_anisotropic_float32_clusters_match_dense_at_2048_points():
    rng = np.random.default_rng(18)
    centres = rng.uniform(-3, 3, (8, 5)) * [0.3, 3.0, 0.8, 0.5, 1.0]
    pts = (centres[rng.integers(0, 8, 2048)]
           + rng.standard_normal((2048, 5)) * [0.05, 0.4, 0.2, 0.1, 0.3]).astype(np.float32)
    assert_matches_dense(pts)


@pytest.mark.parametrize("n", [1, 32, 64, 131, 259])  # around multiples of _CHUNK = 64
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


# ---------------------------------------------------------------------------
# bin seeding: one seed per occupied bandwidth cell, at a member point

def test_blob_centred_on_a_cell_corner_is_one_cluster():
    # centred at k·bw + bw/2 on every axis: its points fall into 2⁵ cells,
    # whose seeds all converge to the blob's mean
    rng = np.random.default_rng(19)
    bw = CFG.bandwidth
    centre = np.array([3, -2, 0, 5, 1]) * bw + bw / 2
    pts = (centre + rng.normal(0, 0.05, (200, 5))).astype(np.float32)
    assert np.unique(np.round(pts / bw), axis=0).shape[0] == 32
    labels, modes = mean_shift(pts, CFG)
    assert np.array_equal(labels, np.zeros(200))
    assert modes.shape == (1, 5)
    assert np.allclose(modes[0], pts.mean(axis=0))
    assert_matches_dense(pts)


def test_lone_point_off_the_grid_is_its_own_mode():
    # the cell's grid position (the origin) lies 0.29·√5 ≈ 0.65 > bw from the
    # point, so a seed there would have an empty window
    lone = np.full((1, 5), 0.29)
    labels, modes = mean_shift(lone, CFG)
    assert labels.tolist() == [0]
    assert np.array_equal(modes, lone)
    rng = np.random.default_rng(20)
    pts = np.concatenate([lone, 4.0 + rng.normal(0, 0.05, (30, 5))]).astype(np.float32)
    labels, modes = mean_shift(pts, CFG)
    assert modes.shape[0] == 2
    assert np.array_equal(modes[labels[0]], pts[0])
    assert np.bincount(labels).tolist() == [30, 1]
    assert_matches_dense(pts)


def test_every_distinct_point_is_its_own_mode_at_a_tiny_bandwidth():
    cfg = MeanShiftConfig(bandwidth=1e-300)
    pts = np.random.default_rng(21).standard_normal((50, 3))
    labels, modes = mean_shift(pts, cfg)
    assert modes.shape == (50, 3)
    assert np.array_equal(np.sort(labels), np.arange(50))
    assert np.array_equal(modes[labels], pts)
    # duplicates share their point's mode
    labels, modes = mean_shift(np.concatenate([pts, pts[:7]]), cfg)
    assert modes.shape == (50, 3)
    assert np.array_equal(labels[50:], labels[:7])
    assert_matches_dense(pts, cfg)


@pytest.mark.parametrize("bandwidth", [1e-310, 1e-300])
def test_overflowing_cell_keys_seed_every_point(bandwidth):
    # |p| / bw overflows to inf for the larger points; infinite keys must not
    # merge their cells
    pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1e10, 0.0], [2e10, 0.0]])
    labels, modes = mean_shift(pts, MeanShiftConfig(bandwidth=bandwidth))
    ref_labels, ref_modes = mean_shift_dense(pts, MeanShiftConfig(bandwidth=bandwidth),
                                             every_point=True)
    assert np.array_equal(np.sort(labels), np.arange(5))
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(modes, ref_modes)


def test_permutation_invariance_of_labels_at_block_scale():
    # the seeds, their order and so every tie-break depend on the points'
    # values only; float32 window sums are exact in any order
    rng = np.random.default_rng(22)
    centres = rng.uniform(-2, 2, (6, 5))
    pts = (centres[rng.integers(0, 6, 4096)]
           + rng.standard_normal((4096, 5)) * 0.3).astype(np.float32)
    labels, modes = mean_shift(pts, CFG)
    assert modes.shape[0] > 1
    perm = rng.permutation(len(pts))
    permuted, permuted_modes = mean_shift(pts[perm], CFG)
    assert np.array_equal(permuted, labels[perm])
    assert np.array_equal(permuted_modes, modes)


def test_equal_support_ties_go_to_the_lower_cell_key():
    # two copies of one dyadic blob, listed higher cell first: every-point
    # seeding would give the first-listed blob id 0, cell order the other
    offsets = integer_lattice(side=3) / 32
    high, low = offsets + [5.0, 0.0, 0.0], offsets + [0.0, 5.0, 0.0]
    pts = np.concatenate([high, low])
    labels, modes = mean_shift(pts, CFG)
    assert labels.tolist() == [1] * 27 + [0] * 27
    ref_labels, _ = mean_shift_dense(pts, CFG, every_point=True)
    assert ref_labels.tolist() == [0] * 27 + [1] * 27
    assert_matches_dense(pts)


@pytest.mark.parametrize("seed", range(20))
def test_bin_seeds_agree_with_every_point_seeds_on_planted_blobs(seed):
    pts = criterion4_blobs(seed)
    labels, _ = mean_shift(pts, CFG)
    ref_labels, _ = mean_shift_dense(pts, CFG, every_point=True)
    assert labels.max() == ref_labels.max() == 4
    # the same partition: the pairs of labels form a bijection
    assert np.unique(np.stack([labels, ref_labels]), axis=1).shape[1] == 5


def test_peak_memory_at_paper_block_size():
    pts = np.random.default_rng(12).standard_normal((4096, 5))
    tracemalloc.start()
    try:
        mean_shift(pts, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


BENCH_MODEL = Path(__file__).resolve().parents[1] / "bench" / "model" / "c3_seed0.ckpt"


@pytest.mark.parametrize("room,points_per_instance,points_per_block,picks", [
    (1.5, (1400, 1550), 4096, [0]),
    (3.0, (4700, 4950), 512, [0, 12, 24]),
], ids=["room_1.5m_4096", "room_3m_512"])
def test_trained_embeddings_match_dense(room, points_per_instance, points_per_block, picks):
    # the committed model's embeddings on the benchmark's scene layouts
    cfg = RunConfig(seed=0)  # the committed model's configuration
    scene = generate_scene(SyntheticSceneSpec(seed=0, room_extent=(room, room, 0.8),
                                              num_classes=4, instance_range=(6, 6),
                                              points_per_instance=points_per_instance))
    blocks = split_into_blocks(scene, cfg.block_size, cfg.stride, points_per_block,
                               cfg.min_block_points, cfg.center_xy, np.random.default_rng(1))
    network = load_network(cfg, BENCH_MODEL)
    for i in picks:
        with ad.no_grad():
            embeddings = network.forward(blocks[i].features).embeddings.values
        assert embeddings.shape == (points_per_block, cfg.embedding_dim)
        assert_matches_dense(embeddings, cfg.mean_shift_config())


# sha256 of int64 semantic then instance labels, first 16 hex digits, as the
# network computed them when it still built every upsampled and concatenated
# layer input
PAPER_SCALE_LABELS = {1: "2c9cac186d403e25", 2: "c7138f26c15aa5e9", 3: "04ec981cf5b9f205"}


@pytest.mark.parametrize("run_seed", sorted(PAPER_SCALE_LABELS))
def test_committed_model_labels_on_the_paper_scale_scene(run_seed):
    # the benchmark's segment-4096 scene at run seeds 1-3: four 4096-point
    # blocks of a 1.5 m room, segmented and merged with the committed model
    cfg = RunConfig(seed=0)
    scene = generate_scene(SyntheticSceneSpec(seed=0, room_extent=(1.5, 1.5, 0.8),
                                              num_classes=4, instance_range=(6, 6),
                                              points_per_instance=(1400, 1550)))
    seg = segment_scene(load_network(cfg, BENCH_MODEL), scene, block_size=cfg.block_size,
                        stride=cfg.stride, points_per_block=4096,
                        min_points=cfg.min_block_points, center_xy=cfg.center_xy,
                        mean_shift_cfg=cfg.mean_shift_config(), seed=run_seed * 1009,
                        voxel_divisions=cfg.voxel_divisions,
                        overlap_threshold=cfg.overlap_threshold)
    labels = seg.semantic.astype(np.int64).tobytes() + seg.instance.astype(np.int64).tobytes()
    assert hashlib.sha256(labels).hexdigest()[:16] == PAPER_SCALE_LABELS[run_seed]


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
    pred = predict_block(logits, emb, np.arange(45), CFG)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["logits", "embeddings"])
def test_predict_block_rejects_non_finite_outputs_naming_which(which, bad):
    rng = np.random.default_rng(5)
    outputs = {"logits": rng.normal(size=(20, 3)), "embeddings": rng.normal(size=(20, 4))}
    outputs[which][7, 1] = bad
    with pytest.raises(inference.NonFiniteOutputError, match=which):
        predict_block(outputs["logits"], outputs["embeddings"], np.arange(20), CFG)


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


def test_block_merging_refuses_predictions_that_label_no_voxel():
    # no block means no instance, and a result invented from nothing
    with pytest.raises(ValueError, match="no instance labels a voxel"):
        block_merging([], scene_grid(), 3)


def test_segment_scene_refuses_a_scene_that_yields_no_block():
    rng = np.random.default_rng(9)
    scene = Scene(rng.uniform(0, 1, (40, 3)), rng.uniform(0, 1, (40, 3)), np.zeros(40, int),
                  np.zeros(40, int), (1, 1, 1))
    with pytest.raises(inference.NoBlocksError, match="40 points, min_block_points 64"):
        segment_scene(tiny_network(), scene, points_per_block=64, min_points=64)


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


def brute_nearest(points, centres):
    """Per point, the first argmin of the direct squared distances."""
    return np.array([((centres - p) ** 2).sum(axis=1).argmin() for p in points], dtype=np.int64)


def near_tie_queries(scale, offset):
    """937 points on, beside and between the centres of a 5³ lattice."""
    rng = np.random.default_rng(14)
    centres = integer_lattice(side=5) * scale + offset
    a = rng.integers(0, len(centres), 300)
    b = rng.integers(0, len(centres), 300)
    mid = (centres[a] + centres[b]) / 2  # equidistant from two centres, up to rounding
    nudge = rng.choice([0.0, 1e-15, -1e-15, 1e-12, -1e-9], size=(300, 1)) * scale
    points = np.concatenate([mid, mid + nudge, centres[a] + scale / 2,
                             rng.uniform(-1, 6, (37, 3)) * scale + offset])
    return points, centres


NEAR_TIE_CASES = [(0.25, 0.0), (0.1, 0.37), (0.0075, 11.5)]


@pytest.mark.parametrize("scale,offset", NEAR_TIE_CASES)
def test_nearest_voxel_query_matches_brute_force_near_ties(scale, offset):
    points, centres = near_tie_queries(scale, offset)
    assert np.array_equal(inference._nearest(points, centres), brute_nearest(points, centres))


@pytest.mark.parametrize("scale,offset", NEAR_TIE_CASES)
def test_nearest_voxel_query_matches_brute_force_near_ties_in_small_leaves(
        monkeypatch, scale, offset):
    monkeypatch.setattr(inference, "_NEAREST_CELLS", 300)  # 937 points, about 260 leaves
    points, centres = near_tie_queries(scale, offset)
    assert np.array_equal(inference._nearest(points, centres), brute_nearest(points, centres))


def nearest_queries(kind, offset, rng):
    """(points, centres) of one shape the nearest-voxel query must handle."""
    if kind == "voxels":  # a sparse 7.5 mm voxel lattice, queries among its centres
        centres = integer_lattice(side=8)[rng.random(512) < 0.3] * 0.0075
        points = rng.uniform(-0.01, 0.07, (150, 3))
    elif kind == "one_centre":
        centres = rng.uniform(0, 1, (1, 3))
        points = np.concatenate([rng.uniform(-1, 2, (40, 3)), centres])
    elif kind == "duplicates":  # exact ties between copies and across midpoints
        base = integer_lattice(side=3)[rng.integers(0, 27, 6)] * 0.25
        centres = base[rng.integers(0, 6, 30)]
        a, b = rng.integers(0, 30, (2, 60))
        points = np.concatenate([centres, (centres[a] + centres[b]) / 2])
    elif kind == "axis_midpoints":  # ties along one axis, on the edge of a leaf's box
        centres = integer_lattice(side=5) * 0.3 + 0.1
        a = rng.integers(0, 125, 400)
        b = a + np.array([25, 5, 1])[rng.integers(0, 3, 400)]
        a, b = a[b < 125], b[b < 125]
        points = (centres[a] + centres[b]) / 2
    elif kind == "far":  # a near cluster, then leaves far outside the centres' box
        centres = rng.uniform(0, 1, (60, 3))
        points = np.concatenate([rng.uniform(0, 1, (30, 3)),
                                 rng.uniform(0, 1, (40, 3)) + [40.0, -25.0, 3.0],
                                 rng.uniform(0, 1, (30, 3)) * 1e3])
    else:  # empty
        centres = rng.uniform(0, 1, (10, 3))
        points = np.empty((0, 3))
    return points + offset, centres + offset


# budgets for one-row leaves, leaves of up to 7 rows where few centres are
# near, leaves of a few rows, and a single leaf
@pytest.mark.parametrize("cells", [1, 7, 200, 10 ** 6])
@pytest.mark.parametrize("offset", [0.0, 11.5, -1e4])
@pytest.mark.parametrize("kind", ["voxels", "one_centre", "duplicates", "axis_midpoints", "far",
                                  "empty"])
def test_nearest_voxel_query_matches_brute_force_and_full_scan(monkeypatch, kind, offset, cells):
    monkeypatch.setattr(inference, "_NEAREST_CELLS", cells)
    for seed in range(3):
        points, centres = nearest_queries(kind, offset, np.random.default_rng(seed))
        got = inference._nearest(points, centres)
        assert got.shape == (len(points),) and got.dtype == np.int64
        assert np.array_equal(got, brute_nearest(points, centres))
        assert np.array_equal(got, nearest_full_scan(points, centres))


def test_nearest_voxel_query_of_few_points_scans_in_small_leaves():
    rng = np.random.default_rng(3)
    centres = rng.uniform(0, 3, (10_000, 3))
    points = rng.uniform(0, 3, (256, 3))  # 256 queries among 10k centres
    tracemalloc.start()
    try:
        got = inference._nearest(points, centres)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, brute_nearest(points, centres))
    # a (256, 10k) float64 temporary alone would take 19.5 MB
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def budget_queries(kind):
    """(points, centres): 2000 points against 10k centres, placed so that a
    query without its cell budget would make one very wide leaf."""
    rng = np.random.default_rng(3)
    if kind == "far":  # 40 m away: the first box holds no centre, so a leaf takes them all
        centres = rng.uniform(0, 3, (10_000, 3))
        points = rng.uniform(0, 3, (2000, 3)) + [40.0, 0.0, 0.0]
    else:  # a flat sheet whose box holds only centre 0: one leaf, whose retry
        # at the proven radius takes in about 4.7k centres
        centres = rng.uniform(0, [3, 1, 1], (10_000, 3))
        centres[0] = [1.5, 0.5, 0.5]
        points = rng.uniform(0, 1, (2000, 3))
        points[:, 0] = 1.5
    return points, centres


# without the budget: leaves of 256 rows against all 10k centres would take
# 19.5 MB per temporary, and the sheet's (2000, 4.7k) retry 72 MB
@pytest.mark.parametrize("kind", ["far", "wide_retry"])
def test_nearest_query_keeps_to_its_cell_budget(kind):
    points, centres = budget_queries(kind)
    tracemalloc.start()
    try:
        got = inference._nearest(points, centres)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, brute_nearest(points, centres))
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_fully_sampled_scene_sends_an_empty_query_and_matches_loop(monkeypatch):
    scene = criterion7_scene()
    blocks = split_into_blocks(scene, block_size=1.0, stride=0.5, points_per_block=128,
                               min_points=16, rng=np.random.default_rng(0))
    preds = gt_predictions(scene, blocks)
    everything = np.arange(scene.num_points)  # one last block samples every point
    preds.append(BlockPrediction(semantic=scene.semantic_labels, instance=np.zeros_like(everything),
                                 instance_categories=np.array([0]), point_indices=everything))
    queries = []
    nearest = inference._nearest

    def recorded(points, centres):
        queries.append(len(points))
        return nearest(points, centres)

    monkeypatch.setattr(inference, "_nearest", recorded)
    seg = block_merging(preds, scene, num_classes=4)
    assert queries == [0] and seg.uncovered_points == 0
    assert_matches_loop(preds, scene, 4, 400)


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
