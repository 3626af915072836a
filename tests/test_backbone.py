import tracemalloc

import numpy as np
import pytest

from jointseg import autodiff as ad
from jointseg.backbone import (Backbone, LayerSpec, ball_group, farthest_point_sampling,
                               interpolation_matrix, nearest_neighbor_interpolation)
from oracles import (ball_group_sorted, distances, farthest_point_sampling_norm, fd_grad,
                     geometry_oracle, max_rel_err, nearest_neighbor_interpolation_sorted,
                     reduce_sum)


def fps(coords, m):
    """The farthest-point picks alone."""
    return farthest_point_sampling(coords, m)[0]


def interpolate(fine, coarse):
    """Nearest-neighbor interpolation between two point sets."""
    return nearest_neighbor_interpolation(distances(coarse, fine))


def tiny_spec():
    return LayerSpec(npoints=(8, 4, 2), widths=(8, 16, 32), radii=(0.5, 1.0, 2.0),
                     nsamples=(4, 4, 4))


# ---------------------------------------------------------------------------
# farthest point sampling

def test_fps_all_points_is_permutation():
    coords = np.random.default_rng(0).uniform(0, 1, (20, 3))
    idx = fps(coords, 20)
    assert np.array_equal(np.sort(idx), np.arange(20))


def test_fps_single_point_is_index_zero():
    coords = np.random.default_rng(1).uniform(0, 1, (9, 3))
    assert fps(coords, 1).tolist() == [0]


def test_fps_two_far_clusters_picks_one_from_each():
    rng = np.random.default_rng(2)
    a = rng.normal(0, 0.01, (10, 3))
    b = rng.normal(0, 0.01, (10, 3)) + 10.0
    idx = fps(np.concatenate([a, b]), 2)
    assert (idx < 10).sum() == 1 and (idx >= 10).sum() == 1


def test_fps_matches_greedy_max_min_oracle():
    coords = np.random.default_rng(3).uniform(0, 1, (12, 3))
    idx = fps(coords, 6)
    chosen = [0]
    for _ in range(5):
        # exhaustive max-min distance step, ties to the lowest index
        best, best_d = None, -1.0
        for cand in range(12):
            d = min(np.linalg.norm(coords[cand] - coords[c]) for c in chosen)
            if d > best_d + 1e-15:
                best, best_d = cand, d
        chosen.append(best)
    assert idx.tolist() == chosen


def test_fps_rejects_oversampling():
    with pytest.raises(ValueError):
        farthest_point_sampling(np.zeros((3, 3)), 4)


# ---------------------------------------------------------------------------
# ball grouping

def test_ball_group_huge_radius_caps_at_max_neighbors():
    coords = np.random.default_rng(4).uniform(0, 1, (10, 3))
    idx = ball_group(distances(coords[:2], coords), radius=100.0, max_neighbors=6)
    assert idx.shape == (2, 6)
    for row in idx:
        assert np.unique(row).size == 6  # capped, no padding needed


def test_ball_group_isolated_center_pads_with_itself():
    coords = np.array([[0.0, 0, 0], [10.0, 0, 0], [10.1, 0, 0]])
    idx = ball_group(distances(coords[:1], coords), radius=0.5, max_neighbors=4)
    assert idx.tolist() == [[0, 0, 0, 0]]


def test_ball_group_matches_brute_force_range_query():
    rng = np.random.default_rng(5)
    coords = rng.uniform(0, 1, (30, 3))
    centers = coords[[3, 11, 27]]
    radius = 0.35
    idx = ball_group(distances(centers, coords), radius, max_neighbors=30)
    for c, row in zip(centers, idx):
        members = {j for j in range(30) if np.linalg.norm(coords[j] - c) <= radius}
        assert set(row.tolist()) == members


def test_ball_group_center_always_first():
    coords = np.random.default_rng(6).uniform(0, 1, (15, 3))
    centers, d = farthest_point_sampling(coords, 5)
    idx = ball_group(d, radius=0.3, max_neighbors=8)
    assert np.array_equal(idx[:, 0], centers)


def test_ball_group_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        ball_group(np.zeros((1, 3)), 0.0, 4)


# ---------------------------------------------------------------------------
# interpolation

def test_interpolation_weights_are_convex():
    rng = np.random.default_rng(7)
    idx, w = interpolate(rng.uniform(0, 1, (20, 3)), rng.uniform(0, 1, (6, 3)))
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert idx.shape == (20, 3)


def test_interpolation_coincident_point_dominates():
    coarse = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    idx, w = interpolate(coarse[:1], coarse)
    assert idx[0, 0] == 0
    assert w[0, 0] > 1 - 1e-6


def test_interpolation_constant_features_stay_constant():
    rng = np.random.default_rng(8)
    mat = interpolation_matrix(distances(rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (15, 3))),
                               np.float64)
    assert mat.shape == (15, 5)
    out = mat @ np.full((5, 4), 3.25)
    assert np.allclose(out, 3.25)


def test_interpolation_one_dimensional_hand_case():
    # fine point at x=1 between coarse points at 0, 2, 5
    coarse = np.array([[0.0, 0, 0], [2.0, 0, 0], [5.0, 0, 0]])
    fine = np.array([[1.0, 0, 0]])
    idx, w = interpolate(fine, coarse)
    feats = np.array([[1.0], [5.0], [9.0]])
    out = (w[0][:, None] * feats[idx[0]]).sum(axis=0)
    # weights 1/1, 1/1, 1/16 normalized: (16/33, 16/33, 1/33); the 1e-8
    # regularizer in the implementation perturbs this at the 1e-9 level
    expected = (16 * 1.0 + 16 * 5.0 + 1 * 9.0) / 33
    assert abs(out[0] - expected) < 1e-7


def test_interpolation_fewer_than_three_coarse_points():
    idx, w = interpolate(np.zeros((4, 3)), np.array([[1.0, 0, 0], [2.0, 0, 0]]))
    assert idx.shape == (4, 2)
    assert np.allclose(w.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# exact geometry against the sort-based oracles

def lattice(side: int, seed: int | None = None) -> np.ndarray:
    """Integer lattice points, so many distances tie exactly; optionally in a
    shuffled order, so the lowest-index rule is not the lattice order."""
    pts = np.indices((side,) * 3).reshape(3, -1).T.astype(np.float64)
    return pts if seed is None else pts[np.random.default_rng(seed).permutation(len(pts))]


def norm_rows(coords, picks):
    return np.linalg.norm(coords[picks][:, None] - coords[None], axis=2)


def test_distances_equal_linalg_norm_bitwise():
    # Pins the summation order: if numpy changes how norm reduces its last
    # axis, the geometry no longer equals the reference and this must fail.
    # The oracle's matrices feed the primitives in the tests below, and
    # farthest-point sampling writes its rows the same way.
    rng = np.random.default_rng(20)
    for scale in (1e-3, 1.0, 1e3):
        for na, nb in ((1, 4096), (129, 517), (4096, 1)):
            a, b = rng.uniform(-scale, scale, (na, 3)), rng.uniform(-scale, scale, (nb, 3))
            assert np.array_equal(distances(a, b),
                                  np.linalg.norm(a[:, None] - b[None], axis=2))
        coords = rng.uniform(-scale, scale, (517, 3))
        picks, d = farthest_point_sampling(coords, 129)
        assert np.array_equal(d, norm_rows(coords, picks))
    pts = lattice(4, seed=0) * 0.1
    assert np.array_equal(distances(pts, pts), np.linalg.norm(pts[:, None] - pts[None], axis=2))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 100, 512, 4096])
def test_geometry_matches_oracles_on_random_clouds(n):
    coords = np.random.default_rng(n).uniform(0, 1, (n, 3)) * (1.0, 1.0, 0.8)
    m = min(n, 128)
    centers, d = farthest_point_sampling(coords, m)
    assert np.array_equal(centers, farthest_point_sampling_norm(coords, m))
    assert np.array_equal(d, norm_rows(coords, centers))
    for radius, nsample in ((0.2, 16), (0.05, 4), (2.0, 16)):
        got = ball_group(d, radius, nsample)
        assert np.array_equal(got, ball_group_sorted(coords, coords[centers], radius, nsample))
    coarse = coords[centers]
    other = np.random.default_rng(n + 1).uniform(0, 1, (64, 3))
    for fine, dist in ((coords, d), (other, distances(coarse, other))):
        idx, w = nearest_neighbor_interpolation(dist)
        ref_idx, ref_w = nearest_neighbor_interpolation_sorted(fine, coarse)
        assert np.array_equal(idx, ref_idx) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("radius", [1.0, 2 ** 0.5, 3 ** 0.5, 2.0])
@pytest.mark.parametrize("nsample", [1, 4, 7, 16, 125, 200])
def test_ball_group_lattice_ties_match_oracle(radius, nsample):
    # neighbors at exactly the radius, more tied in-range points than
    # nsample (radius 1 has 7 in range, radius sqrt(2) has 19), and
    # nsample >= N (125 points)
    for seed in (None, 1):
        coords = lattice(5, seed)
        got = ball_group(distances(coords, coords), radius, nsample)
        assert np.array_equal(got, ball_group_sorted(coords, coords, radius, nsample))


@pytest.mark.parametrize("radius, nsample", [(0.4, 4), (0.9, 3), (0.9, 8), (0.9, 16)])
def test_ball_group_centers_off_the_point_set_match_oracle(radius, nsample):
    # Cell centers are sqrt(0.75) from 8 lattice points at once: isolated at
    # radius 0.4 (the tied nearest point fills every slot), 8 ties in range
    # at 0.9. Far centers are isolated with a unique nearest point.
    coords = lattice(4, seed=2)
    centers = np.concatenate([lattice(3) + 0.5, [[10.0, 0, 0], [-5.0, 2.0, 1.0]]])
    got = ball_group(distances(centers, coords), radius, nsample)
    assert np.array_equal(got, ball_group_sorted(coords, centers, radius, nsample))


@pytest.mark.parametrize("n_coarse", [1, 2, 3, 4, 27])
def test_interpolation_lattice_ties_match_oracle(n_coarse):
    # fine lattice points tie exactly at the 1st, 2nd and 3rd coarse neighbor
    fine = np.concatenate([lattice(4, seed=3), lattice(3) + 0.5])
    coarse = (lattice(3, seed=4) * 2.0)[:n_coarse]
    idx, w = interpolate(fine, coarse)
    ref_idx, ref_w = nearest_neighbor_interpolation_sorted(fine, coarse)
    assert np.array_equal(idx, ref_idx) and np.array_equal(w, ref_w)
    assert idx.shape == (len(fine), min(3, n_coarse))


def test_fps_lattice_ties_match_oracle():
    for seed in (None, 5):
        coords = lattice(5, seed)
        picks, d = farthest_point_sampling(coords, 64)
        assert np.array_equal(picks, farthest_point_sampling_norm(coords, 64))
        assert np.array_equal(d, norm_rows(coords, picks))


def geometry_arrays(geo):
    return (geo.levels + geo.sa_indices + [t.values for t in geo.sa_rel]
            + [t.values for t in geo.fp_mats] + [geo.fusion_coarse.values])


def geometry_cloud(name):
    """A random block of 512 or 4096 points; a shuffled 16³ lattice at a
    spacing of 1/16, whose distances tie exactly and stay exact; 20 random
    points each repeated 8 times, shuffled; or 300 equal points. Sampling
    runs out of distinct points on the last two and picks index 0 again."""
    if name == "lattice16":
        return lattice(16, seed=6) / 16
    if name == "dup8":
        rng = np.random.default_rng(8)
        return rng.permutation(np.repeat(rng.uniform(0, 1, (20, 3)), 8, axis=0))
    if name == "equal300":
        return np.full((300, 3), 0.25)
    n = int(name)
    return np.random.default_rng(n).uniform(0, 1, (n, 3)) * (1.0, 1.0, 0.8)


@pytest.mark.parametrize("cloud, dtype", [("512", np.float32), ("4096", np.float32),
                                          ("512", np.float64), ("lattice16", np.float32),
                                          ("dup8", np.float64), ("equal300", np.float32)])
def test_compute_geometry_matches_oracle_path(cloud, dtype):
    spec = LayerSpec()
    coords = geometry_cloud(cloud)
    got = Backbone(spec, np.random.default_rng(0), dtype).compute_geometry(coords)
    ref = geometry_oracle(spec, coords, dtype)
    got_arrays, ref_arrays = geometry_arrays(got), geometry_arrays(ref)
    assert len(got_arrays) == len(ref_arrays) == 14
    for a, b in zip(got_arrays, ref_arrays):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for level, npoint in zip(got.levels, spec.npoints):
        picks, d = farthest_point_sampling(level, npoint)
        assert np.array_equal(d, norm_rows(level, picks))


@pytest.mark.parametrize("cloud", ["512", "lattice16", "dup8", "equal300"])
def test_deeper_levels_are_level_one_prefixes_in_coordinates(cloud):
    # sampling level k's points again picks the first centers in order until
    # every point lies at distance 0, then index 0, whose coordinates the
    # repeated centers have: the coordinates agree bit for bit, the picks
    # only where points are distinct
    spec = LayerSpec()
    geo = Backbone(spec, np.random.default_rng(0)).compute_geometry(geometry_cloud(cloud))
    distinct = True
    for k, npoint in ((1, spec.npoints[1]), (2, spec.npoints[2])):
        picks, _ = farthest_point_sampling(geo.levels[k], npoint)
        assert np.array_equal(bits64(geo.levels[k][picks]), bits64(geo.levels[k + 1]))
        assert np.array_equal(bits64(geo.levels[k + 1]), bits64(geo.levels[1][:npoint]))
        distinct &= np.array_equal(picks, np.arange(npoint))
    assert distinct == (cloud in ("512", "lattice16"))


def bits64(a):
    return a.view(np.uint64)


def test_compute_geometry_peak_memory_at_paper_block_size():
    bb = Backbone(LayerSpec(), np.random.default_rng(0))
    coords = np.random.default_rng(21).uniform(0, 1, (4096, 3)) * (1.0, 1.0, 0.8)
    tracemalloc.start()
    try:
        bb.compute_geometry(coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


# ---------------------------------------------------------------------------
# encoder levels / decoder layers

def encode(spec, feats, coords, seed=0):
    """Encoder output, skip features and geometry of a float64 backbone."""
    bb = Backbone(spec, np.random.default_rng(seed), np.float64)
    geo = bb.compute_geometry(coords)
    encoded, skips = bb.encoder.apply(feats, geo)
    return bb, geo, encoded, skips


def test_encoder_constant_inputs_give_constant_outputs():
    coords = np.zeros((12, 3))  # coincident points: no relative-coordinate variation
    _, geo, encoded, skips = encode(tiny_spec(), ad.Tensor(np.full((12, 9), 0.7)), coords, seed=9)
    assert [s.shape for s in skips[1:]] == [(8, 8), (4, 16), (2, 32)]
    for out in (*skips[1:], encoded):
        assert np.allclose(out.values, out.values[0])
    assert [c.shape for c in geo.levels] == [(12, 3), (8, 3), (4, 3), (2, 3)]


def test_encoder_output_shape_contract_with_density_reweight():
    rng = np.random.default_rng(10)
    spec = LayerSpec(npoints=(6, 3, 2), widths=(16, 8, 4), radii=(0.6, 0.8, 1.0),
                     nsamples=(5, 3, 2), density_reweight=True)
    _, geo, encoded, skips = encode(spec, ad.Tensor(rng.standard_normal((20, 9))),
                                    rng.uniform(0, 1, (20, 3)), seed=10)
    assert [s.shape for s in skips[1:]] == [(6, 16), (3, 8), (2, 4)]
    assert encoded.shape == (2, 512)
    assert [c.shape for c in geo.levels[1:]] == [(6, 3), (3, 3), (2, 3)]
    assert [s.shape for s in geo.sa_scale] == [(30, 1), (9, 1), (4, 1)]
    for i, (idx, rel, scale) in enumerate(zip(geo.sa_indices, geo.sa_rel, geo.sa_scale)):
        want = geo.levels[i][idx] - geo.levels[i + 1][:, None, :]  # neighbor minus center
        assert np.array_equal(rel.values, want.reshape(-1, 3))
        assert np.allclose(scale.values.reshape(idx.shape).mean(axis=1), 1.0)


def test_encoder_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    coords = rng.uniform(0, 1, (10, 3))
    x0 = rng.standard_normal((10, 9))
    bb = Backbone(tiny_spec(), rng, np.float64)
    geo = bb.compute_geometry(coords)
    probe = rng.standard_normal((2, 512))

    def loss(x):
        encoded, _ = bb.encoder.apply(x, geo)
        return reduce_sum(ad.mul(encoded, ad.Tensor(probe)))

    x = ad.Tensor(x0, requires_grad=True)
    ad.backward(loss(x))
    assert np.abs(x.grad).max() > 0
    assert max_rel_err(x.grad, fd_grad(lambda xv: loss(ad.Tensor(xv)).item(), x0)) < 1e-5


def test_decoder_coincident_point_takes_coarse_feature():
    # fp_full set to pass the upsampled mid level through: at a full-level
    # point that is also a mid-level center, the output is that center's feature
    feats = block_features(seed=12)
    bb, geo, encoded, skips = encode(tiny_spec(), ad.Tensor(feats), feats[:, :3], seed=12)
    dec = bb.semantic_decoder
    w = np.zeros(dec.fp_full.weight.shape)
    w[9:] = np.eye(128)  # rows 0-8 take the skip (input) features
    dec.fp_full.weight.assign(w)
    df = dec.apply(encoded, skips, geo)
    f_b = df.mid
    centers = fps(feats[:, :3], tiny_spec().npoints[0])
    assert f_b.values.max() > 0.1
    assert np.allclose(df.full.values[centers], f_b.values, atol=1e-4)


def test_decoder_parameter_gradient():
    rng = np.random.default_rng(13)
    feats = block_features(seed=13, n=16)
    bb, geo, encoded, skips = encode(tiny_spec(), ad.Tensor(feats), feats[:, :3], seed=13)
    encoded = ad.Tensor(encoded.values)
    skips = [ad.Tensor(s.values) for s in skips]
    dec = bb.instance_decoder
    probe = rng.standard_normal((16, 128))

    def loss():
        return reduce_sum(ad.mul(dec.apply(encoded, skips, geo).full, ad.Tensor(probe)))

    ad.backward(loss())
    for conv in (dec.fp_coarse, dec.fp_mid, dec.fp_full):
        w0 = conv.weight.values.copy()
        picks = rng.choice(w0.size, size=12, replace=False)

        def f(vals):
            w = w0.copy()
            w.flat[picks] = vals
            conv.weight.assign(w)
            return loss().item()

        fd = fd_grad(f, w0.flat[picks])
        conv.weight.assign(w0)
        assert max_rel_err(conv.weight.grad.flat[picks], fd) < 1e-5


# ---------------------------------------------------------------------------
# full backbone

def make_backbone(seed=0, dtype=np.float64):
    return Backbone(tiny_spec(), np.random.default_rng(seed), dtype)


def forward_features(bb, feats):
    """The two decoder feature pyramids of (N, 9) block features."""
    return bb.apply(ad.Tensor(feats), bb.compute_geometry(feats[:, :3]))


def block_features(seed=0, n=32):
    rng = np.random.default_rng(seed)
    feats = np.empty((n, 9))
    feats[:, :3] = rng.uniform(0, 1, (n, 3))
    feats[:, 3:6] = rng.uniform(0, 1, (n, 3))
    feats[:, 6:9] = feats[:, :3]
    return feats


def test_backbone_output_shapes():
    bb = make_backbone()
    sem, ins = forward_features(bb, block_features())
    assert sem.full.shape == (32, 128) and ins.full.shape == (32, 128)
    assert sem.mid.shape == (8, 128) and sem.coarse.shape == (4, 256)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decoder_full_level_interpolates_the_projected_mid_level(dtype):
    # fp_full maps [input, P @ mid] as input · W[:9] + P @ (mid · W[9:]), and
    # mid is fp_mid's output over [sa1, P @ coarse] taken the same way
    bb = make_backbone(seed=4, dtype=dtype)
    feats = block_features(seed=4)
    geo = bb.compute_geometry(feats[:, :3])
    x = ad.Tensor(feats.astype(dtype))
    encoded, skips = bb.encoder.apply(x, geo)
    for dec in (bb.semantic_decoder, bb.instance_decoder):
        df = dec.apply(encoded, skips, geo)
        assert df.full.dtype == df.mid.dtype == df.coarse.dtype == dtype
        for out, conv, skip, mat, level in ((df.full, dec.fp_full, skips[0], geo.fp_mats[2], df.mid),
                                            (df.mid, dec.fp_mid, skips[1], geo.fp_mats[1],
                                             df.coarse)):
            w, k = conv.weight.values, skip.shape[1]
            pre = skip.values @ w[:k] + mat.values @ (level.values @ w[k:]) + conv.bias.values
            assert np.array_equal(out.values, np.fmax(pre, 0))


def test_backbone_deterministic_given_seed():
    a_sem, a_ins = forward_features(make_backbone(seed=5), block_features())
    b_sem, b_ins = forward_features(make_backbone(seed=5), block_features())
    assert np.array_equal(a_sem.full.values, b_sem.full.values)
    assert np.array_equal(a_ins.full.values, b_ins.full.values)


def test_decoders_are_independent_and_encoder_is_shared():
    bb = make_backbone(seed=6)
    feats = block_features(seed=1)
    sem0, ins0 = forward_features(bb, feats)

    # perturbing a semantic-decoder parameter must not change instance features
    p = bb.semantic_decoder.fp_full.weight
    p.assign(p.values + 0.25)
    sem1, ins1 = forward_features(bb, feats)
    assert np.array_equal(ins0.full.values, ins1.full.values)
    assert not np.array_equal(sem0.full.values, sem1.full.values)

    # and vice versa
    q = bb.instance_decoder.fp_full.weight
    q.assign(q.values + 0.25)
    sem2, ins2 = forward_features(bb, feats)
    assert np.array_equal(sem1.full.values, sem2.full.values)
    assert not np.array_equal(ins1.full.values, ins2.full.values)


def test_encoder_gradients_accumulate_from_both_branches():
    bb = make_backbone(seed=7)
    feats = block_features(seed=2)
    enc_param = bb.encoder.levels[0][0].weight

    def run(branch):
        for p in bb.parameters():
            p.zero_grad()
        sem, ins = forward_features(bb, feats)
        target = sem.full if branch == "sem" else ins.full
        ad.backward(reduce_sum(target))
        return enc_param.grad.copy()

    g_sem = run("sem")
    g_ins = run("ins")
    for p in bb.parameters():
        p.zero_grad()
    sem, ins = forward_features(bb, feats)
    ad.backward(ad.add(reduce_sum(sem.full), reduce_sum(ins.full)))
    assert np.allclose(enc_param.grad, g_sem + g_ins, rtol=1e-9, atol=1e-12)


def test_backbone_parameter_gradient_finite_differences():
    bb = make_backbone(seed=8)
    feats = block_features(seed=3, n=16)
    geo = bb.compute_geometry(feats[:, :3])
    probe_holder = {}

    def loss_value():
        sem, ins = bb.apply(ad.Tensor(feats), geo)
        if "p" not in probe_holder:
            rng = np.random.default_rng(99)
            probe_holder["p"] = (rng.standard_normal(sem.full.shape),
                                 rng.standard_normal(ins.full.shape))
        ps, pi = probe_holder["p"]
        return ad.add(reduce_sum(ad.mul(sem.full, ad.Tensor(ps))),
                      reduce_sum(ad.mul(ins.full, ad.Tensor(pi))))

    for p in bb.parameters():
        p.zero_grad()
    ad.backward(loss_value())

    rng = np.random.default_rng(100)
    h = 1e-5
    for param in [bb.encoder.levels[1][1].weight, bb.semantic_decoder.fp_mid.weight,
                  bb.encoder.head.bias]:
        flat = param.values.reshape(-1)
        for i in rng.choice(flat.size, size=3, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                up = loss_value().item()
            flat[i] = orig - h
            with ad.no_grad():
                down = loss_value().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            analytic = param.grad.reshape(-1)[i]
            assert max_rel_err(np.array([analytic]), np.array([fd])) < 1e-5


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(npoints=(8, 8, 2))

