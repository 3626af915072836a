from typing import NamedTuple

import numpy as np

from jointseg import autodiff as ad
from jointseg.backbone import DecoderFeatures, interpolation_matrix
from jointseg.fusion import FeatureFusion
from oracles import distances, fd_grad, fusion_concat, max_rel_err, reduce_sum


class Coords(NamedTuple):
    """Point coordinates of the three decoder levels."""

    full: np.ndarray
    mid: np.ndarray
    coarse: np.ndarray


class Levels(NamedTuple):
    """Decoder features of the three levels, each at its own resolution."""

    full: ad.Tensor
    mid: ad.Tensor
    coarse: ad.Tensor


def make_df(rng, n_full=12, n_mid=6, n_coarse=3, dtype=np.float64):
    df = Levels(
        full=ad.Tensor(rng.standard_normal((n_full, 128)).astype(dtype)),
        mid=ad.Tensor(rng.standard_normal((n_mid, 128)).astype(dtype)),
        coarse=ad.Tensor(rng.standard_normal((n_coarse, 256)).astype(dtype)),
    )
    return df, Coords(rng.uniform(0, 1, (n_full, 3)), rng.uniform(0, 1, (n_mid, 3)),
                      rng.uniform(0, 1, (n_coarse, 3)))


def upsample_matrix(fine, coarse):
    return ad.Tensor(interpolation_matrix(distances(coarse, fine), np.float64))


def fuse(ff, df, coords):
    """Fusion output with the interpolation matrices built from ``coords``."""
    return ff.apply(DecoderFeatures(full=df.full, mid=df.mid, coarse=df.coarse),
                    upsample_matrix(coords.full, coords.mid),
                    upsample_matrix(coords.full, coords.coarse))


def test_output_shape_is_fixed_regardless_of_level_sizes():
    rng = np.random.default_rng(0)
    ff = FeatureFusion("ff", rng, dtype=np.float64)
    for n_mid, n_coarse in [(6, 3), (12, 12), (2, 1)]:
        out = fuse(ff, *make_df(np.random.default_rng(1), 12, n_mid, n_coarse))
        assert out.shape == (12, 128)


def test_all_zero_inputs_give_zero_output():
    rng = np.random.default_rng(2)
    ff = FeatureFusion("ff", rng, dtype=np.float64)
    _, coords = make_df(np.random.default_rng(3))
    df = Levels(full=ad.Tensor(np.zeros((12, 128))), mid=ad.Tensor(np.zeros((6, 128))),
                coarse=ad.Tensor(np.zeros((3, 256))))
    assert np.array_equal(fuse(ff, df, coords).values, np.zeros((12, 128)))  # bias starts at zero


def test_coincident_levels_reduce_to_identity_interpolation():
    rng = np.random.default_rng(4)
    ff = FeatureFusion("ff", rng, dtype=np.float64)
    coords = rng.uniform(0, 1, (8, 3))
    full = rng.standard_normal((8, 128))
    mid = rng.standard_normal((8, 128))
    coarse = rng.standard_normal((8, 256))
    df = Levels(full=ad.Tensor(full), mid=ad.Tensor(mid), coarse=ad.Tensor(coarse))
    out = fuse(ff, df, Coords(coords, coords, coords)).values
    expected = np.maximum(
        (np.concatenate([full, mid], axis=1) + coarse) @ ff.conv.weight.values, 0)
    assert np.allclose(out, expected, atol=1e-4)


def test_matches_straight_line_reimplementation():
    rng = np.random.default_rng(5)
    ff = FeatureFusion("ff", rng, dtype=np.float64)
    df, coords = make_df(np.random.default_rng(6), n_full=10, n_mid=5, n_coarse=4)
    out = fuse(ff, df, coords).values

    # independent re-composition: brute-force 3-NN, loops, then affine + relu
    def upsample(fine, coarse_coords, feats):
        res = np.zeros((fine.shape[0], feats.shape[1]))
        for i in range(fine.shape[0]):
            d = np.array([np.linalg.norm(fine[i] - c) for c in coarse_coords])
            nn = sorted(range(len(d)), key=lambda j: (d[j], j))[:3]
            w = np.array([1.0 / (d[j] ** 2 + 1e-8) for j in nn])
            w /= w.sum()
            for wj, j in zip(w, nn):
                res[i] += wj * feats[j]
        return res

    mid_up = upsample(coords.full, coords.mid, df.mid.values)
    coarse_up = upsample(coords.full, coords.coarse, df.coarse.values)
    pre = np.concatenate([df.full.values, mid_up], axis=1) + coarse_up
    expected = np.maximum(pre @ ff.conv.weight.values + ff.conv.bias.values, 0)
    assert np.allclose(out, expected, atol=1e-10)


def test_gradient_reaches_all_three_inputs():
    rng = np.random.default_rng(7)
    ff = FeatureFusion("ff", rng, dtype=np.float64)
    base, coords = make_df(np.random.default_rng(8), n_full=6, n_mid=4, n_coarse=3)
    probe = rng.standard_normal((6, 128))

    def loss_with(full_v, mid_v, coarse_v, grads=False):
        df = Levels(
            full=ad.Tensor(full_v, requires_grad=grads),
            mid=ad.Tensor(mid_v, requires_grad=grads),
            coarse=ad.Tensor(coarse_v, requires_grad=grads))
        return df, reduce_sum(ad.mul(fuse(ff, df, coords), ad.Tensor(probe)))

    f0, m0, c0 = base.full.values, base.mid.values, base.coarse.values
    df, loss = loss_with(f0, m0, c0, grads=True)
    ad.backward(loss)
    for tensor, x0, pick in [(df.full, f0, 0), (df.mid, m0, 1), (df.coarse, c0, 2)]:
        args = [f0, m0, c0]

        def f(v, pick=pick, args=args):
            a = list(args)
            a[pick] = v
            return loss_with(*a)[1].item()

        assert max_rel_err(tensor.grad, fd_grad(f, x0)) < 1e-5
        assert np.abs(tensor.grad).max() > 0


def test_matches_the_upsampled_concatenation_in_values_and_gradients():
    # the head projects each coarser level before interpolating it; the
    # reference upsamples both levels, adds the coarse one to [full, mid_up]
    # and convolves the sum
    rng = np.random.default_rng(9)
    ff = FeatureFusion("ff", rng, dtype=np.float64)
    ff.conv.bias.assign(rng.standard_normal((1, 128)))
    base, coords = make_df(np.random.default_rng(10), n_full=40, n_mid=12, n_coarse=5)
    probe = rng.standard_normal((40, 128))
    mid_mat = upsample_matrix(coords.full, coords.mid)
    coarse_mat = upsample_matrix(coords.full, coords.coarse)
    results = []
    for reference in (False, True):
        df = Levels(*(ad.Tensor(t.values, requires_grad=True) for t in base))
        for p in ff.parameters():
            p.zero_grad()
        out = (fusion_concat(ff, df.full, ad.matmul(mid_mat, df.mid), df.coarse, coarse_mat)
               if reference else ff.apply(DecoderFeatures(*df), mid_mat, coarse_mat))
        ad.backward(reduce_sum(ad.mul(out, ad.Tensor(probe))))
        results.append([out.values] + [t.grad for t in df] + [p.grad for p in ff.parameters()])
    got, want = results
    assert (got[0] > 0).any() and (got[0] == 0).any()
    for a, b in zip(got, want):
        assert a.shape == b.shape and max_rel_err(a, b, floor=1e-300) < 1e-10
