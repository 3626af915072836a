"""Shared encoder and twin decoders over point features.

The encoder stacks downsample-group-summarize layers (sample centers by
farthest-point sampling, gather ball neighborhoods, run a shared per-point
MLP on relative-coordinate-augmented features, max-reduce per group) down to
a coarse level of 512-wide features. Two structurally identical but
independently parameterized decoders upsample back to full resolution with
inverse-square-distance interpolation over 3 nearest neighbors plus skip
connections, each exposing its last three layer outputs for feature fusion
(the mid one as the full-resolution product that its last layer consumes).

All point selections and interpolation weights depend only on coordinates,
never on parameters, so they are precomputed into a ``BlockGeometry`` that a
training loop can cache across iterations. The selections are exact, with
distance ties going to the lowest point index as under a stable sort, yet no
row of distances is fully sorted (see ``ball_group`` and
``nearest_neighbor_interpolation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .layers import Conv1x1, collect_parameters

IN_CHANNELS = 9  # per-point input features: xyz, rgb, normalized xyz
ENCODER_WIDTH = 512
DECODER_WIDTHS = (256, 128, 128)  # decoder outputs at the coarse/mid/full levels


@dataclass
class LayerSpec:
    """Per-level geometry and width configuration of the encoder."""

    npoints: tuple[int, int, int] = (128, 32, 8)
    widths: tuple[int, int, int] = (64, 128, 256)
    radii: tuple[float, float, float] = (0.2, 0.4, 0.8)
    nsamples: tuple[int, int, int] = (16, 16, 16)
    density_reweight: bool = False

    def __post_init__(self):
        for name in ("npoints", "widths", "radii", "nsamples"):
            if len(values := getattr(self, name)) != 3:
                raise ValueError(f"{name} needs one value per encoder level, got {values}")
        pts = self.npoints
        if not pts[0] > pts[1] > pts[2] >= 1:
            raise ValueError(f"npoints must be strictly decreasing and >= 1, got {pts}")
        if min(self.widths) < 1 or min(self.nsamples) < 1:
            raise ValueError(f"widths and nsamples must be >= 1: {self.widths}, {self.nsamples}")
        if not all(math.isfinite(r) and r > 0 for r in self.radii):
            raise ValueError(f"radii must be positive and finite, got {self.radii}")


@dataclass
class DecoderFeatures:
    """Last three decoder layer outputs.

    full: (N_a, 128); mid_up: (N_a, 128), the mid level (N_b points)
    interpolated to full resolution; coarse: (N_c, 256).
    """

    full: ad.Tensor
    mid_up: ad.Tensor
    coarse: ad.Tensor


# ---------------------------------------------------------------------------
# geometric primitives (pure numpy; selections are constants to the graph)

def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between two (., 3) point sets.

    Squares are summed axis by axis as ``(dx² + dy²) + dz²``, the order of
    ``np.linalg.norm(a[:, None] - b[None], axis=2)``, so the two are equal bit
    for bit, without that expression's (len(a), len(b), 3) temporary.
    """
    d = np.subtract.outer(a[:, 0], b[:, 0])
    d *= d
    t = np.empty_like(d)
    for axis in (1, 2):
        np.subtract.outer(a[:, axis], b[:, axis], out=t)
        t *= t
        d += t
    return np.sqrt(d, out=d)


def farthest_point_sampling(coords: np.ndarray, m: int) -> np.ndarray:
    """Indices of m points chosen by iterative farthest-point selection.

    The first pick is index 0 and distance ties resolve to the lowest index,
    so the result is deterministic.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if m > n:
        raise ValueError(f"cannot sample {m} points from {n}")
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = 0
    dists = _distances(coords[:1], coords)[0]
    for i in range(1, m):
        nxt = int(np.argmax(dists))  # first max = lowest index on ties
        chosen[i] = nxt
        np.minimum(dists, _distances(coords[nxt:nxt + 1], coords)[0], out=dists)
    return chosen


def ball_group(coords: np.ndarray, centers: np.ndarray, radius: float,
               max_neighbors: int) -> np.ndarray:
    """Per center, up to ``max_neighbors`` point indices within ``radius``.

    Candidates are ordered by (distance, index); the center itself (distance
    zero when centers are drawn from ``coords``) is always included, and any
    deficit is padded by repeating the first neighbor. A center with no point
    in range takes its nearest point (lowest index on ties) for every slot.

    No row is fully sorted: a partition finds each row's
    ``max_neighbors``-th smallest distance, and only the in-range points no
    farther than it, ties included, are sorted by (row, distance, index).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    coords = np.asarray(coords, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    m, n = centers.shape[0], coords.shape[0]
    d = _distances(centers, coords)  # (m, N)
    k = min(max_neighbors, n)
    part = np.partition(d, k - 1, axis=1)[:, :k]  # each row's k smallest, kth last
    nearest, kth = part.min(axis=1), part[:, -1]
    isolated = nearest > radius
    bound = np.where(isolated, nearest, np.minimum(kth, radius))
    rows, cols = np.divmod(np.flatnonzero(d <= bound[:, None]), n)  # rows ascending
    order = np.lexsort((cols, d[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    found = np.bincount(rows, minlength=m)  # >= 1: the nearest point is within bound
    start = np.cumsum(found) - found
    rank = np.arange(rows.size) - np.repeat(start, found)
    keep = rank < np.where(isolated, 1, max_neighbors)[rows]
    out = np.repeat(cols[start][:, None], max_neighbors, axis=1)  # padded with the first
    out[rows[keep], rank[keep]] = cols[keep]
    return out


def _inverse_density_scale(coords: np.ndarray, idx: np.ndarray, bandwidth: float) -> np.ndarray:
    """Per grouped point, a normalized inverse kernel-density estimate.

    Density is a Gaussian KDE over each neighborhood; scales are normalized
    to mean 1 within the group so feature magnitudes stay comparable.
    """
    grouped = coords[idx]  # (m, ns, 3)
    diff = grouped[:, :, None, :] - grouped[:, None, :, :]
    d2 = (diff ** 2).sum(-1)
    density = np.exp(-d2 / (2 * bandwidth ** 2)).mean(axis=2)  # (m, ns)
    inv = 1.0 / np.maximum(density, 1e-12)
    return inv / inv.mean(axis=1, keepdims=True)


def nearest_neighbor_interpolation(fine_coords: np.ndarray, coarse_coords: np.ndarray,
                                   k: int = 3, eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Indices and normalized inverse-square-distance weights of the k nearest
    coarse points for every fine point. Distance ties resolve to the lowest
    coarse index; weights form a convex combination.

    The neighbors come from k ``argmin`` passes, each masking the previous
    pick with ``inf``; ``argmin`` returns the first minimum, so the picks
    equal the first k columns of a stable sort.
    """
    fine = np.asarray(fine_coords, dtype=np.float64)
    coarse = np.asarray(coarse_coords, dtype=np.float64)
    if coarse.shape[0] == 0:
        raise ValueError("no coarse points to interpolate from")
    k = min(k, coarse.shape[0])
    d = _distances(fine, coarse)
    rows = np.arange(fine.shape[0])
    order = np.empty((fine.shape[0], k), dtype=np.int64)
    nd = np.empty((fine.shape[0], k))
    for j in range(k):
        order[:, j] = pick = d.argmin(axis=1)
        nd[:, j] = d[rows, pick]
        d[rows, pick] = np.inf
    w = 1.0 / (nd ** 2 + eps)
    w = w / w.sum(axis=1, keepdims=True)
    return order, w


def interpolation_matrix(fine_coords: np.ndarray, coarse_coords: np.ndarray) -> np.ndarray:
    """The 3-nearest-neighbor interpolation as a dense (N_fine, N_coarse)
    row-stochastic matrix, so upsampling becomes one matrix product."""
    idx, w = nearest_neighbor_interpolation(fine_coords, coarse_coords)
    mat = np.zeros((fine_coords.shape[0], coarse_coords.shape[0]))
    np.put_along_axis(mat, idx, w, axis=1)
    return mat


@dataclass
class BlockGeometry:
    """Coordinate-derived constants of one block, reusable across iterations.

    levels: coordinates at each resolution, fine to coarse.
    sa_indices / sa_rel / sa_scale: per encoder layer, the flattened neighbor
    indices, relative neighbor coordinates, and optional density scales.
    fp_mats: interpolation matrices for the three decoder upsampling steps,
    coarse to full.
    fusion_coarse: the interpolation matrix from the coarse decoder level to
    full resolution, for the feature-fusion heads.
    """

    levels: list[np.ndarray]
    sa_indices: list[np.ndarray]
    sa_rel: list[ad.Tensor]
    sa_scale: list[ad.Tensor | None]
    fp_mats: list[ad.Tensor]
    fusion_coarse: ad.Tensor


# ---------------------------------------------------------------------------
# layers

class SetAbstraction:
    """One downsample-group-summarize layer."""

    def __init__(self, name: str, cin: int, width: int, npoint: int, radius: float,
                 nsample: int, density_reweight: bool, rng, dtype):
        self.npoint = npoint
        self.radius = radius
        self.nsample = nsample
        self.density_reweight = density_reweight
        self.dtype = dtype
        self.conv1 = Conv1x1(f"{name}.conv1", cin + 3, width, rng, dtype)
        self.conv2 = Conv1x1(f"{name}.conv2", width, width, rng, dtype)

    def compute_geometry(self, coords: np.ndarray):
        """Centers, neighbor indices, relative coordinates, density scales."""
        centers = farthest_point_sampling(coords, self.npoint)
        idx = ball_group(coords, coords[centers], self.radius, self.nsample)  # (m, ns)
        rel = coords[idx] - coords[centers][:, None, :]
        rel_t = ad.Tensor(rel.reshape(-1, 3).astype(self.dtype))
        scale = None
        if self.density_reweight:
            s = _inverse_density_scale(coords, idx, self.radius / 2)
            scale = ad.Tensor(s.reshape(-1, 1).astype(self.dtype))
        return coords[centers], idx, rel_t, scale

    def apply(self, feats: ad.Tensor, idx: np.ndarray, rel: ad.Tensor,
              scale: ad.Tensor | None) -> ad.Tensor:
        grouped = ad.gather_rows(feats, idx.ravel())  # (m*ns, C)
        parts = (rel, grouped) if scale is None else (ad.mul(rel, scale), ad.mul(grouped, scale))
        h = self.conv2(self.conv1(parts))
        return ad.rowmax_pool(h, self.nsample)

    def parameters(self):
        return self.conv1.parameters() + self.conv2.parameters()


class FeaturePropagation:
    """Concat skip features with coarse features already interpolated up to
    the skip level, and map."""

    def __init__(self, name: str, cin: int, width: int, rng, dtype):
        self.conv = Conv1x1(f"{name}.conv", cin, width, rng, dtype)

    def apply(self, up: ad.Tensor, skip: ad.Tensor) -> ad.Tensor:
        return self.conv((skip, up))

    def parameters(self):
        return self.conv.parameters()


class Encoder:
    def __init__(self, spec: LayerSpec, rng, dtype):
        cins = (IN_CHANNELS,) + spec.widths[:2]
        self.layers = [
            SetAbstraction(f"encoder.sa{i+1}", cins[i], spec.widths[i], spec.npoints[i],
                           spec.radii[i], spec.nsamples[i], spec.density_reweight, rng, dtype)
            for i in range(3)
        ]
        self.head = Conv1x1("encoder.head", spec.widths[2], ENCODER_WIDTH, rng, dtype)

    def apply(self, feats: ad.Tensor, geo: BlockGeometry):
        """Returns the coarse (N_e, 512) features plus per-level skip features."""
        skips = [feats]
        h = feats
        for layer, idx, rel, scale in zip(self.layers, geo.sa_indices, geo.sa_rel, geo.sa_scale):
            h = layer.apply(h, idx, rel, scale)
            skips.append(h)
        return self.head(h), skips

    def parameters(self):
        return collect_parameters(self.layers) + self.head.parameters()


class Decoder:
    """Three upsampling layers from the coarse level back to full resolution."""

    def __init__(self, name: str, spec: LayerSpec, rng, dtype):
        w_c, w_b, w_a = DECODER_WIDTHS
        self.fp_coarse = FeaturePropagation(f"{name}.fp_coarse",
                                            ENCODER_WIDTH + spec.widths[1], w_c, rng, dtype)
        self.fp_mid = FeaturePropagation(f"{name}.fp_mid", w_c + spec.widths[0], w_b, rng, dtype)
        self.fp_full = FeaturePropagation(f"{name}.fp_full", w_b + IN_CHANNELS, w_a, rng, dtype)

    def apply(self, encoded: ad.Tensor, skips, geo: BlockGeometry) -> DecoderFeatures:
        # skips: [input, sa1, sa2, sa3]; geo.levels: [a, b, c, e]
        f_c = self.fp_coarse.apply(ad.matmul(geo.fp_mats[0], encoded), skips[2])
        f_b = self.fp_mid.apply(ad.matmul(geo.fp_mats[1], f_c), skips[1])
        mid_up = ad.matmul(geo.fp_mats[2], f_b)
        f_a = self.fp_full.apply(mid_up, skips[0])
        return DecoderFeatures(full=f_a, mid_up=mid_up, coarse=f_c)

    def parameters(self):
        return collect_parameters([self.fp_coarse, self.fp_mid, self.fp_full])


class Backbone:
    """Shared encoder feeding independently parameterized semantic and
    instance decoders."""

    def __init__(self, spec: LayerSpec, rng, dtype=np.float32):
        self.dtype = dtype
        self.encoder = Encoder(spec, rng, dtype)
        self.semantic_decoder = Decoder("semantic_decoder", spec, rng, dtype)
        self.instance_decoder = Decoder("instance_decoder", spec, rng, dtype)

    def compute_geometry(self, coords: np.ndarray) -> BlockGeometry:
        coords = np.asarray(coords, dtype=np.float64)
        levels = [coords]
        sa_indices, sa_rel, sa_scale = [], [], []
        cur = coords
        for layer in self.encoder.layers:
            centers, idx, rel, scale = layer.compute_geometry(cur)
            sa_indices.append(idx)
            sa_rel.append(rel)
            sa_scale.append(scale)
            levels.append(centers)
            cur = centers

        def mat(fine, coarse):
            return ad.Tensor(interpolation_matrix(levels[fine], levels[coarse]).astype(self.dtype))

        return BlockGeometry(levels=levels, sa_indices=sa_indices, sa_rel=sa_rel,
                             sa_scale=sa_scale, fp_mats=[mat(2, 3), mat(1, 2), mat(0, 1)],
                             fusion_coarse=mat(0, 2))

    def apply(self, feats: ad.Tensor, geo: BlockGeometry) -> tuple[DecoderFeatures, DecoderFeatures]:
        encoded, skips = self.encoder.apply(feats, geo)
        return self.semantic_decoder.apply(encoded, skips, geo), \
            self.instance_decoder.apply(encoded, skips, geo)

    def parameters(self):
        return collect_parameters([self.encoder, self.semantic_decoder, self.instance_decoder])
