"""Shared encoder and twin decoders over point features.

The encoder stacks three downsample-group-summarize levels (sample centers
by farthest-point sampling, gather ball neighborhoods, run two shared
per-point convolutions on relative-coordinate-augmented features, max-reduce
per group) and a head to a coarse level of 512-wide features. Two
structurally identical but independently parameterized decoders of three
convolutions each upsample back to full resolution with
inverse-square-distance interpolation over 3 nearest neighbors plus skip
connections, each exposing its last three layer outputs for feature fusion
(the mid one as the full-resolution product that its last layer consumes).

All point selections and interpolation weights depend only on coordinates,
never on parameters, so ``Backbone.compute_geometry`` precomputes them from
the ``LayerSpec`` into a ``BlockGeometry`` that a training loop can cache
across iterations. The selections are exact, with distance ties going to
the lowest point index as under a stable sort, yet no row of distances is
fully sorted (see ``ball_group`` and ``nearest_neighbor_interpolation``).
Each level's point-to-center distances are computed once, by farthest-point
sampling, and read by its grouping and its interpolation matrices.
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

def farthest_point_sampling(coords: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of m points chosen by iterative farthest-point selection, and
    the (m, N) distances from each pick (row i for pick i) to every point.

    The first pick is index 0 and distance ties resolve to the lowest index,
    so the result is deterministic. Each row is written in place from the
    coordinate columns as ``(dx² + dy²) + dz²`` and then ``sqrt``, the order of
    ``np.linalg.norm(coords[picks][:, None] - coords[None], axis=2)``, so the
    rows equal it bit for bit.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if m > n:
        raise ValueError(f"cannot sample {m} points from {n}")
    axes = coords.T.copy()  # (3, N): one contiguous column per axis
    chosen = np.empty(m, dtype=np.int64)
    d = np.empty((m, n))
    t = np.empty(n)
    nearest = np.full(n, np.inf)  # distance to the nearest pick so far
    for i, row in enumerate(d):
        chosen[i] = pick = int(np.argmax(nearest))  # first max = lowest index on ties; 0 first
        np.subtract(axes[0], axes[0, pick], out=row)
        row *= row
        for axis in axes[1:]:
            np.subtract(axis, axis[pick], out=t)
            t *= t
            row += t
        np.sqrt(row, out=row)
        np.minimum(nearest, row, out=nearest)
    return chosen, d


def ball_group(d: np.ndarray, radius: float, max_neighbors: int) -> np.ndarray:
    """Per center, up to ``max_neighbors`` point indices within ``radius``,
    given the (m, N) distances ``d`` from each center to every point.

    Candidates are ordered by (distance, index); the center itself (distance
    zero when centers are drawn from the points) is always included, and any
    deficit is padded by repeating the first neighbor. A center with no point
    in range takes its nearest point (lowest index on ties) for every slot.

    No row is fully sorted: a partition finds each row's
    ``max_neighbors``-th smallest distance, and only the in-range points no
    farther than it, ties included, are sorted by (row, distance, index).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    m, n = d.shape
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


def nearest_neighbor_interpolation(d: np.ndarray, k: int = 3,
                                   eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Indices and normalized inverse-square-distance weights of the k nearest
    coarse points for every fine point, given the (N_coarse, N_fine)
    distances ``d``. Distance ties resolve to the lowest coarse index; weights
    form a convex combination.

    The neighbors come from k ``argmin`` passes over one transposed copy of
    ``d``, each masking the previous pick with ``inf``; ``argmin`` returns the
    first minimum, so the picks equal the first k columns of a stable sort.
    """
    if d.shape[0] == 0:
        raise ValueError("no coarse points to interpolate from")
    k = min(k, d.shape[0])
    d = d.T.copy()  # (N_fine, N_coarse), the one copy the masking writes into
    rows = np.arange(d.shape[0])
    order = np.empty((d.shape[0], k), dtype=np.int64)
    nd = np.empty((d.shape[0], k))
    for j in range(k):
        order[:, j] = pick = d.argmin(axis=1)
        nd[:, j] = d[rows, pick]
        d[rows, pick] = np.inf
    w = 1.0 / (nd ** 2 + eps)
    w = w / w.sum(axis=1, keepdims=True)
    return order, w


def interpolation_matrix(d: np.ndarray, dtype) -> np.ndarray:
    """The 3-nearest-neighbor interpolation over the (N_coarse, N_fine)
    distances ``d`` as a dense (N_fine, N_coarse) row-stochastic matrix of
    ``dtype``, so upsampling becomes one matrix product."""
    idx, w = nearest_neighbor_interpolation(d)
    mat = np.zeros(d.shape[::-1], dtype=dtype)
    np.put_along_axis(mat, idx, w, axis=1)
    return mat


@dataclass
class BlockGeometry:
    """Coordinate-derived constants of one block, reusable across iterations.

    levels: coordinates at each resolution, fine to coarse.
    sa_indices / sa_rel / sa_scale: per encoder level, the (m, nsample)
    neighbor indices, and the relative neighbor coordinates and optional
    density scales with one row per neighbor.
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

class Encoder:
    """Three downsample-group-summarize levels, each a pair of shared
    convolutions, and a head to 512 channels."""

    def __init__(self, spec: LayerSpec, rng, dtype):
        cins = (IN_CHANNELS,) + spec.widths[:2]
        self.levels = [
            (Conv1x1(f"encoder.sa{i+1}.conv1", cin + 3, width, rng, dtype),
             Conv1x1(f"encoder.sa{i+1}.conv2", width, width, rng, dtype))
            for i, (cin, width) in enumerate(zip(cins, spec.widths))
        ]
        self.head = Conv1x1("encoder.head", spec.widths[2], ENCODER_WIDTH, rng, dtype)

    def apply(self, feats: ad.Tensor, geo: BlockGeometry):
        """Returns the coarse (N_e, 512) features plus per-level skip features."""
        skips = [feats]
        h = feats
        for (conv1, conv2), idx, rel, scale in zip(self.levels, geo.sa_indices, geo.sa_rel,
                                                   geo.sa_scale):
            grouped = ad.gather_rows(h, idx.ravel())  # (m*ns, C)
            parts = (rel, grouped) if scale is None else (ad.mul(rel, scale), ad.mul(grouped, scale))
            h = ad.rowmax_pool(conv2(conv1(parts)), idx.shape[1])
            skips.append(h)
        return self.head(h), skips

    def parameters(self):
        return collect_parameters([conv for pair in self.levels for conv in pair] + [self.head])


class Decoder:
    """Three upsampling layers from the coarse level back to full resolution,
    each a convolution over skip features beside the interpolated level."""

    def __init__(self, name: str, spec: LayerSpec, rng, dtype):
        w_c, w_b, w_a = DECODER_WIDTHS
        self.fp_coarse = Conv1x1(f"{name}.fp_coarse.conv", ENCODER_WIDTH + spec.widths[1], w_c,
                                 rng, dtype)
        self.fp_mid = Conv1x1(f"{name}.fp_mid.conv", w_c + spec.widths[0], w_b, rng, dtype)
        self.fp_full = Conv1x1(f"{name}.fp_full.conv", w_b + IN_CHANNELS, w_a, rng, dtype)

    def apply(self, encoded: ad.Tensor, skips, geo: BlockGeometry) -> DecoderFeatures:
        # skips: [input, sa1, sa2, sa3]; geo.levels: [a, b, c, e]
        f_c = self.fp_coarse((skips[2], ad.matmul(geo.fp_mats[0], encoded)))
        f_b = self.fp_mid((skips[1], ad.matmul(geo.fp_mats[1], f_c)))
        mid_up = ad.matmul(geo.fp_mats[2], f_b)
        f_a = self.fp_full((skips[0], mid_up))
        return DecoderFeatures(full=f_a, mid_up=mid_up, coarse=f_c)

    def parameters(self):
        return collect_parameters([self.fp_coarse, self.fp_mid, self.fp_full])


class Backbone:
    """Shared encoder feeding independently parameterized semantic and
    instance decoders."""

    def __init__(self, spec: LayerSpec, rng, dtype=np.float32):
        self.spec = spec
        self.dtype = dtype
        self.encoder = Encoder(spec, rng, dtype)
        self.semantic_decoder = Decoder("semantic_decoder", spec, rng, dtype)
        self.instance_decoder = Decoder("instance_decoder", spec, rng, dtype)

    def compute_geometry(self, coords: np.ndarray) -> BlockGeometry:
        """Per encoder level: farthest-point centers and their distances to
        the level's points, the centers' ball neighborhoods, relative neighbor
        coordinates and, with ``density_reweight``, inverse density scales;
        then the decoder's interpolation matrices from the same distances."""
        levels = [np.asarray(coords, dtype=np.float64)]
        picks, dists, sa_indices, sa_rel, sa_scale = [], [], [], [], []
        spec = self.spec
        for npoint, radius, nsample in zip(spec.npoints, spec.radii, spec.nsamples):
            cur = levels[-1]
            chosen, d = farthest_point_sampling(cur, npoint)  # d: (m, N) center to point
            centers = cur[chosen]
            idx = ball_group(d, radius, nsample)  # (m, ns)
            rel = cur[idx] - centers[:, None, :]
            sa_indices.append(idx)
            sa_rel.append(ad.Tensor(rel.reshape(-1, 3).astype(self.dtype)))
            sa_scale.append(ad.Tensor(_inverse_density_scale(cur, idx, radius / 2)
                                      .reshape(-1, 1).astype(self.dtype))
                            if spec.density_reweight else None)
            levels.append(centers)
            picks.append(chosen)
            dists.append(d)

        def mat(d):
            return ad.Tensor(interpolation_matrix(d, self.dtype))

        # level 2's points are the level-1 points picks[1], so their distances to
        # level 0 are those rows of level 0's distances
        return BlockGeometry(levels=levels, sa_indices=sa_indices, sa_rel=sa_rel,
                             sa_scale=sa_scale, fp_mats=[mat(d) for d in dists[::-1]],
                             fusion_coarse=mat(dists[0][picks[1]]))

    def apply(self, feats: ad.Tensor, geo: BlockGeometry) -> tuple[DecoderFeatures, DecoderFeatures]:
        encoded, skips = self.encoder.apply(feats, geo)
        return self.semantic_decoder.apply(encoded, skips, geo), \
            self.instance_decoder.apply(encoded, skips, geo)

    def parameters(self):
        return collect_parameters([self.encoder, self.semantic_decoder, self.instance_decoder])
