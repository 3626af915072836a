"""Test-time pipeline: argmax semantics, mean-shift instance clustering, and
cross-block merging into scene-level labels.

Mean-shift uses a flat kernel with every point as a seed; converged modes
within half a bandwidth are unified and every point joins its nearest mode.
It runs in chunks of ``_CHUNK`` rows, so its memory is O(``_CHUNK`` · n · K)
instead of O(n² · K): the window test takes one GEMM per chunk and
recomputes directly only the pairs whose expanded distance lies too close to
the bandwidth to trust, and seeds that share a position are stepped once.
Block merging maintains a voxel grid over the scene as arrays over its
occupied voxels (one ``np.unique`` of the voxel keys): each block-local
instance adopts the global id already covering enough of its voxels, or mints
a new one, and every scene point finally takes the id of its voxel. Points in
unlabeled voxels take the nearest labeled voxel, found for all of them by one
chunked query of the same GEMM-plus-recheck kind, ``_NEAREST_ROWS`` points at
a time; exact distance ties go to the lowest voxel key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Scene, split_into_blocks


# Rows (seeds or points) per chunk. Each chunk's temporaries are a few
# (_CHUNK, n) arrays: the traced peak of a 4096 x 5 block is 6 MB on trained
# embeddings and 14 MB on Gaussian noise, whose 2315 modes widen the final
# nearest-mode step.
_CHUNK = 128
# Uncovered points per chunk of the nearest-voxel query. A chunk's temporaries
# are a few (_NEAREST_ROWS, L) arrays over the L labeled voxels, 1.4 MB each
# for the ~10.6k labeled voxels of a 3 m room of 29k points.
_NEAREST_ROWS = 16
# Half-width of the band in which the expanded distance is not trusted: around
# bw² in the window test, relative to ‖c‖² + max ‖p‖² + bw² after centring, and
# around a point's minimum in the nearest-voxel query, relative to
# ‖p‖² + max ‖c‖². The rounding error of either distance form is a few K·2⁻⁵³
# of that scale, far inside the band.
_RECHECK_BAND = 1e-9


@dataclass
class MeanShiftConfig:
    bandwidth: float = 0.6
    max_iter: int = 300
    tol: float = 1e-4

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


class _Window:
    """Flat-kernel window membership of centres against every point, equal to
    ``((c - p) ** 2).sum(-1) <= bw2`` pair for pair.

    d² is expanded as ‖c‖² + ‖p‖² − 2·c·pᵀ on mean-centred coordinates, so a
    chunk costs one GEMM; pairs within the recheck band of bw² take the direct
    expression instead.
    """

    def __init__(self, pts: np.ndarray, bw2: float):
        self.pts = pts
        self.bw2 = bw2
        self.mean = pts.mean(axis=0)
        centred = pts - self.mean
        self.minus_2pt = -2.0 * centred.T
        self.p_sq = (centred ** 2).sum(axis=1)
        self.p_sq_max = self.p_sq.max()

    def __call__(self, centres: np.ndarray) -> np.ndarray:
        c = centres - self.mean
        c_sq = (c ** 2).sum(axis=1)
        g = c @ self.minus_2pt  # d² − ‖c‖², up to rounding
        g += self.p_sq
        thr = (self.bw2 - c_sq)[:, None]
        slack = (_RECHECK_BAND * (c_sq + self.p_sq_max + self.bw2))[:, None]
        within = g <= thr + slack
        near = within & (g > thr - slack)
        if near.any():
            r, q = np.nonzero(near)
            within[r, q] = ((centres[r] - self.pts[q]) ** 2).sum(-1) <= self.bw2
        return within


def mean_shift(points: np.ndarray, cfg: MeanShiftConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cluster points with flat-kernel mean-shift.

    Returns (labels, modes); labels are dense ids ordered by descending mode
    support (points within one bandwidth of the mode), ties by seed index.

    Every point seeds a mode. Each iteration moves the distinct positions of
    the still-moving seeds, ``_CHUNK`` at a time, to the mean of the points
    within one bandwidth; support, merging and the final nearest-mode
    assignment run over distinct modes and chunks of points. No temporary
    exceeds ``_CHUNK`` · n · K floats. The window and merge tests decide every
    pair as the direct distance expressions do, so the result is that of the
    unchunked computation, except that BLAS may round a chunk's window sums
    differently from a full-size product: float64 modes can then differ in
    their last bits, while float32-valued embeddings sum exactly.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"points must be (N, K) with N >= 1, got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    n = pts.shape[0]
    window = _Window(pts, cfg.bandwidth ** 2)

    modes = pts.copy()  # one seed per point
    active = np.ones(n, dtype=bool)
    for _ in range(cfg.max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        # seeds at one position share their trajectory: step each position once
        cur, inv = np.unique(modes[idx], axis=0, return_inverse=True)
        inv = inv.reshape(-1)  # numpy 2.0.0 returns it 2-D
        new = np.empty_like(cur)
        for s in range(0, len(cur), _CHUNK):
            within = window(cur[s:s + _CHUNK])
            new[s:s + _CHUNK] = (within @ pts) / within.sum(axis=1, keepdims=True)
        converged = np.linalg.norm(new - cur, axis=1) < cfg.tol
        modes[idx] = new[inv]
        active[idx[converged[inv]]] = False

    # copies of a mode share its support and merge into its first seed
    uniq, first = np.unique(modes, axis=0, return_index=True)
    support = np.concatenate([window(uniq[s:s + _CHUNK]).sum(axis=1)
                              for s in range(0, len(uniq), _CHUNK)])
    order = np.lexsort((first, -support))  # support desc, seed index asc
    merge_r = cfg.bandwidth / 2
    kept: list[int] = []
    for i in order:
        # only kept modes this close can fail the norm test; the margin is far
        # wider than the rounding gap between the two forms of the distance
        dist = np.sqrt(((uniq[kept] - uniq[i]) ** 2).sum(axis=1))
        near = np.flatnonzero(dist <= merge_r * (1 + _RECHECK_BAND))
        if all(np.linalg.norm(uniq[i] - uniq[kept[j]]) > merge_r for j in near):
            kept.append(int(i))
    centers = uniq[kept]
    labels = np.concatenate([  # first minimum = lowest cluster id on ties
        ((pts[s:s + _CHUNK, None, :] - centers[None, :, :]) ** 2).sum(-1).argmin(axis=1)
        for s in range(0, n, _CHUNK)])
    return labels.astype(np.int64), centers


@dataclass
class BlockPrediction:
    """Per-point predictions of one block with dense block-local instance ids."""

    semantic: np.ndarray
    instance: np.ndarray
    instance_categories: np.ndarray
    point_indices: np.ndarray

    @property
    def num_instances(self) -> int:
        return int(self.instance_categories.shape[0])


def predict_block(logits: np.ndarray, embeddings: np.ndarray,
                  point_indices: np.ndarray, cfg: MeanShiftConfig,
                  num_classes: int | None = None) -> BlockPrediction:
    """Argmax classes, mean-shift instances, and majority-vote categories.

    Category ties within an instance resolve to the lowest class id.
    """
    logits = np.asarray(logits)
    semantic = logits.argmax(axis=1).astype(np.int64)
    instance, _ = mean_shift(np.asarray(embeddings), cfg)
    c = logits.shape[1] if num_classes is None else max(int(num_classes), logits.shape[1])
    n_inst = int(instance.max()) + 1
    votes = np.bincount(instance * c + semantic, minlength=n_inst * c).reshape(n_inst, c)
    categories = votes.argmax(axis=1)  # first maximum = lowest class id on ties
    return BlockPrediction(semantic=semantic, instance=instance,
                           instance_categories=categories,
                           point_indices=np.asarray(point_indices, dtype=np.int64))


@dataclass
class SceneSegmentation:
    """Scene-level result: a class and a global instance id for every point."""

    semantic: np.ndarray
    instance: np.ndarray
    num_instances: int
    uncovered_points: int  # points resolved via the nearest labeled voxel


def _nearest(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centre by the direct distance
    ``((centres - p) ** 2).sum(1)``; exact ties go to the lowest index.

    d² − ‖p‖² is expanded as ‖c‖² − 2·p·cᵀ on mean-centred coordinates, so a
    chunk of ``_NEAREST_ROWS`` points costs one GEMM. Rows with a second
    centre within the recheck band of their minimum compare their candidates
    by the direct expression instead.
    """
    mean = centres.mean(axis=0)
    c = centres - mean
    c_sq = (c ** 2).sum(axis=1)
    c_sq_max = c_sq.max()
    rhs = np.vstack([-2.0 * c.T, c_sq])  # (K + 1, L): [p, 1] @ rhs = ‖c‖² − 2·p·cᵀ
    out = np.empty(len(points), dtype=np.int64)
    for s in range(0, len(points), _NEAREST_ROWS):
        p = points[s:s + _NEAREST_ROWS]
        pc = p - mean
        g = np.hstack([pc, np.ones((len(p), 1))]) @ rhs  # d² − ‖p‖², up to rounding
        best = g.argmin(axis=1)
        rows = np.arange(len(p))
        bound = g[rows, best] + _RECHECK_BAND * ((pc ** 2).sum(axis=1) + c_sq_max)
        g[rows, best] = np.inf  # the row minimum is now the runner-up
        tied = g.min(axis=1) <= bound
        if tied.any():
            candidates = g[tied] <= bound[tied, None]
            candidates[np.arange(len(candidates)), best[tied]] = True
            r, q = np.nonzero(candidates)
            d2 = np.full(candidates.shape, np.inf)
            d2[r, q] = ((centres[q] - p[tied][r]) ** 2).sum(axis=1)
            best[tied] = d2.argmin(axis=1)  # first minimum = lowest index
        out[s:s + _NEAREST_ROWS] = best
    return out


def block_merging(predictions: list[BlockPrediction], scene: Scene, num_classes: int,
                  voxel_divisions: int = 400, overlap_threshold: float = 0.3) -> SceneSegmentation:
    """Merge per-block instance ids into scene-level ids over a voxel grid.

    Blocks are processed in order. A block-local instance merges into the
    global id whose labeled voxels overlap its own by at least
    ``overlap_threshold`` of the smaller voxel set (highest overlap wins,
    ties to the lower id); otherwise it mints a new id. The symmetric ratio
    keeps an instance whole when a thin sliver of it was processed first and
    a much larger portion arrives later. Voxels keep their first assignment,
    and per-point semantics are resolved by majority vote across overlapping
    blocks; a point no block sampled takes its voxel's vote over instance
    categories.

    The scene's V occupied voxels are indexed once, in lexicographic key
    order, so the grid is three arrays: the global id of each voxel (−1 while
    unlabeled), its (V, C) category votes and the voxel count of each id.
    A point whose voxel no instance labeled takes the id and vote of the
    labeled voxel with the nearest centre; on an exact distance tie, the
    lowest voxel key wins. That query runs ``_NEAREST_ROWS`` points at a
    time, so its temporaries are O(``_NEAREST_ROWS`` · V) floats.
    Instance ids are finally renumbered densely in order of first appearance.
    """
    if voxel_divisions < 1:
        raise ValueError(f"voxel_divisions must be >= 1, got {voxel_divisions}")
    if not 0 < overlap_threshold <= 1:
        raise ValueError(f"overlap_threshold must be in (0, 1], got {overlap_threshold}")
    n = scene.num_points
    voxel_size = scene.room_extent / voxel_divisions
    keys, point_voxel = np.unique(np.floor(scene.points / voxel_size).astype(np.int64),
                                  axis=0, return_inverse=True)
    point_voxel = point_voxel.reshape(-1)  # numpy 2.0.0 returns it 2-D

    empty = [np.empty(0, dtype=np.int64)]
    sampled = np.concatenate([p.point_indices for p in predictions] or empty)
    classes = np.concatenate([p.semantic for p in predictions] or empty)
    if classes.size and not 0 <= classes.min() <= classes.max() < num_classes:
        raise ValueError(f"semantic ids must be in [0, {num_classes}), "
                         f"got {classes.min()}..{classes.max()}")
    voxel_gid = np.full(len(keys), -1, dtype=np.int64)
    voxel_votes = np.zeros((len(keys), num_classes), dtype=np.int64)
    gid_voxel_count: list[int] = []
    for pred in predictions:
        for local in range(pred.num_instances):
            members = pred.point_indices[pred.instance == local]
            if members.size == 0:
                continue
            vox = np.unique(point_voxel[members])
            labeled = voxel_gid[vox]
            fresh = vox[labeled < 0]
            labeled = labeled[labeled >= 0]
            gid = -1
            if labeled.size:
                overlaps = np.bincount(labeled)
                best = int(overlaps.argmax())  # first maximum = lowest id on ties
                if overlaps[best] / min(vox.size, gid_voxel_count[best]) >= overlap_threshold:
                    gid = best
            if gid < 0:  # mint a new id
                gid = len(gid_voxel_count)
                gid_voxel_count.append(0)
            voxel_gid[fresh] = gid
            gid_voxel_count[gid] += fresh.size
            voxel_votes[vox, pred.instance_categories[local]] += 1

    covered = voxel_gid[point_voxel] >= 0
    labeled_voxels = np.flatnonzero(voxel_gid >= 0)
    if labeled_voxels.size == 0:
        instance = np.zeros(n, dtype=np.int64)
        semantic = np.zeros(n, dtype=np.int64)
    else:
        source = point_voxel.copy()  # the voxel each point takes its id and vote from
        centres = (keys[labeled_voxels] + 0.5) * voxel_size
        source[~covered] = labeled_voxels[_nearest(scene.points[~covered], centres)]
        instance = voxel_gid[source]
        point_votes = np.bincount(sampled * num_classes + classes, minlength=n * num_classes)
        point_votes = point_votes.reshape(n, num_classes)
        semantic = np.where(point_votes.any(axis=1), point_votes.argmax(axis=1),
                            voxel_votes[source].argmax(axis=1))

    _, first, dense = np.unique(instance, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return SceneSegmentation(semantic=semantic, instance=rank[dense.reshape(-1)],
                             num_instances=len(first),
                             uncovered_points=int(n - np.count_nonzero(covered)))


def segment_scene(network, scene: Scene, *, block_size: float = 1.0, stride: float = 0.5,
                  points_per_block: int = 512, min_points: int = 64, center_xy: bool = True,
                  mean_shift_cfg: MeanShiftConfig | None = None, seed: int = 0,
                  voxel_divisions: int = 400, overlap_threshold: float = 0.3) -> SceneSegmentation:
    """Split, forward, cluster, and merge one scene; deterministic given seed."""
    if mean_shift_cfg is None:
        mean_shift_cfg = MeanShiftConfig()
    rng = np.random.default_rng(seed)
    blocks = split_into_blocks(scene, block_size, stride, points_per_block,
                               min_points, center_xy, rng)
    predictions = []
    with ad.no_grad():
        for block in blocks:
            out = network.forward(block.features)
            predictions.append(predict_block(out.logits.values, out.embeddings.values,
                                             block.point_indices, mean_shift_cfg,
                                             network.num_classes))
    return block_merging(predictions, scene, network.num_classes,
                         voxel_divisions, overlap_threshold)
