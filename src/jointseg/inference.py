"""Test-time pipeline: argmax semantics, mean-shift instance clustering, and
cross-block merging into scene-level labels.

Mean-shift uses a flat kernel seeded once per occupied cell of a grid whose
spacing is the bandwidth, as scikit-learn's ``bin_seeding`` does, but from the
cell's lexicographically smallest member point rather than the cell's grid
position, so every seed's window holds at least that point. Cells are keyed
by ``round(p / bw)``, so the labels depend on the grid's origin: translating
the points can move cell edges and change the seeds. Converged modes within
half a bandwidth are unified and every point joins its nearest mode through
the nearest-centre query below. The window steps run in chunks of ``_CHUNK``
rows, so their memory is O(``_CHUNK`` · n · K) instead of O(n² · K). Seeds
that share a position are stepped once, found by one lexicographic ``lexsort``
per iteration. A chunk's window test takes one GEMM against every point and
recomputes directly only the pairs whose expanded distance lies too close to
the bandwidth to trust. Window sums run over the members in their original
order.
Block merging maintains a voxel grid over the scene as arrays over its
occupied voxels (one ``_distinct_rows`` of the voxel keys): each block-local
instance adopts the global id already covering enough of its voxels, or mints
a new one, and every scene point finally takes the id of its voxel. Points in
unlabeled voxels take the nearest labeled voxel; exact distance ties go to the
lowest voxel key.
Both nearest steps are one query, ``_nearest``: exact distance ties go to the
lowest index. It cuts the points by median splits into leaves whose rows
times candidate centres fit in ``_NEAREST_CELLS``, and compares each leaf, by
a GEMM plus recheck of the same kind, only with the centres inside its
bounding box widened by a radius proven to hold every centre that could be
nearest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Scene, split_into_blocks


# Seeds or modes per chunk of the window steps. Each chunk's temporaries are a
# few (_CHUNK, n) arrays at most: the tracemalloc peak of mean_shift on a
# 4096 x 5 block is at most 3.3 MB on the bench's trained embeddings and 3.9 MB
# on Gaussian noise, whose 3305 seeds end in 2232 modes.
_CHUNK = 64
# Cells (query rows x candidate centres) per leaf of the nearest-centre query:
# a leaf's temporaries are a few arrays of at most this many elements, 4 MB in
# float64, unless the leaf is one row. On the dense rooms' nearest-voxel
# queries, 2**18 took about 25% longer (more, smaller GEMMs) and 2**20 saved
# about 8% but nearly doubled the peak.
_NEAREST_CELLS = 2 ** 19
# Half-width of the band in which the expanded distance is not trusted: around
# bw² in the window test, relative to max ‖c‖² + max ‖p‖² + bw² over a chunk
# after centring, and around a point's minimum in the nearest-voxel query,
# relative to ‖p‖² + max ‖c‖². The rounding error of either distance form is a
# few K·2⁻⁵³ of that scale, far inside the band.
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

    d² − bw2 is expanded as ‖c‖² + ‖p‖² − 2·c·pᵀ − bw2 on mean-centred
    coordinates, so a call costs one GEMM; pairs within the recheck band of
    bw² take the direct expression instead.
    """

    def __init__(self, pts: np.ndarray, bw2: float):
        self.pts = pts
        self.bw2 = bw2
        self.mean = pts.mean(axis=0)
        centred = pts - self.mean
        p_sq = (centred ** 2).sum(axis=1)
        self.p_sq_max = p_sq.max()
        # [c, 1, ‖c‖² − bw2] @ rhs = ‖c‖² + ‖p‖² − 2·c·pᵀ − bw2
        self.rhs = np.vstack([-2.0 * centred.T, p_sq, np.ones(len(pts))])

    def __call__(self, centres: np.ndarray) -> np.ndarray:
        """The (m, n) membership of ``centres`` against every point."""
        c = centres - self.mean
        c_sq = (c ** 2).sum(axis=1)
        lhs = np.hstack([c, np.ones((len(c), 1)), (c_sq - self.bw2)[:, None]])
        e = lhs @ self.rhs  # d² − bw2, up to rounding
        slack = _RECHECK_BAND * (c_sq.max() + self.p_sq_max + self.bw2)
        within = e <= slack
        near = within & (e > -slack)
        if near.any():
            r, q = np.nonzero(near)
            within[r, q] = ((centres[r] - self.pts[q]) ** 2).sum(-1) <= self.bw2
        return within


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct, first, inverse) of the rows of ``rows``, grouped and ordered
    as ``np.unique(rows, axis=0)`` groups and orders them: lexicographically,
    first column first, 0.0 and −0.0 alike.

    One stable ``lexsort``; ``first`` holds each group's lowest row index,
    whose row is the group's representative, and ``rows[first][inverse]``
    equals ``rows`` up to the sign of zeros.
    """
    perm = np.lexsort(rows.T[::-1])
    ordered = rows[perm]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = perm[starts]
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[perm] = np.cumsum(starts) - 1
    return rows[first], first, inverse


def _cell_seeds(pts: np.ndarray, bw: float) -> np.ndarray:
    """One seed per occupied cell of the grid of spacing ``bw``, keyed by
    ``round(p / bw)``: the cell's lexicographically smallest member point,
    cells in key order (as ``_distinct_rows`` orders them). The points are
    sorted lexicographically first, so each cell's first member in that
    order is its smallest.

    A key that overflows means bw is finer than the float spacing of the
    points by hundreds of orders of magnitude; every point seeds then, in
    point order, rather than letting the infinite keys merge cells."""
    with np.errstate(over="ignore"):
        keys = np.round(pts / bw)
    if not np.isfinite(keys).all():
        return pts.copy()
    perm = np.lexsort(pts.T[::-1])
    _, first, _ = _distinct_rows(keys[perm])
    return pts[perm[first]]


def mean_shift(points: np.ndarray, cfg: MeanShiftConfig) -> tuple[np.ndarray, np.ndarray]:
    """Cluster points with flat-kernel mean-shift.

    Returns (labels, modes); labels are dense ids ordered by descending mode
    support (points within one bandwidth of the mode), ties by seed index.

    Each occupied cell of the grid of spacing bw, keyed by ``round(p / bw)``,
    seeds one mode at its lexicographically smallest member point, and seeds
    are indexed in cell-key order (``_cell_seeds``). A member seed always lies
    in its own window, so a point alone in its cell keeps its own mode. The
    partition depends on the grid's origin: a translation that moves points
    across cell edges changes the seeds, and with them the modes that survive
    the merge. Each iteration groups the still-moving seeds by position with
    one ``lexsort`` and moves each distinct position, ``_CHUNK`` at a time, to
    the mean of the points within one bandwidth, found by one window test
    against every point. Support and merging run over distinct modes, and
    each point joins its nearest mode by ``_nearest``.
    No temporary exceeds ``_CHUNK`` · n · K floats, or ``_NEAREST_CELLS`` in
    the nearest-mode query. The window, merge and nearest-mode tests
    decide every pair as the direct distance expressions do, and window sums
    run over the members in their original order, so the result is that of the
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
    pts_1 = np.hstack([pts, np.ones((n, 1))])

    modes = _cell_seeds(pts, cfg.bandwidth)
    active = np.ones(len(modes), dtype=bool)
    for _ in range(cfg.max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        # seeds at one position share their trajectory: step each position once
        cur, _, inv = _distinct_rows(modes[idx])
        new = np.empty_like(cur)
        for s in range(0, len(cur), _CHUNK):
            sums = window(cur[s:s + _CHUNK]) @ pts_1  # window sums, then the exact member count
            new[s:s + _CHUNK] = sums[:, :-1] / sums[:, -1:]
        converged = np.linalg.norm(new - cur, axis=1) < cfg.tol
        modes[idx] = new[inv]
        active[idx[converged[inv]]] = False

    # copies of a mode share its support and merge into its first seed
    uniq, first, _ = _distinct_rows(modes)
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
    return _nearest(pts, centers), centers


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


class NonFiniteOutputError(ValueError):
    """A network output holds NaN or inf, so it has no argmax or clustering."""


class NoBlocksError(ValueError):
    """Block splitting left no block of a scene to segment."""


def predict_block(logits: np.ndarray, embeddings: np.ndarray,
                  point_indices: np.ndarray, cfg: MeanShiftConfig) -> BlockPrediction:
    """Argmax classes, mean-shift instances, and majority-vote categories.

    Category ties within an instance resolve to the lowest class id. Logits
    or embeddings that are not all finite raise ``NonFiniteOutputError``
    naming which: NaN logits would argmax to class 0 without a word.
    """
    logits, embeddings = np.asarray(logits), np.asarray(embeddings)
    for name, values in (("logits", logits), ("embeddings", embeddings)):
        if not np.isfinite(values).all():
            raise NonFiniteOutputError(f"the network's {name} are not finite")
    semantic = logits.argmax(axis=1).astype(np.int64)
    instance, _ = mean_shift(embeddings, cfg)
    c = logits.shape[1]
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

    A leaf of points is compared only with its candidates: the centres
    inside its bounding box widened by a radius R on every side, in ascending
    index order. A box that holds every centre takes them all as they are;
    otherwise two ``searchsorted`` on the centres sorted along their widest
    axis (sorted once, on first need) and a box mask find them, and a box
    that holds no centre takes them all. The points are cut by median splits
    along the widest side of their box while a node has more than one row
    and its rows times its candidates, counted as their slab on the sorted
    axis or as all centres, exceed ``_NEAREST_CELLS``. So a leaf's
    temporaries hold at most that many elements, or one row against every
    centre.

    Among the candidates g = d² − ‖p‖² is expanded as ‖c‖² − 2·p·cᵀ on
    coordinates centred on the mean of all centres, so a leaf costs one GEMM.
    A row's best is its first minimum of g; if a second candidate lies within
    the recheck band b·s of it, with s = ‖p‖² + max ‖c‖² over all centres,
    the row's candidates within the band compare by the direct expression.

    Exactness. In a scan of every centre, a row is decided by the centres
    whose g lies within b·s of the row's minimum. Each of them has
    d² ≤ guess + b·s up to rounding, where the guess, the minimum over the
    candidates of g + ‖p‖², bounds the row's nearest d² from above. With
    need² = max guess + 2·b·max s over the leaf, each lies within need of its
    point with a spare of b·s in d², so inside the leaf's box widened by need
    on every axis: the rounding of g, of the guess and of the box edges is
    far inside that spare. Each radius is a need times 1 + b: R starts at the previous leaf's, and if this
    leaf's exceeds R, one retry at it suffices, because wider candidates
    only lower each guess; a retry whose box breaks the budget splits the
    leaf instead, and its parts start at the wider R. So the candidates hold
    every centre that decides a row, and each row's best, band and recheck
    are those of the full scan.
    """
    out = np.empty(len(points), dtype=np.int64)
    if len(points) == 0:
        return out
    mean = centres.mean(axis=0)
    c = centres - mean
    c_sq = (c ** 2).sum(axis=1)
    c_sq_max = c_sq.max()
    rhs = np.vstack([-2.0 * c.T, c_sq])  # (K + 1, L): [p, 1] @ rhs = ‖c‖² − 2·p·cᵀ
    everything = np.arange(len(centres))
    c_lo, c_hi = centres.min(axis=0), centres.max(axis=0)
    index = None  # the centres sorted along their widest axis, made on first use

    def candidates(lo, hi, rows):
        """The centres in the box [lo, hi] in index order, or every centre if
        it holds none; None if they break the budget for ``rows`` > 1 rows,
        counted as the width of their slab on the sorted axis. A box around
        every centre takes them all with no sort, search or mask."""
        nonlocal index
        cap = _NEAREST_CELLS / rows if rows > 1 else np.inf
        if (lo <= c_lo).all() and (hi >= c_hi).all():
            return everything if len(centres) <= cap else None
        if index is None:
            axis = int((c_hi - c_lo).argmax())
            order = np.argsort(centres[:, axis], kind="stable")
            index = axis, order, centres[order], centres[order, axis]
        axis, order, by_axis, sorted_axis = index
        s = np.searchsorted(sorted_axis, lo[axis], side="left")
        e = np.searchsorted(sorted_axis, hi[axis], side="right")
        if e - s > cap:
            return None
        inside = ((by_axis[s:e] >= lo) & (by_axis[s:e] <= hi)).all(axis=1)
        if inside.any():
            return np.sort(order[s:e][inside])
        return everything if len(centres) <= cap else None

    reach = 0.0
    stack = [np.arange(len(points))]
    while stack:
        idx = stack.pop()
        p = points[idx]
        lo, hi = p.min(axis=0), p.max(axis=0)
        cols = candidates(lo - reach, hi + reach, len(idx))
        if cols is None:  # median split along the widest side
            half = len(idx) // 2
            part = np.argpartition(p[:, (hi - lo).argmax()], half)
            stack += [idx[part[half:]], idx[part[:half]]]
            continue
        pc = p - mean
        p_sq = (pc ** 2).sum(axis=1)
        lhs = np.hstack([pc, np.ones((len(p), 1))])
        g = lhs @ rhs[:, cols]  # d² − ‖p‖², up to rounding
        guess = (g.min(axis=1) + p_sq).max()
        need = np.sqrt(guess + 2 * _RECHECK_BAND * (p_sq.max() + c_sq_max))
        need *= 1 + _RECHECK_BAND
        widen = need > reach and len(cols) < len(centres)
        reach = need
        if widen:
            del g  # a leaf holds one GEMM output at a time
            cols = candidates(lo - need, hi + need, len(idx))
            if cols is None:
                stack.append(idx)  # split at the wider radius
                continue
            g = lhs @ rhs[:, cols]
        best = g.argmin(axis=1)  # first minimum = lowest index
        rows = np.arange(len(p))
        bound = g[rows, best] + _RECHECK_BAND * (p_sq + c_sq_max)
        g[rows, best] = np.inf  # the row minimum is now the runner-up
        tied = g.min(axis=1) <= bound
        if tied.any():
            near = g[tied] <= bound[tied, None]
            near[np.arange(len(near)), best[tied]] = True
            r, q = np.nonzero(near)
            d2 = np.full(near.shape, np.inf)
            d2[r, q] = ((centres[cols][q] - p[tied][r]) ** 2).sum(axis=1)
            best[tied] = d2.argmin(axis=1)
        out[idx] = cols[best]
        del g  # before the next leaf's GEMM
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
    lowest voxel key wins. That query (``_nearest``) compares each leaf of
    points only with the labeled voxels in its widened box, and keeps each
    leaf's rows times candidate voxels within ``_NEAREST_CELLS``, so its
    temporaries are O(``_NEAREST_CELLS``) floats, or O(V) for a leaf of one
    point, however far the points lie from the labeled voxels.
    Instance ids are finally renumbered densely in order of first appearance.
    """
    if voxel_divisions < 1:
        raise ValueError(f"voxel_divisions must be >= 1, got {voxel_divisions}")
    if not 0 < overlap_threshold <= 1:
        raise ValueError(f"overlap_threshold must be in (0, 1], got {overlap_threshold}")
    n = scene.num_points
    voxel_size = scene.room_extent / voxel_divisions
    keys, _, point_voxel = _distinct_rows(np.floor(scene.points / voxel_size).astype(np.int64))

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
        raise ValueError("no instance labels a voxel: there is nothing to merge")
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
    if not blocks:
        raise NoBlocksError(f"no blocks: {scene.num_points} points, min_block_points {min_points}")
    predictions = []
    with ad.no_grad():
        for block in blocks:
            out = network.forward(block.features)
            predictions.append(predict_block(out.logits.values, out.embeddings.values,
                                             block.point_indices, mean_shift_cfg))
    return block_merging(predictions, scene, network.num_classes,
                         voxel_divisions, overlap_threshold)
