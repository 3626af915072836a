"""Independent oracle implementations used to verify the package.

Everything here is written the slow obvious way (explicit loops, exhaustive
scans) so it shares no code path with the implementations under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from jointseg import autodiff as ad
from jointseg.backbone import BlockGeometry, LayerSpec, _inverse_density_scale
from jointseg.data import Scene
from jointseg.inference import BlockPrediction, SceneSegmentation
from jointseg.losses import DiscriminativeLossTerms, InstanceGrouping, LossConfig
from jointseg.metrics import MetricsReport, RegionSet


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function over every entry of x."""
    g = np.zeros(x.shape, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


# ---------------------------------------------------------------------------
# brute-force metric oracles

def iou_loops(a: set, b: set) -> float:
    inter = sum(1 for x in a if x in b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def coverage_loops(gt_regions, pred_regions, weighted: bool) -> float:
    """gt/pred regions: list of (set, category)."""
    best = []
    for g, _ in gt_regions:
        scores = [iou_loops(g, p) for p, _ in pred_regions]
        best.append(max(scores) if scores else 0.0)
    if weighted:
        total = sum(len(g) for g, _ in gt_regions)
        return sum(len(g) / total * s for (g, _), s in zip(gt_regions, best))
    return sum(best) / len(best)


def precision_recall_loops(gt_regions, pred_regions, threshold: float = 0.5):
    """Greedy same-class matching by repeated exhaustive scans of the IoU table."""
    classes = sorted({c for _, c in gt_regions})
    per_class = {}
    for c in classes:
        gts = [g for g, gc in gt_regions if gc == c]
        preds = [p for p, pc in pred_regions if pc == c]
        table = [[iou_loops(p, g) for g in gts] for p in preds]
        open_p = set(range(len(preds)))
        open_g = set(range(len(gts)))
        tp = 0
        while open_p and open_g:
            best = None
            for pi in sorted(open_p):
                for gi in sorted(open_g):
                    key = (-table[pi][gi], pi, gi)
                    if best is None or key < best:
                        best = key
            _, pi, gi = best
            open_p.remove(pi)
            open_g.remove(gi)
            if table[pi][gi] >= threshold:
                tp += 1
        prec = tp / len(preds) if preds else 0.0
        rec = tp / len(gts)
        per_class[c] = (prec, rec)
    mp = sum(v[0] for v in per_class.values()) / len(per_class)
    mr = sum(v[1] for v in per_class.values()) / len(per_class)
    return mp, mr, per_class


def semantic_scores_loops(pred, gt):
    pred = list(pred)
    gt = list(gt)
    oacc = sum(1 for p, g in zip(pred, gt) if p == g) / len(gt)
    accs = []
    ious = []
    for c in sorted(set(gt) | set(pred)):
        tp = sum(1 for p, g in zip(pred, gt) if p == c and g == c)
        fn = sum(1 for p, g in zip(pred, gt) if p != c and g == c)
        fp = sum(1 for p, g in zip(pred, gt) if p == c and g != c)
        if tp + fn > 0:
            accs.append(tp / (tp + fn))
        ious.append(tp / (tp + fp + fn))
    return oacc, sum(accs) / len(accs), sum(ious) / len(ious)


# ---------------------------------------------------------------------------
# set-based metric reference: the frozenset-per-region implementation that
# jointseg.metrics replaced; evaluate_sets must equal evaluate bit for bit

def regions_from_labels(instance_ids, categories) -> list[tuple[frozenset, int]]:
    """(indices, majority category) per non-negative instance id, ties to the
    lowest category."""
    inst = np.asarray(instance_ids)
    cats = np.asarray(categories)
    regions = []
    for u in np.unique(inst):
        if u < 0:
            continue
        mask = inst == u
        present, votes = np.unique(cats[mask], return_counts=True)
        regions.append((frozenset(np.flatnonzero(mask).tolist()), int(present[votes.argmax()])))
    return regions


def iou_sets(a, b) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def coverage_sets(gt_regions, pred_regions, weighted: bool) -> float:
    best = [max((iou_sets(g, p) for p, _ in pred_regions), default=0.0) for g, _ in gt_regions]
    if not weighted:
        return float(np.mean(best))
    sizes = np.array([len(g) for g, _ in gt_regions], dtype=np.float64)
    return float((sizes / sizes.sum()) @ np.array(best))


def precision_recall_sets(gt_regions, pred_regions, threshold: float = 0.5):
    """Greedy same-class matching over pairs sorted by (-IoU, prediction, gt)."""
    per_class: dict[int, tuple[float, float]] = {}
    for c in sorted({gc for _, gc in gt_regions}):
        gts = [g for g, gc in gt_regions if gc == c]
        preds = [p for p, pc in pred_regions if pc == c]
        pairs = sorted(((iou_sets(p, g), pi, gi)
                        for pi, p in enumerate(preds) for gi, g in enumerate(gts)),
                       key=lambda t: (-t[0], t[1], t[2]))
        used_p: set[int] = set()
        used_g: set[int] = set()
        tp = 0
        for value, pi, gi in pairs:
            if pi in used_p or gi in used_g:
                continue
            used_p.add(pi)
            used_g.add(gi)
            if value >= threshold:
                tp += 1
        per_class[c] = (tp / len(preds) if preds else 0.0, tp / len(gts))
    mp = float(np.mean([v[0] for v in per_class.values()]))
    mr = float(np.mean([v[1] for v in per_class.values()]))
    return mp, mr, per_class


def semantic_scores_masks(pred, gt):
    """(oAcc, mAcc, mIoU, per-class IoU) from one pair of boolean masks per class."""
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    oacc = float((pred == gt).mean())
    accs = []
    ious: dict[int, float] = {}
    for c in np.unique(np.concatenate([gt, pred])):
        in_gt = gt == c
        in_pred = pred == c
        tp = int((in_gt & in_pred).sum())
        if in_gt.any():
            accs.append(tp / int(in_gt.sum()))
        ious[int(c)] = tp / int((in_gt | in_pred).sum())
    return oacc, float(np.mean(accs)), float(np.mean(list(ious.values()))), ious


def evaluate_sets(gt_instances, gt_classes, pred_instances, pred_classes) -> MetricsReport:
    gt = regions_from_labels(gt_instances, gt_classes)
    pred = regions_from_labels(pred_instances, pred_classes)
    mp, mr, per_class = precision_recall_sets(gt, pred)
    oacc, macc, miou, ious = semantic_scores_masks(pred_classes, gt_classes)
    return MetricsReport(coverage_sets(gt, pred, False), coverage_sets(gt, pred, True),
                         mp, mr, oacc, macc, miou, per_class, ious)


def region_set(regions, universe: int) -> RegionSet:
    """The RegionSet whose region r holds the point indices of ``regions[r]``,
    a (indices, category) pair, over points 0 .. universe - 1. Indices outside
    that range, or in two regions, raise ValueError."""
    labels = np.full(universe, -1, dtype=np.int64)
    for r, (indices, _) in enumerate(regions):
        idx = np.fromiter(indices, dtype=np.int64, count=len(indices))
        if ((idx < 0) | (idx >= universe)).any():
            raise ValueError(f"region {r} holds point indices outside [0, {universe})")
        if (labels[idx] >= 0).any():
            raise ValueError("regions overlap")
        labels[idx] = r
    return RegionSet(labels, np.array([c for _, c in regions], dtype=np.int64))


def random_region_sets(rng: np.random.Generator, max_points: int = 30, max_regions: int = 5,
                       num_classes: int = 3):
    """A random (gt, pred) pair of labeled partitions over one point universe."""
    n = int(rng.integers(4, max_points + 1))

    def one():
        k = int(rng.integers(1, max_regions + 1))
        assignment = rng.integers(0, k, size=n)
        # ensure at least one non-empty region survives; some points unassigned
        unlabeled = rng.random(n) < 0.2
        regions = []
        for r in range(k):
            members = {int(i) for i in range(n) if assignment[i] == r and not unlabeled[i]}
            if members:
                regions.append((members, int(rng.integers(0, num_classes))))
        if not regions:
            regions.append(({0}, 0))
        return regions

    return n, one(), one()


# ---------------------------------------------------------------------------
# dense mean-shift reference

def bin_seeds(pts: np.ndarray, bandwidth: float) -> np.ndarray:
    """One seed per occupied cell of the grid of spacing ``bandwidth``, keyed by
    the rounded tuple ``round(p / bandwidth)``: the first lexicographically
    smallest member of the cell, cells in ascending key order; every point,
    in point order, if some key overflows."""
    cells: dict[tuple, np.ndarray] = {}
    for p in pts:
        with np.errstate(over="ignore"):
            key = tuple(np.round(p / bandwidth))
        if not all(map(np.isfinite, key)):
            return pts.copy()
        if key not in cells or tuple(p) < tuple(cells[key]):
            cells[key] = p
    return np.array([cells[key] for key in sorted(cells)])


def mean_shift_dense(points: np.ndarray, cfg, every_point: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Flat-kernel mean-shift over the full (m, n, K) difference tensor of the
    m seeds: every seed stepped separately, every copy of a mode kept until
    the merge. Seeds are ``bin_seeds``, or every point if ``every_point``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"points must be (N, K) with N >= 1, got {pts.shape}")
    bw2 = cfg.bandwidth ** 2

    modes = pts.copy() if every_point else bin_seeds(pts, cfg.bandwidth)
    m = len(modes)
    active = np.ones(m, dtype=bool)
    for _ in range(cfg.max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        cur = modes[idx]
        d2 = ((cur[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        within = d2 <= bw2
        new = (within @ pts) / within.sum(axis=1, keepdims=True)
        shift = np.linalg.norm(new - cur, axis=1)
        modes[idx] = new
        active[idx[shift < cfg.tol]] = False

    support = (((modes[:, None, :] - pts[None, :, :]) ** 2).sum(-1) <= bw2).sum(axis=1)
    order = np.lexsort((np.arange(m), -support))  # support desc, seed index asc
    merge_r = cfg.bandwidth / 2
    kept: list[int] = []
    for i in order:
        if all(np.linalg.norm(modes[i] - modes[j]) > merge_r for j in kept):
            kept.append(int(i))
    centers = modes[kept]
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
    labels = d2.argmin(axis=1)  # first minimum = lowest cluster id on ties
    return labels.astype(np.int64), centers


# ---------------------------------------------------------------------------
# per-point block merging reference

def block_merging_loop(predictions: list[BlockPrediction], scene: Scene, num_classes: int,
                       voxel_divisions: int = 400, overlap_threshold: float = 0.3) -> SceneSegmentation:
    """Merge per-block instance ids into scene-level ids over a voxel grid,
    with tuple-keyed dicts and one nearest-voxel scan per uncovered point.

    Blocks are processed in order. A block-local instance merges into the
    global id whose labeled voxels overlap its own by at least
    ``overlap_threshold`` of the smaller voxel set (highest overlap wins,
    ties to the lower id); otherwise it mints a new id. The symmetric ratio
    keeps an instance whole when a thin sliver of it was processed first and
    a much larger portion arrives later. Voxels keep their first assignment,
    and per-point semantics are resolved by majority vote across overlapping
    blocks.
    """
    if not 0 < overlap_threshold <= 1:
        raise ValueError(f"overlap_threshold must be in (0, 1], got {overlap_threshold}")
    n = scene.num_points
    voxel_size = scene.room_extent / voxel_divisions
    keys_per_point = np.floor(scene.points / voxel_size).astype(np.int64)

    voxel_gid: dict[tuple[int, int, int], int] = {}
    voxel_votes: dict[tuple[int, int, int], np.ndarray] = {}
    gid_voxel_count: dict[int, int] = {}
    point_votes = np.zeros((n, num_classes), dtype=np.int64)
    next_gid = 0

    for pred in predictions:
        for pt, cls in zip(pred.point_indices, pred.semantic):
            point_votes[pt, cls] += 1
        for local in range(pred.num_instances):
            members = pred.point_indices[pred.instance == local]
            if members.size == 0:
                continue
            vkeys = {tuple(k) for k in keys_per_point[members]}
            overlaps: dict[int, int] = {}
            for k in vkeys:
                gid = voxel_gid.get(k)
                if gid is not None:
                    overlaps[gid] = overlaps.get(gid, 0) + 1
            merged = False
            if overlaps:
                best = min(overlaps, key=lambda g: (-overlaps[g], g))
                denom = min(len(vkeys), gid_voxel_count[best])
                merged = overlaps[best] / denom >= overlap_threshold
            gid = best if merged else next_gid
            if not merged:
                next_gid += 1
                gid_voxel_count[gid] = 0
            cls = int(pred.instance_categories[local])
            for k in vkeys:
                if k not in voxel_gid:
                    voxel_gid[k] = gid
                    gid_voxel_count[gid] += 1
                votes = voxel_votes.get(k)
                if votes is None:
                    votes = np.zeros(num_classes, dtype=np.int64)
                    voxel_votes[k] = votes
                votes[cls] += 1

    labeled_keys = list(voxel_gid.keys())
    labeled_centers = (np.array(labeled_keys, dtype=np.float64) + 0.5) * voxel_size if labeled_keys else None

    instance = np.empty(n, dtype=np.int64)
    semantic = np.empty(n, dtype=np.int64)
    uncovered = 0
    for i in range(n):
        key = tuple(keys_per_point[i])
        gid = voxel_gid.get(key)
        if gid is None:
            uncovered += 1
            if labeled_centers is None:
                instance[i] = 0
                semantic[i] = 0
                continue
            nearest = int(np.argmin(((labeled_centers - scene.points[i]) ** 2).sum(axis=1)))
            key = labeled_keys[nearest]
            gid = voxel_gid[key]
        instance[i] = gid
        if point_votes[i].sum() > 0:
            semantic[i] = int(point_votes[i].argmax())
        else:
            semantic[i] = int(voxel_votes[key].argmax())

    # relabel instances densely in order of first appearance
    remap: dict[int, int] = {}
    for i in range(n):
        g = int(instance[i])
        if g not in remap:
            remap[g] = len(remap)
        instance[i] = remap[g]
    return SceneSegmentation(semantic=semantic, instance=instance,
                             num_instances=len(remap), uncovered_points=uncovered)


def nearest_full_scan(points: np.ndarray, centres: np.ndarray, rows: int = 16,
                      band: float = 1e-9) -> np.ndarray:
    """Index of each point's nearest centre by the direct distance
    ``((centres - p) ** 2).sum(1)``; exact ties go to the lowest index.

    Every centre is scanned: d² − ‖p‖² is expanded as ‖c‖² − 2·p·cᵀ on
    mean-centred coordinates, so a chunk of ``rows`` points costs one GEMM.
    Rows with a second centre within ``band`` · (‖p‖² + max ‖c‖²) of their
    minimum compare those candidates by the direct expression instead.
    """
    mean = centres.mean(axis=0)
    c = centres - mean
    c_sq = (c ** 2).sum(axis=1)
    c_sq_max = c_sq.max()
    rhs = np.vstack([-2.0 * c.T, c_sq])  # (K + 1, L): [p, 1] @ rhs = ‖c‖² − 2·p·cᵀ
    out = np.empty(len(points), dtype=np.int64)
    for s in range(0, len(points), rows):
        p = points[s:s + rows]
        pc = p - mean
        g = np.hstack([pc, np.ones((len(p), 1))]) @ rhs  # d² − ‖p‖², up to rounding
        best = g.argmin(axis=1)
        r = np.arange(len(p))
        bound = g[r, best] + band * ((pc ** 2).sum(axis=1) + c_sq_max)
        g[r, best] = np.inf  # the row minimum is now the runner-up
        tied = g.min(axis=1) <= bound
        if tied.any():
            candidates = g[tied] <= bound[tied, None]
            candidates[np.arange(len(candidates)), best[tied]] = True
            i, q = np.nonzero(candidates)
            d2 = np.full(candidates.shape, np.inf)
            d2[i, q] = ((centres[q] - p[tied][i]) ** 2).sum(axis=1)
            best[tied] = d2.argmin(axis=1)  # first minimum = lowest index
        out[s:s + rows] = best
    return out


# ---------------------------------------------------------------------------
# general primitives the package no longer calls
#
# The fused nodes (``ad.pointwise_conv``, ``ad.gate_scale`` and the
# discriminative loss's single node) replaced these in the package; the
# references below compose them, and tests use ``reduce_sum`` to reduce
# outputs to a scalar.
# ``add_columns`` and ``pointwise_conv_columns`` are the sum and the
# convolution over a tuple of inputs that concatenate their columns inside
# the node, which the network used before it took its layer inputs by
# linearity; the references of the network's forward below use them.

def sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    ad._check_broadcast(a.shape, b.shape)
    out = a.values - b.values

    def backprop(g, accum):
        accum(a, ad._unbroadcast(g, a.shape))
        accum(b, ad._unbroadcast(-g, b.shape))

    return ad._make(out, (a, b), backprop)


def neg(x: ad.Tensor) -> ad.Tensor:
    def backprop(g, accum):
        accum(x, -g)

    return ad._make(-x.values, (x,), backprop)


def add_scalar(x: ad.Tensor, c: float) -> ad.Tensor:
    def backprop(g, accum):
        accum(x, g)

    return ad._make(x.values + c, (x,), backprop)


def relu(x: ad.Tensor) -> ad.Tensor:
    mask = x.values > 0  # subgradient 0 at the kink

    def backprop(g, accum):
        accum(x, g * mask)

    return ad._make(np.where(mask, x.values, 0), (x,), backprop)


def sigmoid(x: ad.Tensor) -> ad.Tensor:
    v = x.values
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

    def backprop(g, accum):
        accum(x, g * out * (1.0 - out))

    return ad._make(out, (x,), backprop)


def absolute(x: ad.Tensor) -> ad.Tensor:
    sign = np.sign(x.values)

    def backprop(g, accum):
        accum(x, g * sign)

    return ad._make(np.abs(x.values), (x,), backprop)


def concat(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Column-wise concatenation of two matrices with equal row counts."""
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ad.DimensionError(f"concat needs 2-D operands with equal row counts, "
                                f"got {a.shape} and {b.shape}")
    k = a.shape[1]

    def backprop(g, accum):
        accum(a, g[:, :k])
        accum(b, g[:, k:])

    return ad._make(np.concatenate([a.values, b.values], axis=1), (a, b), backprop)


def reduce_sum(x: ad.Tensor, axis: int | None = None) -> ad.Tensor:
    shape = x.shape
    if axis is None:
        out = np.array([[x.values.sum()]], dtype=x.dtype)

        def backprop(g, accum):
            accum(x, np.broadcast_to(np.reshape(g, (1,) * len(shape)), shape))

        return ad._make(out, (x,), backprop)

    if not 0 <= axis < x.values.ndim:
        raise ad.DimensionError(f"axis {axis} out of range for shape {x.shape}")
    out = x.values.sum(axis=axis, keepdims=True)

    def backprop(g, accum):
        accum(x, np.broadcast_to(g, shape))

    return ad._make(out, (x,), backprop)


def _columns(parts: tuple[ad.Tensor, ...], op: str) -> np.ndarray:
    """Column-wise concatenation of 2-D operands; one operand is used as is."""
    if any(p.values.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ad.DimensionError(f"{op} needs 2-D operands with equal row counts, "
                                f"got {[p.shape for p in parts]}")
    return parts[0].values if len(parts) == 1 else np.concatenate([p.values for p in parts], axis=1)


def _split_columns(g: np.ndarray, parts: tuple[ad.Tensor, ...], accum) -> None:
    """Backward of ``_columns``: each operand takes its column view of g, in order."""
    for p, stop in zip(parts, itertools.accumulate(p.shape[1] for p in parts)):
        accum(p, g[:, stop - p.shape[1]:stop])


def add_columns(parts: tuple[ad.Tensor, ...], b: ad.Tensor) -> ad.Tensor:
    """``add(concat(parts), b)`` as one node, the sum written into the fresh
    concatenation when it has its shape and dtype; values and gradients equal
    the composition bit for bit."""
    av = _columns(parts, "add")
    ad._check_broadcast(av.shape, b.shape)
    shape = av.shape

    def backprop(g, accum):
        _split_columns(ad._unbroadcast(g, shape), parts, accum)
        accum(b, ad._unbroadcast(g, b.shape))

    out = ad._into(np.add, av, b.values) if len(parts) > 1 else av + b.values
    return ad._make(out, parts + (b,), backprop)


def pointwise_conv_columns(parts: tuple[ad.Tensor, ...], weight: ad.Tensor, bias: ad.Tensor,
                           activation: str = "relu") -> ad.Tensor:
    """``ad.pointwise_conv(concat(parts), W, b)`` as one node over the
    concatenation built inside it; values and gradients equal the
    composition bit for bit."""
    xv, wv = _columns(parts, "pointwise_conv"), weight.values
    if wv.ndim != 2 or xv.shape[1] != weight.shape[0]:
        raise ad.DimensionError(f"channel mismatch: input {xv.shape} vs weight {weight.shape}")
    ad._check_broadcast((xv.shape[0], weight.shape[1]), bias.shape)
    relu = activation == "relu"
    out = ad._into(np.add, xv @ wv, bias.values)
    if relu:
        np.fmax(out, 0, out=out)

    def backprop(g, accum):
        gm = g * (out > 0) if relu else g
        if any(p.requires_grad for p in parts):
            _split_columns(gm @ wv.T, parts, accum)
        if weight.requires_grad:
            accum(weight, xv.T @ gm)
        accum(bias, ad._unbroadcast(gm, bias.shape))

    return ad._make(out, parts + (weight, bias), backprop)


# ---------------------------------------------------------------------------
# unfused 1x1 convolution, gate and L1 hinge references

def pointwise_conv_unfused(x: ad.Tensor, weight: ad.Tensor, bias: ad.Tensor,
                           activation: str = "relu") -> ad.Tensor:
    """x @ W + b with optional ReLU as three graph nodes (matmul, add, relu);
    ``ad.pointwise_conv`` must equal it bit for bit in values and gradients."""
    out = ad.add(ad.matmul(x, weight), bias)
    return relu(out) if activation == "relu" else out


def gate_unfused(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """[a, b] · sigmoid(row mean of [a, b]) as four graph nodes (concat,
    reduce_mean, sigmoid, mul). With ``b = a + c`` its factor is
    ``ad.gate_scale(a, c)``; the joint head's reference below gates its
    concatenations with it."""
    cat = concat(a, b)
    return ad.mul(cat, sigmoid(ad.reduce_mean(cat, axis=1)))


def l1_hinge_squared_unfused(a: ad.Tensor, b: ad.Tensor, margin: float,
                             below: bool = False) -> ad.Tensor:
    """Per row, relu(±(Σ|a - b| - margin))² as six or seven graph nodes (sub,
    absolute, reduce_sum, add_scalar, [neg], relu, mul): the discriminative
    loss's hinge, which ``discriminative_loss_composed`` below builds on."""
    gap = add_scalar(reduce_sum(absolute(sub(a, b)), axis=1), -margin)
    h = relu(neg(gap) if below else gap)
    return ad.mul(h, h)


# ---------------------------------------------------------------------------
# the network's forward over explicit concatenations
#
# The package maps every concatenated or upsampled layer input by linearity
# (``ad.pointwise_conv`` terms) and gates each joint-head branch by
# ``ad.gate_scale``. The references below build each input instead, as the
# network did before: a decoder layer upsamples its coarser level (matmul)
# and convolves it beside its skip features (tuple conv); a fusion head adds
# the upsampled coarse level to [full, upsampled mid] (tuple add) before its
# conv; each joint-head branch gates the (N, 2W) [f, f + c] (add,
# gate_unfused) before its first convs. The package must equal them to
# rounding, in values and float64 gradients.

def conv_columns(conv, parts: tuple[ad.Tensor, ...]) -> ad.Tensor:
    """A ``Conv1x1`` layer over the concatenated columns of ``parts``."""
    return pointwise_conv_columns(parts, conv.weight, conv.bias, conv.activation)


def encoder_concat(encoder, x: ad.Tensor, geo: BlockGeometry):
    """``Encoder.apply`` with each first convolution over [rel, grouped]."""
    skips, h = [x], x
    for (conv1, conv2), idx, rel, scale in zip(encoder.levels, geo.sa_indices, geo.sa_rel,
                                               geo.sa_scale):
        grouped = ad.gather_rows(h, idx.ravel())
        parts = (rel, grouped) if scale is None else (ad.mul(rel, scale), ad.mul(grouped, scale))
        h = ad.rowmax_pool(conv2(conv_columns(conv1, parts)), idx.shape[1])
        skips.append(h)
    return encoder.head(h), skips


def decoder_concat(decoder, encoded: ad.Tensor, skips, geo: BlockGeometry):
    """``Decoder.apply`` over upsampled levels: (full, mid_up, coarse), with
    the mid level interpolated to full resolution."""
    f_c = conv_columns(decoder.fp_coarse, (skips[2], ad.matmul(geo.fp_mats[0], encoded)))
    f_b = conv_columns(decoder.fp_mid, (skips[1], ad.matmul(geo.fp_mats[1], f_c)))
    mid_up = ad.matmul(geo.fp_mats[2], f_b)
    return conv_columns(decoder.fp_full, (skips[0], mid_up)), mid_up, f_c


def fusion_concat(fusion, full: ad.Tensor, mid_up: ad.Tensor, coarse: ad.Tensor,
                  coarse_mat: ad.Tensor) -> ad.Tensor:
    """``FeatureFusion.apply``: conv([full, mid_up] + coarse_mat @ coarse)."""
    return fusion.conv(add_columns((full, mid_up), ad.matmul(coarse_mat, coarse)))


def gated_concat(f: ad.Tensor, c: ad.Tensor | None) -> ad.Tensor:
    """The gated (N, 2W) ``[f, f + c]``; ``c`` None stands for zero."""
    return gate_unfused(f, f if c is None else ad.add(f, c))


def joint_head_concat(head, f_sem: ad.Tensor, f_ins: ad.Tensor):
    """(logits, embeddings) of ``JointSegmentationHead`` with both branches'
    first convolutions over their gated concatenations."""
    ins_gated = gated_concat(f_ins, head.sem_to_ins(f_sem) if head.instance_fusion else None)
    embeddings = head.ins_head2(head.ins_head1(ins_gated))
    context = ad.reduce_mean(head.ins_to_sem(ins_gated), axis=0) if head.semantic_fusion else None
    return head.sem_head2(head.sem_head1(gated_concat(f_sem, context))), embeddings


def network_forward_concat(network, features: np.ndarray, geo: BlockGeometry):
    """(logits, embeddings) of ``SegmentationNetwork.forward`` composed from
    the references above."""
    x = ad.Tensor(np.asarray(features).astype(network.dtype))
    bb = network.backbone
    encoded, skips = encoder_concat(bb.encoder, x, geo)
    feats = []
    for decoder, fusion in ((bb.semantic_decoder, network.fusion_sem),
                            (bb.instance_decoder, network.fusion_ins)):
        full, mid_up, coarse = decoder_concat(decoder, encoded, skips, geo)
        feats.append(fusion_concat(fusion, full, mid_up, coarse, geo.fusion_coarse)
                     if network.use_fusion else full)
    return joint_head_concat(network.head, *feats)


# ---------------------------------------------------------------------------
# discriminative loss references

def discriminative_loss_composed(embeddings: ad.Tensor, grouping: InstanceGrouping,
                                 cfg: LossConfig) -> DiscriminativeLossTerms:
    """``losses.discriminative_loss`` as the twelve-node graph the package
    built before it became one node: four row gathers, the averaging and
    weight matrices as constant leaves, two matmuls, the pull and push
    hinges, a mean over pairs and the sum. The package must equal it bit for
    bit in its terms and gradients."""
    m = grouping.num_instances
    dtype = embeddings.dtype
    if m == 0:
        zero = ad.Tensor(np.zeros((1, 1), dtype=dtype))
        return DiscriminativeLossTerms(total=zero, pull=zero, push=zero)
    owner = grouping.owner
    n_a = owner.size
    sizes = np.bincount(owner, minlength=m)

    points = ad.gather_rows(embeddings, grouping.indices)      # (N_a, K)
    averaging = np.zeros((m, n_a), dtype=dtype)
    averaging[owner, np.arange(n_a)] = 1.0 / sizes[owner]
    means = ad.matmul(ad.Tensor(averaging), points)            # (m, K)

    hinges = l1_hinge_squared_unfused(ad.gather_rows(means, owner), points, cfg.delta_v)
    weights = (1.0 / (m * sizes[owner]))[None, :].astype(dtype)  # (1, N_a)
    pull = ad.matmul(ad.Tensor(weights), hinges)

    if m == 1:
        push = ad.Tensor(np.zeros((1, 1), dtype=dtype))
    else:
        first, second = np.triu_indices(m, 1)
        hinges = l1_hinge_squared_unfused(ad.gather_rows(means, first),
                                          ad.gather_rows(means, second),
                                          2 * cfg.delta_d, below=True)  # (m(m-1)/2, 1)
        push = ad.reduce_mean(hinges, axis=0)

    return DiscriminativeLossTerms(total=ad.add(pull, push), pull=pull, push=push)


def _hinge_squared_mean(dist: ad.Tensor, margin: float, above: bool) -> ad.Tensor:
    """Mean over rows of a squared hinge on an (N, 1) distance column.

    ``above=True`` penalizes distances above the margin (pull), ``False``
    penalizes the shortfall below it (push, margin - dist).
    """
    gap = add_scalar(dist, -margin) if above else neg(add_scalar(dist, -margin))
    h = relu(gap)
    return ad.reduce_mean(ad.mul(h, h), axis=0)


def discriminative_loss_loop(embeddings: ad.Tensor, grouping: InstanceGrouping,
                             cfg: LossConfig) -> DiscriminativeLossTerms:
    """Pull/push embedding loss with one subgraph per instance and one per
    unordered pair of instances, summed in Python.

    Pull averages the per-point squared hinge within each instance and then
    over instances; push averages squared hinges over ordered pairs of
    distinct instance means (zero for a single instance). All distances are
    L1.
    """
    if grouping.num_instances < 1:
        raise ValueError("grouping must contain at least one instance")
    m = grouping.num_instances
    dtype = embeddings.dtype

    means: list[ad.Tensor] = []
    pull_terms: list[ad.Tensor] = []
    for idx in grouping.members:
        inst = ad.gather_rows(embeddings, idx)                 # (N_m, K)
        mu = ad.reduce_mean(inst, axis=0)                      # (1, K)
        means.append(mu)
        dist = reduce_sum(absolute(sub(mu, inst)), axis=1)     # (N_m, 1)
        pull_terms.append(_hinge_squared_mean(dist, cfg.delta_v, above=True))

    pull = pull_terms[0]
    for t in pull_terms[1:]:
        pull = ad.add(pull, t)
    pull = ad.mul_scalar(pull, 1.0 / m)

    if m == 1:
        push = ad.Tensor(np.zeros((1, 1), dtype=dtype))
    else:
        # ordered pairs (i, j), i != j; each unordered pair contributes twice
        pair_terms = []
        for i in range(m):
            for j in range(i + 1, m):
                dist = reduce_sum(absolute(sub(means[i], means[j])), axis=1)
                pair_terms.append(_hinge_squared_mean(dist, 2 * cfg.delta_d, above=False))
        push = pair_terms[0]
        for t in pair_terms[1:]:
            push = ad.add(push, t)
        push = ad.mul_scalar(push, 2.0 / (m * (m - 1)))

    return DiscriminativeLossTerms(total=ad.add(pull, push), pull=pull, push=push)


# ---------------------------------------------------------------------------
# sort-based block geometry reference
#
# Norms over (m, N, 3) difference tensors, full stable argsorts and one
# Python iteration per center; jointseg.backbone must equal these bit for bit.

def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) Euclidean distances between two (., 3) point sets.

    Squares are summed axis by axis as ``(dx² + dy²) + dz²``, the order of
    ``np.linalg.norm(a[:, None] - b[None], axis=2)``, so the two are equal bit
    for bit, without that expression's (len(a), len(b), 3) temporary. The
    geometry primitives take these matrices in place of coordinates.
    """
    d = np.subtract.outer(a[:, 0], b[:, 0])
    d *= d
    t = np.empty_like(d)
    for axis in (1, 2):
        np.subtract.outer(a[:, axis], b[:, axis], out=t)
        t *= t
        d += t
    return np.sqrt(d, out=d)


def farthest_point_sampling_norm(coords: np.ndarray, m: int) -> np.ndarray:
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
    dists = np.linalg.norm(coords - coords[0], axis=1)
    for i in range(1, m):
        nxt = int(np.argmax(dists))  # first max = lowest index on ties
        chosen[i] = nxt
        dists = np.minimum(dists, np.linalg.norm(coords - coords[nxt], axis=1))
    return chosen


def ball_group_sorted(coords: np.ndarray, centers: np.ndarray, radius: float,
                      max_neighbors: int) -> np.ndarray:
    """Per center, up to ``max_neighbors`` point indices within ``radius``.

    Candidates are ordered by (distance, index); the center itself (distance
    zero when centers are drawn from ``coords``) is always included, and any
    deficit is padded by repeating the first neighbor.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    coords = np.asarray(coords, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    d = np.linalg.norm(centers[:, None, :] - coords[None, :, :], axis=2)  # (m, N)
    order = np.argsort(d, axis=1, kind="stable")  # stable => index breaks ties
    out = np.empty((centers.shape[0], max_neighbors), dtype=np.int64)
    for i in range(centers.shape[0]):
        cand = order[i][d[i, order[i]] <= radius]
        if cand.size == 0:
            cand = order[i][:1]  # isolated center off the point set: nearest point
        take = cand[:max_neighbors]
        out[i, : take.size] = take
        out[i, take.size:] = take[0]
    return out


def nearest_neighbor_interpolation_sorted(fine_coords: np.ndarray, coarse_coords: np.ndarray,
                                          k: int = 3, eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Indices and normalized inverse-square-distance weights of the k nearest
    coarse points for every fine point. Distance ties resolve to the lowest
    coarse index; weights form a convex combination."""
    fine = np.asarray(fine_coords, dtype=np.float64)
    coarse = np.asarray(coarse_coords, dtype=np.float64)
    if coarse.shape[0] == 0:
        raise ValueError("no coarse points to interpolate from")
    k = min(k, coarse.shape[0])
    d = np.linalg.norm(fine[:, None, :] - coarse[None, :, :], axis=2)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    nd = np.take_along_axis(d, order, axis=1)
    w = 1.0 / (nd ** 2 + eps)
    w = w / w.sum(axis=1, keepdims=True)
    return order, w


def geometry_oracle(spec: LayerSpec, coords: np.ndarray, dtype) -> BlockGeometry:
    """``Backbone.compute_geometry`` composed from the sort-based references
    above: each level's centers, groups and interpolation weights from its own
    norms over coordinates, and each matrix built in float64 and then cast."""
    levels = [np.asarray(coords, dtype=np.float64)]
    sa_indices, sa_rel, sa_scale = [], [], []
    for npoint, radius, nsample in zip(spec.npoints, spec.radii, spec.nsamples):
        cur = levels[-1]
        centers = cur[farthest_point_sampling_norm(cur, npoint)]
        idx = ball_group_sorted(cur, centers, radius, nsample)
        sa_indices.append(idx)
        sa_rel.append(ad.Tensor((cur[idx] - centers[:, None, :]).reshape(-1, 3).astype(dtype)))
        sa_scale.append(ad.Tensor(_inverse_density_scale(cur, idx, radius / 2)
                                  .reshape(-1, 1).astype(dtype))
                        if spec.density_reweight else None)
        levels.append(centers)

    def mat(fine, coarse):
        idx, w = nearest_neighbor_interpolation_sorted(levels[fine], levels[coarse])
        m = np.zeros((len(levels[fine]), len(levels[coarse])))
        np.put_along_axis(m, idx, w, axis=1)
        return ad.Tensor(m.astype(dtype))

    return BlockGeometry(levels=levels, sa_indices=sa_indices, sa_rel=sa_rel, sa_scale=sa_scale,
                         fp_mats=[mat(2, 3), mat(1, 2), mat(0, 1)], fusion_coarse=mat(0, 2))
