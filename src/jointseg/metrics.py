"""Segmentation evaluation: instance coverage, precision/recall at IoU 0.5 and
point-wise semantic scores, each read from one pair-count table over two label
arrays (the points per (label a, label b) pair, from a single ``np.bincount``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _pair_counts(a: np.ndarray, b: np.ndarray, na: int, nb: int) -> np.ndarray:
    """(na, nb) table: entry (i, j) counts the points with a == i and b == j."""
    return np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)


@dataclass
class RegionSet:
    """Pairwise-disjoint point regions with categories: ``labels[i]`` is the
    region of point i (-1 for none) and ``categories[r]`` that of region r."""

    labels: np.ndarray
    categories: np.ndarray

    @classmethod
    def from_labels(cls, instance_ids: np.ndarray, categories: np.ndarray) -> "RegionSet":
        """One region per non-negative instance id, in ascending id order; the
        region category is the majority category of its points (ties to the
        lowest id). Ids are ranked, never used as indices, so their magnitude
        costs nothing."""
        ids, inverse = np.unique(np.asarray(instance_ids).ravel(), return_inverse=True)
        unlabeled = int(np.searchsorted(ids, 0))
        classes, votes = np.unique(np.asarray(categories).ravel(), return_inverse=True)
        labels = np.maximum(inverse - unlabeled, -1)
        # row 0 holds the unlabeled points' votes
        table = _pair_counts(labels + 1, votes, ids.size - unlabeled + 1, classes.size)
        return cls(labels, classes[table[1:].argmax(axis=1)])


def _iou_table(gt: RegionSet, pred: RegionSet) -> tuple[np.ndarray, np.ndarray]:
    """(G, P) IoU of every ground-truth region with every predicted one, and
    the G ground-truth region sizes."""
    if gt.labels.shape != pred.labels.shape:
        raise ValueError(f"label length mismatch: {gt.labels.shape} vs {pred.labels.shape}")
    g, p = gt.categories.size, pred.categories.size
    table = _pair_counts(gt.labels + 1, pred.labels + 1, g + 1, p + 1)  # row/column 0: no region
    inter, gt_sizes = table[1:, 1:], table[1:].sum(axis=1)
    union = gt_sizes[:, None] + table[:, 1:].sum(axis=0) - inter
    return inter / np.maximum(union, 1), gt_sizes


def coverage(gt: RegionSet, pred: RegionSet, weighted: bool = False) -> float:
    """Mean (optionally size-weighted) best IoU of each ground-truth region
    against any predicted region."""
    if not gt.categories.size:
        raise ValueError("coverage requires a non-empty ground-truth region set")
    ious, sizes = _iou_table(gt, pred)
    best = ious.max(axis=1, initial=0.0)
    if not weighted:
        return float(np.mean(best))
    return float((sizes / sizes.sum()) @ best)


@dataclass
class PrecisionRecall:
    mean_precision: float
    mean_recall: float
    per_class: dict[int, tuple[float, float]]


def precision_recall(gt: RegionSet, pred: RegionSet) -> PrecisionRecall:
    """Class-wise greedy one-to-one matching in descending IoU order, ties to
    the earlier prediction and then the earlier ground-truth region.

    A prediction is a true positive if its match reaches IoU 0.5. Classes
    absent from the ground truth are skipped; a class with ground truth but no
    predictions counts precision 0 by convention. The returned means average
    over classes present in the ground truth.
    """
    ious, _ = _iou_table(gt, pred)
    # pairs below 0.5 sort after every other pair and never add a match
    g, p = np.nonzero((gt.categories[:, None] == pred.categories) & (ious >= 0.5))
    matched = np.zeros(gt.categories.size, dtype=bool)
    taken = np.zeros(pred.categories.size, dtype=bool)
    order = np.lexsort((g, p, -ious[g, p]))  # -IoU first, then prediction, then ground truth
    for gi, pi in zip(g[order], p[order]):
        if not (matched[gi] or taken[pi]):
            matched[gi] = taken[pi] = True
    per_class: dict[int, tuple[float, float]] = {}
    for c in np.unique(gt.categories):
        in_class = gt.categories == c
        tp, preds = int(matched[in_class].sum()), int((pred.categories == c).sum())
        per_class[int(c)] = (tp / preds if preds else 0.0, tp / int(in_class.sum()))
    mp = float(np.mean([v[0] for v in per_class.values()]))
    mr = float(np.mean([v[1] for v in per_class.values()]))
    return PrecisionRecall(mp, mr, per_class)


@dataclass
class SemanticScores:
    overall_accuracy: float
    mean_accuracy: float
    mean_iou: float
    per_class_iou: dict[int, float]


def semantic_scores(pred: np.ndarray, gt: np.ndarray) -> SemanticScores:
    """Point-wise overall accuracy, class-mean recall, and class-mean IoU.

    Mean accuracy averages over classes present in the ground truth; mean IoU
    averages over classes present in either labeling.
    """
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    if pred.shape != gt.shape:
        raise ValueError(f"label length mismatch: {pred.shape} vs {gt.shape}")
    classes, inverse = np.unique(np.concatenate([gt, pred]), return_inverse=True)
    confusion = _pair_counts(inverse[:gt.size], inverse[gt.size:], classes.size, classes.size)
    tp = np.diagonal(confusion)
    in_gt, in_pred = confusion.sum(axis=1), confusion.sum(axis=0)
    ious = tp / (in_gt + in_pred - tp)
    present = in_gt > 0
    return SemanticScores(float(tp.sum() / gt.size), float(np.mean(tp[present] / in_gt[present])),
                          float(np.mean(ious)), dict(zip(map(int, classes), ious.tolist())))


@dataclass
class MetricsReport:
    """All scores of one evaluation; mPrec/mRec are class-averaged."""

    mean_coverage: float
    mean_weighted_coverage: float
    mean_precision: float
    mean_recall: float
    overall_accuracy: float
    mean_accuracy: float
    mean_iou: float
    per_class_precision_recall: dict[int, tuple[float, float]]
    per_class_iou: dict[int, float]

    def to_text(self) -> str:
        lines = [
            "segmentation report (precision/recall are class-averaged)",
            f"  instance  mCov  {self.mean_coverage:.4f}",
            f"  instance  mWCov {self.mean_weighted_coverage:.4f}",
            f"  instance  mPrec {self.mean_precision:.4f}",
            f"  instance  mRec  {self.mean_recall:.4f}",
            f"  semantic  oAcc  {self.overall_accuracy:.4f}",
            f"  semantic  mAcc  {self.mean_accuracy:.4f}",
            f"  semantic  mIoU  {self.mean_iou:.4f}",
            "  per-class (prec, rec, iou):",
        ]
        classes = sorted(set(self.per_class_precision_recall) | set(self.per_class_iou))
        for c in classes:
            # a class absent from the ground truth has no precision or recall
            pr = self.per_class_precision_recall.get(c)
            p, r = (f"{v:.4f}" for v in pr) if pr else ("-", "-")
            i = self.per_class_iou.get(c, float("nan"))
            lines.append(f"    class {c}: {p} {r} {i:.4f}")
        return "\n".join(lines)

    def to_kv_lines(self) -> list[str]:
        kv = [
            ("mCov", self.mean_coverage),
            ("mWCov", self.mean_weighted_coverage),
            ("mPrec", self.mean_precision),
            ("mRec", self.mean_recall),
            ("oAcc", self.overall_accuracy),
            ("mAcc", self.mean_accuracy),
            ("mIoU", self.mean_iou),
        ]
        return [f"{k} = {v:.12f}" for k, v in kv]


def evaluate(gt_instances: np.ndarray, gt_classes: np.ndarray,
             pred_instances: np.ndarray, pred_classes: np.ndarray) -> MetricsReport:
    """Full report comparing predicted labels to the ground truth."""
    gt_set = RegionSet.from_labels(gt_instances, gt_classes)
    pred_set = RegionSet.from_labels(pred_instances, pred_classes)
    pr = precision_recall(gt_set, pred_set)
    sem = semantic_scores(pred_classes, gt_classes)
    return MetricsReport(
        mean_coverage=coverage(gt_set, pred_set, weighted=False),
        mean_weighted_coverage=coverage(gt_set, pred_set, weighted=True),
        mean_precision=pr.mean_precision,
        mean_recall=pr.mean_recall,
        overall_accuracy=sem.overall_accuracy,
        mean_accuracy=sem.mean_accuracy,
        mean_iou=sem.mean_iou,
        per_class_precision_recall=pr.per_class,
        per_class_iou=sem.per_class_iou,
    )
