"""Segmentation evaluation: instance coverage, precision/recall at an IoU
threshold, and point-wise semantic scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Region:
    indices: frozenset
    category: int


@dataclass
class RegionSet:
    """Pairwise-disjoint point-index regions with categories over a universe."""

    regions: list[Region]
    universe: int

    def __post_init__(self):
        seen: set = set()
        for r in self.regions:
            if seen & r.indices:
                raise ValueError("regions overlap")
            seen |= r.indices

    @classmethod
    def from_labels(cls, instance_ids: np.ndarray, categories: np.ndarray) -> "RegionSet":
        """One region per non-negative instance id; the region category is the
        majority category of its points (ties to the lowest id)."""
        inst = np.asarray(instance_ids)
        cats = np.asarray(categories)
        regions = []
        for u in np.unique(inst):
            if u < 0:
                continue
            mask = inst == u
            votes = np.bincount(cats[mask])
            regions.append(Region(frozenset(np.flatnonzero(mask).tolist()), int(votes.argmax())))
        return cls(regions, universe=inst.shape[0])


def iou(a: frozenset | set, b: frozenset | set) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def coverage(gt: RegionSet, pred: RegionSet, weighted: bool = False) -> float:
    """Mean (optionally size-weighted) best IoU of each ground-truth region
    against any predicted region."""
    if not gt.regions:
        raise ValueError("coverage requires a non-empty ground-truth region set")
    best = [max((iou(g.indices, p.indices) for p in pred.regions), default=0.0)
            for g in gt.regions]
    if not weighted:
        return float(np.mean(best))
    sizes = np.array([len(g.indices) for g in gt.regions], dtype=np.float64)
    return float((sizes / sizes.sum()) @ np.array(best))


@dataclass
class PrecisionRecall:
    mean_precision: float
    mean_recall: float
    per_class: dict[int, tuple[float, float]]


def precision_recall(gt: RegionSet, pred: RegionSet, iou_threshold: float = 0.5) -> PrecisionRecall:
    """Class-wise greedy one-to-one matching in descending IoU order.

    A prediction is a true positive if its match reaches the IoU threshold.
    Classes absent from the ground truth are skipped; a class with ground
    truth but no predictions counts precision 0 by convention. The returned
    means average over classes present in the ground truth.
    """
    classes = sorted({g.category for g in gt.regions})
    per_class: dict[int, tuple[float, float]] = {}
    for c in classes:
        gts = [g for g in gt.regions if g.category == c]
        preds = [p for p in pred.regions if p.category == c]
        pairs = sorted(
            ((iou(p.indices, g.indices), pi, gi)
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
            if value >= iou_threshold:
                tp += 1
        prec = tp / len(preds) if preds else 0.0
        rec = tp / len(gts)
        per_class[c] = (prec, rec)
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
    oacc = float((pred == gt).mean())
    accs = []
    ious: dict[int, float] = {}
    for c in np.unique(np.concatenate([gt, pred])):
        in_gt = gt == c
        in_pred = pred == c
        tp = int((in_gt & in_pred).sum())
        if in_gt.any():
            accs.append(tp / int(in_gt.sum()))
        denom = int((in_gt | in_pred).sum())
        ious[int(c)] = tp / denom
    return SemanticScores(oacc, float(np.mean(accs)), float(np.mean(list(ious.values()))), ious)


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
             pred_instances: np.ndarray, pred_classes: np.ndarray,
             iou_threshold: float = 0.5) -> MetricsReport:
    """Full report comparing predicted labels to the ground truth."""
    gt_set = RegionSet.from_labels(gt_instances, gt_classes)
    pred_set = RegionSet.from_labels(pred_instances, pred_classes)
    pr = precision_recall(gt_set, pred_set, iou_threshold)
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
