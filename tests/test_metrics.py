import numpy as np
import pytest

import oracles
from jointseg.metrics import RegionSet, coverage, evaluate, precision_recall, semantic_scores
from oracles import (coverage_loops, evaluate_sets, precision_recall_loops, random_region_sets,
                     semantic_scores_loops)


def region_set(regions, universe=30):
    return oracles.region_set(regions, universe)


# ---------------------------------------------------------------------------
# coverage

def test_coverage_exact_prediction():
    gt = region_set([({0, 1, 2}, 0), ({3, 4}, 1)])
    assert coverage(gt, gt) == 1.0
    assert coverage(gt, gt, weighted=True) == 1.0


def test_coverage_no_predictions():
    gt = region_set([({0, 1}, 0)])
    pred = region_set([])
    assert coverage(gt, pred) == 0.0


def test_coverage_hand_case():
    # gt A has 4 points, B has 2; pred {0,1} matches A at IoU 2/4 = 0.5 only
    gt = region_set([({0, 1, 2, 3}, 0), ({4, 5}, 1)])
    pred = region_set([({0, 1}, 0)])
    assert abs(coverage(gt, pred) - 0.25) < 1e-12
    assert abs(coverage(gt, pred, weighted=True) - (4 / 6) * 0.5) < 1e-12


def test_coverage_requires_ground_truth():
    with pytest.raises(ValueError):
        coverage(region_set([]), region_set([]))


def test_weighted_equals_unweighted_for_equal_sizes():
    rng = np.random.default_rng(0)
    gt = region_set([({0, 1, 2}, 0), ({3, 4, 5}, 1), ({6, 7, 8}, 0)])
    pred = region_set([({0, 1, 7}, 0), ({3, 4}, 1)])
    assert abs(coverage(gt, pred) - coverage(gt, pred, weighted=True)) < 1e-12


# ---------------------------------------------------------------------------
# precision / recall

def test_precision_recall_perfect():
    gt = region_set([({0, 1}, 0), ({2, 3}, 1)])
    pr = precision_recall(gt, gt)
    assert pr.mean_precision == 1.0 and pr.mean_recall == 1.0


def test_precision_recall_no_predictions():
    gt = region_set([({0, 1}, 0)])
    pr = precision_recall(gt, region_set([]))
    assert pr.mean_precision == 0.0 and pr.mean_recall == 0.0


def test_precision_recall_two_class_hand_case():
    gt = region_set([({0, 1, 2, 3}, 0), ({4, 5, 6, 7}, 0), ({8, 9}, 1)])
    pred = region_set([
        ({0, 1, 2}, 0),      # matches gt0 at 3/4 -> TP
        ({4, 5, 6}, 0),      # matches gt1 at 3/4 -> TP
        ({21, 22}, 0),       # unmatched -> FP
        ({8, 23}, 1),        # IoU 1/3 with gt2 -> below threshold
    ])
    pr = precision_recall(gt, pred)
    assert abs(pr.per_class[0][0] - 2 / 3) < 1e-12
    assert abs(pr.per_class[0][1] - 1.0) < 1e-12
    assert pr.per_class[1] == (0.0, 0.0)
    mp, mr, per = precision_recall_loops(
        [({0, 1, 2, 3}, 0), ({4, 5, 6, 7}, 0), ({8, 9}, 1)],
        [({0, 1, 2}, 0), ({4, 5, 6}, 0), ({21, 22}, 0), ({8, 23}, 1)])
    assert abs(pr.mean_precision - mp) < 1e-12
    assert abs(pr.mean_recall - mr) < 1e-12


def test_predictions_of_absent_classes_are_ignored():
    gt = region_set([({0, 1}, 0)])
    pred = region_set([({0, 1}, 0), ({5, 6}, 3)])
    pr = precision_recall(gt, pred)
    assert list(pr.per_class) == [0]
    assert pr.mean_precision == 1.0


# ---------------------------------------------------------------------------
# semantic scores

def test_semantic_scores_identical():
    labels = np.array([0, 1, 2, 1, 0])
    s = semantic_scores(labels, labels)
    assert s.overall_accuracy == s.mean_accuracy == s.mean_iou == 1.0


def test_semantic_scores_half_confused():
    gt = np.zeros(8, dtype=int)
    pred = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    s = semantic_scores(pred, gt)
    assert s.overall_accuracy == 0.5


def test_semantic_scores_match_confusion_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        gt = rng.integers(0, 4, n)
        pred = rng.integers(0, 4, n)
        s = semantic_scores(pred, gt)
        oacc, macc, miou = semantic_scores_loops(pred.tolist(), gt.tolist())
        assert abs(s.overall_accuracy - oacc) < 1e-12
        assert abs(s.mean_accuracy - macc) < 1e-12
        assert abs(s.mean_iou - miou) < 1e-12


def test_semantic_scores_length_mismatch():
    with pytest.raises(ValueError):
        semantic_scores(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# randomized oracle equivalence and invariants

def test_random_region_sets_match_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n, gt_r, pred_r = random_region_sets(rng)
        gt = region_set(gt_r, n)
        pred = region_set(pred_r, n)
        assert abs(coverage(gt, pred) - coverage_loops(gt_r, pred_r, False)) < 1e-12
        assert abs(coverage(gt, pred, True) - coverage_loops(gt_r, pred_r, True)) < 1e-12
        pr = precision_recall(gt, pred)
        mp, mr, _ = precision_recall_loops(gt_r, pred_r)
        assert abs(pr.mean_precision - mp) < 1e-12
        assert abs(pr.mean_recall - mr) < 1e-12


def test_all_scores_in_unit_interval_and_relabel_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 40
        gt_inst = rng.integers(0, 5, n)
        gt_cls = gt_inst % 3
        pred_inst = rng.integers(0, 4, n)
        pred_cls = rng.integers(0, 3, n)
        report = evaluate(gt_inst, gt_cls, pred_inst, pred_cls)
        for v in [report.mean_coverage, report.mean_weighted_coverage, report.mean_precision,
                  report.mean_recall, report.overall_accuracy, report.mean_accuracy,
                  report.mean_iou]:
            assert 0.0 <= v <= 1.0

        relabeled = (pred_inst + 7) * 3  # arbitrary injective relabeling
        report2 = evaluate(gt_inst, gt_cls, relabeled, pred_cls)
        assert report.mean_coverage == report2.mean_coverage
        assert report.mean_precision == report2.mean_precision


def test_perfect_evaluation_is_all_ones():
    rng = np.random.default_rng(4)
    inst = rng.integers(0, 4, 30)
    cls = inst % 2
    report = evaluate(inst, cls, inst, cls)
    assert report.mean_coverage == report.mean_weighted_coverage == 1.0
    assert report.mean_precision == report.mean_recall == 1.0
    assert report.overall_accuracy == report.mean_accuracy == report.mean_iou == 1.0


def test_report_rendering():
    report = evaluate(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1]),
                      np.array([0, 0, 2, 2]), np.array([0, 0, 1, 1]))
    text = report.to_text()
    assert "mWCov" in text and "class-averaged" in text
    kv = report.to_kv_lines()
    assert any(line.startswith("mIoU = ") for line in kv)


def test_region_category_is_majority_with_ties_to_lowest_and_any_magnitude():
    huge = 2 ** 62
    inst = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, -1])
    cats = np.array([huge, huge, 3, 7, 5, 5, 7, huge, 1, 0])
    regions = RegionSet.from_labels(inst, cats)
    assert regions.labels.tolist() == [0, 0, 0, 1, 1, 1, 1, 2, 2, -1]
    assert regions.categories.tolist() == [huge, 5, 1]


def test_region_set_rejects_overlap():
    with pytest.raises(ValueError):
        region_set([({0, 1}, 0), ({1, 2}, 1)])


@pytest.mark.parametrize("indices", [{-1, 0}, {29, 30}, {1000}])
def test_region_set_rejects_indices_outside_universe(indices):
    with pytest.raises(ValueError, match="outside"):
        region_set([({2, 3}, 0), (indices, 1)])


def test_scores_reject_region_sets_over_different_universes():
    with pytest.raises(ValueError, match="length mismatch"):
        coverage(region_set([({0, 1}, 0)], 4), region_set([({0, 1}, 0)], 5))


# ---------------------------------------------------------------------------
# exact equality with the set-based reference

def random_labels(rng: np.random.Generator, n: int):
    """(gt instances, gt classes, pred instances, pred classes) over n points.

    Ids come from small pools of instance ids up to 10**6 and class ids up to
    2**40, so small regions tie in IoU and in their majority vote. About a
    fifth of the points are -1, and the prediction copies a random share of
    the ground truth under a relabeling and draws the rest afresh."""
    inst_pool = rng.choice(10 ** 6 + 1, size=int(rng.integers(1, 6)), replace=False)
    cls_pool = rng.choice(2 ** 40 + 1, size=int(rng.integers(1, 4)), replace=False)
    gt_inst = np.where(rng.random(n) < 0.2, -1, inst_pool[rng.integers(0, inst_pool.size, n)])
    gt_inst[rng.integers(0, n)] = inst_pool[0]  # the ground truth is never empty
    gt_cls = cls_pool[rng.integers(0, cls_pool.size, n)]
    relabel = dict(zip(inst_pool.tolist(), rng.choice(10 ** 6 + 1, size=inst_pool.size).tolist()))
    copied = np.array([relabel.get(i, -1) for i in gt_inst.tolist()])
    fresh = np.where(rng.random(n) < 0.2, -1, inst_pool[rng.integers(0, inst_pool.size, n)])
    keep = rng.random(n) < rng.random()
    pred_cls = np.where(rng.random(n) < rng.random(), gt_cls, cls_pool[rng.integers(0, cls_pool.size, n)])
    return gt_inst, gt_cls, np.where(keep, copied, fresh), pred_cls


def test_evaluate_equals_set_based_reference_exactly():
    rng = np.random.default_rng(6)
    cases = [random_labels(rng, int(rng.integers(1, 40))) for _ in range(1000)]
    big = 2 ** 40
    cases += [
        # gt 0 meets preds 5 and 7 at IoU 0.5 each: the earlier prediction wins
        (np.array([0, 0, 0, 0, 1, 1]), np.zeros(6, int), np.array([5, 5, 7, 7, -1, -1]), np.zeros(6, int)),
        # pred 3 meets gts 0 and 1 at IoU 0.5 each: the earlier gt wins
        (np.array([0, 0, 1, 1]), np.zeros(4, int), np.full(4, 3), np.zeros(4, int)),
        # two-two majority ties between a huge and a small class id
        (np.array([4, 4, 4, 4]), np.array([big, big, 7, 7]), np.array([9, 9, 9, 9]), np.array([7, big, 7, big])),
    ]
    for gt_inst, gt_cls, _, pred_cls in cases[:50]:  # a prediction with every point -1
        cases.append((gt_inst, gt_cls, np.full(gt_inst.size, -1), pred_cls))
    # a dense scene: 29k points, 6 true instances, about 60 predicted regions
    gt_inst = rng.integers(0, 6, 29_000)
    pred_inst = np.where(gt_inst < 2, gt_inst, 20 * gt_inst + rng.integers(0, 15, gt_inst.size))
    pred_inst[rng.random(gt_inst.size) < 0.05] = -1
    gt_cls = gt_inst % 3 * big
    cases.append((gt_inst, gt_cls, pred_inst, np.where(rng.random(gt_inst.size) < 0.9, gt_cls, 1)))
    assert np.unique(pred_inst[pred_inst >= 0]).size == 62
    for gt_inst, gt_cls, pred_inst, pred_cls in cases:
        assert evaluate(gt_inst, gt_cls, pred_inst, pred_cls) == \
            evaluate_sets(gt_inst, gt_cls, pred_inst, pred_cls)
