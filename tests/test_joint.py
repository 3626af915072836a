import math
import tracemalloc

import numpy as np
import pytest

from jointseg import autodiff as ad
from jointseg.joint import JointSegmentationHead
from oracles import max_rel_err, reduce_sum


def make_head(width=8, num_classes=3, embedding_dim=2, seed=0, **kw):
    return JointSegmentationHead(num_classes, embedding_dim, width,
                                 np.random.default_rng(seed), dtype=np.float64, **kw)


def inputs(width=8, n=4, seed=1):
    rng = np.random.default_rng(seed)
    return (ad.Tensor(rng.standard_normal((n, width))),
            ad.Tensor(rng.standard_normal((n, width))))


# ---------------------------------------------------------------------------
# analytic cases

def test_zero_transform_gives_half_gate():
    head = make_head()
    head.sem_to_ins.weight.assign(np.zeros((8, 8)))
    head.sem_to_ins.bias.assign(np.zeros((1, 8)))
    rng = np.random.default_rng(2)
    f_ins_v = rng.standard_normal((4, 8))
    f_ins_v -= f_ins_v.mean(axis=1, keepdims=True)  # per-point feature mean 0
    out = head(ad.Tensor(rng.standard_normal((4, 8))), ad.Tensor(f_ins_v))
    assert not out.sem_to_ins.values.any()
    assert np.allclose(out.ins_gate.values, 0.5)


def test_zero_semantic_features_leave_instance_features_unchanged():
    head = make_head()
    head.sem_to_ins.bias.assign(np.zeros((1, 8)))
    f_sem = ad.Tensor(np.zeros((5, 8)))
    f_ins = ad.Tensor(np.random.default_rng(3).standard_normal((5, 8)))
    out = head(f_sem, f_ins)
    assert not out.sem_to_ins.values.any()


def concats(f_sem, f_ins, out):
    """The instance and semantic branches' concatenated features, before gating."""
    return (np.concatenate([f_ins.values, f_ins.values + out.sem_to_ins.values], axis=1),
            np.concatenate([f_sem.values, f_sem.values + out.ins_context.values], axis=1))


def test_output_shapes():
    head = make_head(num_classes=6, embedding_dim=5)
    out = head(*inputs())
    assert out.logits.shape == (4, 6)
    assert out.embeddings.shape == (4, 5)
    assert out.ins_gate.shape == (4, 1) and out.sem_gate.shape == (4, 1)


def test_gates_strictly_between_zero_and_one():
    f_sem, f_ins = inputs(seed=5)
    for instance_fusion in (True, False):  # off, the transform is a zero row
        out = make_head(seed=4, instance_fusion=instance_fusion)(f_sem, f_ins)
        assert out.sem_to_ins.shape == ((4, 8) if instance_fusion else (1, 8))
        for gate, cat in zip((out.ins_gate, out.sem_gate), concats(f_sem, f_ins, out)):
            assert np.all(gate.values > 0) and np.all(gate.values < 1)
            # each gate is the sigmoid of the row mean of its [f, f + c]
            want = 1 / (1 + np.exp(-cat.mean(axis=1, keepdims=True)))
            assert np.allclose(gate.values, want, rtol=1e-12, atol=0)


def test_instance_context_rows_are_identical():
    head = make_head(seed=6)
    out = head(*inputs(seed=7))
    ctx = out.ins_context.values
    assert np.allclose(ctx, ctx[0])


def test_single_point_tile_is_identity():
    head = make_head(seed=8)
    f_sem, f_ins = inputs(n=1, seed=9)
    out = head(f_sem, f_ins)
    assert out.logits.shape == (1, 3) and out.embeddings.shape == (1, 2)


# ---------------------------------------------------------------------------
# scalar re-evaluation oracle

def _conv_loops(x, w, b, relu):
    n, cin = x.shape
    cout = w.shape[1]
    out = np.zeros((n, cout))
    for p in range(n):
        for j in range(cout):
            acc = b[0, j]
            for i in range(cin):
                acc += x[p, i] * w[i, j]
            out[p, j] = max(acc, 0.0) if relu else acc
    return out


def _gated_loops(f, c):
    """Per row, [f, f + c] scaled by the sigmoid of its mean, and that gate."""
    cat = np.concatenate([f, f + c], axis=1)
    gate = np.array([[1 / (1 + math.exp(-row.mean()))] for row in cat])
    return cat * gate, gate


def test_instance_branch_matches_scalar_reevaluation():
    head = make_head(seed=10)
    f_sem, f_ins = inputs(seed=11)
    out = head(f_sem, f_ins)

    sem_t = _conv_loops(f_sem.values, head.sem_to_ins.weight.values,
                        head.sem_to_ins.bias.values, True)
    gated, gate = _gated_loops(f_ins.values, sem_t)
    emb = _conv_loops(_conv_loops(gated, head.ins_head1.weight.values,
                                  head.ins_head1.bias.values, True),
                      head.ins_head2.weight.values, head.ins_head2.bias.values, False)
    assert np.allclose(out.embeddings.values, emb, atol=1e-12)
    assert np.allclose(out.ins_gate.values, gate, atol=1e-12)


def test_semantic_branch_matches_scalar_reevaluation():
    head = make_head(seed=12)
    f_sem, f_ins = inputs(seed=13)
    out = head(f_sem, f_ins)

    s = f_sem.values
    sem_t = _conv_loops(s, head.sem_to_ins.weight.values, head.sem_to_ins.bias.values, True)
    gated, _ = _gated_loops(f_ins.values, sem_t)
    ctx_rows = _conv_loops(gated, head.ins_to_sem.weight.values, head.ins_to_sem.bias.values, True)
    ctx = ctx_rows.mean(axis=0)  # mean over points, then tiled
    gated_sem, gate = _gated_loops(s, ctx[None, :])
    logits = _conv_loops(_conv_loops(gated_sem, head.sem_head1.weight.values,
                                     head.sem_head1.bias.values, True),
                         head.sem_head2.weight.values, head.sem_head2.bias.values, False)
    assert np.allclose(out.logits.values, logits, atol=1e-12)
    assert np.allclose(out.sem_gate.values, gate, atol=1e-12)


# ---------------------------------------------------------------------------
# ablation structure

def test_disabled_fusion_decouples_branches_bitwise():
    head = make_head(seed=14, instance_fusion=False, semantic_fusion=False)
    f_sem, f_ins = inputs(seed=15)
    base = head(f_sem, f_ins)

    bumped_ins = ad.Tensor(f_ins.values + np.random.default_rng(16).standard_normal(f_ins.shape))
    out = head(f_sem, bumped_ins)
    assert out.logits.values.tobytes() == base.logits.values.tobytes()

    bumped_sem = ad.Tensor(f_sem.values + np.random.default_rng(17).standard_normal(f_sem.shape))
    out = head(bumped_sem, f_ins)
    assert out.embeddings.values.tobytes() == base.embeddings.values.tobytes()


def test_enabled_fusion_has_cross_branch_sensitivity():
    head = make_head(seed=18)
    f_sem, f_ins = inputs(seed=19)
    h = 1e-5

    def logits_sum(ins_values):
        return float(head(f_sem, ad.Tensor(ins_values)).logits.values.sum())

    def embeddings_sum(sem_values):
        return float(head(ad.Tensor(sem_values), f_ins).embeddings.values.sum())

    sens_ins = max(abs(logits_sum(_bump(f_ins.values, k, h)) -
                       logits_sum(_bump(f_ins.values, k, -h))) / (2 * h) for k in range(5))
    sens_sem = max(abs(embeddings_sum(_bump(f_sem.values, k, h)) -
                       embeddings_sum(_bump(f_sem.values, k, -h))) / (2 * h) for k in range(5))
    assert sens_ins > 1e-6
    assert sens_sem > 1e-6


def _bump(values, flat_index, delta):
    out = values.copy()
    out.flat[flat_index] += delta
    return out


def test_semantic_invariant_to_instance_params_when_decoupled():
    head = make_head(seed=20, instance_fusion=False, semantic_fusion=False)
    f_sem, f_ins = inputs(seed=21)
    base = head(f_sem, f_ins).logits.values.copy()
    head.ins_head1.weight.assign(head.ins_head1.weight.values + 1.0)
    assert np.array_equal(head(f_sem, f_ins).logits.values, base)


def test_every_parameter_gradient_matches_finite_differences():
    head = make_head(seed=22)
    f_sem, f_ins = inputs(seed=23)
    labels = np.array([0, 2, 1, 0])

    def loss():
        out = head(f_sem, f_ins)
        return ad.add(ad.softmax_cross_entropy(out.logits, labels),
                      reduce_sum(ad.mul(out.embeddings, out.embeddings)))

    for p in head.parameters():
        p.zero_grad()
    ad.backward(loss())

    rng = np.random.default_rng(24)
    h = 1e-6
    for p in head.parameters():
        flat = p.values.reshape(-1)
        assert p.grad is not None, p.name
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                up = loss().item()
            flat[i] = orig - h
            with ad.no_grad():
                down = loss().item()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            analytic = p.grad.reshape(-1)[i]
            assert max_rel_err(np.array([analytic]), np.array([fd])) < 1e-5, p.name


def test_input_shape_validation():
    head = make_head()
    with pytest.raises(ad.DimensionError):
        head(ad.Tensor(np.zeros((4, 8))), ad.Tensor(np.zeros((4, 7))))


def test_no_grad_forward_peak_memory_at_paper_block_size():
    # two (4096, 128) float32 inputs are 2 MB each; a gated (N, 2W)
    # concatenation would add 4 MB to the peak
    head = JointSegmentationHead(4, 5, 128, np.random.default_rng(0), np.float32)
    rng = np.random.default_rng(1)
    f_sem, f_ins = (ad.Tensor(rng.standard_normal((4096, 128)).astype(np.float32))
                    for _ in range(2))
    tracemalloc.start()
    try:
        with ad.no_grad():
            head(f_sem, f_ins)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
