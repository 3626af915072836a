import numpy as np
import pytest

from jointseg import autodiff as ad
from jointseg.config import RunConfig
from jointseg.data import SyntheticSceneSpec, generate_scene, split_into_blocks
from jointseg.losses import InstanceGrouping, LossConfig, discriminative_loss, total_loss
from jointseg.train import PreparedBlock, _block_loss, build_network, split_scenes
from oracles import (discriminative_loss_composed, discriminative_loss_loop, fd_grad, max_rel_err,
                     network_forward_concat)

CFG = LossConfig(delta_v=0.5, delta_d=1.5)


# ---------------------------------------------------------------------------
# analytic hand cases (64-bit, exact to 1e-12)

def test_zero_loss_configuration():
    # every embedding equals its instance mean; means separated beyond 2*delta_d
    emb = ad.Tensor(np.array([[0.0], [0.0], [4.0], [4.0]]))
    grouping = InstanceGrouping([[0, 1], [2, 3]])
    terms = discriminative_loss(emb, grouping, CFG)
    assert abs(terms.pull.item()) < 1e-12
    assert abs(terms.push.item()) < 1e-12
    assert abs(terms.total.item()) < 1e-12


def test_pull_hand_case():
    # one instance with 1-D embeddings {0, 2}: mean 1, both hinges 0.5, squared 0.25
    emb = ad.Tensor(np.array([[0.0], [2.0]]))
    terms = discriminative_loss(emb, InstanceGrouping([[0, 1]]), CFG)
    assert abs(terms.pull.item() - 0.25) < 1e-12
    assert terms.push.item() == 0.0


def test_push_hand_case():
    # two singleton instances at 0 and 1: each ordered pair gives (3-1)^2 = 4,
    # normalized by M(M-1) = 2 -> 4.0
    emb = ad.Tensor(np.array([[0.0], [1.0]]))
    terms = discriminative_loss(emb, InstanceGrouping([[0], [1]]), CFG)
    assert abs(terms.push.item() - 4.0) < 1e-12
    assert abs(terms.pull.item()) < 1e-12


def test_single_instance_push_is_zero():
    emb = ad.Tensor(np.random.default_rng(0).standard_normal((6, 3)))
    terms = discriminative_loss(emb, InstanceGrouping([np.arange(6)]), CFG)
    assert terms.push.item() == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_empty_grouping_gives_zero_terms_and_leaves_cross_entropy_alone(dtype):
    # a block whose points are all unannotated (instance id -1)
    grouping = InstanceGrouping.from_labels(np.full(6, -1))
    assert grouping.num_instances == 0
    rng = np.random.default_rng(1)
    emb = ad.Tensor(rng.standard_normal((6, 3)).astype(dtype), requires_grad=True)
    terms = discriminative_loss(emb, grouping, CFG)
    for t in terms:
        assert t.shape == (1, 1) and t.dtype == dtype and t.item() == 0.0
    logits = ad.Tensor(rng.standard_normal((6, 4)).astype(dtype), requires_grad=True)
    labels = np.array([0, 1, 2, 3, 0, 1])
    loss = total_loss(logits, labels, emb, grouping, CFG)
    assert loss.values.tobytes() == ad.softmax_cross_entropy(logits, labels).values.tobytes()
    ad.backward(loss)
    assert emb.grad is None and np.isfinite(logits.grad).all()
    with pytest.raises(ValueError, match="at least one instance"):
        discriminative_loss_loop(emb, grouping, CFG)


# ---------------------------------------------------------------------------
# invariants

def random_case(seed, n=12, k=3, m=3):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, k))
    ids = rng.integers(0, m, n)
    ids[:m] = np.arange(m)  # every instance non-empty
    return emb, ids


def test_terms_nonnegative_and_permutation_invariant():
    emb_v, ids = random_case(1)
    emb = ad.Tensor(emb_v)
    base = discriminative_loss(emb, InstanceGrouping.from_labels(ids), CFG)
    assert base.pull.item() >= 0 and base.push.item() >= 0

    perm = [2, 0, 1]
    remapped = np.array([perm[i] for i in ids])
    swapped = discriminative_loss(emb, InstanceGrouping.from_labels(remapped), CFG)
    assert abs(base.total.item() - swapped.total.item()) < 1e-12


def test_translation_invariance():
    emb_v, ids = random_case(2)
    grouping = InstanceGrouping.from_labels(ids)
    a = discriminative_loss(ad.Tensor(emb_v), grouping, CFG)
    b = discriminative_loss(ad.Tensor(emb_v + 7.25), grouping, CFG)
    assert abs(a.pull.item() - b.pull.item()) < 1e-9
    assert abs(a.push.item() - b.push.item()) < 1e-9


def test_gradient_matches_finite_differences_away_from_kinks():
    # sampled configurations keep every hinge strictly active or inactive
    for seed in range(4):
        emb_v, ids = random_case(seed + 10)
        grouping = InstanceGrouping.from_labels(ids)

        def f(v):
            return discriminative_loss(ad.Tensor(v), grouping, CFG).total.item()

        emb = ad.Tensor(emb_v, requires_grad=True)
        ad.backward(discriminative_loss(emb, grouping, CFG).total)
        assert max_rel_err(emb.grad, fd_grad(f, emb_v)) < 1e-5


def test_unannotated_points_excluded_from_embedding_loss():
    emb_v, ids = random_case(3)
    with_clutter = ids.copy()
    with_clutter[-3:] = -1
    kept = InstanceGrouping.from_labels(with_clutter)
    assert sum(m.size for m in kept.members) == len(ids) - 3

    manual = InstanceGrouping([np.flatnonzero(with_clutter == u)
                               for u in sorted(set(with_clutter)) if u >= 0])
    a = discriminative_loss(ad.Tensor(emb_v), kept, CFG)
    b = discriminative_loss(ad.Tensor(emb_v), manual, CFG)
    assert abs(a.total.item() - b.total.item()) < 1e-12


def rel_diff(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def clutter_case(seed, m, n=40, k=5):
    """Random float64 embeddings over m instances plus unannotated (-1)
    points, spread so that some hinges of either term are active and some
    are not."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(-1, m, n)
    ids[:m] = np.arange(m)  # every instance non-empty
    centers = rng.uniform(0, 1.5, (m, k))
    return centers[ids] + 0.3 * rng.standard_normal((n, k)), ids


@pytest.mark.parametrize("m", range(1, 9))
def test_loss_matches_per_instance_loop(m):
    for seed in range(3):
        emb_v, ids = clutter_case(100 * m + seed, m)
        grouping = InstanceGrouping.from_labels(ids)
        emb_a = ad.Tensor(emb_v, requires_grad=True)
        emb_b = ad.Tensor(emb_v, requires_grad=True)
        new = discriminative_loss(emb_a, grouping, CFG)
        old = discriminative_loss_loop(emb_b, grouping, CFG)
        for a, b in zip(new, old):
            assert a.shape == b.shape == (1, 1)
            assert abs(a.item() - b.item()) <= 1e-12 * max(abs(b.item()), 1e-300)
        ad.backward(new.total)
        ad.backward(old.total)
        assert rel_diff(emb_a.grad, emb_b.grad) <= 1e-10
        assert not emb_a.grad[ids < 0].any()


def test_loss_graph_size_does_not_depend_on_instance_count():
    # the discriminative total is one node whose only parent is the embeddings
    for m in range(1, 9):
        emb_v, ids = clutter_case(m, m, n=512)
        emb = ad.Tensor(emb_v, requires_grad=True)
        total = discriminative_loss(emb, InstanceGrouping.from_labels(ids), CFG).total
        assert total._parents == (emb,)
        assert ad.graph_nodes(total) == [emb, total]


def kink_case(seed, m, k=3):
    """Embeddings on a quarter grid: m instances of four points placed
    symmetrically about centres on a 0.75 grid, so the means are exact, plus
    eight unannotated points. Many L1 distances land exactly on the margins
    (0.5 to a mean, 3.0 between means) and many entries of a - b are 0."""
    rng = np.random.default_rng(seed)
    centres = 0.75 * rng.integers(0, 3, (m, k))
    offsets = rng.integers(-2, 3, (m, 2, k)) / 4
    points = (centres[:, None] + np.concatenate([offsets, -offsets], axis=1)).reshape(4 * m, k)
    ids = np.concatenate([np.repeat(np.arange(m), 4), np.full(8, -1)])
    order = rng.permutation(ids.size)
    return np.concatenate([points, rng.integers(-8, 9, (8, k)) / 4])[order], ids[order]


def kinks(emb_v, ids):
    """Whether a pull row sits on delta_v, a push pair on 2 * delta_d, and an
    entry of a point minus its mean at 0."""
    m = ids.max() + 1
    means = np.stack([emb_v[ids == i].mean(axis=0) for i in range(m)])
    diff = emb_v[ids >= 0] - means[ids[ids >= 0]]
    first, second = np.triu_indices(m, 1)
    return np.array([(np.abs(diff).sum(axis=1) == CFG.delta_v).any(),
                     (np.abs(means[first] - means[second]).sum(axis=1) == 2 * CFG.delta_d).any(),
                     (diff == 0).any()])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", range(9))
def test_loss_equals_composed_graph_bit_for_bit(m, dtype):
    # the single node against the graph of gathers, matmuls, unfused hinges,
    # mean and sum it replaced: terms, dtypes and the embedding gradient
    seen = np.zeros(3, dtype=bool)
    for seed in range(10):
        emb_v, ids = clutter_case(100 * m + seed, max(m, 1)) if seed % 2 else kink_case(seed, m)
        if m == 0:
            ids = np.full_like(ids, -1)
        elif not seed % 2:
            seen |= kinks(emb_v, ids)
        grouping = InstanceGrouping.from_labels(ids)
        results = []
        for loss_fn in (discriminative_loss, discriminative_loss_composed):
            emb = ad.Tensor(emb_v.astype(dtype), requires_grad=True)
            terms = loss_fn(emb, grouping, CFG)
            ad.backward(terms.total)
            results.append([t.values for t in terms] + [emb.grad])
        for got, want in zip(*results):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
    if m:  # one instance has no pair of means
        assert seen[0] and seen[2] and (seen[1] or m == 1)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_parameter_gradients_equal_composed_graph_bit_for_bit(dtype):
    cfg = RunConfig(dtype=dtype)
    network, prepared = default_blocks(cfg, 6)
    for p in prepared:
        results = []
        for loss_fn in (discriminative_loss, discriminative_loss_composed):
            network.zero_grad()
            out = network.forward(p.block.features, p.geometry)
            loss = ad.add(ad.softmax_cross_entropy(out.logits, p.block.semantic_labels),
                          loss_fn(out.embeddings, p.grouping, cfg.loss_config()).total)
            ad.backward(loss)
            results.append((loss.values, {q.name: q.grad for q in network.parameters()}))
        (loss, new), (loss_ref, ref) = results
        assert np.array_equal(loss, loss_ref) and new.keys() == ref.keys()
        for name, g in ref.items():
            assert new[name].dtype == g.dtype and np.array_equal(new[name], g), name


@pytest.mark.parametrize("index", [-1, 6])
def test_member_index_outside_the_embeddings_raises(index):
    emb = ad.Tensor(np.zeros((6, 2)), requires_grad=True)
    with pytest.raises(ad.DimensionError, match="out of range for 6 rows"):
        discriminative_loss(emb, InstanceGrouping([[0, 1], [2, index]]), CFG)


def default_blocks(cfg, count):
    """The first ``count`` training blocks of ``cfg``, as train() prepares them."""
    rng = np.random.default_rng(cfg.seed)
    network = build_network(cfg)
    # a scene gives at least one block, so the first ``count`` scenes suffice
    scenes = [generate_scene(cfg.scene_spec(i)) for i in range(count)]
    blocks = split_scenes(scenes, cfg, rng)
    return network, [PreparedBlock(b, network) for b in blocks[:count]]


def test_graph_nodes_per_default_training_block():
    # the tracked size of one training graph; a change that grows it
    # updates this bound on purpose
    cfg = RunConfig()
    network, (prepared,) = default_blocks(cfg, 1)
    assert len(ad.graph_nodes(_block_loss(network, prepared, cfg))) <= 79


def test_parameter_gradients_match_per_instance_loop():
    cfg = RunConfig(dtype="float64")
    network, prepared = default_blocks(cfg, 6)
    for p in prepared:
        grads = []
        for loss_fn in (discriminative_loss, discriminative_loss_loop):
            network.zero_grad()
            out = network.forward(p.block.features, p.geometry)
            loss = ad.add(ad.softmax_cross_entropy(out.logits, p.block.semantic_labels),
                          loss_fn(out.embeddings, p.grouping, cfg.loss_config()).total)
            ad.backward(loss)
            grads.append({q.name: q.grad.copy() for q in network.parameters()})
        new, old = grads
        for name, g in old.items():
            if name == "joint.ins_head2.bias":
                # analytically zero (the loss is translation-invariant): rounding only
                assert np.abs(new[name] - g).max() <= 1e-12
            else:
                assert rel_diff(new[name], g) <= 1e-10, name


def assert_matches_concat_oracle(network, blocks, cfg):
    """Per block: logits, embeddings and every parameter's gradient of the
    training loss agree with the concatenating composition to 1e-10."""
    for p in blocks:
        results = []
        for forward in (network_forward, network_forward_concat):
            network.zero_grad()
            logits, embeddings = forward(network, p.block.features, p.geometry)
            ad.backward(total_loss(logits, p.block.semantic_labels, embeddings, p.grouping,
                                   cfg.loss_config()))
            results.append((logits.values, embeddings.values,
                            {q.name: q.grad.copy() for q in network.parameters()
                             if q.grad is not None}))
        (logits, emb, new), (logits_ref, emb_ref, ref) = results
        assert rel_diff(logits, logits_ref) <= 1e-10 and rel_diff(emb, emb_ref) <= 1e-10
        assert new.keys() == ref.keys()
        for name, g in ref.items():
            if name == "joint.ins_head2.bias":
                # analytically zero (the loss is translation-invariant): rounding only
                assert np.abs(new[name] - g).max() <= 1e-12
            else:
                assert rel_diff(new[name], g) <= 1e-10, name


def network_forward(network, features, geometry):
    out = network.forward(features, geometry)
    return out.logits, out.embeddings


def test_forward_and_gradients_match_concat_oracle_on_default_blocks():
    cfg = RunConfig(dtype="float64")
    network, prepared = default_blocks(cfg, 6)
    assert_matches_concat_oracle(network, prepared, cfg)


@pytest.mark.parametrize("switches", [
    dict(instance_fusion=False), dict(semantic_fusion=False),
    dict(instance_fusion=False, semantic_fusion=False), dict(feature_fusion=False),
], ids=["instance_fusion_off", "semantic_fusion_off", "both_off", "feature_fusion_off"])
def test_forward_and_gradients_match_concat_oracle_under_ablation(switches):
    # a switched-off cross-injection is a zero-row term, and the parameters
    # it bypasses get no gradient on either path
    cfg = RunConfig(dtype="float64", **switches)
    network, prepared = default_blocks(cfg, 6)
    assert_matches_concat_oracle(network, prepared, cfg)


def test_forward_and_gradients_match_concat_oracle_at_4096_points():
    # the benchmark's paper-scale layout: 4096 points from a 1.5 m room
    cfg = RunConfig(dtype="float64")
    scene = generate_scene(SyntheticSceneSpec(seed=0, room_extent=(1.5, 1.5, 0.8),
                                              num_classes=4, instance_range=(6, 6),
                                              points_per_instance=(1400, 1550)))
    block = split_into_blocks(scene, cfg.block_size, cfg.stride, 4096, cfg.min_block_points,
                              cfg.center_xy, np.random.default_rng(1))[0]
    network = build_network(cfg)
    assert_matches_concat_oracle(network, [PreparedBlock(block, network)], cfg)


def test_grouping_validation():
    with pytest.raises(ValueError):
        InstanceGrouping([[0, 1], []])
    with pytest.raises(ValueError):
        InstanceGrouping([[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        LossConfig(delta_v=1.5, delta_d=0.5)


@pytest.mark.parametrize("margins", [dict(delta_d=np.inf), dict(delta_v=1e308, delta_d=np.inf)])
def test_loss_margins_must_be_finite(margins):
    with pytest.raises(ValueError, match="finite delta_d > delta_v > 0"):
        LossConfig(**margins)


# ---------------------------------------------------------------------------
# total loss

def test_total_loss_is_sum_of_terms():
    rng = np.random.default_rng(4)
    logits_v = rng.standard_normal((10, 4))
    labels = rng.integers(0, 4, 10)
    emb_v, ids = random_case(5, n=10)
    grouping = InstanceGrouping.from_labels(ids)

    total = total_loss(ad.Tensor(logits_v), labels, ad.Tensor(emb_v), grouping, CFG)
    ce = ad.softmax_cross_entropy(ad.Tensor(logits_v), labels)
    disc = discriminative_loss(ad.Tensor(emb_v), grouping, CFG)
    assert abs(total.item() - (ce.item() + disc.total.item())) < 1e-12


def test_perfect_predictions_give_near_zero_total():
    labels = np.array([0, 0, 1, 1])
    logits = np.full((4, 2), -200.0)
    logits[np.arange(4), labels] = 200.0
    emb = np.array([[0.0, 0], [0, 0], [5.0, 5.0], [5, 5]])
    grouping = InstanceGrouping.from_labels(np.array([0, 0, 1, 1]))
    total = total_loss(ad.Tensor(logits), labels, ad.Tensor(emb), grouping, CFG)
    assert total.item() < 1e-12


def test_embedding_loss_gradient_does_not_touch_logits():
    rng = np.random.default_rng(6)
    logits = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    emb = ad.Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    grouping = InstanceGrouping.from_labels(np.array([0, 0, 1, 1, 2, 2]))
    ad.backward(discriminative_loss(emb, grouping, CFG).total)
    assert logits.grad is None
    assert emb.grad is not None
