import struct

import numpy as np
import pytest

from jointseg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from jointseg.data import (Scene, SceneFormatError, SyntheticSceneSpec, generate_scene,
                           load_result, load_scene, save_result, save_scene, split_into_blocks)


def small_spec(**kw):
    defaults = dict(seed=7, room_extent=(1.0, 1.0, 0.8), num_classes=4,
                    instance_range=(4, 6), points_per_instance=(40, 80), noise_std=0.004)
    defaults.update(kw)
    return SyntheticSceneSpec(**defaults)


# ---------------------------------------------------------------------------
# generation

def test_generation_is_deterministic():
    a = generate_scene(small_spec())
    b = generate_scene(small_spec())
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.colors, b.colors)
    assert np.array_equal(a.semantic_labels, b.semantic_labels)
    assert np.array_equal(a.instance_ids, b.instance_ids)


def test_single_instance_noiseless_scene():
    scene = generate_scene(small_spec(instance_range=(1, 1), noise_std=0.0))
    assert set(np.unique(scene.instance_ids)) == {0}
    assert set(np.unique(scene.semantic_labels)) == {0}
    assert np.allclose(scene.points[:, 2], 0.0)  # first instance is the floor plane


def test_six_instance_scene_counts_and_label_consistency():
    scene = generate_scene(small_spec(instance_range=(6, 6)))
    assert np.unique(scene.instance_ids).size == 6
    for inst in range(6):
        classes = np.unique(scene.semantic_labels[scene.instance_ids == inst])
        assert classes.size == 1
    scene.validate_labels()


def test_scene_includes_floor_and_wall_classes():
    scene = generate_scene(small_spec())
    assert {0, 1} <= set(np.unique(scene.semantic_labels).tolist())


def test_generation_error_when_placement_infeasible():
    from jointseg.data import SceneGenerationError
    # a tiny room cannot hold many disjoint boxes
    with pytest.raises(SceneGenerationError):
        generate_scene(small_spec(room_extent=(0.2, 0.2, 0.5), instance_range=(30, 30),
                                  points_per_instance=(5, 5)))


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSceneSpec(num_classes=1)
    with pytest.raises(ValueError):
        SyntheticSceneSpec(instance_range=(0, 3))
    for noise in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_std"):
            SyntheticSceneSpec(noise_std=noise)


# ---------------------------------------------------------------------------
# block splitting

def test_single_window_scene_yields_one_block():
    scene = generate_scene(small_spec())
    blocks = split_into_blocks(scene, block_size=1.0, stride=0.5, points_per_block=256,
                               rng=np.random.default_rng(0))
    assert len(blocks) == 1  # room fits one window; stride duplicates are deduplicated
    assert blocks[0].num_points == 256


def test_block_of_exact_size_is_identity_subsample():
    scene = generate_scene(small_spec())
    n = scene.num_points
    blocks = split_into_blocks(scene, points_per_block=n, rng=np.random.default_rng(0))
    assert np.array_equal(np.sort(blocks[0].point_indices), np.arange(n))


def test_normalized_location_columns_in_unit_range():
    scene = generate_scene(small_spec(noise_std=0.01))
    for block in split_into_blocks(scene, points_per_block=128, rng=np.random.default_rng(1)):
        assert block.features[:, 6:9].min() >= 0.0
        assert block.features[:, 6:9].max() <= 1.0


def test_blocks_cover_scene_when_windows_fit_capacity():
    scene = generate_scene(small_spec(room_extent=(1.6, 1.6, 0.8), instance_range=(5, 5),
                                      points_per_instance=(80, 120)))
    blocks = split_into_blocks(scene, block_size=1.0, stride=0.5, points_per_block=1024,
                               min_points=1, rng=np.random.default_rng(2))
    covered = np.unique(np.concatenate([b.point_indices for b in blocks]))
    assert np.array_equal(covered, np.arange(scene.num_points))


def test_label_consistency_preserved_through_split():
    scene = generate_scene(small_spec())
    for block in split_into_blocks(scene, points_per_block=300, rng=np.random.default_rng(3)):
        assert np.array_equal(block.semantic_labels, scene.semantic_labels[block.point_indices])
        assert np.array_equal(block.instance_ids, scene.instance_ids[block.point_indices])


def test_small_windows_are_discarded():
    pts = np.concatenate([np.random.default_rng(0).uniform(0, 1, (200, 3)) * [1, 1, 0.5],
                          [[2.5, 2.5, 0.1], [2.6, 2.5, 0.2]]])  # 2 stray points far away
    scene = Scene(pts, np.zeros((202, 3)), np.zeros(202, int), np.zeros(202, int), (3.0, 3.0, 0.5))
    blocks = split_into_blocks(scene, points_per_block=64, min_points=10,
                               rng=np.random.default_rng(0))
    covered = np.unique(np.concatenate([b.point_indices for b in blocks]))
    assert 200 not in covered and 201 not in covered


@pytest.mark.parametrize("min_points", [0, -5])
def test_min_points_below_one_rejected(min_points):
    scene = generate_scene(small_spec())
    with pytest.raises(ValueError, match="min_points must be >= 1"):
        split_into_blocks(scene, block_size=0.1, stride=0.1, min_points=min_points)


def test_center_xy_flag():
    scene = generate_scene(small_spec())
    centered = split_into_blocks(scene, points_per_block=64, center_xy=True,
                                 rng=np.random.default_rng(4))[0]
    raw = split_into_blocks(scene, points_per_block=64, center_xy=False,
                            rng=np.random.default_rng(4))[0]
    assert np.allclose(raw.features[:, 0] - 0.5, centered.features[:, 0])
    assert np.allclose(raw.features[:, 2], centered.features[:, 2])  # z untouched


def test_empty_scene_rejected():
    scene = Scene(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int),
                  (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        split_into_blocks(scene)


# ---------------------------------------------------------------------------
# file I/O

def test_binary_round_trip(tmp_path):
    scene = generate_scene(small_spec())
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    loaded = load_scene(path)
    assert np.array_equal(loaded.points, scene.points)
    assert np.array_equal(loaded.colors, scene.colors)
    assert np.array_equal(loaded.semantic_labels, scene.semantic_labels)
    assert np.array_equal(loaded.instance_ids, scene.instance_ids)
    assert np.array_equal(loaded.room_extent, scene.room_extent)


def test_text_round_trip(tmp_path):
    scene = generate_scene(small_spec())
    path = tmp_path / "scene.txt"
    save_scene(path, scene)
    loaded = load_scene(path)
    assert np.array_equal(loaded.points, scene.points)
    assert np.array_equal(loaded.instance_ids, scene.instance_ids)


def test_text_scene_rejects_lines_after_the_declared_points(tmp_path):
    scene = generate_scene(small_spec())
    path = tmp_path / "scene.txt"
    save_scene(path, scene)
    text = path.read_text()
    path.write_text(text + "\n  \n")  # blank lines after the points are harmless
    assert np.array_equal(load_scene(path).points, scene.points)
    path.write_text(text + "\n0 0 0 0 0 0 0 0\njunk\n")
    with pytest.raises(SceneFormatError,
                       match=f"line {scene.num_points + 4}: unexpected line after the "
                             f"{scene.num_points} declared points"):
        load_scene(path)


def test_truncated_file_reports_byte_offset(tmp_path):
    scene = generate_scene(small_spec())
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(SceneFormatError, match="at byte"):
        load_scene(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "scene.scene"
    path.write_bytes(b"NOTASCENEFILE---" * 4)
    with pytest.raises(SceneFormatError, match="magic"):
        load_scene(path)


def test_zero_point_file_rejected(tmp_path):
    import struct
    path = tmp_path / "scene.scene"
    path.write_bytes(b"PTSCENE1" + struct.pack("<IQ", 1, 0) + struct.pack("<3d", 1, 1, 1))
    with pytest.raises(SceneFormatError, match="zero points"):
        load_scene(path)


def test_trailing_bytes_rejected(tmp_path):
    scene = generate_scene(small_spec())
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(SceneFormatError, match="trailing"):
        load_scene(path)


# fault -> (field, row, set the bad value on a scene)
SCENE_FAULTS = {
    "nan_point": ("point", 5, lambda s: s.points.__setitem__((5, 1), np.nan)),
    "inf_point": ("point", 7, lambda s: s.points.__setitem__((7, 0), np.inf)),
    "nan_color": ("color", 3, lambda s: s.colors.__setitem__((3, 2), np.nan)),
    "zero_extent": ("extent", 0, lambda s: s.room_extent.__setitem__(2, 0.0)),
    "negative_extent": ("extent", 0, lambda s: s.room_extent.__setitem__(0, -1.0)),
    "inf_extent": ("extent", 0, lambda s: s.room_extent.__setitem__(1, np.inf)),
    "negative_label": ("label", 4, lambda s: s.semantic_labels.__setitem__(4, -2)),
}


@pytest.mark.parametrize("suffix", [".scene", ".txt"])
@pytest.mark.parametrize("fault", sorted(SCENE_FAULTS))
def test_load_rejects_values_no_scene_can_hold(tmp_path, suffix, fault):
    field, row, spoil = SCENE_FAULTS[fault]
    scene = generate_scene(small_spec())
    spoil(scene)
    path = tmp_path / f"bad{suffix}"
    save_scene(path, scene)
    where = "values, got" if field == "extent" else f"at point index {row}$"
    with pytest.raises(SceneFormatError, match=f"{field}.* {where}"):
        load_scene(path)


def test_load_keeps_negative_instance_ids(tmp_path):
    scene = generate_scene(small_spec())
    scene.instance_ids[:3] = -1  # unannotated points are valid
    path = tmp_path / "scene.scene"
    save_scene(path, scene)
    assert np.array_equal(load_scene(path).instance_ids, scene.instance_ids)


def test_saving_empty_scene_rejected(tmp_path):
    scene = Scene(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int),
                  (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        save_scene(tmp_path / "empty.scene", scene)


# ---------------------------------------------------------------------------
# mutated files: each reader loads a damaged file or refuses it with its own error

def write_small_file(path, suffix):
    """Write a small valid file of the format ``suffix``; return its loader and error."""
    rng = np.random.default_rng(0)
    classes, instances = np.array([0, 1, 1, 2, 2, 3]), np.array([0, 1, 1, 2, 2, -1])
    if suffix == ".ckpt":
        save_checkpoint(path, {"a.weight": rng.standard_normal((3, 2)).astype(np.float32),
                               "b.bias": rng.standard_normal((1, 2))},
                        {"m/a.weight": np.zeros((3, 2), dtype=np.float32)}, 5, 5, "cfg", "model")
        return load_checkpoint, CheckpointError
    if suffix == ".result":
        save_result(path, classes, instances)
        return load_result, SceneFormatError
    save_scene(path, Scene(rng.uniform(0, 1, (6, 3)), rng.uniform(0, 1, (6, 3)), classes,
                           instances, (1.0, 1.0, 0.8)))
    return load_scene, SceneFormatError


EXTREME_COUNTS = [0, 1, 2 ** 31, 2 ** 32, 2 ** 62, 2 ** 63, 2 ** 64 - 1]


def extreme_pieces(binary: bool) -> list[bytes]:
    """Counts no small file holds: 8 little-endian bytes, or signed digits."""
    if binary:
        return [struct.pack("<Q", c) for c in EXTREME_COUNTS]
    return [f"{sign}{c}".encode() for sign in ("", "-") for c in EXTREME_COUNTS] + [b"9" * 5000]


def mutations(raw: bytes, rng, pieces: list[bytes]):
    """200 random bit flips, truncations, insertions of 1-8 bytes and overwrites
    with an extreme count; then each extreme count written over, and inserted at,
    each of the first 96 bytes, where the small files keep their counts and shapes."""
    for _ in range(200):
        at, op = int(rng.integers(len(raw))), int(rng.integers(4))
        if op == 0:
            out = bytearray(raw)
            out[at] ^= 1 << int(rng.integers(8))
            yield bytes(out)
        elif op == 1:
            yield raw[:at]
        elif op == 2:
            yield raw[:at] + rng.bytes(int(rng.integers(1, 9))) + raw[at:]
        else:
            piece = pieces[int(rng.integers(len(pieces)))]
            yield raw[:at] + piece + raw[at + len(piece):]
    for at in range(min(len(raw), 96)):
        for piece in pieces:
            yield raw[:at] + piece + raw[at + len(piece):]
            yield raw[:at] + piece + raw[at:]


@pytest.mark.parametrize("suffix", [".scene", ".txt", ".result", ".ckpt"])
def test_mutated_files_load_or_raise_their_format_error(tmp_path, suffix):
    path = tmp_path / f"small{suffix}"
    load, error = write_small_file(path, suffix)
    raw = path.read_bytes()
    load(path)
    outcomes = []
    for bad in mutations(raw, np.random.default_rng(21), extreme_pieces(suffix in (".scene", ".ckpt"))):
        path.write_bytes(bad)
        try:
            load(path)
            outcomes.append(True)
        except error:  # any other exception fails the test
            outcomes.append(False)
    assert any(outcomes) and not all(outcomes)
