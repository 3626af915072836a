"""Point-cloud data model: labeled scenes, synthetic generation, block
splitting, and scene file I/O.

A scene is a flat set of points with colors, a semantic class per point, and
an instance id per point. Scenes are cut into overlapping XY blocks of a fixed
point count whose 9-dim per-point features (XYZ, RGB, room-normalized XYZ)
feed the network.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np


class SceneFormatError(ValueError):
    """A scene file is malformed; the message says where (byte offset or point index)."""


class SceneGenerationError(RuntimeError):
    """Synthetic placement failed within the retry budget."""


@dataclass
class Scene:
    """Points (N, 3) in meters, colors (N, 3) in [0, 1], per-point semantic
    class ids and non-negative instance ids, and the room extent (3,)."""

    points: np.ndarray
    colors: np.ndarray
    semantic_labels: np.ndarray
    instance_ids: np.ndarray
    room_extent: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.colors = np.asarray(self.colors, dtype=np.float64)
        self.semantic_labels = np.asarray(self.semantic_labels, dtype=np.int64)
        self.instance_ids = np.asarray(self.instance_ids, dtype=np.int64)
        self.room_extent = np.asarray(self.room_extent, dtype=np.float64)
        n = self.points.shape[0]
        if not (self.colors.shape[0] == self.semantic_labels.shape[0] == self.instance_ids.shape[0] == n):
            raise ValueError("scene arrays disagree on point count")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    def validate_labels(self) -> None:
        """Every instance must carry exactly one semantic class."""
        for inst in np.unique(self.instance_ids):
            if inst < 0:
                continue
            classes = np.unique(self.semantic_labels[self.instance_ids == inst])
            if classes.size != 1:
                raise ValueError(f"instance {inst} spans classes {classes.tolist()}")


@dataclass
class Block:
    """A fixed-size sample of one XY window of a scene.

    features columns: 0-2 XYZ (XY optionally centered on the window), 3-5 RGB,
    6-8 XYZ normalized by the room extent (clipped to [0, 1]).
    """

    features: np.ndarray
    semantic_labels: np.ndarray
    instance_ids: np.ndarray
    point_indices: np.ndarray

    @property
    def num_points(self) -> int:
        return self.features.shape[0]


@dataclass
class SyntheticSceneSpec:
    seed: int = 0
    room_extent: tuple[float, float, float] = (1.0, 1.0, 0.8)
    num_classes: int = 4
    instance_range: tuple[int, int] = (2, 6)
    points_per_instance: tuple[int, int] = (60, 120)
    noise_std: float = 0.005

    def __post_init__(self):
        ext = self.room_extent
        if len(ext) != 3 or not all(math.isfinite(e) and e > 0 for e in ext):
            raise ValueError(f"room_extent needs three positive, finite values, got {ext}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.instance_range[0] < 1 or self.instance_range[0] > self.instance_range[1]:
            raise ValueError(f"bad instance_range {self.instance_range}")
        if self.points_per_instance[0] < 1 or self.points_per_instance[0] > self.points_per_instance[1]:
            raise ValueError(f"bad points_per_instance {self.points_per_instance}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")


_PALETTE = np.array([
    [0.55, 0.45, 0.35],  # floor
    [0.80, 0.80, 0.78],  # wall
    [0.85, 0.30, 0.25],
    [0.25, 0.45, 0.85],
    [0.30, 0.70, 0.35],
    [0.85, 0.70, 0.20],
    [0.60, 0.30, 0.70],
    [0.20, 0.70, 0.70],
])


def _sample_plane(rng, n, extent, axis: str):
    ex, ey, ez = extent
    pts = np.empty((n, 3))
    if axis == "floor":
        pts[:, 0] = rng.uniform(0, ex, n)
        pts[:, 1] = rng.uniform(0, ey, n)
        pts[:, 2] = 0.0
    else:  # wall at y = 0
        pts[:, 0] = rng.uniform(0, ex, n)
        pts[:, 1] = 0.0
        pts[:, 2] = rng.uniform(0, ez, n)
    return pts


def _sample_box_surface(rng, n, center_xy, half_xy, height):
    """Uniform points on the 5 exposed faces of an axis-aligned box on the floor."""
    hx, hy = half_xy
    areas = np.array([
        2 * hx * 2 * hy,      # top
        2 * hx * height,      # front (y-)
        2 * hx * height,      # back  (y+)
        2 * hy * height,      # left  (x-)
        2 * hy * height,      # right (x+)
    ])
    face = rng.choice(5, size=n, p=areas / areas.sum())
    u = rng.uniform(-1, 1, n)
    v = rng.uniform(0, 1, n)
    pts = np.empty((n, 3))
    cx, cy = center_xy
    top = face == 0
    pts[top, 0] = cx + u[top] * hx
    pts[top, 1] = cy + rng.uniform(-1, 1, int(top.sum())) * hy
    pts[top, 2] = height
    for f, (dx, dy) in ((1, (0, -1)), (2, (0, 1)), (3, (-1, 0)), (4, (1, 0))):
        m = face == f
        k = int(m.sum())
        if dx == 0:
            pts[m, 0] = cx + u[m] * hx
            pts[m, 1] = cy + dy * hy
        else:
            pts[m, 0] = cx + dx * hx
            pts[m, 1] = cy + u[m] * hy
        pts[m, 2] = v[m] * height
    return pts


def generate_scene(spec: SyntheticSceneSpec) -> Scene:
    """Build a labeled synthetic room: a floor plane, a wall plane, and
    non-overlapping boxes, one instance each. Deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    ex, ey, ez = spec.room_extent
    n_instances = int(rng.integers(spec.instance_range[0], spec.instance_range[1] + 1))

    points, colors, classes, instances = [], [], [], []
    placed_rects: list[tuple[float, float, float, float]] = []

    def emit(pts, class_id, inst_id):
        base = _PALETTE[class_id % len(_PALETTE)]
        tint = rng.uniform(-0.05, 0.05, 3)
        col = np.clip(base + tint + rng.normal(0, 0.01, pts.shape), 0, 1)
        points.append(pts)
        colors.append(col)
        classes.append(np.full(len(pts), class_id, dtype=np.int64))
        instances.append(np.full(len(pts), inst_id, dtype=np.int64))

    for inst in range(n_instances):
        n_pts = int(rng.integers(spec.points_per_instance[0], spec.points_per_instance[1] + 1))
        if inst == 0:
            emit(_sample_plane(rng, n_pts, spec.room_extent, "floor"), 0, inst)
        elif inst == 1:
            emit(_sample_plane(rng, n_pts, spec.room_extent, "wall"), 1, inst)
        else:
            cls = int(rng.integers(2, spec.num_classes)) if spec.num_classes > 2 \
                else int(rng.integers(0, spec.num_classes))
            for attempt in range(200):
                hx = rng.uniform(0.08, 0.18) * ex
                hy = rng.uniform(0.08, 0.18) * ey
                cx = rng.uniform(hx, ex - hx)
                cy = rng.uniform(hy + 0.05 * ey, ey - hy)  # keep off the wall
                rect = (cx - hx, cx + hx, cy - hy, cy + hy)
                margin = 0.02 * min(ex, ey)
                clash = any(
                    rect[0] < r[1] + margin and rect[1] > r[0] - margin
                    and rect[2] < r[3] + margin and rect[3] > r[2] - margin
                    for r in placed_rects
                )
                if not clash:
                    placed_rects.append(rect)
                    height = rng.uniform(0.25, 0.6) * ez
                    emit(_sample_box_surface(rng, n_pts, (cx, cy), (hx, hy), height), cls, inst)
                    break
            else:
                raise SceneGenerationError(
                    f"could not place instance {inst} after 200 attempts (room {spec.room_extent})"
                )

    pts = np.concatenate(points)
    if spec.noise_std > 0:
        pts = pts + rng.normal(0, spec.noise_std, pts.shape)
    scene = Scene(
        points=pts,
        colors=np.concatenate(colors),
        semantic_labels=np.concatenate(classes),
        instance_ids=np.concatenate(instances),
        room_extent=np.array(spec.room_extent),
    )
    scene.validate_labels()
    return scene


# ---------------------------------------------------------------------------
# block splitting

def _window_starts(extent: float, block_size: float, stride: float) -> list[float]:
    if extent <= block_size:
        return [0.0]
    starts = list(np.arange(0.0, extent - block_size + 1e-9, stride))
    last = extent - block_size
    if not starts or starts[-1] < last - 1e-9:
        starts.append(last)
    return starts


def split_into_blocks(scene: Scene, block_size: float = 1.0, stride: float = 0.5,
                      points_per_block: int = 4096, min_points: int = 64,
                      center_xy: bool = True,
                      rng: np.random.Generator | None = None) -> list[Block]:
    """Cut the scene into overlapping XY windows and sample each to a fixed size.

    Windows with more candidates than ``points_per_block`` are randomly
    subsampled without replacement; windows with fewer keep every point and
    top up the deficit by sampling with replacement. Windows with fewer than
    ``min_points`` (at least 1) candidates are discarded, and windows covering exactly the
    same candidate set as an earlier window are dropped as duplicates.
    """
    if scene.num_points == 0:
        raise ValueError("cannot split an empty scene")
    if min_points < 1:
        raise ValueError(f"min_points must be >= 1, got {min_points}")
    if rng is None:
        rng = np.random.default_rng(0)
    ex, ey, _ = scene.room_extent
    xs = scene.points[:, 0]
    ys = scene.points[:, 1]
    eps = 1e-9

    def axis_bounds(starts):
        # edge windows are open-ended so boundary/noise outliers stay covered
        bounds = []
        for i, s in enumerate(starts):
            lo = -np.inf if i == 0 else s - eps
            hi = np.inf if i == len(starts) - 1 else s + block_size + eps
            bounds.append((s, lo, hi))
        return bounds

    blocks: list[Block] = []
    seen_coverage: set[bytes] = set()
    for x0, xlo, xhi in axis_bounds(_window_starts(ex, block_size, stride)):
        for y0, ylo, yhi in axis_bounds(_window_starts(ey, block_size, stride)):
            inside = (xs >= xlo) & (xs <= xhi) & (ys >= ylo) & (ys <= yhi)
            cand = np.flatnonzero(inside)
            if cand.size < min_points:
                continue
            key = cand.tobytes()
            if key in seen_coverage:
                continue
            seen_coverage.add(key)

            if cand.size > points_per_block:
                idx = rng.choice(cand, size=points_per_block, replace=False)
                idx.sort()
            elif cand.size < points_per_block:
                extra = rng.choice(cand, size=points_per_block - cand.size, replace=True)
                idx = np.concatenate([cand, extra])
            else:
                idx = cand

            pts = scene.points[idx]
            feats = np.empty((points_per_block, 9))
            feats[:, 0] = pts[:, 0] - (x0 + block_size / 2) if center_xy else pts[:, 0]
            feats[:, 1] = pts[:, 1] - (y0 + block_size / 2) if center_xy else pts[:, 1]
            feats[:, 2] = pts[:, 2]
            feats[:, 3:6] = scene.colors[idx]
            feats[:, 6:9] = np.clip(pts / scene.room_extent, 0.0, 1.0)
            blocks.append(Block(
                features=feats,
                semantic_labels=scene.semantic_labels[idx],
                instance_ids=scene.instance_ids[idx],
                point_indices=idx,
            ))
    return blocks


# ---------------------------------------------------------------------------
# scene file I/O

_MAGIC = b"PTSCENE1"
_VERSION = 1


def save_scene(path, scene: Scene) -> None:
    """Write a scene container; ``.txt`` paths get the text form instead."""
    if scene.num_points == 0:
        raise ValueError("refusing to save an empty scene")
    path = str(path)
    if path.endswith(".txt"):
        _save_scene_text(path, scene)
        return
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IQ", _VERSION, scene.num_points))
        f.write(struct.pack("<3d", *scene.room_extent))
        f.write(scene.points.astype("<f8").tobytes())
        f.write(scene.colors.astype("<f8").tobytes())
        f.write(scene.semantic_labels.astype("<i8").tobytes())
        f.write(scene.instance_ids.astype("<i8").tobytes())


def _check_values(extent, points, colors, semantic) -> None:
    """Reject values no scene can hold, naming the first point that holds one."""
    if extent.shape != (3,) or not (np.isfinite(extent).all() and (extent > 0).all()):
        raise SceneFormatError(f"room extent must be three positive, finite values, got {extent.tolist()}")
    for what, bad in (("non-finite point", ~np.isfinite(points).all(axis=1)),
                      ("non-finite color", ~np.isfinite(colors).all(axis=1)),
                      ("negative semantic label", semantic < 0)):
        if bad.any():
            raise SceneFormatError(f"{what} at point index {int(bad.argmax())}")


def load_scene(path) -> Scene:
    path = str(path)
    if path.endswith(".txt"):
        return _load_scene_text(path)
    with open(path, "rb") as f:
        data = f.read()

    def take(offset, count, why):
        if offset + count > len(data):
            raise SceneFormatError(f"truncated scene file: needed {count} bytes for {why} at byte {offset}")
        return data[offset: offset + count], offset + count

    raw, off = take(0, 8, "magic")
    if raw != _MAGIC:
        raise SceneFormatError(f"bad magic {raw!r} at byte 0")
    raw, off = take(off, 12, "header")
    version, n = struct.unpack("<IQ", raw)
    if version != _VERSION:
        raise SceneFormatError(f"unsupported scene version {version} at byte 8")
    if n == 0:
        raise SceneFormatError("scene file declares zero points at byte 12")
    raw, off = take(off, 24, "room extent")
    extent = np.frombuffer(raw, dtype="<f8")
    raw, off = take(off, n * 24, "points")
    points = np.frombuffer(raw, dtype="<f8").reshape(n, 3)
    raw, off = take(off, n * 24, "colors")
    colors = np.frombuffer(raw, dtype="<f8").reshape(n, 3)
    raw, off = take(off, n * 8, "semantic labels")
    sem = np.frombuffer(raw, dtype="<i8")
    raw, off = take(off, n * 8, "instance ids")
    inst = np.frombuffer(raw, dtype="<i8")
    if off != len(data):
        raise SceneFormatError(f"{len(data) - off} unexpected trailing bytes at byte {off}")
    _check_values(extent, points, colors, sem)
    return Scene(points.copy(), colors.copy(), sem.copy(), inst.copy(), extent.copy())


def _save_scene_text(path: str, scene: Scene) -> None:
    with open(path, "w") as f:
        f.write(f"scene v{_VERSION} points={scene.num_points}\n")
        f.write("extent {:.17g} {:.17g} {:.17g}\n".format(*scene.room_extent))
        for p, c, s, i in zip(scene.points, scene.colors, scene.semantic_labels, scene.instance_ids):
            f.write("{:.17g} {:.17g} {:.17g} {:.17g} {:.17g} {:.17g} {} {}\n".format(
                p[0], p[1], p[2], c[0], c[1], c[2], s, i))


def read_lines(path) -> list[str]:
    """The lines of a text file; undecodable bytes raise ``SceneFormatError``."""
    try:
        with open(path) as f:
            return f.read().splitlines()
    except UnicodeDecodeError as e:
        raise SceneFormatError(f"{path}: {e}") from e


def _load_scene_text(path: str) -> Scene:
    lines = read_lines(path)
    if not lines or not lines[0].startswith("scene v"):
        raise SceneFormatError("missing scene header at byte 0")
    try:
        n = int(lines[0].split("points=")[1])
    except (IndexError, ValueError) as e:
        raise SceneFormatError(f"bad header line: {lines[0]!r}") from e
    if n == 0:
        raise SceneFormatError("scene file declares zero points")
    if len(lines) < 2 + n:
        raise SceneFormatError(f"truncated scene file: {len(lines) - 2} of {n} point lines")
    try:
        extent = np.array([float(v) for v in lines[1].split()[1:4]])
    except ValueError as e:
        raise SceneFormatError(f"line 2: {e}") from e
    values = np.empty((n, 6))
    labels = np.empty((2, n), dtype=np.int64)
    for i, line in enumerate(lines[2: 2 + n], start=3):
        fields = line.split()
        if len(fields) != 8:
            raise SceneFormatError(f"line {i}: point lines must have 8 fields, got {len(fields)}")
        try:
            values[i - 3] = [float(v) for v in fields[:6]]
            labels[:, i - 3] = [int(v) for v in fields[6:]]  # int() refuses a fractional label
        except (ValueError, OverflowError) as e:
            raise SceneFormatError(f"line {i}: {e}") from e
    for i, line in enumerate(lines[2 + n:], start=3 + n):
        if line.strip():
            raise SceneFormatError(f"line {i}: unexpected line after the {n} declared points")
    _check_values(extent, values[:, 0:3], values[:, 3:6], labels[0])
    return Scene(values[:, 0:3], values[:, 3:6], labels[0], labels[1], extent)
