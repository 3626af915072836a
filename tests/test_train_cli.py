import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointseg import autodiff as ad
from jointseg import cli
from jointseg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from jointseg.config import ConfigError, RunConfig, parse_config_text
from jointseg.data import generate_scene, save_scene
from jointseg.optim import Adam
from jointseg.train import grad_check, load_network, train

TINY = dict(points_per_block=64, min_block_points=16, npoints=(16, 8, 4),
            nsamples=(8, 8, 8), num_scenes=2, iterations=5, batch_size=2,
            min_points_per_instance=40, max_points_per_instance=60)


def tiny_config(**kw):
    args = dict(TINY)
    args.update(kw)
    return RunConfig(**args)


# ---------------------------------------------------------------------------
# config

def test_config_parsing_round_trip():
    cfg = tiny_config(seed=9, early_stopping=True)
    parsed = parse_config_text("\n".join(cfg.to_kv_lines()))
    assert parsed == cfg


def test_config_parses_comments_booleans_tuples():
    cfg = parse_config_text("""
        # a comment
        seed = 11
        feature_fusion = false
        npoints = 64, 16, 4
        bandwidth = 0.8   # trailing comment
    """)
    assert cfg.seed == 11 and cfg.feature_fusion is False
    assert cfg.npoints == (64, 16, 4) and cfg.bandwidth == 0.8


def test_config_rejects_unknown_key_and_bad_values():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("not_a_key = 1")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("iterations = soon")
    with pytest.raises(ConfigError):
        parse_config_text("learning_rate = 0")
    with pytest.raises(ConfigError):
        parse_config_text("batch_size = 0")


def test_config_digest_tracks_content():
    a = tiny_config()
    b = tiny_config(bandwidth=0.7)
    assert a.digest() == tiny_config().digest()
    assert a.digest() != b.digest()
    # bandwidth is an inference knob, not part of the model architecture
    assert a.model_digest() == b.model_digest()
    assert a.model_digest() != tiny_config(embedding_dim=7).model_digest()


# ---------------------------------------------------------------------------
# optimizer

def test_adam_zero_learning_rate_leaves_parameters_unchanged():
    p = ad.Parameter("w", np.ones((3, 3)))
    opt = Adam([p], lr=0.0)
    p.grad = np.full((3, 3), 2.0)
    before = p.values.copy()
    opt.step()
    assert np.array_equal(p.values, before)


def test_adam_step_decay_schedule():
    p = ad.Parameter("w", np.zeros((1, 1)))
    opt = Adam([p], lr=1.0, decay_factor=0.5, decay_every=2)
    seen = []
    for _ in range(5):
        seen.append(opt.current_lr())
        opt.step()
    assert seen == [1.0, 1.0, 0.5, 0.5, 0.25]


def test_adam_skips_parameters_without_gradient():
    p = ad.Parameter("w", np.ones((2, 2)))
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.values, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# checkpointing

def test_checkpoint_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    params = {"a.weight": rng.standard_normal((4, 3)).astype(np.float32),
              "a.bias": rng.standard_normal((1, 3)).astype(np.float64)}
    state = {"m/a.weight": np.zeros((4, 3), dtype=np.float32)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, state, 17, 17, "cfg" * 10, "model" * 6)
    save_checkpoint(p2, params, state, 17, 17, "cfg" * 10, "model" * 6)
    assert p1.read_bytes() == p2.read_bytes()

    ckpt = load_checkpoint(p1)
    assert ckpt.iteration == 17
    for name, arr in params.items():
        assert ckpt.parameters[name].tobytes() == arr.tobytes()
        assert ckpt.parameters[name].dtype == arr.dtype


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 2), dtype=np.float32)}, {}, 1, 1, "d", "m")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_detected(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 2), dtype=np.float32)}, {}, 1, 1, "d", "m")
    raw = path.read_bytes()
    path.write_bytes(raw + b"junk")
    with pytest.raises(CheckpointError, match=f"4 unexpected trailing bytes at byte {len(raw)}"):
        load_checkpoint(path)


def test_load_network_rejects_model_drift(tmp_path):
    cfg = tiny_config(iterations=1)
    result = train(cfg, tmp_path / "run")
    other = tiny_config(iterations=1, embedding_dim=7)
    with pytest.raises(CheckpointError, match="different model"):
        load_network(other, result.checkpoint_path)
    # a matching config loads fine
    net = load_network(cfg, result.checkpoint_path)
    assert len(net.parameters()) == 42


def test_train_checkpoint_holds_parameters_only(tmp_path):
    result = train(tiny_config(iterations=2), tmp_path / "run")
    ckpt = load_checkpoint(result.checkpoint_path)
    assert ckpt.optimizer_state == {}
    assert ckpt.iteration == ckpt.optimizer_step == 2
    assert len(ckpt.parameters) == 42


# ---------------------------------------------------------------------------
# training loop

def test_training_is_deterministic(tmp_path):
    cfg = tiny_config(seed=5)
    r1 = train(cfg, tmp_path / "a")
    r2 = train(cfg, tmp_path / "b")
    assert Path(r1.trace_path).read_bytes() == Path(r2.trace_path).read_bytes()
    assert Path(r1.checkpoint_path).read_bytes() == Path(r2.checkpoint_path).read_bytes()


def test_training_reduces_loss_on_tiny_run(tmp_path):
    cfg = tiny_config(iterations=60, batch_size=2, seed=1)
    result = train(cfg, tmp_path / "run")
    assert result.iterations_run == 60
    assert result.losses[-1] < result.losses[0]


def test_early_stopping_halts_before_budget(tmp_path):
    # zero-ish patience with an lr too small to improve validation loss
    cfg = tiny_config(iterations=300, early_stopping=True, patience=2,
                      learning_rate=1e-12, seed=2)
    result = train(cfg, tmp_path / "run")
    assert result.stopped_early
    assert result.iterations_run < 300


def test_random_sample_stays_deterministic(tmp_path):
    cfg = tiny_config(random_sample=True, iterations=8, seed=3)
    r1 = train(cfg, tmp_path / "a")
    r2 = train(cfg, tmp_path / "b")
    assert r1.losses == r2.losses


def test_num_classes_mismatch_is_config_error(tmp_path):
    scenes = tmp_path / "scenes"
    cli.main(["gen-data", "--config",
              write_config(tmp_path / "g.cfg", tiny_config(num_classes=4)),
              "--out", str(scenes)])
    cfg = tiny_config(num_classes=2, data_dir=str(scenes))
    with pytest.raises(ConfigError, match="num_classes"):
        train(cfg, tmp_path / "run")


# ---------------------------------------------------------------------------
# gradient check entry point

def test_grad_check_passes_tolerance():
    report = grad_check(entries_per_param=2)
    assert report.max_rel_error < 1e-5
    assert report.entries_checked > 50
    assert "gradient check" in report.to_text()


# ---------------------------------------------------------------------------
# CLI

def write_config(path, cfg: RunConfig):
    path.write_text("\n".join(cfg.to_kv_lines()) + "\n")
    return str(path)


def test_cli_end_to_end(tmp_path, capsys):
    scenes_dir = tmp_path / "scenes"
    cfg = tiny_config(seed=4, data_dir=str(scenes_dir), iterations=4)
    cfg_path = write_config(tmp_path / "run.cfg", cfg)

    assert cli.main(["gen-data", "--config", cfg_path, "--out", str(scenes_dir)]) == 0
    assert len(list(scenes_dir.glob("*.scene"))) == cfg.num_scenes

    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", cfg_path, "--out", str(run_dir)]) == 0
    assert (run_dir / "model.ckpt").exists()
    assert (run_dir / "loss_trace.txt").exists()

    out_dir = tmp_path / "pred"
    scene_path = sorted(scenes_dir.glob("*.scene"))[0]
    assert cli.main(["infer", "--config", cfg_path, "--checkpoint",
                     str(run_dir / "model.ckpt"), "--scene", str(scene_path),
                     "--out", str(out_dir)]) == 0
    result_path = out_dir / "scene_000.result"
    assert result_path.exists()

    assert cli.main(["eval", "--result", str(result_path), "--scene", str(scene_path),
                     "--out", str(tmp_path / "report")]) == 0
    report = (tmp_path / "report" / "report.kv").read_text()
    assert "mWCov" in report

    captured = capsys.readouterr()
    assert "mIoU" in captured.out


def test_cli_grad_check_exit_code(tmp_path):
    assert cli.main(["grad-check"]) == 0


def test_cli_grad_check_follows_the_seed_option(tmp_path):
    reports = {}
    for seed in ("0", "5"):
        assert cli.main(["grad-check", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        # past the first line, which holds the runtime
        reports[seed] = (tmp_path / seed / "grad_check.txt").read_text().splitlines()[1:]
    assert reports["5"] != reports["0"]
    assert reports["5"] == grad_check(RunConfig(seed=5)).to_text().splitlines()[1:]


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate = -1\n")
    assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("line", [
    "bandwidth = -1", "bandwidth = 0", "bandwidth = nan", "bandwidth = inf",
    "ms_max_iter = 0", "ms_tol = 0", "ms_tol = -1e-4", "ms_tol = nan", "ms_tol = inf",
    "voxel_divisions = 0", "voxel_divisions = -3",
    "overlap_threshold = 0", "overlap_threshold = nan", "overlap_threshold = 1.5",
])
def test_cli_rejects_bad_clustering_settings_before_loading(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    # the checkpoint and scene do not exist: the config must fail first
    code = cli.main(["infer", "--config", str(bad), "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--scene", str(tmp_path / "none.scene"), "--out", str(tmp_path / "pred")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_learning_rate(tmp_path, capsys, value):
    bad = config_with(tmp_path, [f"learning_rate = {value}"])
    code = cli.main(["train", "--config", bad, "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert "learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def config_with(tmp_path, lines):
    """A tiny config file whose keys named in ``lines`` take the given values."""
    keys = {l.split("=")[0].strip() for l in lines}
    kept = [l for l in tiny_config().to_kv_lines() if l.split(" = ")[0] not in keys]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(kept + lines) + "\n")
    return str(path)


@pytest.mark.parametrize("lines", [
    ["npoints = 128,32"], ["widths = 64,128"], ["radii = 0.2,0.4"], ["nsamples = 16,16,16,16"],
    ["nsamples = 0,16,16"], ["radii = 0.2,-0.4,0.8"], ["radii = 0.2,nan,0.8"],
    ["radii = 0.2,0.4,inf"], ["widths = 64,0,256"],
    ["npoints = 128,32,8", "points_per_block = 64"],
    ["num_classes = 1"], ["embedding_dim = 0"],
    # synthetic data, block splitting, loss margins and seed
    ["stride = 0", "room_extent = 2,2,0.8"], ["stride = -0.5"], ["block_size = 0"],
    ["block_size = nan"], ["room_extent = 1,1"], ["room_extent = 1,1,-1"],
    ["room_extent = 1,inf,0.8"], ["min_instances = 5", "max_instances = 2"],
    ["min_points_per_instance = 0"], ["delta_v = 2"], ["seed = -1"],
    # validation split and scene noise
    ["val_fraction = nan", "early_stopping = true"], ["val_fraction = inf"],
    ["val_fraction = 0"], ["val_fraction = 1"], ["val_fraction = -0.1"],
    ["noise_std = -1"], ["noise_std = nan"], ["noise_std = inf"],
    # Adam moments and the step-decay factor
    ["momentum = 1"], ["beta2 = 1"], ["momentum = nan"], ["beta2 = nan"], ["momentum = -0.1"],
    ["beta2 = inf"], ["lr_decay = -1"], ["lr_decay = nan"], ["lr_decay = 0"],
    ["lr_decay = 1.5"], ["lr_decay = inf"],
    # decay schedule, early-stopping patience and scene count
    ["decay_every = -1"], ["patience = 0"], ["patience = -3"], ["num_scenes = 0"],
    # block-size floor: 0.1 m blocks leave empty windows, which a floor of 0 would keep
    ["min_block_points = 0", "block_size = 0.1", "stride = 0.1"], ["min_block_points = -5"],
    # infinite windows and loss margins
    ["block_size = inf"], ["stride = inf"], ["delta_d = inf"],
])
def test_cli_rejects_bad_backbone_config_before_training(tmp_path, capsys, lines):
    code = cli.main(["train", "--config", config_with(tmp_path, lines),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("lines,named", [
    (["block_size = inf"], "block_size and stride"), (["stride = inf"], "block_size and stride"),
    (["delta_d = inf"], "loss (delta_v, delta_d)"),
])
def test_cli_names_the_field_of_an_infinite_setting(tmp_path, capsys, lines, named):
    code = cli.main(["train", "--config", config_with(tmp_path, lines),
                     "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "learning_rate" not in err


_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "1e400", "true", "float64", "1,1", "3,2,1", "", ","]),
    st.floats().map(repr),
    st.text(max_size=12),
)


def _typed_values(default):
    """Value text of the field's own type, most of it in or near range."""
    if isinstance(default, bool):
        return st.sampled_from(["true", "false", "on", "0"])
    if isinstance(default, int):
        return st.integers(-2, 600).map(str)
    if isinstance(default, float):
        return st.floats(-1, 3).map(repr) | st.floats().map(repr)
    if isinstance(default, tuple):
        item = st.floats(-1, 3) if isinstance(default[0], float) else st.integers(-2, 600)
        return st.lists(item, min_size=2, max_size=4).map(lambda xs: ",".join(map(str, xs)))
    return st.sampled_from(["float32", "float64", "", "x"])


_FIELD_LINES = st.one_of([
    st.tuples(st.just(f.name), _typed_values(f.default) | _VALUES)
    for f in dataclasses.fields(RunConfig)
] + [
    # edge values of the ranged fields whose parsed values are asserted below
    st.tuples(st.sampled_from(["val_fraction", "noise_std", "momentum", "beta2", "lr_decay"]),
              st.sampled_from(["0", "1", "-0.0", "1e-300", "0.999", "-1e-9", "nan", "-inf"])),
    st.tuples(st.sampled_from(["decay_every", "patience", "num_scenes", "min_block_points"]),
              st.sampled_from(["-3", "-1", "0", "1", "2"])),
]).map(lambda kv: f"{kv[0]} = {kv[1]}")
_JUNK_LINES = st.one_of(
    st.tuples(st.text(max_size=10), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.lists(_FIELD_LINES, max_size=6), st.lists(_JUNK_LINES, max_size=1),
       st.randoms(use_true_random=False))
def test_config_text_parses_or_raises_config_error(fields, junk, random):
    lines = fields + junk
    random.shuffle(lines)
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    assert_config_invariants(cfg)


def assert_config_invariants(cfg):
    assert isinstance(cfg, RunConfig)
    assert 0 < cfg.val_fraction < 1
    assert math.isfinite(cfg.noise_std) and cfg.noise_std >= 0
    assert 0 <= cfg.momentum < 1 and 0 <= cfg.beta2 < 1
    assert 0 < cfg.lr_decay <= 1
    assert cfg.decay_every >= 0 and cfg.patience >= 1 and cfg.num_scenes >= 1
    assert cfg.min_block_points >= 1
    assert math.isfinite(cfg.block_size) and math.isfinite(cfg.stride)
    assert math.isfinite(cfg.delta_v) and math.isfinite(cfg.delta_d)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
def test_config_field_at_an_edge_value_parses_or_raises_config_error(field):
    # one field moved from its default, every other field left valid, so a
    # single unchecked range cannot hide behind another field's error
    default = getattr(RunConfig(), field)
    for edge in ["0", "-1", "nan", "inf", "-inf", "1e300", "1000000000000"]:
        value = ",".join([edge] * len(default)) if isinstance(default, tuple) else edge
        try:
            cfg = parse_config_text(f"{field} = {value}")
        except ConfigError:
            continue
        assert_config_invariants(cfg)


def test_diverged_training_raises_and_writes_no_checkpoint(tmp_path):
    # the overflow that diverges training warns on the way
    with (pytest.warns(RuntimeWarning),
          pytest.raises(ConfigError, match="non-finite loss at iteration 2")):
        train(tiny_config(learning_rate=1e30), tmp_path / "run")
    assert not (tmp_path / "run" / "model.ckpt").exists()
    # an overflowing last step leaves a finite loss but non-finite parameters
    with (pytest.warns(RuntimeWarning),
          pytest.raises(ConfigError, match="parameter .* is non-finite after iteration 1")):
        train(tiny_config(learning_rate=1e39, iterations=1), tmp_path / "last")
    assert not (tmp_path / "last" / "model.ckpt").exists()


def test_cli_diverged_training_exits_with_config_error(tmp_path, capsys):
    with pytest.warns(RuntimeWarning):
        code = cli.main(["train", "--config", config_with(tmp_path, ["learning_rate = 1e30"]),
                         "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_CONFIG
    assert "iteration 2" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def undecodable(path, text=""):
    """Write ``text`` followed by a line of bytes that are not UTF-8."""
    path.write_bytes(text.encode() + b"\xff\xfe\x80\n")
    return str(path)


def test_cli_config_with_undecodable_bytes_is_a_config_error(tmp_path, capsys):
    bad = undecodable(tmp_path / "bad.cfg", "seed = 1\n")
    assert cli.main(["train", "--config", bad, "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_eval_result_with_undecodable_bytes_is_a_data_error(tmp_path, capsys):
    result, scene = write_result(tmp_path, [])
    undecodable(Path(result), "result v1 points=1\n")
    assert cli.main(["eval", "--result", result, "--scene", scene]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_cli_text_scene_with_undecodable_bytes_is_a_data_error(tmp_path, capsys, tiny_checkpoint):
    scene_path = tmp_path / "scene.txt"
    save_scene(str(scene_path), generate_scene(tiny_config().scene_spec(0)))
    undecodable(scene_path, scene_path.read_text())
    cfg_path = write_config(tmp_path / "c.cfg", tiny_config())
    result, _ = write_result(tmp_path, [])
    for argv in (["infer", "--config", cfg_path, "--checkpoint", tiny_checkpoint,
                  "--scene", str(scene_path), "--out", str(tmp_path / "pred")],
                 ["eval", "--result", result, "--scene", str(scene_path)]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_DATA, argv[0]
        assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("command,option", [
    ("infer", "--scene"), ("infer", "--checkpoint"), ("eval", "--scene"), ("eval", "--result"),
])
def test_cli_directory_in_place_of_a_file_is_a_data_error(tmp_path, capsys, tiny_checkpoint,
                                                          command, option):
    result, scene = write_result(tmp_path, [])
    args = {"infer": {"--config": write_config(tmp_path / "c.cfg", tiny_config()),
                      "--checkpoint": tiny_checkpoint, "--scene": scene,
                      "--out": str(tmp_path / "pred")},
            "eval": {"--result": result, "--scene": scene}}[command]
    args[option] = str(tmp_path)
    assert cli.main([command, *(v for kv in args.items() for v in kv)]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


def test_cli_data_error_exit_code(tmp_path):
    cfg_path = write_config(tmp_path / "c.cfg", tiny_config())
    code = cli.main(["eval", "--result", str(tmp_path / "missing.result"),
                     "--scene", str(tmp_path / "missing.scene")])
    assert code == cli.EXIT_DATA


@pytest.mark.parametrize("text,line", [
    ("result v1\n0 0\n", 1),
    ("result v1 points=x\n0 0\n", 1),
    ("result v1 points=-1\n", 1),
    ("result v12 points=0\n", 1),
    ("result v1 points=" + "9" * 5000 + "\n", 1),
    ("result v1 points=2\n0 0\n1\n", 3),
    ("result v1 points=2\n0 0\n1 0.5\n", 3),
    ("result v1 points=2\n0 0\n1_0 0\n", 3),
    ("result v1 points=2\n0 0\n\u0663 1\n", 3),
    ("result v1 points=\u0663\n0 0\n0 0\n0 0\n", 1),
], ids=["no_count", "count_not_a_number", "count_negative", "version_12", "count_of_5000_digits",
        "one_column_row", "non_integer_entry", "class_with_underscore",
        "class_in_arabic_indic_digits", "count_in_arabic_indic_digits"])
def test_cli_eval_rejects_malformed_result(tmp_path, capsys, text, line):
    scene_path = tmp_path / "scene.scene"
    save_scene(scene_path, generate_scene(tiny_config().scene_spec(0)))
    result_path = tmp_path / "bad.result"
    result_path.write_text(text)
    code = cli.main(["eval", "--result", str(result_path), "--scene", str(scene_path),
                     "--out", str(tmp_path / "report")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and f"line {line}: " in err
    assert not (tmp_path / "report").exists()


def write_result(tmp_path, classes):
    """A scene file and a full-length result file whose first classes are
    ``classes`` and the rest 0, all in instance 0."""
    scene_path = tmp_path / "scene.scene"
    scene = generate_scene(tiny_config().scene_spec(0))
    save_scene(scene_path, scene)
    rows = np.zeros(scene.num_points, dtype=np.int64)
    rows[:len(classes)] = classes
    result_path = tmp_path / "r.result"
    result_path.write_text(f"result v1 points={scene.num_points}\n"
                           + "".join(f"{c} 0\n" for c in rows))
    return str(result_path), str(scene_path)


def test_cli_eval_rejects_lines_after_the_declared_rows(tmp_path, capsys):
    result, scene = write_result(tmp_path, [])
    rows = Path(result).read_text()
    Path(result).write_text(rows + "\n")  # a blank line after the rows is harmless
    assert cli.main(["eval", "--result", result, "--scene", scene]) == 0
    n = len(rows.splitlines()) - 1
    Path(result).write_text(rows + "1 0\n1 0\ngarbage\n")
    capsys.readouterr()
    assert cli.main(["eval", "--result", result, "--scene", scene]) == cli.EXIT_DATA
    assert f"line {n + 2}: unexpected line after the {n} declared rows" in capsys.readouterr().err


def test_cli_eval_rejects_negative_class_naming_the_line(tmp_path, capsys):
    result, scene = write_result(tmp_path, [0, 1, -1])
    assert cli.main(["eval", "--result", result, "--scene", scene]) == cli.EXIT_DATA
    assert "line 4: class id must be >= 0" in capsys.readouterr().err


def test_cli_eval_prints_dash_for_class_absent_from_ground_truth(tmp_path, capsys):
    result, scene = write_result(tmp_path, [99])
    assert cli.main(["eval", "--result", result, "--scene", scene]) == 0
    out = capsys.readouterr().out
    assert "class 99: - - 0.0000" in out
    assert "nan" not in out


def test_cli_eval_scores_a_huge_class_id(tmp_path, capsys):
    result, scene = write_result(tmp_path, [2 ** 62] * 3)
    assert cli.main(["eval", "--result", result, "--scene", scene]) == 0
    assert f"class {2 ** 62}: - - 0.0000" in capsys.readouterr().out


# fault -> (set the bad value on a scene, the words that name it)
SCENE_FAULTS = {
    "nan_point": (lambda s: s.points.__setitem__((3, 2), np.nan), "non-finite point"),
    "inf_point": (lambda s: s.points.__setitem__((3, 0), np.inf), "non-finite point"),
    "zero_extent": (lambda s: s.room_extent.__setitem__(0, 0.0), "room extent"),
    "negative_label": (lambda s: s.semantic_labels.__setitem__(3, -2), "negative semantic label"),
}


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    run = tmp_path_factory.mktemp("tiny") / "run"
    return str(train(tiny_config(iterations=2), run).checkpoint_path)


@pytest.mark.parametrize("suffix", [".scene", ".txt"])
@pytest.mark.parametrize("fault", sorted(SCENE_FAULTS))
def test_cli_rejects_scene_values_on_load(tmp_path, capsys, tiny_checkpoint, fault, suffix):
    spoil, words = SCENE_FAULTS[fault]
    scene = generate_scene(tiny_config().scene_spec(0))
    spoil(scene)
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    scene_path = str(scenes / f"scene_000{suffix}")
    save_scene(scene_path, scene)
    cfg_path = write_config(tmp_path / "c.cfg", tiny_config(data_dir=str(scenes), iterations=2))
    result, _ = write_result(tmp_path, [])
    for argv in (["train", "--config", cfg_path, "--out", str(tmp_path / "run")],
                 ["infer", "--config", cfg_path, "--checkpoint", tiny_checkpoint,
                  "--scene", scene_path, "--out", str(tmp_path / "pred")],
                 ["eval", "--result", result, "--scene", scene_path]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_DATA, argv[0]
        assert words in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists() and not (tmp_path / "pred").exists()


# a .txt scene line -> (its line number, how to spoil its fields)
TEXT_FAULTS = {
    "non_numeric_field": (4, lambda f: f[:2] + ["x"] + f[3:]),
    "short_row": (4, lambda f: f[:7]),
    "fractional_label": (4, lambda f: f[:6] + ["0.7"] + f[7:]),
    "fractional_instance": (5, lambda f: f[:7] + ["1.5"]),
    "non_numeric_extent": (2, lambda f: f[:2] + ["x"] + f[3:]),
    "extent_misnamed_with_fourth_number": (2, lambda f: ["foo", "1", "1", "1", "9"]),
    "extent_with_fourth_number": (2, lambda f: f + ["9"]),
    "extent_misnamed": (2, lambda f: ["foo"] + f[1:]),
    "count_negative": (1, lambda f: f[:2] + ["points=-1"]),
    "version_7": (1, lambda f: [f[0], "v7", f[2]]),
    "count_of_5000_digits": (1, lambda f: f[:2] + ["points=" + "9" * 5000]),
    "underscore_in_coordinate": (4, lambda f: ["0_5"] + f[1:]),
    "label_in_arabic_indic_digits": (4, lambda f: f[:6] + ["\u0660"] + f[7:]),
    "underscore_in_extent": (2, lambda f: f[:1] + ["1_5"] + f[2:]),
}


@pytest.mark.parametrize("fault", sorted(TEXT_FAULTS))
def test_cli_rejects_bad_text_scene_naming_the_line(tmp_path, capsys, tiny_checkpoint, fault):
    line, spoil = TEXT_FAULTS[fault]
    scene_path = tmp_path / "scene.txt"
    save_scene(str(scene_path), generate_scene(tiny_config().scene_spec(0)))
    lines = scene_path.read_text().splitlines()
    lines[line - 1] = " ".join(spoil(lines[line - 1].split()))
    scene_path.write_text("\n".join(lines) + "\n")
    cfg_path = write_config(tmp_path / "c.cfg", tiny_config())
    result, _ = write_result(tmp_path, [])
    for argv in (["infer", "--config", cfg_path, "--checkpoint", tiny_checkpoint,
                  "--scene", str(scene_path), "--out", str(tmp_path / "pred")],
                 ["eval", "--result", result, "--scene", str(scene_path)]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_DATA, argv[0]
        assert f"line {line}: " in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


def test_cli_checkpoint_error_exit_code(tmp_path):
    scenes = tmp_path / "scenes"
    cfg = tiny_config(seed=6, data_dir=str(scenes), iterations=2)
    cfg_path = write_config(tmp_path / "c.cfg", cfg)
    cli.main(["gen-data", "--config", cfg_path, "--out", str(scenes)])
    cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])

    drifted = write_config(tmp_path / "d.cfg", dataclasses.replace(cfg, embedding_dim=9))
    code = cli.main(["infer", "--config", drifted, "--checkpoint",
                     str(tmp_path / "run" / "model.ckpt"),
                     "--scene", str(sorted(scenes.glob('*.scene'))[0]),
                     "--out", str(tmp_path / "pred")])
    assert code == cli.EXIT_CHECKPOINT


def test_cli_refuses_checkpoint_with_non_finite_parameter(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    cfg = tiny_config(seed=6, data_dir=str(scenes), iterations=2)
    cfg_path = write_config(tmp_path / "c.cfg", cfg)
    cli.main(["gen-data", "--config", cfg_path, "--out", str(scenes)])
    cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])

    ckpt = load_checkpoint(tmp_path / "run" / "model.ckpt")
    name = sorted(ckpt.parameters)[3]
    ckpt.parameters[name].flat[1] = np.nan
    diverged = tmp_path / "diverged.ckpt"
    save_checkpoint(diverged, ckpt.parameters, ckpt.optimizer_state, ckpt.iteration,
                    ckpt.optimizer_step, ckpt.config_digest, ckpt.model_digest)
    capsys.readouterr()
    code = cli.main(["infer", "--config", cfg_path, "--checkpoint", str(diverged),
                     "--scene", str(sorted(scenes.glob("*.scene"))[0]),
                     "--out", str(tmp_path / "pred")])
    assert code == cli.EXIT_CHECKPOINT
    assert repr(name) in capsys.readouterr().err


BENCH_MODEL = Path(__file__).resolve().parents[1] / "bench" / "model" / "c3_seed0.ckpt"


def test_cli_infer_refuses_a_checkpoint_whose_outputs_are_not_finite(tmp_path, capsys):
    # the committed benchmark model with its encoder head bias scaled by 1e37:
    # every parameter stays finite, so it loads, but every logit comes out NaN
    ckpt = load_checkpoint(BENCH_MODEL)
    ckpt.parameters["encoder.head.bias"] *= np.float32(1e37)
    assert all(np.isfinite(v).all() for v in ckpt.parameters.values())
    scaled = tmp_path / "scaled.ckpt"
    save_checkpoint(scaled, ckpt.parameters, ckpt.optimizer_state, ckpt.iteration,
                    ckpt.optimizer_step, ckpt.config_digest, ckpt.model_digest)
    cfg = RunConfig(seed=0)  # the committed model's configuration
    scene_path = tmp_path / "scene_000.scene"
    save_scene(scene_path, generate_scene(cfg.scene_spec(0)))
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["infer", "--config", write_config(tmp_path / "c.cfg", cfg),
                         "--checkpoint", str(scaled), "--scene", str(scene_path),
                         "--out", str(tmp_path / "pred")])
    assert code == cli.EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert "checkpoint error" in err and "logits are not finite" in err
    assert not (tmp_path / "pred").exists()


def array_entry(name, shape, data=b""):
    """The bytes of one float32 entry of a checkpoint's array map."""
    raw = name.encode()
    return (struct.pack("<I", len(raw)) + raw + struct.pack("<BB", 0, len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape) + data)


def committed_model_with(entry):
    """The committed model's checkpoint bytes with ``entry`` appended to its
    parameter map, and the byte at which the entry starts."""
    raw = BENCH_MODEL.read_bytes()
    at = 32  # magic (8 bytes), version and counters (20), the digest's length (4)
    for _ in range(2):  # past both digests and the array count
        at += struct.unpack_from("<I", raw, at - 4)[0] + 4
    (count,) = struct.unpack_from("<I", raw, at - 4)
    assert raw[-4:] == bytes(4)  # an empty optimizer map closes the file
    return (raw[:at - 4] + struct.pack("<I", count + 1) + raw[at:-4] + entry + raw[-4:],
            len(raw) - 4)


BIAS = "joint.sem_head2.bias"

# the entry appended to the committed model, made from its BIAS array -> the
# words that name the fault, given the byte at which the entry starts
ENTRY_FAULTS = {
    "repeated_name": (lambda bias: array_entry(BIAS, bias.shape, np.full_like(bias, 7.0).tobytes()),
                      lambda at: f"{BIAS!r} at byte {at} repeats an earlier entry"),
    "shape_2e32_by_2e32": (lambda bias: array_entry("huge", (2 ** 32, 2 ** 32)),
                           lambda at: f"bytes for data of 'huge' at byte {at + 26}"),
    "shape_3_by_2e62": (lambda bias: array_entry("huge", (3, 2 ** 62)),
                        lambda at: f"bytes for data of 'huge' at byte {at + 26}"),
    "empty_shape_too_big_for_numpy": (lambda bias: array_entry("huge", (0, 2 ** 63)),
                                      lambda at: f"data of 'huge' at byte {at + 26}: bad shape"),
}


@pytest.mark.parametrize("fault", sorted(ENTRY_FAULTS))
def test_cli_infer_refuses_a_malformed_checkpoint_entry(tmp_path, capsys, fault):
    make_entry, words = ENTRY_FAULTS[fault]
    raw, at = committed_model_with(make_entry(load_checkpoint(BENCH_MODEL).parameters[BIAS]))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw)
    cfg = RunConfig(seed=0)  # the committed model's configuration
    scene_path = tmp_path / "scene_000.scene"
    save_scene(scene_path, generate_scene(cfg.scene_spec(0)))
    code = cli.main(["infer", "--config", write_config(tmp_path / "c.cfg", cfg),
                     "--checkpoint", str(bad), "--scene", str(scene_path),
                     "--out", str(tmp_path / "pred")])
    assert code == cli.EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert "checkpoint error" in err and words(at) in err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("field", ["digest", "name"])
def test_cli_infer_refuses_a_checkpoint_with_undecodable_text(tmp_path, capsys, field):
    # the committed model with the first byte of its config digest, or of its
    # first parameter name, replaced by one that is not UTF-8
    raw = bytearray(BENCH_MODEL.read_bytes())
    at = 32  # magic (8 bytes), version and counters (20), the digest's length (4)
    if field == "name":  # past both digests, the array count and the name's length
        for _ in range(2):
            at += struct.unpack_from("<I", raw, at - 4)[0] + 4
        at += 4
    raw[at] = 0xff
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    cfg = RunConfig(seed=0)  # the committed model's configuration
    scene_path = tmp_path / "scene_000.scene"
    save_scene(scene_path, generate_scene(cfg.scene_spec(0)))
    code = cli.main(["infer", "--config", write_config(tmp_path / "c.cfg", cfg),
                     "--checkpoint", str(bad), "--scene", str(scene_path),
                     "--out", str(tmp_path / "pred")])
    assert code == cli.EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert "checkpoint error" in err and f"{field} at byte {at} is not UTF-8" in err
    assert not (tmp_path / "pred").exists()


# ---------------------------------------------------------------------------
# --out that cannot be a directory, and unannotated training scenes

@pytest.mark.parametrize("command", ["gen-data", "train", "infer", "eval", "grad-check"])
def test_cli_out_that_cannot_be_created_is_a_config_error_before_any_work(
        tmp_path, capsys, tiny_checkpoint, command):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    cfg_path = write_config(tmp_path / "c.cfg", tiny_config())
    result, scene = write_result(tmp_path, [])
    argv = {"gen-data": ["--config", cfg_path],
            "train": ["--config", cfg_path],
            "infer": ["--config", cfg_path, "--checkpoint", tiny_checkpoint, "--scene", scene],
            "eval": ["--result", result, "--scene", scene],
            "grad-check": []}[command]
    capsys.readouterr()
    assert cli.main([command, *argv, "--out", str(blocker)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran: no scene, report or segmentation printed
    assert "config error" in captured.err and f"--out {blocker}" in captured.err
    assert blocker.read_text() == "not a directory\n"


def test_cli_failed_command_removes_the_out_directories_it_made(tmp_path, capsys):
    out = tmp_path / "a" / "b"
    assert cli.main(["eval", "--result", str(tmp_path / "missing.result"),
                     "--scene", str(tmp_path / "missing.scene"), "--out", str(out)]) == cli.EXIT_DATA
    assert not (tmp_path / "a").exists()
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "keep").write_text("")
    assert cli.main(["grad-check", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists() and (tmp_path / "a" / "keep").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["gen-data", "train", "infer", "grad-check"])
def test_cli_config_that_cannot_be_read_is_a_config_error(tmp_path, capsys, command, kind):
    cfg_path = tmp_path / "run.cfg"
    if kind == "directory":
        cfg_path.mkdir()
    extra = {"infer": ["--checkpoint", str(tmp_path / "m.ckpt"),
                       "--scene", str(tmp_path / "s.scene")]}.get(command, [])
    out = tmp_path / "out" / "run"
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfg_path), *extra, "--out", str(out)]) \
        == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err and str(cfg_path) in captured.err
    assert not (tmp_path / "out").exists()


def test_cli_trains_on_scenes_without_annotated_instances(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    cfg = tiny_config(data_dir=str(scenes), iterations=3)
    for i in range(cfg.num_scenes):
        scene = generate_scene(cfg.scene_spec(i))
        scene.instance_ids[:] = -1
        save_scene(str(scenes / f"scene_{i:03d}.scene"), scene)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", write_config(tmp_path / "c.cfg", cfg),
                     "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    ckpt = load_checkpoint(run / "model.ckpt")
    assert all(np.isfinite(v).all() for v in ckpt.parameters.values())
    losses = [float(v) for v in (run / "loss_trace.txt").read_text().split()]
    assert len(losses) == 3 and all(math.isfinite(v) for v in losses)
