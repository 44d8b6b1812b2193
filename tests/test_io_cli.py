"""Tensor files, experiment configs, and the command-line front end."""

import dataclasses
import io
import json
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wushkit import cli, tensorio
from wushkit.config import (
    ExperimentConfig,
    format_float,
    load_config,
    parse_config,
    write_sweep_csv,
)
from wushkit.errors import (
    BadMagic,
    DimOverflow,
    InvalidCovariance,
    InvalidSpec,
    TruncatedPayload,
    UnsupportedVersion,
    ValidationError,
)
from wushkit.pipeline import SweepRow, SyntheticSpec
from wushkit.quantformats import nvfp4_scheme
from wushkit.transforms import Layer, build_layer_plan

# ---------------------------------------------------------------------------
# tensor container


def test_tensor_roundtrip_f64(tmp_path):
    m = np.random.default_rng(0).standard_normal((7, 5))
    p = tmp_path / "m.wten"
    tensorio.write_tensor(p, m)
    back = tensorio.read_tensor(p)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, m)


def test_tensor_roundtrip_f32_widens(tmp_path):
    m = np.random.default_rng(1).standard_normal((4, 9))
    p = tmp_path / "m.wten"
    tensorio.write_tensor(p, m, dtype="f32")
    back = tensorio.read_tensor(p)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, m.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4), (1, 1, 1, 2, 2)])
def test_tensor_other_ranks(tmp_path, shape):
    m = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    p = tmp_path / "t.wten"
    tensorio.write_tensor(p, m)
    np.testing.assert_array_equal(tensorio.read_tensor(p), m)


def test_tensor_fortran_order_normalized(tmp_path):
    m = np.asfortranarray(np.random.default_rng(2).standard_normal((5, 8)))
    p = tmp_path / "f.wten"
    tensorio.write_tensor(p, m)
    np.testing.assert_array_equal(tensorio.read_tensor(p), m)


def test_tensor_writes_deterministic(tmp_path):
    m = np.random.default_rng(3).standard_normal((3, 3))
    a, b = tmp_path / "a.wten", tmp_path / "b.wten"
    tensorio.write_tensor(a, m)
    tensorio.write_tensor(b, m)
    assert a.read_bytes() == b.read_bytes()


def test_tensor_write_validation(tmp_path):
    with pytest.raises(InvalidSpec):
        tensorio.write_tensor(tmp_path / "x.wten", np.ones((2, 2)), dtype="f16")
    with pytest.raises(DimOverflow):
        tensorio.write_tensor(tmp_path / "x.wten", np.zeros((1,) * 9))  # ndim > 8
    # a cast would drop the imaginary part or fail inside numpy
    for bad in (np.ones((2, 2)) * (1 + 2j), np.array(["1.0", "2.0"])):
        with pytest.raises(InvalidSpec, match="dtype"):
            tensorio.write_tensor(tmp_path / "bad.wten", bad)
        assert not (tmp_path / "bad.wten").exists()


def test_tensor_read_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="No such file"):
        tensorio.read_tensor(tmp_path / "nope.wten")


def _header(version=1, code=1, ndim=2, reserved=0, dims=(2, 2)):
    return (
        tensorio.MAGIC
        + struct.pack("<BBBB", version, code, ndim, reserved)
        + struct.pack(f"<{len(dims)}Q", *dims)
    )


def test_tensor_read_error_paths(tmp_path):
    p = tmp_path / "bad.wten"

    p.write_bytes(b"WT")
    with pytest.raises(TruncatedPayload, match="magic"):
        tensorio.read_tensor(p)

    p.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(BadMagic):
        tensorio.read_tensor(p)

    p.write_bytes(_header(version=2) + bytes(32))
    with pytest.raises(UnsupportedVersion, match="version 2"):
        tensorio.read_tensor(p)

    p.write_bytes(_header(code=7) + bytes(32))
    with pytest.raises(UnsupportedVersion, match="dtype code"):
        tensorio.read_tensor(p)

    p.write_bytes(_header(reserved=9) + bytes(32))
    with pytest.raises(BadMagic, match="reserved"):
        tensorio.read_tensor(p)

    p.write_bytes(tensorio.MAGIC + struct.pack("<BBBB", 1, 1, 9, 0) + bytes(80))
    with pytest.raises(DimOverflow):
        tensorio.read_tensor(p)

    p.write_bytes(_header(ndim=3, dims=(2, 2)))  # promises 3 dims, stores 2
    with pytest.raises(TruncatedPayload, match="dimension table"):
        tensorio.read_tensor(p)

    p.write_bytes(_header(dims=(1 << 20, 1 << 20)))
    with pytest.raises(DimOverflow, match="element cap"):
        tensorio.read_tensor(p)

    p.write_bytes(_header(dims=(2, 2)) + bytes(16))  # needs 32 payload bytes
    with pytest.raises(TruncatedPayload, match="payload"):
        tensorio.read_tensor(p)


# ---------------------------------------------------------------------------
# experiment configs


def _doc(**overrides):
    doc = {
        "data": {"synthetic": {"d_in": 64, "d_out": 8, "d_batch": 64}},
        "transforms": ["i", "wush"],
        "schemes": ["int4"],
        "seeds": [0, 1],
    }
    doc.update(overrides)
    return doc


def test_config_defaults_resolved():
    cfg = parse_config(_doc())
    resolved = cfg.resolved_dict()
    assert resolved["damp"] == 0.01
    assert resolved["rounding"] == "nearest"
    assert resolved["r_repeats"] == 1
    assert resolved["group_size"] is None
    assert resolved["output"] is None
    assert cfg.layer_label == "synthetic"
    (line,) = cfg.echo_lines()
    assert line.startswith("config: {")
    assert json.loads(line[len("config: "):]) == resolved
    # the synthetic defaults are echoed too, and the echo parses back to itself
    synth_fields = {f.name for f in dataclasses.fields(SyntheticSpec)} - {"seed"}
    assert set(resolved["data"]["synthetic"]) == synth_fields
    assert resolved["data"]["synthetic"]["spectrum_power"] == 1.0
    again = parse_config(json.loads(line[len("config: "):]))
    assert again.resolved_dict() == resolved


def test_config_unknown_keys_rejected_with_path():
    with pytest.raises(InvalidSpec, match="frobnicate: unknown key"):
        parse_config(_doc(frobnicate=1))
    with pytest.raises(InvalidSpec, match="data.synthetic.d_hidden"):
        parse_config(_doc(data={"synthetic": {"d_in": 4, "d_out": 4, "d_batch": 4, "d_hidden": 2}}))
    with pytest.raises(InvalidSpec, match="mc_samples: unknown key"):
        parse_config(_doc(mc_samples=10))


def test_config_synthetic_seed_rejected():
    bad = {"synthetic": {"d_in": 4, "d_out": 4, "d_batch": 4, "seed": 3}}
    with pytest.raises(InvalidSpec, match="seeds come from the top-level"):
        parse_config(_doc(data=bad))


def test_config_type_errors():
    for seeds in ([0, "one"], [0, -1]):
        with pytest.raises(InvalidSpec, match="seeds\\[1\\]"):
            parse_config(_doc(seeds=seeds))
    for damp in (True, -0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidSpec, match="damp"):
            parse_config(_doc(damp=damp))
    # only group_size and output may be null
    for key, value in (("damp", None), ("rounding", None), ("r_repeats", None),
                       ("group_size", 48)):
        with pytest.raises(InvalidSpec, match=key):
            parse_config(_doc(**{key: value}))
    with pytest.raises(InvalidSpec, match="transforms"):
        parse_config(_doc(transforms="wush"))
    with pytest.raises(InvalidSpec, match="unknown kind"):
        parse_config(_doc(transforms=["wushh"]))
    with pytest.raises(InvalidSpec):
        parse_config(_doc(schemes=["fp42"]))
    with pytest.raises(InvalidSpec, match="exactly one of"):
        parse_config(_doc(data={}))
    with pytest.raises(InvalidSpec, match="missing required key"):
        parse_config({k: v for k, v in _doc().items() if k != "seeds"})
    # the spectrum is checked against d_in = 64 here, not first in load_data
    bad = {"synthetic": {"d_in": 64, "d_out": 8, "d_batch": 64, "spectrum_values": [1.0, 2.0, 3.0]}}
    with pytest.raises(InvalidCovariance, match="data.synthetic.spectrum_values"):
        parse_config(_doc(data=bad))


def test_config_constructor_enforces_types():
    # built in Python, not parsed: the constructor alone holds the schema
    base = {k: tuple(v) if isinstance(v, list) else v for k, v in _doc().items()}
    synth = dict(base["data"]["synthetic"], d_in="32")
    for field, overrides in (
        ("damp", {"damp": "0.1"}),
        ("seeds", {"seeds": ("a",)}),
        ("d_in", {"data": {"synthetic": synth}}),
        ("r_repeats", {"r_repeats": 1.5}),
        ("activations", {"data": {"tensors": {"weights": "w.wten"}}}),
        ("seeds", {"seeds": (True,)}),
        ("damp", {"damp": True}),
    ):
        with pytest.raises(InvalidSpec, match=field):
            ExperimentConfig(**dict(base, **overrides))
    cfg = ExperimentConfig(**dict(base, transforms=["i"], damp=1))
    assert cfg.transforms == ("i",) and cfg.damp == 1.0 and type(cfg.damp) is float
    # numpy scalars are accepted, stored as int and float, and echo as JSON
    cfg = ExperimentConfig(**dict(base, seeds=(np.int64(3),), damp=np.float32(0.5),
                                  group_size=np.int64(16), r_repeats=np.int64(2)))
    assert (cfg.seeds, cfg.damp, cfg.group_size, cfg.r_repeats) == ((3,), 0.5, 16, 2)
    assert [type(v) for v in (cfg.seeds[0], cfg.damp, cfg.group_size, cfg.r_repeats)] == [
        int, float, int, int
    ]
    assert json.loads(cfg.echo_lines()[0][len("config: "):])["seeds"] == [3]


def test_config_overrides_flow_into_schemes():
    cfg = parse_config(_doc(group_size=16, rounding="stochastic"))
    (name, scheme), = cfg.resolved_schemes()
    assert name == "int4"
    assert scheme.group_size == 16
    assert scheme.rounding == "stochastic"
    # without overrides the preset survives untouched
    (_, default_scheme), = parse_config(_doc()).resolved_schemes()
    assert default_scheme.group_size == 32
    assert default_scheme.rounding == "nearest_even"


def test_config_synthetic_data_per_seed():
    cfg = parse_config(_doc())
    w0, x0 = cfg.load_data(0)
    w0b, _ = cfg.load_data(0)
    w1, _ = cfg.load_data(1)
    assert w0.shape == (64, 8) and x0.shape == (64, 64)
    np.testing.assert_array_equal(w0, w0b)
    assert not np.array_equal(w0, w1)


def test_config_tensor_data_cached_and_relative(tmp_path):
    w = np.random.default_rng(4).standard_normal((32, 4))
    x = np.random.default_rng(5).standard_normal((32, 16))
    (tmp_path / "data").mkdir()
    tensorio.write_tensor(tmp_path / "data" / "layer0_w.wten", w)
    tensorio.write_tensor(tmp_path / "data" / "layer0_x.wten", x)
    doc = _doc(
        data={
            "tensors": {
                "weights": "data/layer0_w.wten",
                "activations": "data/layer0_x.wten",
            }
        }
    )
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    cfg = load_config(cfg_path)
    assert cfg.layer_label == "layer0_w"
    got_w, got_x = cfg.load_data(0)
    np.testing.assert_array_equal(got_w, w)
    np.testing.assert_array_equal(got_x, x)
    # same objects on the second call: the pair is loaded once
    again = cfg.load_data(1)
    assert again[0] is got_w and again[1] is got_x


def test_load_config_error_messages(tmp_path):
    with pytest.raises(InvalidSpec, match="No such file"):
        load_config(tmp_path / "missing.json")
    p = tmp_path / "broken.json"
    p.write_text('{"data": }')
    with pytest.raises(InvalidSpec, match="line 1, column 10"):
        load_config(p)


def test_format_float_round_trips():
    values = [0.01, 1.0 / 3.0, 2.0 ** -52, 1e300, -3.5, 0.0]
    for v in values:
        assert float(format_float(v)) == v


def test_write_sweep_csv_layout():
    cfg = parse_config(_doc())
    rows = [
        SweepRow("synthetic", "i", "int4", 0, 0, 0.125, 0.25, None),
        SweepRow("synthetic", "i", "int4", 0, 1, 1.0 / 3.0, 0.25, 12.3456),
    ]
    buf = io.StringIO()
    write_sweep_csv(rows, cfg, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# wushkit sweep v")
    assert lines[1].startswith("# config: {")
    assert lines[2] == "layer,transform,format,seed,block,loss,layer_loss,elapsed_ms"
    assert lines[3] == "synthetic,i,int4,0,0,0.125,0.25,"
    assert lines[4] == "synthetic,i,int4,0,1,0.33333333333333331,0.25,12.346"


# ---------------------------------------------------------------------------
# command line


def _tensors(tmp_path, d_in=64, d_out=8, d_batch=64, seed=0):
    w_path = str(tmp_path / "w.wten")
    x_path = str(tmp_path / "x.wten")
    rc = cli.main(
        [
            "gen",
            "--d-in", str(d_in), "--d-out", str(d_out), "--d-batch", str(d_batch),
            "--seed", str(seed),
            "--weights", w_path, "--activations", x_path,
        ]
    )
    assert rc == 0
    return w_path, x_path


def test_cli_gen_writes_tensors(tmp_path, capsys):
    w_path, x_path = _tensors(tmp_path)
    out = capsys.readouterr().out
    assert "wrote weights 64x8" in out
    assert tensorio.read_tensor(w_path).shape == (64, 8)
    assert tensorio.read_tensor(x_path).shape == (64, 64)


def test_cli_loss_reports_cell(tmp_path, capsys):
    w_path, x_path = _tensors(tmp_path)
    rc = cli.main(
        ["loss", "--weights", w_path, "--activations", x_path,
         "--kind", "wush", "--scheme", "int4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(":", 1) for line in out.splitlines() if ":" in line
    )
    assert fields["transform"].strip() == "wush"
    assert float(fields["layer_loss"].strip()) > 0.0
    assert "block[1]" in fields  # 64 / 32 = 2 blocks


def test_cli_plan_persists_blocks(tmp_path, capsys):
    w_path, x_path = _tensors(tmp_path)
    out_dir = tmp_path / "plan"
    rc = cli.main(
        ["plan", "--weights", w_path, "--activations", x_path,
         "--kind", "wus", "--scheme", "nvfp4", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    t_act = tensorio.read_tensor(out_dir / "t_act.wten")
    t_weight = tensorio.read_tensor(out_dir / "t_weight.wten")
    w_hat = tensorio.read_tensor(out_dir / "w_hat.wten")
    assert t_act.shape == (4, 16, 16)  # 64 / 16 blocks
    assert t_weight.shape == (4, 16, 16)
    assert w_hat.shape == (4, 16, 8)
    meta = json.loads((out_dir / "plan.json").read_text())
    assert meta["kind"] == "wus" and meta["n_blocks"] == 4
    assert meta["group_size"] == 16 and meta["rounding"] == "nearest_even"
    # pairing survives the file round trip
    np.testing.assert_allclose(t_act[0] @ t_weight[0].T, np.eye(16), atol=1e-10)
    # every block, in order, bit-equal to the plan built in memory
    plan = build_layer_plan(
        Layer(tensorio.read_tensor(w_path), tensorio.read_tensor(x_path)), "wus", nvfp4_scheme()
    )
    np.testing.assert_array_equal(t_act, plan.t_act)
    np.testing.assert_array_equal(t_weight, plan.t_weight)
    np.testing.assert_array_equal(w_hat, plan.w_hat)


def _sweep_config(tmp_path, output="losses.csv"):
    doc = _doc(seeds=[0], output=output)
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(doc))
    return p


def test_cli_sweep_byte_identical_reruns(tmp_path, capsys):
    cfg_path = _sweep_config(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "losses.csv").read_bytes()
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "losses.csv").read_bytes() == first
    out = capsys.readouterr().out
    assert "wrote 4 rows" in out  # 2 transforms x 1 scheme x 1 seed x 2 blocks
    body = first.decode().splitlines()
    assert all(line.endswith(",") for line in body[3:])  # elapsed_ms empty


def test_cli_sweep_stdout_and_timings(tmp_path, capsys):
    cfg_path = _sweep_config(tmp_path, output=None)
    assert cli.main(["sweep", "--config", str(cfg_path), "--timings"]) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 4
    for line in data:
        elapsed = line.rsplit(",", 1)[1]
        assert float(elapsed) >= 0.0 and "." in elapsed


def test_cli_sweep_output_override(tmp_path, capsys):
    cfg_path = _sweep_config(tmp_path)
    target = tmp_path / "elsewhere.csv"
    assert cli.main(["sweep", "--config", str(cfg_path), "--output", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "losses.csv").exists()


@pytest.mark.parametrize("fmt", ["mxfp4", "nvfp4", "int4", "e2m1", "e4m3", "e8m0"])
def test_cli_grids(fmt, capsys):
    assert cli.main(["grids", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    if fmt == "int4":
        assert "clipping: 0.95" in out
        assert "bfloat16" in out
    if fmt == "e2m1":
        assert "8 magnitudes" in out


def test_cli_validate_fp_and_int(capsys):
    assert cli.main(["validate", "fp", "--d", "16", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "verdict:     ok" in out
    assert cli.main(["validate", "int", "--d", "16", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "verdict:       ok" in out
    assert "model:         IntAbsmax(4), midrise step absmax/8" in out


def test_cli_bounds_table(capsys):
    assert cli.main(["bounds", "--samples", "4000", "--max-log2-d", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family,d,correlated,empirical,se,bound,holds"
    assert len(lines) == 1 + 2 * 4 * 2
    assert all(line.endswith(",yes") for line in lines[1:])


def test_cli_usage_errors(tmp_path, capsys):
    assert cli.main([]) == 1
    assert "subcommand is required" in capsys.readouterr().err
    assert cli.main(["loss", "--weights", "w"]) == 1  # missing required args
    assert "error:" in capsys.readouterr().err
    assert cli.main(["loss", "--weights", "a", "--activations", "b",
                     "--kind", "bogus", "--scheme", "int4"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    # a negative dimension range is refused before any table is printed
    assert cli.main(["bounds", "--samples", "100", "--max-log2-d", "-1"]) == 1
    captured = capsys.readouterr()
    assert "--max-log2-d" in captured.err and "must be >= 0" in captured.err
    assert captured.out == ""
    # every --seed refuses a negative value as a usage error
    cell = ["--weights", "w", "--activations", "x", "--kind", "h", "--scheme", "int4"]
    for argv in (
        ["gen", "--d-in", "8", "--d-out", "4", "--d-batch", "8",
         "--weights", str(tmp_path / "w"), "--activations", str(tmp_path / "x")],
        ["plan", *cell, "--out-dir", str(tmp_path / "plan")],
        ["loss", *cell],
        ["validate", "fp"],
        ["bounds", "--samples", "100"],
    ):
        assert cli.main([*argv, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--seed" in captured.err and "must be >= 0" in captured.err
        assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_cli_validation_failure_exit_1(tmp_path, capsys):
    rc = cli.main(
        ["loss", "--weights", str(tmp_path / "nope.wten"),
         "--activations", str(tmp_path / "nope.wten"),
         "--kind", "i", "--scheme", "int4"]
    )
    assert rc == 1
    assert "No such file" in capsys.readouterr().err
    for spread in ("nan", "inf"):
        assert cli.main(["validate", "fp", "--d", "4", "--spread", spread]) == 1
        assert "spread must be finite" in capsys.readouterr().err
    w_path, x_path = _tensors(tmp_path)
    capsys.readouterr()
    for kind in ("h", "wush"):
        for damp in ("nan", "inf", "-1"):
            rc = cli.main(
                ["loss", "--weights", w_path, "--activations", x_path,
                 "--kind", kind, "--scheme", "int4", "--damp", damp]
            )
            assert rc == 1
            captured = capsys.readouterr()
            assert "damp" in captured.err and captured.out == ""
    for flag, value in (("--tail-dof", "inf"), ("--tail-dof", "nan"),
                        ("--outlier-magnitude", "nan"), ("--outlier-magnitude", "inf")):
        bad_w, bad_x = tmp_path / "bad_w.wten", tmp_path / "bad_x.wten"
        rc = cli.main(
            ["gen", "--d-in", "8", "--d-out", "4", "--d-batch", "8",
             "--outlier-count", "1", flag, value,
             "--weights", str(bad_w), "--activations", str(bad_x)]
        )
        assert rc == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not bad_w.exists() and not bad_x.exists()
    # output paths that cannot be written: exit 1 with a message, no traceback
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(_doc(seeds=[0])))
    capsys.readouterr()
    for argv in (
        ["gen", "--d-in", "8", "--d-out", "4", "--d-batch", "8",
         "--weights", str(tmp_path / "no_dir" / "w.wten"),
         "--activations", str(tmp_path / "x2.wten")],
        ["plan", "--weights", w_path, "--activations", x_path, "--kind", "h",
         "--scheme", "int4", "--out-dir", str(a_file / "plan")],
        ["sweep", "--config", str(cfg_path), "--output", str(tmp_path / "no_dir" / "o.csv")],
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_numerical_failure_exit_2(tmp_path, capsys):
    # zero weights with no damping: the weight moment has no Cholesky factor
    w_path = str(tmp_path / "w0.wten")
    x_path = str(tmp_path / "x0.wten")
    tensorio.write_tensor(w_path, np.zeros((32, 4)))
    tensorio.write_tensor(x_path, np.random.default_rng(0).standard_normal((32, 8)))
    rc = cli.main(
        ["loss", "--weights", w_path, "--activations", x_path,
         "--kind", "wus", "--scheme", "int4", "--damp", "0"]
    )
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["h", "wush"])
def test_cli_loss_overflow_exit_2(tmp_path, capsys, kind):
    w_path = str(tmp_path / "w.wten")
    x_path = str(tmp_path / "x.wten")
    rng = np.random.default_rng(0)
    tensorio.write_tensor(w_path, 1e100 * rng.standard_normal((32, 4)))
    tensorio.write_tensor(x_path, 1e100 * rng.standard_normal((32, 8)))
    rc = cli.main(
        ["loss", "--weights", w_path, "--activations", x_path, "--kind", kind, "--scheme", "int4"]
    )
    assert rc == 2
    assert "overflows float64" in capsys.readouterr().err


def test_cli_version():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_stdout_closed_early_exits_1_without_traceback(unbuffered):
    # the read end is closed before the program starts, so whichever write
    # reaches the pipe first (a print, or the final flush) fails
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wushkit.cli", "bounds", "--samples", "200",
             "--max-log2-d", "1"],
            stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_fd)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr


def _readme_examples():
    """``(argv, expected lines, open-ended)`` for each ``$ wushkit`` block of
    the README, in order; a ``...`` line ends what a block pins down."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in text.split("```")[1::2]:
        lines = block.strip("\n").splitlines()
        if not lines or not lines[0].startswith("$ wushkit "):
            continue
        command = lines[0][2:]
        i = 1
        while command.endswith("\\"):
            command = command[:-1] + lines[i]
            i += 1
        shown = lines[i:]
        open_ended = "..." in shown
        if open_ended:
            shown = shown[: shown.index("...")]
        examples.append((shlex.split(command)[1:], shown, open_ended))
    return examples


def test_readme_cli_examples_match_real_output(tmp_path, monkeypatch, capsys):
    examples = _readme_examples()
    assert [argv[0] for argv in (e[0] for e in examples)] == [
        "gen", "loss", "plan", "validate", "bounds", "grids"
    ]
    monkeypatch.chdir(tmp_path)  # gen writes the files the later examples read
    for argv, shown, open_ended in examples:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        got = out[: len(shown)] if open_ended else out
        assert got == shown, " ".join(argv)
