"""Tensor files, experiment configs, and the command-line front end."""

import dataclasses
import io
import json
import os
import shlex
import struct
import subprocess
import sys
import tracemalloc
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
from wushkit.transforms import Layer, PlanSpec, build_layer_plan

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

    # a zero dimension must not hide an oversized one: numpy sizes an empty
    # array by its other dims, so these shapes are refused on both sides
    for dims in ((0, 1 << 62), (0, 1 << 32, 1 << 32), (0, 1 << 20, 1 << 20)):
        p.write_bytes(_header(ndim=len(dims), dims=dims))
        with pytest.raises(DimOverflow, match="element cap"):
            tensorio.read_tensor(p)
    with pytest.raises(DimOverflow, match="element cap"):
        tensorio.write_tensor(p, np.zeros((0, 1 << 20, 1 << 20)))


def test_read_tensor_fuzz_raises_only_validation_errors(tmp_path):
    # every truncation and every single-bit flip of small f32 and f64 files;
    # arange data puts a zero in the payload, which a flipped ndim reads as a dim
    p = tmp_path / "fuzz.wten"
    cases = 0
    for shape in ((5,), (2, 3), (1, 2, 2)):
        for dtype in ("f32", "f64"):
            tensorio.write_tensor(p, np.arange(np.prod(shape), dtype=float).reshape(shape), dtype)
            good = p.read_bytes()
            variants = [good[:n] for n in range(len(good))]
            for bit in range(8 * len(good)):
                flipped = bytearray(good)
                flipped[bit // 8] ^= 1 << (bit % 8)
                variants.append(bytes(flipped))
            for raw in variants:
                p.write_bytes(raw)
                try:
                    tensorio.read_tensor(p)
                except ValidationError:
                    pass
                cases += 1
    assert cases == 2916


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
    for key in ("transforms", "schemes", "seeds"):
        with pytest.raises(InvalidSpec, match=f"{key}: list is empty"):
            parse_config(_doc(**{key: []}))
    with pytest.raises(InvalidSpec, match="transforms: unknown transform kind"):
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
    assert default_scheme.rounding == "nearest"


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


def test_load_config_fuzz_raises_only_validation_errors(tmp_path):
    # every truncation and every single-bit flip of a config with every key
    doc = _doc(transforms=["i", "r", "h", "wus", "wush"], schemes=["int4", "mxfp4", "nvfp4"],
               damp=0.01, group_size=16, rounding="stochastic", r_repeats=2, output="o.csv")
    doc["data"]["synthetic"].update(spectrum_power=1.0, tail="gaussian", outlier_count=1)
    good = json.dumps(doc).encode()
    variants = [good[:n] for n in range(len(good))]
    for bit in range(8 * len(good)):
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        variants.append(bytes(flipped))
    p = tmp_path / "fuzz.json"
    parsed = 0
    for raw in variants:
        p.write_bytes(raw)
        try:
            cfg = load_config(p)
        except ValidationError:
            continue
        assert cfg.rounding in ("nearest", "stochastic")  # a flipped word is refused
        parsed += 1
    assert len(variants) == 9 * len(good) and 0 < parsed < len(variants)


def test_integer_past_the_float_range_is_refused(tmp_path, capsys):
    # a JSON integer such as 1e400 written out in digits: float() overflows
    huge = 10 ** 400
    synth = {"d_in": 64, "d_out": 8, "d_batch": 64, "tail_dof": huge}
    cfg_path = tmp_path / "exp.json"
    for field, doc in (("damp", _doc(damp=huge)),
                       ("data.synthetic.tail_dof", _doc(data={"synthetic": synth}))):
        with pytest.raises(InvalidSpec, match=f"{field}: expected a number, got an integer past"):
            parse_config(doc)
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}: ") and captured.out == ""


def test_synthetic_sizes_past_the_wten_cap_are_refused(tmp_path, capsys):
    # refused before anything is allocated: W would hold 1e20 x 8 elements
    synth = {"d_in": 10 ** 20, "d_out": 8, "d_batch": 64}
    with pytest.raises(InvalidSpec, match="data.synthetic.d_in, d_out, d_batch: .* WTEN cap"):
        parse_config(_doc(data={"synthetic": synth}))
    with pytest.raises(InvalidSpec, match="WTEN cap"):
        SyntheticSpec(d_in=1 << 16, d_out=1, d_batch=(1 << 16) + 1)
    w, x = tmp_path / "w.wten", tmp_path / "x.wten"
    rc = cli.main(["gen", "--d-in", "100000000000000000000", "--d-out", "8", "--d-batch", "64",
                   "--weights", str(w), "--activations", str(x)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: d_in, d_out, d_batch: ") and captured.out == ""
    assert not w.exists() and not x.exists()


def test_synthetic_rotations_past_the_cap_are_refused_before_allocating(tmp_path, capsys):
    # gen_synthetic draws two d_in x d_in rotations whatever d_out and
    # d_batch are: at d_in = 65536 they would take 64 GiB
    SyntheticSpec(d_in=46340, d_out=1, d_batch=1)  # 2 * 46340**2 is within the cap
    for d_in in (46341, 1 << 16):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSpec, match="^d_in: two d_in x d_in rotations"):
                SyntheticSpec(d_in=d_in, d_out=1, d_batch=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    synth = {"d_in": 1 << 16, "d_out": 1, "d_batch": 1}
    with pytest.raises(InvalidSpec, match="^data.synthetic.d_in: two d_in x d_in rotations"):
        parse_config(_doc(data={"synthetic": synth}))
    w, x = tmp_path / "w.wten", tmp_path / "x.wten"
    rc = cli.main(["gen", "--d-in", "65536", "--d-out", "1", "--d-batch", "1",
                   "--weights", str(w), "--activations", str(x)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: d_in: two d_in x d_in") and captured.out == ""
    assert not w.exists() and not x.exists()


def test_load_config_error_messages(tmp_path):
    with pytest.raises(InvalidSpec, match="No such file"):
        load_config(tmp_path / "missing.json")
    p = tmp_path / "broken.json"
    p.write_text('{"data": }')
    with pytest.raises(InvalidSpec, match="line 1, column 10"):
        load_config(p)
    # an integer past Python's 4300-digit parsing limit, and bytes that are not text
    p.write_text('{"seeds": [' + "9" * 5000 + "]}")
    with pytest.raises(InvalidSpec, match="Exceeds the limit"):
        load_config(p)
    p.write_bytes(b'\xff\xfe{"data": {}}')
    with pytest.raises(InvalidSpec, match="can't decode"):
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
    assert [(k, v.strip()) for k, v in list(fields.items())[:6]] == [
        ("kind", "wush"), ("scheme", "int4"), ("group_size", "32"),
        ("rounding", "nearest"), ("damp", "0.01"), ("seed", "0"),
    ]
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
    assert meta["group_size"] == 16 and meta["rounding"] == "nearest"
    # pairing survives the file round trip
    np.testing.assert_allclose(t_act[0] @ t_weight[0].T, np.eye(16), atol=1e-10)
    # every block, in order, bit-equal to the plan built in memory
    plan = build_layer_plan(
        Layer(tensorio.read_tensor(w_path), tensorio.read_tensor(x_path)), PlanSpec("wus", nvfp4_scheme())
    )
    np.testing.assert_array_equal(t_act, plan.t_act)
    np.testing.assert_array_equal(t_weight, plan.t_weight)
    np.testing.assert_array_equal(w_hat, plan.w_hat)


def test_cli_writes_every_spec_field(tmp_path, capsys):
    # a non-default value in every cell setting the flags carry
    w_path, x_path = _tensors(tmp_path)
    capsys.readouterr()
    cell = ["--weights", w_path, "--activations", x_path, "--kind", "wus", "--scheme", "int4",
            "--damp", "0.3", "--seed", "5", "--group-size", "16", "--rounding", "stochastic"]
    assert cli.main(["loss", *cell]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == [
        "kind:           wus",
        "scheme:         int4",
        "group_size:     16",
        "rounding:       stochastic",
        "damp:           0.29999999999999999",
        "seed:           5",
    ]
    assert [line.split(":")[0] for line in lines[6:]] == [
        "layer_loss", "layer_loss_raw", "additivity_gap", *(f"block[{i}]" for i in range(4))
    ]
    assert cli.main(["plan", *cell, "--out-dir", str(tmp_path / "plan")]) == 0
    assert (tmp_path / "plan" / "plan.json").read_text() == (
        '{"d_in": 64, "d_out": 8, "damp": 0.3, "group_size": 16, "kind": "wus", '
        '"n_blocks": 4, "rounding": "stochastic", "scheme": "int4", "seed": 5}\n'
    )


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


@pytest.mark.parametrize("fmt", ["mxfp4", "nvfp4", "int4", "e2m1", "e4m3", "e8m0", "bf16"])
def test_cli_grids(fmt, capsys):
    assert cli.main(["grids", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    if fmt == "int4":
        assert "clipping: 0.95" in out
        # bf16's least positive (subnormal) and largest finite magnitudes
        assert "scale [bf16]: 32640 magnitudes in [9.1835496157991212e-41, 3.3895313892515355e+38]" in out
    if fmt == "e2m1":
        assert "8 magnitudes" in out
    if fmt == "bf16":  # 2**15 codes less IEEE's inf/NaN binade
        assert "bf16 (32640 magnitudes)" in out


def test_cli_validate_fp_and_int(capsys):
    from wushkit.linalg import sym_eigen
    from wushkit.noise import random_spd_moment
    from wushkit.stats_bounds import gaussian_max_bound

    assert cli.main(["validate", "fp", "--d", "16", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "verdict:     ok" in out
    for d in (16, 4):
        assert cli.main(["validate", "int", "--d", str(d), "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "verdict:       ok" in out
        assert "model:         IntAbsmax(4), midrise step absmax/8" in out
        fields = {k: v.strip() for k, v in (line.split(":", 1) for line in out.splitlines())}
        # refined_upper is the Gaussian max-square bound over d times (sum s)^2
        s_sum = float(np.sqrt(sym_eigen(random_spd_moment(d, 0)[0]).eigenvalues).sum())
        assert fields["refined_upper"] == format_float(gaussian_max_bound(d) / d * s_sum ** 2)
        if d == 4:
            # below d = 8 the bound's cap min(d, ...) makes it the chain's
            # upper bound (sum s)^2, which int_bounds sums differently
            assert fields["refined_upper"] == format_float(s_sum ** 2)
            refined, upper = float(fields["refined_upper"]), float(fields["upper_bound"])
            assert abs(refined - upper) <= 4 * np.finfo(float).eps * upper


def test_cli_validate_fp_band_widens_with_the_standard_error(capsys, monkeypatch):
    # at 2000 samples seed 0 reads 2.3 mc_se below 1, outside [0.97, 1.05]
    # but within 3 mc_se/lower_bound of it
    assert cli.main(["validate", "fp", "--d", "16", "--samples", "2000", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "ratio:       0.96740485354006001" in out
    assert "verdict:     ok (want ratio in [0.97, 1.05] or within 3 mc_se/lower_bound of 1)" in out
    # a transform that is not the FP optimum still fails at either sample count
    build_block = cli.build_block
    for kind in ("h", "wus"):
        monkeypatch.setattr(cli, "build_block", lambda _, *a, k=kind: build_block(k, *a))
        for samples in ("2000", "20000"):
            assert cli.main(["validate", "fp", "--d", "16", "--samples", samples]) == 1
            assert "verdict:     FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("spread", ["10", "12", "15", "20"])
@pytest.mark.parametrize("which", ["fp", "int"])
def test_cli_validate_refuses_a_moment_that_is_not_positive_definite(which, spread, capsys,
                                                                      monkeypatch):
    # past spread 10 the log-normal spectrum spans more than float64 holds:
    # eigh returns a negative eigenvalue (10, 15, 20) or Cholesky fails (12).
    # Either is a typed numerical failure, raised before any Monte Carlo draw
    # and without a warning (the suite turns RuntimeWarning into an error).
    if spread != "12":  # refused before the Monte Carlo call
        monkeypatch.setattr(cli, "one_sided_loss_mc", None)
    assert cli.main(["validate", which, "--d", "32", "--spread", spread]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:")
    assert "not positive definite" in captured.err
    assert f"the random moment at --spread {spread} is not positive definite" in captured.err


def test_cli_bounds_table(capsys):
    assert cli.main(["bounds", "--samples", "4000", "--max-log2-d", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family,d,correlated,empirical,se,bound,holds"
    assert len(lines) == 1 + 2 * 4 * 2
    assert all(line.endswith(",yes") for line in lines[1:])


def test_cli_bounds_refuses_samples_before_the_header(capsys):
    assert cli.main(["bounds", "--samples", "1", "--max-log2-d", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_samples: expected an integer >= 2, got 1" in captured.err


def test_cli_bounds_refuses_dimensions_past_2_53_before_drawing(capsys):
    # 2**53 is the last dimension float64 holds exactly; a larger range is
    # refused before the header, any draw or any 2**k is made
    for value in ("54", "1000000000"):
        tracemalloc.start()
        try:
            rc = cli.main(["bounds", "--samples", "100", "--max-log2-d", value])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert f"--max-log2-d {value}: dimension 2**{value} exceeds 2**53" in captured.err
        assert peak < 1 << 20
    assert cli.main(["bounds", "--samples", "2", "--max-log2-d", "53"]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 2 * 54 * 2 and lines[-1].startswith(f"laplacian,{2 ** 53},1,")


def test_cli_bounds_default_table_peaks_under_the_chunk_cap(capsys):
    # every dimension of a (family, cov) pair shares one draw, in groups
    # that hold at most about _CHUNK_SCALARS float64 values at a time
    from wushkit import stats_bounds as sb

    assert cli.main(["bounds", "--samples", "10", "--max-log2-d", "1"]) == 0  # warm up
    tracemalloc.start()
    try:
        assert cli.main(["bounds"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 8 * sb._CHUNK_SCALARS + (1 << 20)


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
    rng = np.random.default_rng(0)
    x_dead = rng.standard_normal((64, 8))
    x_dead[32:] = 0.0
    for kind, w, x, why in (
        # zero weights with no damping: the weight moment has no Cholesky factor
        ("wus", np.zeros((32, 4)), rng.standard_normal((32, 8)), "not positive definite"),
        # a block of zero activations with no damping: nothing to whiten
        ("wush", rng.standard_normal((64, 64)), x_dead, "no positive eigenvalue"),
    ):
        w_path = str(tmp_path / "w0.wten")
        x_path = str(tmp_path / "x0.wten")
        tensorio.write_tensor(w_path, w)
        tensorio.write_tensor(x_path, x)
        rc = cli.main(
            ["loss", "--weights", w_path, "--activations", x_path,
             "--kind", kind, "--scheme", "int4", "--damp", "0"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and why in err


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


def test_cli_loss_transformed_activation_overflow_exit_2(tmp_path, capsys):
    # finite activations near the float64 limit that the Hadamard carries past it
    w_path, x_path = str(tmp_path / "w.wten"), str(tmp_path / "x.wten")
    tensorio.write_tensor(w_path, np.random.default_rng(0).standard_normal((32, 4)))
    tensorio.write_tensor(x_path, np.full((32, 8), 1e308))
    rc = cli.main(
        ["loss", "--weights", w_path, "--activations", x_path, "--kind", "h", "--scheme", "int4"]
    )
    assert rc == 2
    assert "transformed activations overflow float64" in capsys.readouterr().err


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


def _readme_blocks():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("```")[1::2]


def _readme_examples():
    """``(argv, expected lines, open-ended)`` for each ``$ wushkit`` block of
    the README, in order; a ``...`` line ends what a block pins down."""
    examples = []
    for block in _readme_blocks():
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
        "gen", "loss", "plan", "validate", "bounds", "grids", "grids"
    ]
    monkeypatch.chdir(tmp_path)  # gen writes the files the later examples read
    for argv, shown, open_ended in examples:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        got = out[: len(shown)] if open_ended else out
        assert got == shown, " ".join(argv)


def test_readme_python_quick_start(capsys):
    (code,) = [b[len("python\n"):] for b in _readme_blocks() if b.startswith("python\n")]
    exec(compile(code, "README.md", "exec"), {})
    losses = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert list(losses) == ["i", "h", "wush"]
    # the prose's promise: wush comes out well below i on this data
    assert float(losses["wush"]) < 0.75 * float(losses["i"]), losses
