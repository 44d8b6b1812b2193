"""Tests of the benchmark itself: checks, failure counting, tracing, contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import LlmLayer, SweepGrid, Validators  # noqa: E402

wk = run.import_wushkit()


@pytest.fixture(scope="module")
def llm(tmp_path_factory):
    w = LlmLayer(wk, 0, tmp_path_factory.mktemp("llm"))
    w.setup()
    return w


def test_llm_layer_check_rejects_corrupted_losses(llm):
    out = llm.op()
    assert llm.check(out, out) == []
    assert llm.check({**out, "wush": out["h"] * 1.01}, out)  # wush not below h
    assert llm.check({**out, "h": float("nan")}, out)
    assert llm.check({**out, "h": out["h"] * (1 + 1e-12)}, out)  # not reproducible
    assert llm.check({k: v * 10 for k, v in out.items()}, {k: v * 10 for k, v in out.items()})


def test_corrupted_program_output_counts_as_failed_operation(llm, monkeypatch):
    real = wk.layer_loss

    def corrupted(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, layer_loss=report.layer_loss * 10.0)

    monkeypatch.setattr(wk, "layer_loss", corrupted)
    m = run.measure(llm, seconds=0.0)
    assert (m.attempted, m.failed) == (1, 1)

    def raising(*args, **kwargs):
        raise wk.NumericalError("injected")

    monkeypatch.setattr(wk, "layer_loss", raising)
    m = run.measure(llm, seconds=0.0)
    assert (m.attempted, m.failed) == (1, 1)
    assert "injected" in m.problems[0]


def test_sweep_grid_check_rejects_corrupted_csv(tmp_path):
    w = SweepGrid(wk, 0, tmp_path)
    w.setup()
    out = w.op()
    assert w.check(out, out) == []
    lines = out["csv"].decode().splitlines(keepends=True)
    flipped = bytearray(out["csv"])
    i = flipped.rindex(b",") - 1  # last digit of the last row's layer_loss
    flipped[i] = ord("1") if flipped[i] != ord("1") else ord("2")
    assert w.check({**out, "csv": bytes(flipped)}, out)
    short = "".join(lines[:-1]).encode()
    assert w.check({"code": 0, "csv": short}, {"code": 0, "csv": short})
    assert w.check({**out, "code": 1}, out)


def test_validators_check_rejects_failed_bound_and_exit_code(tmp_path):
    w = Validators(wk, 0, tmp_path)
    out = w.op()
    assert w.check(out, out) == []
    code, text = out["bounds"]
    bad = {**out, "bounds": (code, text.replace(",yes", ",NO", 1))}
    assert w.check(bad, out)
    assert w.check({**out, "validate fp": (1, out["validate fp"][1])}, out)


def test_tracer_patches_bound_copies_and_survives_missing_names(monkeypatch):
    targets = dict(tracer.TARGETS, linalg=tracer.TARGETS["linalg"] + ("no_such_function",))
    monkeypatch.setattr(tracer, "TARGETS", targets)
    orig = wk.linalg.sym_eigen
    rng = np.random.default_rng(0)
    w, x = rng.standard_normal((64, 8)), rng.standard_normal((64, 16))
    with tracer.Tracer() as tr:
        assert wk.transforms.sym_eigen is not orig
        assert wk.cli.sym_eigen is wk.transforms.sym_eigen
        wk.layer_loss(w, x, "wush", wk.int4_scheme())
        with pytest.raises(wk.NotPositiveDefinite):
            wk.cholesky(-np.eye(4))
    assert wk.transforms.sym_eigen is orig and wk.cli.sym_eigen is orig
    assert tr.missing == ["linalg.no_such_function"]
    assert tr.errors["linalg.cholesky"] == 1
    assert tr.calls["linalg.sym_eigen"] == 2
    assert tr.calls["quantformats.quantize_matrix.weight.nearest"] == 2
    assert tr.calls["quantformats.quantize_matrix.act.nearest"] == 2
    assert tr.self_s["pipeline.layer_loss"] > 0.0


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validators", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
