"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one closed-
loop operation per ``op`` call and checks an operation's output in
``check``, which returns a list of problems (empty when the output is
correct).  ``dense`` runs the one dense product the workload's roofline
ratio is measured against.

Sizes are scaled down from a full transformer layer so that one operation of
the program as first benchmarked takes about a second and a 30-second run
collects a few dozen operations.  Each workload keeps the shape property
that decides which layers carry its cost:

* ``llm-layer`` keeps the full 4096 x 2048 output of a transformer layer, so
  the block loop of ``layer_loss`` still streams d_out x d_batch float64
  temporaries far beyond the caches, and every block still pays one d=32
  eigensolve under ``wush``; only ``d_in`` (the number of blocks) shrinks.
* ``sweep-grid`` keeps the full grid of every kind and every format with
  stochastic rounding and four rotation repeats on one data seed, with
  ``d_out + d_batch`` large enough that stochastic weight and activation
  rounding outweighs the eigensolves, as it does at full size.
* ``validators`` keeps the full ``bounds`` table (d = 1 ... 1024, both
  families and covariance structures) with fewer Monte Carlo samples, and
  the two ``validate`` commands at d = 32.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np


def _run_cli(wk, argv):
    """Run ``wushkit.cli.main`` in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wk.cli.main(argv)
    return code, out.getvalue()


def _timed_dense(a, b) -> float:
    """Seconds per ``a.T @ b``, repeated until at least 5 ms have passed."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        a.T @ b
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= 5e-3:
            return elapsed / reps


class LlmLayer:
    """``read_tensor`` x2, then int4 ``layer_loss`` under ``h`` and ``wush``."""

    name = "llm-layer"
    d_in, d_out, d_batch = 64, 4096, 2048
    kinds = ("h", "wush")
    loss_cells = len(kinds)
    outlier_channels = 2
    #: Accepted range of the normalized loss ``layer_loss / mean((W^T X)^2)``
    #: per kind: half the smallest to twice the largest value seen over seeds
    #: 0-39 of this generator when the benchmark was added (h 0.0062-0.0193,
    #: wush 0.0027-0.0095).  It catches a loss that is grossly wrong while
    #: leaving room for quantizer fixes that move it.
    reference_nmse = {"h": (0.003, 0.04), "wush": (0.0013, 0.02)}

    def __init__(self, wk, seed: int, workdir: Path):
        self.wk = wk
        self.seed = seed
        self.w_path = workdir / "weights.wten"
        self.x_path = workdir / "activations.wten"
        self.scheme = wk.int4_scheme()
        self._dense_inputs = None
        self._signal = None

    def generate(self):
        """Anisotropic Student-t(4) data with a few x10 outlier channels."""
        rng = np.random.default_rng(self.seed)

        def channels(n_cols, decay):
            scale = rng.permutation((np.arange(self.d_in) + 1.0) ** -decay)
            z = rng.standard_t(4.0, (self.d_in, n_cols)) / math.sqrt(2.0)
            return scale[:, None] * z

        w = channels(self.d_out, 0.25)
        x = channels(self.d_batch, 0.5)
        x[rng.choice(self.d_in, self.outlier_channels, replace=False)] *= 10.0
        return w, x

    def setup(self) -> None:
        w, x = self.generate()
        self.wk.write_tensor(self.w_path, w, dtype="f32")
        self.wk.write_tensor(self.x_path, x, dtype="f32")

    def op(self):
        w = self.wk.read_tensor(self.w_path)
        x = self.wk.read_tensor(self.x_path)
        return {k: self.wk.layer_loss(w, x, k, self.scheme).layer_loss for k in self.kinds}

    def dense(self) -> float:
        if self._dense_inputs is None:
            w = self.wk.read_tensor(self.w_path)
            x = self.wk.read_tensor(self.x_path)
            self._dense_inputs = (w, x)
            self._signal = float(np.mean((w.T @ x) ** 2))
        return _timed_dense(*self._dense_inputs)

    def check(self, out, first) -> list:
        problems = []
        for k in self.kinds:
            loss = out.get(k)
            if not (isinstance(loss, float) and math.isfinite(loss)):
                problems.append(f"{k} loss is not a finite float: {loss!r}")
                continue
            if loss != first.get(k):
                problems.append(f"{k} loss {loss!r} differs from the first operation's {first.get(k)!r}")
            if self._signal is None:
                self.dense()
            nmse = loss / self._signal
            lo, hi = self.reference_nmse[k]
            if not lo <= nmse <= hi:
                problems.append(f"{k} normalized loss {nmse:.4g} outside [{lo:.4g}, {hi:.4g}]")
        if not problems and not out["wush"] < out["h"]:
            problems.append(f"wush loss {out['wush']!r} is not below h loss {out['h']!r}")
        return problems


class SweepGrid:
    """``wushkit sweep`` through ``cli.main`` on a synthetic stochastic grid."""

    name = "sweep-grid"
    d_in, d_out, d_batch = 32, 128, 512
    kinds = ("i", "r", "h", "wus", "wush")
    schemes = ("int4", "mxfp4", "nvfp4")
    group_sizes = {"int4": 32, "mxfp4": 32, "nvfp4": 16}
    n_seeds = 1
    r_repeats = 4

    def __init__(self, wk, seed: int, workdir: Path):
        self.wk = wk
        self.seed = seed
        self.config_path = workdir / "sweep.json"
        self.csv_path = workdir / "sweep.csv"
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(self.n_seeds) >> 1]
        self.loss_cells = len(self.kinds) * len(self.schemes) * len(self.seeds)
        self.expected_rows = len(self.kinds) * len(self.seeds) * sum(
            self.d_in // self.group_sizes[s] for s in self.schemes
        )

    def setup(self) -> None:
        doc = {
            "data": {
                "synthetic": {
                    "d_in": self.d_in,
                    "d_out": self.d_out,
                    "d_batch": self.d_batch,
                    "tail": "student_t",
                    "tail_dof": 4.0,
                    "outlier_count": 2,
                    "outlier_magnitude": 10.0,
                }
            },
            "transforms": list(self.kinds),
            "schemes": list(self.schemes),
            "seeds": self.seeds,
            "r_repeats": self.r_repeats,
            "rounding": "stochastic",
            "output": self.csv_path.name,
        }
        self.config_path.write_text(json.dumps(doc, indent=2) + "\n")

    def op(self):
        self.csv_path.unlink(missing_ok=True)
        code, _ = _run_cli(self.wk, ["sweep", "--config", str(self.config_path)])
        data = self.csv_path.read_bytes() if self.csv_path.exists() else b""
        return {"code": code, "csv": data}

    def dense(self) -> float:
        rng = np.random.default_rng(self.seed)
        return _timed_dense(
            rng.standard_normal((self.d_in, self.d_out)),
            rng.standard_normal((self.d_in, self.d_batch)),
        )

    def check(self, out, first) -> list:
        if out["code"] != 0:
            return [f"sweep exited with {out['code']}"]
        problems = []
        if out["csv"] != first["csv"]:
            problems.append("CSV differs from the first operation's bytes")
        text = out["csv"].decode("utf-8", "replace")
        rows = list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))
        if len(rows) != self.expected_rows:
            problems.append(f"{len(rows)} CSV rows, expected {self.expected_rows}")
        loss = {}
        for r in rows:
            try:
                loss[(r["transform"], r["format"], r["seed"])] = float(r["layer_loss"])
            except (KeyError, TypeError, ValueError):
                problems.append(f"malformed CSV row {r!r}")
                return problems
        for fmt in self.schemes:
            for seed in self.seeds:
                h, wush = loss.get(("h", fmt, str(seed))), loss.get(("wush", fmt, str(seed)))
                if h is None or wush is None or not (math.isfinite(wush) and wush < h):
                    problems.append(f"{fmt} seed {seed}: wush loss {wush!r} is not below h loss {h!r}")
        return problems


class Validators:
    """``wushkit bounds``, ``validate fp`` and ``validate int`` in-process."""

    name = "validators"
    bounds_samples = 2000
    max_log2_d = 10
    validate_d = 32
    validate_samples = 20000
    loss_cells = 1

    def __init__(self, wk, seed: int, workdir: Path):
        self.wk = wk
        self.seed = seed
        self.expected_rows = 2 * 2 * (self.max_log2_d + 1)

    def setup(self) -> None:
        pass

    def commands(self):
        s = str(self.seed)
        v = ["--d", str(self.validate_d), "--samples", str(self.validate_samples), "--seed", s]
        return {
            "bounds": ["bounds", "--samples", str(self.bounds_samples), "--seed", s,
                       "--max-log2-d", str(self.max_log2_d)],
            "validate fp": ["validate", "fp", *v],
            "validate int": ["validate", "int", *v],
        }

    def op(self):
        return {label: _run_cli(self.wk, argv) for label, argv in self.commands().items()}

    def dense(self) -> float:
        """One ``(samples x d) @ (d x d)`` draw product of ``validate``."""
        rng = np.random.default_rng(self.seed)
        d = self.validate_d
        return _timed_dense(
            rng.standard_normal((d, self.validate_samples)), rng.standard_normal((d, d))
        )

    def check(self, out, first) -> list:
        problems = [f"{label} exited with {code}" for label, (code, _) in out.items() if code != 0]
        if problems:
            return problems
        rows = out["bounds"][1].strip().splitlines()[1:]
        if len(rows) != self.expected_rows:
            problems.append(f"bounds printed {len(rows)} rows, expected {self.expected_rows}")
        problems += [f"bounds row does not hold: {r}" for r in rows if not r.endswith(",yes")]
        for label in ("validate fp", "validate int"):
            verdicts = [l.split()[1:2] for l in out[label][1].splitlines() if l.startswith("verdict:")]
            if verdicts != [["ok"]]:
                problems.append(f"{label} verdict is not ok: {verdicts!r}")
        return problems


WORKLOADS = {w.name: w for w in (LlmLayer, SweepGrid, Validators)}
