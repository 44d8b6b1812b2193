"""Spans around the public functions of the ``wushkit`` modules.

The tracer wraps functions from outside the package: for every target it
replaces each module attribute bound to the original function object, in
every loaded ``wushkit`` module and in the package itself.  That matters
because ``from .linalg import sym_eigen`` leaves ``transforms.sym_eigen``
and ``cli.sym_eigen`` as bound copies that a patch of ``linalg`` alone
would miss.  A target that no longer exists is skipped and reported with
zero calls, so the benchmark keeps running after a refactor deletes it.

Each wrapper records a span.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.  Bookkeeping done by the
wrappers (argument binding, fingerprints, file sizes) falls outside every
span and is charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: ``module -> function names`` wrapped under the name ``module.function``.
TARGETS = {
    "tensorio": ("read_tensor", "write_tensor"),
    "config": ("load_config", "write_sweep_csv"),
    "linalg": ("sym_eigen", "cholesky", "random_rotation", "hadamard", "invert"),
    "transforms": ("second_moments", "build_block", "build_layer_plan"),
    "quantformats": ("quantize_matrix",),
    "pipeline": ("layer_loss", "gen_synthetic", "sweep_cell", "sweep"),
    "noise": ("one_sided_loss_mc", "random_spd_moment"),
    "stats_bounds": ("mc_max_sq",),
    "cli": ("main",),
}

#: ``quantize_matrix`` spans are split by side and rounding mode.
QUANT_SIDES = ("weight", "act")
QUANT_ROUNDINGS = ("nearest", "stochastic")

_FLOAT64 = 8


def span_names() -> list:
    """Every span name a run can report, whether or not it is called."""
    names = []
    for mod, funcs in TARGETS.items():
        for func in funcs:
            if (mod, func) == ("quantformats", "quantize_matrix"):
                names += [
                    f"{mod}.{func}.{side}.{rnd}"
                    for side in QUANT_SIDES
                    for rnd in QUANT_ROUNDINGS
                ]
            else:
                names.append(f"{mod}.{func}")
    return names


def _fingerprint(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(repr((p.shape, p.dtype.str)).encode())
            h.update(np.ascontiguousarray(p).data)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _shape2(a):
    shape = getattr(a, "shape", None)
    return shape if shape is not None and len(shape) == 2 else None


class Tracer:
    """Collects calls, self time, errors and work counts per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)  # "span.counter" -> summed value
        self.top_level_s = 0.0  # time inside spans with no wrapped parent
        self.missing = []  # "module.function" targets not found
        self.distinct = defaultdict(int)  # span -> distinct inputs, closed scopes
        self._fingerprints = defaultdict(set)  # span -> inputs, open scope
        self._stack = []  # [name, child_seconds] per open span
        self._patched = []  # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "wushkit" or n.startswith("wushkit."))
        ]
        for mod, funcs in TARGETS.items():
            home = sys.modules.get(f"wushkit.{mod}")
            for func in funcs:
                orig = getattr(home, func, None)
                if not callable(orig):
                    self.missing.append(f"{mod}.{func}")
                    continue
                wrapper = self._wrap(f"{mod}.{func}", orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- span accounting ----------------------------------------------------

    def _wrap(self, base: str, orig):
        sig = inspect.signature(orig)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t_enter = time.perf_counter()
            try:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            except TypeError:
                bound = {}  # the call itself raises the signature error
            name = tracer._span_name(base, bound)
            tracer._before(name, bound)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[1]
                tracer._after(name, bound)
                if tracer._stack:
                    # The parent's self time excludes this call and its
                    # bookkeeping.
                    tracer._stack[-1][1] += time.perf_counter() - t_enter
                else:
                    tracer.top_level_s += t1 - t0

        return wrapper

    def _span_name(self, base: str, bound: dict) -> str:
        if base != "quantformats.quantize_matrix":
            return base
        scheme = bound.get("scheme")
        rnd = "stochastic" if getattr(scheme, "rounding", "") == "stochastic" else "nearest"
        # Weights are quantized while a plan is built; everything else the
        # pipeline quantizes is an activation block.
        side = "act"
        for frame in reversed(self._stack):
            if frame[0] == "transforms.build_layer_plan":
                side = "weight"
                break
            if frame[0] == "pipeline.layer_loss":
                break
        return f"{base}.{side}.{rnd}"

    def _before(self, name: str, a: dict) -> None:
        if name == "tensorio.read_tensor" and "path" in a:
            try:
                self.work[f"{name}.bytes"] += os.path.getsize(a["path"])
            except OSError:
                pass
        elif name == "transforms.second_moments":
            w, x = _shape2(a.get("w")), _shape2(a.get("x"))
            if w and x:
                self.work[f"{name}.computed_flops"] += 2.0 * w[0] * w[0] * (w[1] + x[1])
                self._fingerprints[name].add(
                    _fingerprint(np.asarray(a["w"]), np.asarray(a["x"]), a.get("damp"))
                )
        elif name == "pipeline.layer_loss":
            w, x = _shape2(a.get("w")), _shape2(a.get("x"))
            d = getattr(a.get("scheme"), "group_size", None)
            if w and x and d:
                d_in, d_out, d_batch = w[0], w[1], x[1]
                n_blocks = d_in // d
                # The reference W^T X, then per block t_act x_i,
                # w_hat_i^T q_i and the block reference w_i^T x_i.
                self.work[f"{name}.computed_flops"] += (
                    6.0 * d_in * d_out * d_batch + 2.0 * d_in * d * d_batch
                )
                # d_out x d_batch float64 passes of the block loop as written:
                # 11 per block (contrib, accumulate, block reference, difference,
                # square, sum) and 8 for the layer reference and final reduction.
                self.work[f"{name}.computed_bytes"] += (
                    _FLOAT64 * d_out * d_batch * (11.0 * n_blocks + 8.0)
                )
        elif name == "pipeline.gen_synthetic" and "spec" in a:
            self._fingerprints[name].add(_fingerprint(a["spec"]))
        elif name.startswith("quantformats.quantize_matrix."):
            self.work[f"{name}.elements"] += float(np.size(a.get("m", 0)))
        elif name == "noise.one_sided_loss_mc":
            self.work[f"{name}.samples"] += float(a.get("n_samples", 0))
        elif name == "stats_bounds.mc_max_sq":
            self.work[f"{name}.scalars"] += float(a.get("n_samples", 0)) * float(a.get("d", 0))

    def _after(self, name: str, a: dict) -> None:
        if name == "tensorio.write_tensor" and "path" in a:
            try:
                self.work[f"{name}.bytes"] += os.path.getsize(a["path"])
            except OSError:
                pass

    # -- results ------------------------------------------------------------

    def end_scope(self) -> None:
        """Close one ``unique_ratio`` scope; the benchmark opens one per operation."""
        for name, fps in self._fingerprints.items():
            self.distinct[name] += len(fps)
        self._fingerprints.clear()

    def unique_ratio(self, name: str) -> float:
        """Distinct inputs per call, summed over closed scopes; 0 if never called."""
        calls = self.calls.get(name, 0)
        return self.distinct.get(name, 0) / calls if calls else 0.0
