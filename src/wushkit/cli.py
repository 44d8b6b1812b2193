"""Command-line front end.

Subcommands::

    gen        draw a synthetic (weights, activations) pair to WTEN files
    plan       build block transforms + prequantized weights, persist them
    loss       loss report for one (transform, scheme, seed) cell
    sweep      full transforms x schemes x seeds grid to CSV
    validate   fp / int noise-model optimality and bound-chain checks
    bounds     max-statistic inequality table across families and dims
    grids      print quantizer grids and scale ranges

Exit status: 0 success, 1 validation failure (including usage errors), an
output path that cannot be written, or stdout closed early, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import format_float, load_config, write_sweep_csv
from .errors import NumericalError, ValidationError
from .linalg import hadamard, sym_eigen
from .noise import (
    FpRelative,
    IntAbsmax,
    compose_transform,
    int_bounds,
    one_sided_loss_mc,
    random_spd_moment,
)
from .pipeline import SYNTH_TAILS, SyntheticSpec, gen_synthetic, layer_loss, sweep
from .quantformats import (
    E2M1,
    E4M3,
    E8M0,
    PRESET_NAMES,
    ROUNDING_NAMES,
    FpFormat,
    IntSpec,
    enumerate_grid,
    scheme_by_name,
)
from .stats_bounds import mc_max_sq
from .tensorio import read_tensor, write_tensor
from .transforms import DEFAULT_DAMP, TRANSFORM_KINDS


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage errors on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_cell_args(p):
    p.add_argument("--kind", required=True, choices=TRANSFORM_KINDS)
    p.add_argument("--scheme", required=True, choices=PRESET_NAMES)
    p.add_argument("--damp", type=float, default=DEFAULT_DAMP)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--group-size", type=int, default=None)
    p.add_argument("--rounding", choices=tuple(ROUNDING_NAMES), default="nearest")


def build_parser() -> _Parser:
    parser = _Parser(prog="wushkit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"wushkit {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # An option left out is absent from the namespace, so SyntheticSpec
    # applies its own default.
    p = sub.add_parser("gen", help="synthetic tensors to WTEN files",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--d-in", type=int, required=True)
    p.add_argument("--d-out", type=int, required=True)
    p.add_argument("--d-batch", type=int, required=True)
    p.add_argument("--spectrum-power", type=float)
    p.add_argument("--tail", choices=SYNTH_TAILS)
    p.add_argument("--tail-dof", type=float)
    p.add_argument("--outlier-count", type=int)
    p.add_argument("--outlier-magnitude", type=float)
    p.add_argument("--seed", type=_nonnegative_int)
    p.add_argument("--weights", required=True, metavar="OUT.wten")
    p.add_argument("--activations", required=True, metavar="OUT.wten")

    p = sub.add_parser("plan", help="persist block transforms + prequantized weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--activations", required=True)
    _add_cell_args(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("loss", help="loss report for one cell")
    p.add_argument("--weights", required=True)
    p.add_argument("--activations", required=True)
    _add_cell_args(p)

    p = sub.add_parser("sweep", help="full grid to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="override the config's output path")
    p.add_argument("--timings", action="store_true",
                   help="record per-cell wall time (breaks byte-stable output)")

    p = sub.add_parser("validate", help="noise-model optimality / bound-chain checks")
    p.add_argument("which", choices=("fp", "int"))
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--spread", type=float, default=1.0)

    p = sub.add_parser("bounds", help="E max X^2 inequality table")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--max-log2-d", type=_nonnegative_int, default=10)

    p = sub.add_parser("grids", help="print quantizer grids")
    p.add_argument("--format", required=True,
                   choices=PRESET_NAMES + ("e2m1", "e4m3", "e8m0"))
    return parser


def _scheme_from_args(args):
    return scheme_by_name(args.scheme, ROUNDING_NAMES[args.rounding], args.group_size)


def _cmd_gen(args) -> int:
    fields = {f.name for f in dataclasses.fields(SyntheticSpec)}
    spec = SyntheticSpec(**{k: v for k, v in vars(args).items() if k in fields})
    w, x = gen_synthetic(spec)
    write_tensor(args.weights, w)
    write_tensor(args.activations, x)
    print(f"wrote weights {w.shape[0]}x{w.shape[1]} -> {args.weights}")
    print(f"wrote activations {x.shape[0]}x{x.shape[1]} -> {args.activations}")
    return 0


def _cmd_plan(args) -> int:
    from .transforms import Layer, build_layer_plan

    w = read_tensor(args.weights)
    x = read_tensor(args.activations)
    scheme = _scheme_from_args(args)
    plan = build_layer_plan(Layer(w, x), args.kind, scheme, args.damp, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "t_act.wten", plan.t_act)
    write_tensor(out / "t_weight.wten", plan.t_weight)
    write_tensor(out / "w_hat.wten", plan.w_hat)
    meta = {
        "kind": plan.kind,
        "scheme": scheme.name,
        "group_size": plan.d,
        "n_blocks": plan.n_blocks,
        "d_in": plan.d_in,
        "d_out": plan.d_out,
        "damp": plan.damp,
        "seed": plan.seed,
        "rounding": scheme.rounding,
    }
    (out / "plan.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    print(f"wrote {plan.n_blocks} block transforms to {out}")
    return 0


def _cmd_loss(args) -> int:
    w = read_tensor(args.weights)
    x = read_tensor(args.activations)
    scheme = _scheme_from_args(args)
    report = layer_loss(w, x, args.kind, scheme, args.damp, args.seed)
    print(f"transform:      {report.kind}")
    print(f"scheme:         {scheme.name}")
    print(f"group_size:     {report.d}")
    print(f"seed:           {report.seed}")
    print(f"damp:           {format_float(report.damp)}")
    print(f"layer_loss:     {format_float(report.layer_loss)}")
    print(f"layer_loss_raw: {format_float(report.layer_loss_raw)}")
    print(f"additivity_gap: {format_float(report.additivity_gap)}")
    for i, bl in enumerate(report.block_losses):
        print(f"block[{i}]:       {format_float(bl)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    rows = sweep(cfg, timings=args.timings)
    out = args.output if args.output is not None else cfg.output
    if out is None:
        write_sweep_csv(rows, cfg, sys.stdout)
    else:
        path = Path(out) if args.output is not None else cfg.resolve_path(out)
        with open(path, "w", newline="") as fh:
            write_sweep_csv(rows, cfg, fh)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def _optimal_fp_transform(d: int, seed: int, spread: float):
    moment, s = random_spd_moment(d, seed, spread)
    u, lam = sym_eigen(moment)
    s = np.sqrt(lam)
    t = compose_transform(hadamard(d), np.sqrt(s), np.eye(d), u, s)
    return moment, s, t


def _cmd_validate(args) -> int:
    moment, s, t = _optimal_fp_transform(args.d, args.seed, args.spread)
    d = args.d
    if args.which == "fp":
        model = FpRelative(3, 3)
        est = one_sided_loss_mc(t, moment, model, args.samples, args.seed)
        bound = model.eta_second_moment() * float(s.sum()) ** 2 / d
        ratio = est.value / bound
        print(f"d:           {d}")
        print(f"mc_loss:     {format_float(est.value)}")
        print(f"mc_se:       {format_float(est.se)}")
        print(f"lower_bound: {format_float(bound)}")
        print(f"ratio:       {format_float(ratio)}")
        ok = 0.97 <= ratio <= 1.05
        print(f"verdict:     {'ok' if ok else 'FAIL'} (want ratio in [0.97, 1.05])")
        return 0 if ok else 1
    model = IntAbsmax(4)
    est = one_sided_loss_mc(t, moment, model, args.samples, args.seed)
    chain = int_bounds(s, np.sqrt(s))
    scaled = est.value / model.eta_second_moment()
    refined = (2.0 * math.log(2.0 * d) + 2.0) / d * float(s.sum()) ** 2
    print("model:         IntAbsmax(4), midrise step absmax/8 (not the int4 preset)")
    print(f"d:             {d}")
    print(f"mc_loss/eta2:  {format_float(scaled)}")
    print(f"lower_bound:   {format_float(chain.lower)}")
    print(f"upper_bound:   {format_float(chain.upper)}")
    print(f"refined_upper: {format_float(refined)}")
    ok = chain.lower <= scaled <= chain.upper and scaled <= refined
    print(f"verdict:       {'ok' if ok else 'FAIL'} (want chain containment)")
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    print("family,d,correlated,empirical,se,bound,holds")
    worst = 0
    for family in ("gaussian", "laplacian"):
        for k in range(args.max_log2_d + 1):
            d = 1 << k
            for cov in ("iid", "correlated"):
                est = mc_max_sq(family, d, cov, args.samples, args.seed)
                holds = est.consistent()
                worst = max(worst, 0 if holds else 1)
                print(
                    f"{family},{d},{int(est.correlated)},"
                    f"{format_float(est.empirical)},{format_float(est.se)},"
                    f"{format_float(est.bound)},{'yes' if holds else 'NO'}"
                )
    return worst


def _print_grid(label, values):
    print(f"{label} ({len(values)} magnitudes):")
    if len(values) <= 16:
        print("  " + "  ".join(format_float(v) for v in values))
    else:
        head = "  ".join(format_float(v) for v in values[:3])
        tail = "  ".join(format_float(v) for v in values[-3:])
        print(f"  {head}  ...  {tail}")


def _cmd_grids(args) -> int:
    raw = {"e2m1": E2M1, "e4m3": E4M3, "e8m0": E8M0}
    if args.format in raw:
        fmt = raw[args.format]
        _print_grid(args.format, enumerate_grid(fmt))
        return 0
    scheme = scheme_by_name(args.format)
    vf = scheme.value_format
    if isinstance(vf, FpFormat):
        _print_grid(f"{args.format} values [{vf.name}]", enumerate_grid(vf))
    elif isinstance(vf, IntSpec):
        print(
            f"{args.format} values [int{vf.bits}]: integers in "
            f"[-{vf.grid_max}, {vf.grid_max}]"
        )
    sf = scheme.scale_format
    if isinstance(sf, FpFormat):
        grid = enumerate_grid(sf)
        print(
            f"scale [{sf.name}]: {len(grid)} magnitudes in "
            f"[{format_float(grid[1] if grid[0] == 0 else grid[0])}, "
            f"{format_float(grid[-1])}]"
        )
    else:
        print("scale [bf16]: bfloat16 (8-bit exponent, 7-bit mantissa)")
    print(f"group_size: {scheme.group_size}")
    if scheme.clipping is not None:
        print(f"clipping: {format_float(scheme.clipping)}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "plan": _cmd_plan,
    "loss": _cmd_loss,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "bounds": _cmd_bounds,
    "grids": _cmd_grids,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``wushkit bounds | head``); point stdout at
        # the null device so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
