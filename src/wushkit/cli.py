"""Command-line front end.

Subcommands::

    gen        draw a synthetic (weights, activations) pair to WTEN files
    plan       build block transforms + prequantized weights, persist them
    loss       loss report for one (transform, scheme, seed) cell
    sweep      full transforms x schemes x seeds grid to CSV
    validate   the shipped wush builder against the fp / int noise-model
               optimum and bound chain
    bounds     max-statistic inequality table across families and dims
    grids      print quantizer grids and scale ranges

Exit status: 0 success, 1 validation failure (including usage errors), an
output path that cannot be written, or stdout closed early, 2 numerical
failure (such as a ``validate`` moment that is not positive definite).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import format_float, load_config, write_sweep_csv
from .errors import InvalidSpec, NotPositiveDefinite, NumericalError, ValidationError
from .linalg import sym_eigen
from .noise import FpRelative, IntAbsmax, int_bounds, one_sided_loss_mc, random_spd_moment
from .pipeline import SYNTH_TAILS, SyntheticSpec, evaluate, gen_synthetic, sweep
from .quantformats import (
    FORMATS,
    PRESET_NAMES,
    ROUND_NEAREST_EVEN,
    ROUNDINGS,
    FpFormat,
    IntSpec,
    enumerate_grid,
    scheme_by_name,
)
from .stats_bounds import (
    COV_STRUCTURES,
    FAMILIES,
    MAX_EXACT_DIMENSION,
    gaussian_max_bound,
    mc_max_sq_dims,
)
from .tensorio import read_tensor, write_tensor
from .transforms import (
    DEFAULT_DAMP,
    TRANSFORM_KINDS,
    Layer,
    PlanSpec,
    build_block,
    build_layer_plan,
)


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
    p.add_argument("--rounding", choices=ROUNDINGS, default=ROUND_NEAREST_EVEN)


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
                   choices=PRESET_NAMES + tuple(FORMATS))
    return parser


def _spec_from_args(args) -> PlanSpec:
    scheme = scheme_by_name(args.scheme, args.rounding, args.group_size)
    return PlanSpec(args.kind, scheme, args.damp, args.seed)


def _cell_record(spec: PlanSpec) -> dict:
    """The cell settings that ``plan.json`` stores and ``loss`` prints."""
    scheme = spec.scheme
    return {"kind": spec.kind, "scheme": scheme.name, "group_size": scheme.group_size,
            "rounding": scheme.rounding, "damp": spec.damp, "seed": spec.seed}


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
    layer = Layer(read_tensor(args.weights), read_tensor(args.activations))
    plan = build_layer_plan(layer, _spec_from_args(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "t_act.wten", plan.t_act)
    write_tensor(out / "t_weight.wten", plan.t_weight)
    write_tensor(out / "w_hat.wten", plan.w_hat)
    meta = {**_cell_record(plan.spec), "n_blocks": plan.n_blocks, "d_in": plan.d_in,
            "d_out": plan.d_out}
    (out / "plan.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    print(f"wrote {plan.n_blocks} block transforms to {out}")
    return 0


def _cmd_loss(args) -> int:
    layer = Layer(read_tensor(args.weights), read_tensor(args.activations))
    report = evaluate(build_layer_plan(layer, _spec_from_args(args)), layer)
    for key, value in _cell_record(report.spec).items():
        print(f"{key + ':':16}{format_float(value) if isinstance(value, float) else value}")
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


def _cmd_validate(args) -> int:
    """Checks the shipped ``wush`` builder: with ``M_W = I`` its ``t_act`` is
    the FP-optimal ``H Lam^-1/4 U^T`` of the moment."""
    d = args.d
    moment, _ = random_spd_moment(d, args.seed, args.spread)
    lam = sym_eigen(moment).eigenvalues
    refusal = (f"the random moment at --spread {format_float(args.spread)} is not positive "
               "definite in float64 ({}); lower --spread")
    if not lam[-1] > 0.0:
        raise NotPositiveDefinite(refusal.format(f"smallest eigenvalue {lam[-1]:.3e}"))
    s = np.sqrt(lam)
    t = build_block("wush", np.eye(d)[None], moment[None])[0][0]
    model = FpRelative(3, 3) if args.which == "fp" else IntAbsmax(4)
    try:
        est = one_sided_loss_mc(t, moment, model, args.samples, args.seed)
    except NotPositiveDefinite:  # every eigenvalue positive, but no Cholesky factor
        raise NotPositiveDefinite(refusal.format("its Cholesky factor fails")) from None
    if args.which == "fp":
        bound = model.eta_second_moment() * float(s.sum()) ** 2 / d
        ratio = est.value / bound
        print(f"d:           {d}")
        print(f"mc_loss:     {format_float(est.value)}")
        print(f"mc_se:       {format_float(est.se)}")
        print(f"lower_bound: {format_float(bound)}")
        print(f"ratio:       {format_float(ratio)}")
        sigma = est.se / bound  # the ratio's standard error
        ok = min(0.97, 1.0 - 3.0 * sigma) <= ratio <= max(1.05, 1.0 + 3.0 * sigma)
        print(f"verdict:     {'ok' if ok else 'FAIL'} "
              "(want ratio in [0.97, 1.05] or within 3 mc_se/lower_bound of 1)")
        return 0 if ok else 1
    chain = int_bounds(s, np.sqrt(s))
    scaled = est.value / model.eta_second_moment()
    refined = gaussian_max_bound(d) / d * float(s.sum()) ** 2
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
    top = MAX_EXACT_DIMENSION.bit_length() - 1
    if args.max_log2_d > top:
        raise InvalidSpec(
            f"--max-log2-d {args.max_log2_d}: dimension 2**{args.max_log2_d} exceeds "
            f"2**{top}, past exact float64 integers"
        )
    dims = [1 << k for k in range(args.max_log2_d + 1)]
    table = {
        (family, cov): mc_max_sq_dims(family, dims, cov, args.samples, args.seed)
        for family in FAMILIES
        for cov in COV_STRUCTURES
    }
    print("family,d,correlated,empirical,se,bound,holds")  # after the argument checks
    worst = 0
    for family in FAMILIES:
        for k in range(len(dims)):
            for cov in COV_STRUCTURES:
                est = table[family, cov][k]
                holds = est.consistent()
                worst = max(worst, 0 if holds else 1)
                print(
                    f"{family},{est.d},{int(est.correlated)},"
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
    if args.format in FORMATS:
        _print_grid(args.format, enumerate_grid(FORMATS[args.format]))
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
    grid = enumerate_grid(sf)
    print(
        f"scale [{sf.name}]: {len(grid)} magnitudes in "
        f"[{format_float(grid[1] if grid[0] == 0 else grid[0])}, "
        f"{format_float(grid[-1])}]"
    )
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


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The process's one parser, built at the first ``main`` call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
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
    except (_UsageError, ValidationError, OSError) as exc:  # OSError: an unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
