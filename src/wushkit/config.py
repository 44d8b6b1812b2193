"""Experiment configuration: strict JSON in, fully-resolved echo out.

The schema is closed — unknown keys are rejected with their dotted field
path — and nothing is applied silently: every default lands in the resolved
dictionary that gets echoed into the CSV header, so an output file always
records the exact experiment that produced it.  ``ExperimentConfig`` itself
enforces the schema's types and values, so a config built in Python is held
to the same rules as one parsed from JSON; ``parse_config`` adds only the
closed key set.  A ``data.synthetic`` block is a ``SyntheticSpec`` without
its seed: the spec checks its own fields, and the echo lists all of them.
Integers and reals may be numpy scalars (``linalg._want`` is the one rule).
``null`` is allowed only where a field defaults to None (``group_size``,
``output`` and ``spectrum_values``), and JSON lists are stored as tuples.

Example document::

    {
      "data": {"synthetic": {"d_in": 128, "d_out": 64, "d_batch": 256}},
      "transforms": ["i", "h", "wush"],
      "schemes": ["int4", "mxfp4"],
      "seeds": [0, 1, 2],
      "damp": 0.01,
      "output": "losses.csv"
    }

``data`` takes either a ``synthetic`` generator spec (the per-cell seed
comes from ``seeds``, so the spec must not carry one) or a ``tensors`` pair
of WTEN file paths.  Relative paths resolve against the config file's
directory.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from .errors import InvalidSpec, ValidationError
from .linalg import _check_seed, _show, _want, _want_fields
from .pipeline import SweepRow, SyntheticSpec, gen_synthetic
from .quantformats import ROUND_NEAREST_EVEN, scheme_by_name
from .tensorio import read_tensor
from .transforms import DEFAULT_DAMP, _check_damp, _check_kind


def _check_keys(path: str, doc: dict, allowed, required) -> None:
    """Refuse a key of ``doc`` not in ``allowed``, and a missing ``required`` one."""
    for key in doc:
        if key not in allowed:
            raise InvalidSpec(f"{path}{key}: unknown key")
    for key in required:
        if key not in doc:
            raise InvalidSpec(f"{path}{key}: missing required key")


def _keys(cls, skip: str):
    """The names of ``cls``'s fields but ``skip``, and of those without a default."""
    names = [f for f in fields(cls) if f.name != skip]
    return [f.name for f in names], [f.name for f in names if f.default is MISSING]


@dataclass
class ExperimentConfig:
    data: dict
    transforms: tuple[str, ...]
    schemes: tuple[str, ...]
    seeds: tuple[int, ...]
    damp: float = DEFAULT_DAMP
    group_size: Optional[int] = None
    rounding: str = ROUND_NEAREST_EVEN
    r_repeats: int = 1
    output: Optional[str] = None
    base_dir: Path = Path(".")

    def __post_init__(self):
        _want_fields(self)
        self.data = _parse_data(self.data)
        if not self.transforms:
            raise InvalidSpec("transforms: list is empty")
        for kind in self.transforms:
            _check_kind(kind, "transforms")
        if not self.schemes:
            raise InvalidSpec("schemes: list is empty")
        if not self.seeds:
            raise InvalidSpec("seeds: list is empty")
        for i, seed in enumerate(self.seeds):
            _check_seed(seed, f"seeds[{i}]")
        _check_damp(self.damp)
        if self.r_repeats < 1:
            raise InvalidSpec(f"r_repeats: must be >= 1, got {_show(self.r_repeats)}")
        self._tensor_cache = None
        self.resolved_schemes()  # every scheme name, the group size and rounding

    # -- data ---------------------------------------------------------------

    @property
    def layer_label(self) -> str:
        if "synthetic" in self.data:
            return "synthetic"
        return Path(self.data["tensors"]["weights"]).stem

    def load_data(self, seed: int):
        """Return the ``(w, x)`` pair for one sweep cell.

        Synthetic data is regenerated from the cell seed so that each seed
        is a fully independent replicate; tensor-file data is loaded once
        and shared (the seed then only drives rotations and stochastic
        rounding).
        """
        if "synthetic" in self.data:
            return gen_synthetic(SyntheticSpec(seed=seed, **self.data["synthetic"]))
        if self._tensor_cache is None:
            paths = self.data["tensors"]
            self._tensor_cache = (
                read_tensor(self.resolve_path(paths["weights"])),
                read_tensor(self.resolve_path(paths["activations"])),
            )
        return self._tensor_cache

    def resolve_path(self, p) -> Path:
        return (self.base_dir / p).resolve()

    # -- schemes ------------------------------------------------------------

    def resolved_schemes(self) -> list:
        """``(name, QuantScheme)`` pairs with config overrides applied."""
        schemes = (scheme_by_name(n, self.rounding, self.group_size) for n in self.schemes)
        return [(s.name, s) for s in schemes]

    # -- provenance ---------------------------------------------------------

    def resolved_dict(self) -> dict:
        """The full configuration with every default made explicit."""
        out = {}
        for name in _keys(ExperimentConfig, "base_dir")[0]:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    def echo_lines(self) -> list:
        return [
            "config: "
            + json.dumps(self.resolved_dict(), sort_keys=True, separators=(",", ":"))
        ]


def _parse_data(doc) -> dict:
    data = _want("data", doc, dict)
    if set(data) == {"synthetic"}:
        synth = _want("data.synthetic", data["synthetic"], dict)
        if "seed" in synth:
            raise InvalidSpec(
                "data.synthetic.seed: cell seeds come from the top-level "
                "'seeds' list"
            )
        _check_keys("data.synthetic.", synth, *_keys(SyntheticSpec, "seed"))
        try:
            spec = SyntheticSpec(seed=0, **synth)
        except ValidationError as exc:
            raise type(exc)(f"data.synthetic.{exc}") from None
        return {"synthetic": {k: v for k, v in asdict(spec).items() if k != "seed"}}
    if set(data) == {"tensors"}:
        tensors = _want("data.tensors", data["tensors"], dict)
        paths = ("weights", "activations")
        _check_keys("data.tensors.", tensors, paths, paths)
        for key in paths:
            _want(f"data.tensors.{key}", tensors[key], str)
        return {"tensors": dict(tensors)}
    raise InvalidSpec(
        "data: expected exactly one of 'synthetic' or 'tensors', "
        f"got keys {sorted(data)}"
    )


def parse_config(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    """Validate a decoded JSON document into an :class:`ExperimentConfig`."""
    top = _want("config", doc, dict)
    _check_keys("", top, *_keys(ExperimentConfig, "base_dir"))
    return ExperimentConfig(**top, base_dir=Path(base_dir))


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise InvalidSpec(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except ValueError as exc:  # not text, or an integer past Python's digit limit
        raise InvalidSpec(f"{path}: {exc}") from None
    return parse_config(doc, base_dir=p.parent)


def format_float(x: float) -> str:
    """17-significant-digit decimal: round-trip exact for doubles."""
    return format(float(x), ".17g")


def write_sweep_csv(rows, cfg: ExperimentConfig, stream) -> None:
    """Emit sweep rows as CSV with the resolved config echoed in comments."""
    from . import __version__

    stream.write(f"# wushkit sweep v{__version__}\n")
    for line in cfg.echo_lines():
        stream.write(f"# {line}\n")
    stream.write(",".join(SweepRow._fields) + "\n")
    for r in rows:
        elapsed = "" if r.elapsed_ms is None else format(r.elapsed_ms, ".3f")
        stream.write(
            f"{r.layer},{r.transform},{r.format},{r.seed},{r.block},"
            f"{format_float(r.loss)},{format_float(r.layer_loss)},{elapsed}\n"
        )
