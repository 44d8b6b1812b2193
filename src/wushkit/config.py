"""Experiment configuration: strict JSON in, fully-resolved echo out.

The schema is closed — unknown keys are rejected with their dotted field
path — and nothing is applied silently: every default lands in the resolved
dictionary that gets echoed into the CSV header, so an output file always
records the exact experiment that produced it.

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

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import InvalidSpec
from .pipeline import SyntheticSpec, gen_synthetic
from .quantformats import (
    ROUND_NEAREST_EVEN,
    ROUND_STOCHASTIC,
    VALID_GROUP_SIZES,
    QuantScheme,
    scheme_by_name,
)
from .tensorio import read_tensor
from .transforms import TRANSFORM_KINDS

_ROUNDING_NAMES = {"nearest": ROUND_NEAREST_EVEN, "stochastic": ROUND_STOCHASTIC}

_DEFAULTS = {
    "damp": 0.01,
    "group_size": None,
    "rounding": "nearest",
    "r_repeats": 1,
    "output": None,
}

# SyntheticSpec fields settable from a config; seed is excluded on purpose.
_SYNTH_FIELDS = {
    "d_in": int,
    "d_out": int,
    "d_batch": int,
    "spectrum_power": float,
    "spectrum_values": list,
    "tail": str,
    "tail_dof": float,
    "outlier_count": int,
    "outlier_magnitude": float,
}


def _want(path: str, value, kind):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidSpec(f"{path}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidSpec(f"{path}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise InvalidSpec(
            f"{path}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _reject_unknown(path: str, doc: dict, allowed) -> None:
    for key in doc:
        if key not in allowed:
            raise InvalidSpec(f"{path}{key}: unknown key")


@dataclass
class ExperimentConfig:
    data: dict
    transforms: tuple
    schemes: tuple
    seeds: tuple
    damp: float = _DEFAULTS["damp"]
    group_size: Optional[int] = None
    rounding: str = _DEFAULTS["rounding"]
    r_repeats: int = _DEFAULTS["r_repeats"]
    output: Optional[str] = None
    base_dir: Path = Path(".")

    def __post_init__(self):
        if not self.transforms:
            raise InvalidSpec("transforms: list is empty")
        for kind in self.transforms:
            if kind not in TRANSFORM_KINDS:
                raise InvalidSpec(
                    f"transforms: unknown kind {kind!r}; "
                    f"choose from {', '.join(TRANSFORM_KINDS)}"
                )
        if not self.schemes:
            raise InvalidSpec("schemes: list is empty")
        if not self.seeds:
            raise InvalidSpec("seeds: list is empty")
        if self.damp < 0:
            raise InvalidSpec(f"damp: must be nonnegative, got {self.damp}")
        if self.group_size is not None and self.group_size not in VALID_GROUP_SIZES:
            raise InvalidSpec(
                f"group_size: must be one of {VALID_GROUP_SIZES}, "
                f"got {self.group_size}"
            )
        if self.rounding not in _ROUNDING_NAMES:
            raise InvalidSpec(
                f"rounding: must be one of {sorted(_ROUNDING_NAMES)}, "
                f"got {self.rounding!r}"
            )
        if self.r_repeats < 1:
            raise InvalidSpec(f"r_repeats: must be >= 1, got {self.r_repeats}")
        self._tensor_cache = None
        # Trigger validation of the data block and every scheme name now,
        # before any computation starts.
        self._synth_spec(seed=0)
        self.resolved_schemes()

    # -- data ---------------------------------------------------------------

    @property
    def layer_label(self) -> str:
        if "synthetic" in self.data:
            return "synthetic"
        return Path(self.data["tensors"]["weights"]).stem

    def _synth_spec(self, seed: int) -> Optional[SyntheticSpec]:
        if "synthetic" not in self.data:
            return None
        fields = dict(self.data["synthetic"])
        if "spectrum_values" in fields and fields["spectrum_values"] is not None:
            fields["spectrum_values"] = tuple(
                float(v) for v in fields["spectrum_values"]
            )
        return SyntheticSpec(seed=seed, **fields)

    def load_data(self, seed: int):
        """Return the ``(w, x)`` pair for one sweep cell.

        Synthetic data is regenerated from the cell seed so that each seed
        is a fully independent replicate; tensor-file data is loaded once
        and shared (the seed then only drives rotations and stochastic
        rounding).
        """
        spec = self._synth_spec(seed)
        if spec is not None:
            return gen_synthetic(spec)
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
        out = []
        rounding = _ROUNDING_NAMES[self.rounding]
        for name in self.schemes:
            scheme = scheme_by_name(_want("schemes", name, str))
            replacements = {"rounding": rounding}
            if self.group_size is not None:
                replacements["group_size"] = self.group_size
            out.append((scheme.name, dataclasses.replace(scheme, **replacements)))
        return out

    # -- provenance ---------------------------------------------------------

    def resolved_dict(self) -> dict:
        """The full configuration with every default made explicit."""
        return {
            "data": self.data,
            "transforms": list(self.transforms),
            "schemes": list(self.schemes),
            "seeds": list(self.seeds),
            "damp": self.damp,
            "group_size": self.group_size,
            "rounding": self.rounding,
            "r_repeats": self.r_repeats,
            "output": self.output,
        }

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
        _reject_unknown("data.synthetic.", synth, _SYNTH_FIELDS)
        clean = {}
        for key, value in synth.items():
            if key == "spectrum_values":
                if value is not None:
                    value = [
                        _want(f"data.synthetic.spectrum_values[{i}]", v, float)
                        for i, v in enumerate(_want(f"data.synthetic.{key}", value, list))
                    ]
                clean[key] = value
            else:
                clean[key] = _want(f"data.synthetic.{key}", value, _SYNTH_FIELDS[key])
        return {"synthetic": clean}
    if set(data) == {"tensors"}:
        tensors = _want("data.tensors", data["tensors"], dict)
        _reject_unknown("data.tensors.", tensors, ("weights", "activations"))
        for key in ("weights", "activations"):
            if key not in tensors:
                raise InvalidSpec(f"data.tensors.{key}: missing")
            _want(f"data.tensors.{key}", tensors[key], str)
        return {"tensors": dict(tensors)}
    raise InvalidSpec(
        "data: expected exactly one of 'synthetic' or 'tensors', "
        f"got keys {sorted(data)}"
    )


def parse_config(doc: dict, base_dir: Path = Path(".")) -> ExperimentConfig:
    """Validate a decoded JSON document into an :class:`ExperimentConfig`."""
    top = _want("config", doc, dict)
    allowed = {"data", "transforms", "schemes", "seeds", *_DEFAULTS}
    _reject_unknown("", top, allowed)
    for key in ("data", "transforms", "schemes", "seeds"):
        if key not in top:
            raise InvalidSpec(f"{key}: missing required key")
    transforms = tuple(
        _want(f"transforms[{i}]", v, str)
        for i, v in enumerate(_want("transforms", top["transforms"], list))
    )
    schemes = tuple(
        _want(f"schemes[{i}]", v, str)
        for i, v in enumerate(_want("schemes", top["schemes"], list))
    )
    seeds = tuple(
        _want(f"seeds[{i}]", v, int)
        for i, v in enumerate(_want("seeds", top["seeds"], list))
    )
    kwargs = {}
    if "group_size" in top and top["group_size"] is not None:
        kwargs["group_size"] = _want("group_size", top["group_size"], int)
    if "damp" in top:
        kwargs["damp"] = _want("damp", top["damp"], float)
    if "rounding" in top:
        kwargs["rounding"] = _want("rounding", top["rounding"], str)
    if "r_repeats" in top:
        kwargs["r_repeats"] = _want("r_repeats", top["r_repeats"], int)
    if "output" in top and top["output"] is not None:
        kwargs["output"] = _want("output", top["output"], str)
    return ExperimentConfig(
        data=_parse_data(top["data"]),
        transforms=transforms,
        schemes=schemes,
        seeds=seeds,
        base_dir=Path(base_dir),
        **kwargs,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InvalidSpec(f"{path}: {exc.strerror or exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
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
    stream.write("layer,transform,format,seed,block,loss,layer_loss,elapsed_ms\n")
    for r in rows:
        elapsed = "" if r.elapsed_ms is None else format(r.elapsed_ms, ".3f")
        stream.write(
            f"{r.layer},{r.transform},{r.format},{r.seed},{r.block},"
            f"{format_float(r.loss)},{format_float(r.layer_loss)},{elapsed}\n"
        )
