"""wushkit: closed-form adaptive blockwise transforms for low-bit quantization.

The package has three layers:

* linear-algebra and quantizer primitives (``linalg``, ``quantformats``),
* the noise-model theory validators (``noise``, ``stats_bounds``),
* the transform construction and layer pipeline (``transforms``, ``pipeline``)
  plus file/CLI plumbing (``tensorio``, ``config``, ``cli``).

numpy is the only dependency; factorizations go through ``numpy.linalg``.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadMagic,
    DimOverflow,
    InvalidCovariance,
    InvalidSpec,
    NaNInput,
    NoConvergence,
    NotPositiveDefinite,
    NotPowerOfTwo,
    NotSymmetric,
    NumericalError,
    Overflow,
    ShapeMismatch,
    Singular,
    TruncatedPayload,
    UnsupportedVersion,
    ValidationError,
    WushkitError,
)
from .linalg import SymEigen, cholesky, hadamard, invert, random_rotation, sym_eigen
from .noise import (
    FpRelative,
    IntAbsmax,
    fp_trace_term,
    int_bounds,
    one_sided_loss_mc,
    random_spd_moment,
)
from .quantformats import (
    BF16,
    E2M1,
    E4M3,
    E8M0,
    INT4_GAUSSIAN_CLIP,
    FpFormat,
    IntSpec,
    QuantScheme,
    enumerate_grid,
    int4_scheme,
    mxfp4_scheme,
    nvfp4_scheme,
    quantize_group,
    quantize_matrix,
    rtn_value,
    scheme_by_name,
)
from .stats_bounds import (
    MaxSqEstimate,
    gaussian_max_bound,
    laplacian_max_bound,
    mc_max_sq,
    mc_max_sq_dims,
)
from .tensorio import read_tensor, write_tensor
from .transforms import (
    Layer,
    LayerPlan,
    PlanSpec,
    build_block,
    build_layer_plan,
    second_moments,
)
from .pipeline import (
    LossReport,
    SyntheticSpec,
    evaluate,
    first_order_gap,
    forward_quantized,
    gen_synthetic,
    layer_loss,
    sweep,
    sweep_cell,
)
from .config import ExperimentConfig, load_config, parse_config, write_sweep_csv

__version__ = "0.1.0"

#: Every public name imported above (the submodules excepted), and the version.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
