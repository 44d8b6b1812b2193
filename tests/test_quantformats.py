"""Grid enumeration, rounding modes, scale representation, block quantization."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import wushkit.quantformats as qf
from _oracles import gaussian_mse_clip, rtn_even_table, stoch_table
from wushkit import InvalidSpec, NaNInput, ShapeMismatch
from wushkit.pipeline import gen_synthetic

E2M1_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]


# ------------------------------------------------------------------- grids


def test_e2m1_grid_exact():
    np.testing.assert_array_equal(qf.enumerate_grid(qf.E2M1), E2M1_GRID)


def test_e4m3_grid():
    g = qf.enumerate_grid(qf.E4M3)
    assert len(g) == 127  # 128 codes minus the NaN code
    assert g[-1] == 448.0
    assert g[0] == 0.0 and g[1] == 2.0 ** -9  # smallest subnormal
    assert np.all(np.diff(g) > 0)


def test_e8m0_grid_is_powers_of_two():
    g = qf.enumerate_grid(qf.E8M0)
    assert len(g) == 255
    assert g[0] == 2.0 ** -127 and g[-1] == 2.0 ** 127
    np.testing.assert_array_equal(np.log2(g), np.arange(-127, 128))


def test_grid_is_readonly():
    g = qf.enumerate_grid(qf.E2M1)
    with pytest.raises(ValueError):
        g[0] = 1.0


def test_fpformat_validation():
    with pytest.raises(InvalidSpec):
        qf.FpFormat(0, 3)
    with pytest.raises(InvalidSpec):
        qf.FpFormat(12, 8)  # wider than 16 bits total
    for exp_bits, mant_bits in ((2.0, 1), (2, "1"), (True, 1)):
        with pytest.raises(InvalidSpec, match="_bits"):
            qf.FpFormat(exp_bits, mant_bits)
    # the flags are bools (numpy's included), stored as bool
    for field in ("includes_subnormals", "top_nan"):
        for value in ("no", 1, None, np.int64(0)):
            with pytest.raises(InvalidSpec, match=field):
                qf.FpFormat(2, 1, **{field: value})
    fmt = qf.FpFormat(2, 1, top_nan=np.True_)
    assert fmt.top_nan is True
    assert qf.enumerate_grid(fmt)[-1] == 4.0  # the top code left the grid
    assert qf.E4M3.top_nan and qf.E8M0.top_nan and not qf.E2M1.top_nan
    assert qf.FORMATS == {"e2m1": qf.E2M1, "e4m3": qf.E4M3, "e8m0": qf.E8M0}


# ----------------------------------------------------------- nearest-even


@pytest.mark.parametrize(
    "x,expect",
    [
        (0.24, 0.0),
        (0.25, 0.0),   # tie between 0 (code 0) and 0.5 (code 1): even wins
        (0.26, 0.5),
        (2.5, 2.0),    # tie between codes 4 and 5
        (5.0, 4.0),    # tie between codes 6 and 7
        (100.0, 6.0),  # clamps to the top of the grid
        (-5.0, -4.0),
        (-0.25, -0.0),
    ],
)
def test_rtn_even_frozen_cases(x, expect):
    assert qf.rtn_value(x, qf.E2M1) == expect


def test_rtn_vector_matches_scalar():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-8, 8, 500)
    vec = qf.rtn_value(xs, qf.E2M1)
    np.testing.assert_array_equal(vec, [qf.rtn_value(float(v), qf.E2M1) for v in xs])


def test_rtn_e4m3_roundtrip_on_grid():
    g = qf.enumerate_grid(qf.E4M3)
    signed = np.concatenate([-g[::-1], g])
    np.testing.assert_array_equal(qf.rtn_value(signed, qf.E4M3), signed)


def test_rtn_rejects_nan():
    with pytest.raises(NaNInput):
        qf.rtn_value(np.nan, qf.E2M1)


# ------------------------------------------- closed form against table search


def _formats(exp_bits):
    """Every format with ``exp_bits`` and 0-7 mantissa bits, with and without
    subnormals and a top NaN code, whose grid fits float64."""
    for mant_bits, subnormals, nan in itertools.product(range(8), (True, False), (False, True)):
        fmt = qf.FpFormat(exp_bits, mant_bits, subnormals, nan)
        try:
            qf.enumerate_grid(fmt)
        except InvalidSpec:  # fewer than two values
            continue
        yield fmt


def _probe_values(fmt, rng):
    """Grid points, midpoints, their float64 neighbours on both sides, values
    past the ends and tiny ones, with both signs, and -0."""
    g = qf.enumerate_grid(fmt)
    if g.size > 600:
        g = np.unique(np.concatenate([g[:200], g[-200:], rng.choice(g, 200)]))
    specials = [g[-1] * 1.5, g[-1] * 4.0, 1e308, 5e-324, g[0] / 2.0, g[0] / 3.0, 0.0]
    pts = np.concatenate([g, (g[:-1] + g[1:]) / 2.0, specials])
    pts = np.concatenate([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)])
    pts = pts[np.isfinite(pts)]
    return np.concatenate([pts, -pts, [-0.0]])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)  # tells +0 from -0


@pytest.mark.parametrize("exp_bits", range(1, 10))
def test_closed_form_rounding_matches_table_search(exp_bits):
    rng = np.random.default_rng(exp_bits)
    for fmt in _formats(exp_bits):
        label = f"{fmt} subnormals={fmt.includes_subnormals} nan={fmt.top_nan}"
        x = _probe_values(fmt, rng)
        np.testing.assert_array_equal(
            _bits(qf._rtn_even(x, fmt)), _bits(rtn_even_table(x, fmt)), err_msg=label
        )
        for u in (np.zeros(x.size), np.full(x.size, 0.5), rng.random(x.size)):
            np.testing.assert_array_equal(
                _bits(qf._stoch(x, fmt, u)), _bits(stoch_table(x, fmt, u)), err_msg=label
            )
        # clamped quietly: pytest makes a RuntimeWarning an error
        ends = np.array([np.inf, -np.inf, 1e308, -1e308])
        np.testing.assert_array_equal(
            _bits(qf.rtn_value(ends, fmt)), _bits(rtn_even_table(ends, fmt)), err_msg=label
        )


#: SHA-256 of ``quantize_matrix`` outputs at group sizes 16, 32 and 64, made
#: with the table-search kernels.  The input takes only ``rng.random`` and
#: exact arithmetic, so the digests depend on no BLAS or libm.
QUANTIZE_DIGESTS = {
    ("int4", "nearest"): "208a6bb97a0ee5a5bc7da9e11d44465732bd78cfdb75431b1a40283c3f0472cd",
    ("int4", "stochastic"): "b5f824f443b03c632a20d186e369c1e8fb6d58dabf4b24922b510d1512ce5b30",
    ("mxfp4", "nearest"): "c24dd9aab7c6f6a146852072c8c7df8d42aa92e4b9b674973d44d75fbe08d2f1",
    ("mxfp4", "stochastic"): "2657fb6dafa6db12fb92a2e93b328e7fbc4bdbb76560ee8d876379d749b29214",
    ("nvfp4", "nearest"): "c7f79bca9216e1c6424885e80c48aea2d8c62b32cb54f8ac16fee3fca3858fab",
    ("nvfp4", "stochastic"): "5404bf0d010fff3a595869042dce00f3746dd3a5fd376aab43d78bac8903fc02",
}


@pytest.mark.parametrize("preset,rounding", sorted(QUANTIZE_DIGESTS))
def test_quantize_matrix_digest(preset, rounding):
    rng = np.random.default_rng(2024)
    # columns at magnitudes 2**-40 .. 2**29 with non-power-of-two factors,
    # an all-zero and an all-minus-zero sub-column
    m = (rng.random((128, 24)) - 0.5) * (rng.random(24) * 10.0)
    m *= np.ldexp(1.0, np.arange(24) * 3 - 40)
    m[32:64, 5] = 0.0
    m[16:32, 7] = -0.0
    h = hashlib.sha256()
    for group_size in (16, 32, 64):
        scheme = qf.scheme_by_name(preset, rounding, group_size)
        h.update(qf.quantize_matrix(m, scheme, np.random.default_rng(7)).tobytes())
    assert h.hexdigest() == QUANTIZE_DIGESTS[preset, rounding]


# ------------------------------------------------------------------- bf16


def test_round_bf16_basics():
    # bfloat16: 7 explicit mantissa bits, so the step just above 1.0 is 2^-7
    assert qf.round_bf16(1.0) == 1.0
    assert qf.round_bf16(1.0 + 2.0 ** -7) == 1.0 + 2.0 ** -7
    # halfway between 1 and 1+2^-7 rounds to the even mantissa (1.0)
    assert qf.round_bf16(1.0 + 2.0 ** -8) == 1.0
    # halfway between 1+2^-7 and 1+2^-6 rounds up to the even 1+2^-6
    assert qf.round_bf16(1.0 + 3.0 * 2.0 ** -8) == 1.0 + 2.0 ** -6


def test_round_bf16_idempotent_and_close():
    xs = np.random.default_rng(1).standard_normal(1000) * 40.0
    r = qf.round_bf16(xs)
    np.testing.assert_array_equal(qf.round_bf16(r), r)
    assert np.max(np.abs(r - xs) / np.abs(xs)) <= 2.0 ** -8 + 1e-12


# ------------------------------------------------------------------ scales


def test_mxfp4_scales_are_powers_of_two():
    m = np.random.default_rng(2).standard_normal((64, 7)) * 12.0
    scheme = qf.mxfp4_scheme()
    for col in m.T:
        for block in col.reshape(-1, 32):
            g = qf.quantize_group(block, scheme)
            assert g.scale > 0 and np.log2(g.scale) == int(np.log2(g.scale))


def test_mxfp4_ceil_scale_never_clips():
    # po2-ceil guarantees absmax/scale <= grid max, so no value saturates
    # beyond representation error
    scheme = qf.mxfp4_scheme()
    block = np.random.default_rng(7).standard_normal(32) * 100.0
    g = qf.quantize_group(block, scheme)
    assert np.abs(block).max() / g.scale <= 6.0


E8M0_MIN, E8M0_MAX = 2.0 ** -127, 2.0 ** 127


@pytest.mark.parametrize(
    "raw, want",
    [
        (2.0 ** 3, 2.0 ** 3),  # exactly 2**k stays
        (np.nextafter(2.0 ** 3, np.inf), 2.0 ** 4),  # the next float up rounds up
        (np.nextafter(2.0 ** 3, 0.0), 2.0 ** 3),
        (2.0 ** -1074, E8M0_MIN),  # subnormal
        (np.nextafter(2.0 ** -1022, 0.0), E8M0_MIN),
        (2.0 ** -127, E8M0_MIN),
        (2.0 ** -128, E8M0_MIN),
        (np.nextafter(2.0 ** -127, np.inf), 2.0 ** -126),
        (2.0 ** 127, E8M0_MAX),
        (np.nextafter(2.0 ** 127, np.inf), E8M0_MAX),  # above 2**127 saturates
        (1e300, E8M0_MAX),
        (0.0, E8M0_MIN),
    ],
)
def test_mxfp4_scale_probes(raw, want):
    got = qf._represent_scales(np.array([raw, raw]), qf.mxfp4_scheme())
    assert got.tolist() == [want, want]


def test_nvfp4_scales_roundtrip_e4m3():
    m = np.random.default_rng(3).standard_normal((48, 5))
    scheme = qf.nvfp4_scheme()
    for col in m.T:
        for block in col.reshape(-1, 16):
            g = qf.quantize_group(block, scheme)
            assert qf.rtn_value(g.scale, qf.E4M3) == g.scale


def test_int4_scales_are_bf16():
    scheme = qf.int4_scheme()
    block = np.random.default_rng(4).standard_normal(32)
    g = qf.quantize_group(block, scheme)
    assert qf.round_bf16(g.scale) == g.scale
    # past the largest finite bf16 the scale saturates there, codes at +-7
    bf16_max = (2.0 - 2.0 ** -7) * 2.0 ** 127
    for absmax in (2.6e39, 1e40, 1e300):
        block = np.where(np.arange(32) % 2 == 0, absmax, -absmax)
        g = qf.quantize_group(block, scheme)
        assert g.scale == bf16_max
        np.testing.assert_array_equal(g.codes, np.sign(block) * 7.0)
        assert np.isfinite(qf.quantize_matrix(block[:, None], scheme)).all()


def test_int4_clip_constant():
    assert qf.INT4_GAUSSIAN_CLIP == 0.9515
    assert qf.int4_scheme().clipping == 0.9515
    assert qf.int4_scheme(clipping=None).clipping is None
    for clipping in ("0.5", True):
        with pytest.raises(InvalidSpec, match="clipping"):
            qf.int4_scheme(clipping=clipping)
    with pytest.raises(InvalidSpec, match="group_size"):
        qf.scheme_by_name("int4", group_size=32.0)
    # the formats are instances of their annotated classes, the rounding a word
    for field, args in (("value_format", ("x", qf.E8M0, 32)),
                        ("scale_format", (qf.E2M1, qf.IntSpec(4), 32)),
                        ("rounding", (qf.E2M1, qf.E8M0, 32, None, "nearest_even"))):
        with pytest.raises(InvalidSpec, match=field):
            qf.QuantScheme(*args)
    assert qf.ROUNDINGS == ("nearest", "stochastic")


def test_int4_clip_matches_gaussian_mse_derivation():
    # the full grid, 0.70 to 1.00 in steps of 0.0005: within half a step
    assert abs(gaussian_mse_clip() - qf.INT4_GAUSSIAN_CLIP) <= 0.5 * 0.0005


# ------------------------------------------------------------ group/matrix


def test_quantize_group_codes_on_grid():
    scheme = qf.mxfp4_scheme()
    block = np.random.default_rng(5).standard_normal(32)
    g = qf.quantize_group(block, scheme)
    grid = qf.enumerate_grid(qf.E2M1)
    assert np.all(np.isin(np.abs(g.codes), grid))
    np.testing.assert_array_equal(g.dequantized, g.codes * g.scale)


def test_quantize_group_zeros():
    g = qf.quantize_group(np.zeros(32), qf.mxfp4_scheme())
    assert g.scale > 0
    np.testing.assert_array_equal(g.dequantized, np.zeros(32))


def test_quantize_group_shape_errors():
    with pytest.raises(ShapeMismatch):
        qf.quantize_group(np.zeros(31), qf.mxfp4_scheme())
    with pytest.raises(NaNInput):
        qf.quantize_group(np.full(32, np.nan), qf.mxfp4_scheme())


@pytest.mark.parametrize("rounding", [qf.ROUND_NEAREST_EVEN, qf.ROUND_STOCHASTIC])
@pytest.mark.parametrize("preset", qf.PRESET_NAMES)
def test_quantize_matrix_matches_groups(preset, rounding):
    # the documented stream: one shared rng, blocks outermost, columns
    # innermost, group_size consecutive uniforms per sub-column
    preset_scheme = qf.scheme_by_name(preset, rounding=rounding)
    for group_size in (None, 16):
        scheme = qf.scheme_by_name(preset, rounding=rounding, group_size=group_size)
        assert (scheme.name, scheme.rounding, scheme.clipping) == (
            preset, rounding, preset_scheme.clipping
        )
        assert scheme.group_size == (group_size or preset_scheme.group_size)
        d = scheme.group_size
        m = np.random.default_rng(6).standard_normal((3 * d, 4)) * 5.0
        for k in range(3):
            full = qf.quantize_matrix(m, scheme, np.random.default_rng(k))
            rng = np.random.default_rng(k)
            for b in range(3):
                for c in range(4):
                    g = qf.quantize_group(m[d * b : d * (b + 1), c], scheme, rng)
                    np.testing.assert_array_equal(
                        full[d * b : d * (b + 1), c], g.dequantized
                    )


def test_quantize_matrix_rejects_bad_rows():
    with pytest.raises(ShapeMismatch):
        qf.quantize_matrix(np.zeros((33, 2)), qf.mxfp4_scheme())


def _reused_inputs(d):
    """A stacked factor's slice ``b[i, d:]``, a column-strided view, a
    contiguous matrix and float32 data, with values past the int4 and E2M1
    ends, tiny ones and signed zeros."""
    rng = np.random.default_rng(30)
    b = rng.standard_t(3, (2, 2 * d, 24)) * 4.0
    b[0, d + 1, :3] = (-0.0, 1e-300, -1e-300)
    wide = rng.standard_normal((2 * d, 48)) * 8.0
    return b, {
        "b[i, d:]": b[0, d:],
        "strided": wide[:, ::2],
        "contiguous": np.ascontiguousarray(b[1]),
        "float32": b[1].astype(np.float32),
    }


@pytest.mark.parametrize("rounding", qf.ROUNDINGS)
@pytest.mark.parametrize("preset", qf.PRESET_NAMES)
def test_quantizers_leave_their_arguments_unchanged(preset, rounding):
    # the quantizer rounds in place only on the array it allocated
    scheme = qf.scheme_by_name(preset, rounding)
    d = scheme.group_size
    b, inputs = _reused_inputs(d)
    b_before = b.copy()
    for label, m in inputs.items():
        before = m.copy()
        got = qf.quantize_matrix(m, scheme, np.random.default_rng(1))
        np.testing.assert_array_equal(_bits(m), _bits(before), err_msg=label)
        want = qf.quantize_matrix(before.copy(), scheme, np.random.default_rng(1))
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=label)
        column = m[:d, 1]  # a strided view into m
        qf.quantize_group(column, scheme, np.random.default_rng(2))
        np.testing.assert_array_equal(_bits(m), _bits(before), err_msg=label)
    np.testing.assert_array_equal(_bits(b), _bits(b_before))


@pytest.mark.parametrize("fmt", sorted(qf.FORMATS.values(), key=str), ids=str)
def test_rounding_kernels_leave_their_arguments_unchanged(fmt):
    b, inputs = _reused_inputs(32)
    b_before = b.copy()
    for label, m in inputs.items():
        before = m.copy()
        u = np.random.default_rng(3).random(m.shape)
        u_before = u.copy()
        for call in (
            lambda: qf.rtn_value(m, fmt),
            lambda: qf._rtn_even(m, fmt),
            lambda: qf._stoch(m, fmt, u),
        ):
            call()
            np.testing.assert_array_equal(_bits(m), _bits(before), err_msg=label)
            np.testing.assert_array_equal(u, u_before, err_msg=label)
    np.testing.assert_array_equal(_bits(b), _bits(b_before))


@pytest.mark.parametrize("rounding", qf.ROUNDINGS)
@pytest.mark.parametrize("preset", qf.PRESET_NAMES)
def test_non_finite_entries_refused_before_any_draw(preset, rounding):
    # max and min carry NaN and +-inf into the absmax, at any row of a block
    scheme = qf.scheme_by_name(preset, rounding)
    d = scheme.group_size
    m = np.random.default_rng(31).standard_normal((3 * d, 5))
    for bad in (np.nan, np.inf, -np.inf):
        for row in range(d, 2 * d):
            m_bad = m.copy()
            m_bad[row, 3] = bad
            rng = np.random.default_rng(4)
            state = rng.bit_generator.state
            with pytest.raises(NaNInput, match="matrix contains non-finite values"):
                qf.quantize_matrix(m_bad, scheme, rng)
            assert rng.bit_generator.state == state
    # the row count is checked first
    with pytest.raises(ShapeMismatch):
        qf.quantize_matrix(np.full((d + 1, 2), np.nan), scheme, np.random.default_rng(4))


#: tracemalloc peak of ``quantize_matrix`` on a 32 x 4096 block, in output
#: sizes.  A kernel that made a temporary per pass (``|x|``, the finite mask,
#: ``x / s``, ``rint``, ``clip``, ``codes * s``) peaked at 3.06 (int4 nearest),
#: 5.25 (int4 stochastic), 5.07 / 6.25 (mxfp4) and 5.13 / 6.32 (nvfp4).
#: Nearest int4 allows the result and the small scale arrays; every other
#: bound is one output size below those peaks.
QUANTIZE_PEAKS = {
    ("int4", "nearest"): 1.25,
    ("int4", "stochastic"): 4.25,
    ("mxfp4", "nearest"): 4.07,
    ("mxfp4", "stochastic"): 5.25,
    ("nvfp4", "nearest"): 4.13,
    ("nvfp4", "stochastic"): 5.32,
}


@pytest.mark.parametrize("preset,rounding", sorted(QUANTIZE_PEAKS))
def test_quantize_matrix_traced_peak(preset, rounding):
    scheme = qf.scheme_by_name(preset, rounding)
    m = np.random.default_rng(32).standard_normal((32, 4096))
    qf.quantize_matrix(m, scheme, np.random.default_rng(5))  # fill the grid caches
    tracemalloc.start()
    try:
        out = qf.quantize_matrix(m, scheme, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= QUANTIZE_PEAKS[preset, rounding] * out.nbytes


@pytest.mark.parametrize(
    "scheme",
    [qf.mxfp4_scheme(), qf.nvfp4_scheme(), qf.int4_scheme(clipping=None)],
    ids=["mxfp4", "nvfp4", "int4-noclip"],
)
def test_deterministic_idempotence(scheme):
    m = np.random.default_rng(8).standard_normal((64, 4)) * 3.0
    once = qf.quantize_matrix(m, scheme)
    np.testing.assert_array_equal(qf.quantize_matrix(once, scheme), once)


def test_clipped_requantization_keeps_codes():
    # with absmax clipping the scale shrinks again on requantization, so
    # values move, but the integer codes survive the round trip
    scheme = qf.int4_scheme()
    block = np.random.default_rng(9).standard_normal(32)
    g1 = qf.quantize_group(block, scheme)
    g2 = qf.quantize_group(g1.dequantized, scheme)
    np.testing.assert_array_equal(g1.codes, g2.codes)


# -------------------------------------------------------------- stochastic


def test_stochastic_mean_unbiased_in_range():
    scheme = qf.mxfp4_scheme(rounding=qf.ROUND_STOCHASTIC)
    block = np.random.default_rng(10).uniform(-4.0, 4.0, 32)
    reps = 4000
    rng = np.random.default_rng(123)
    acc = np.zeros(32)
    acc_sq = np.zeros(32)
    for _ in range(reps):
        d = qf.quantize_group(block, scheme, rng).dequantized
        acc += d
        acc_sq += d * d
    mean = acc / reps
    se = np.sqrt(np.maximum(acc_sq / reps - mean ** 2, 0.0) / reps)
    # conditional on the (deterministic) scale, each in-range coordinate is
    # unbiased; 4 SE per coordinate
    g1 = qf.quantize_group(block, scheme, np.random.default_rng(0))
    in_range = np.abs(block) <= 6.0 * g1.scale
    assert in_range.all()
    np.testing.assert_array_less(np.abs(mean - block), 4.0 * se + 1e-12)


def test_stochastic_needs_rng():
    scheme = qf.mxfp4_scheme(rounding=qf.ROUND_STOCHASTIC)
    with pytest.raises(InvalidSpec):
        qf.quantize_group(np.zeros(32), scheme)


_STOCH = qf.int4_scheme(rounding=qf.ROUND_STOCHASTIC)


@pytest.mark.parametrize("name, call", [
    ("scheme", lambda: qf.quantize_matrix(np.zeros((32, 2)), "int4")),
    ("scheme", lambda: qf.quantize_group(np.zeros(32), "int4")),
    ("rng", lambda: qf.quantize_matrix(np.zeros((32, 2)), _STOCH, 5)),
    ("rng", lambda: qf.quantize_group(np.zeros(32), _STOCH, 5)),
    ("fmt", lambda: qf.rtn_value(1.0, "e2m1")),
    ("spec", lambda: gen_synthetic({"d_in": 4})),
], ids=["matrix-scheme", "group-scheme", "matrix-rng", "group-rng", "rtn-fmt", "synthetic-spec"])
def test_entries_refuse_arguments_of_the_wrong_type(name, call):
    with pytest.raises(InvalidSpec, match=name):
        call()


def test_stochastic_matrix_reproducible_and_bracketing():
    scheme = qf.nvfp4_scheme(rounding=qf.ROUND_STOCHASTIC)
    m = np.random.default_rng(11).standard_normal((32, 4))
    a = qf.quantize_matrix(m, scheme, np.random.default_rng(42))
    b = qf.quantize_matrix(m, scheme, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    det = qf.quantize_matrix(m, qf.nvfp4_scheme())
    assert not np.array_equal(a, det)
    # every stochastic code is one of the two signed-grid neighbours of the
    # scaled value (checked per group, where the scale is visible)
    half = qf.enumerate_grid(qf.E2M1)
    sgrid = np.concatenate([-half[::-1], half[1:]])
    rng = np.random.default_rng(99)
    for k in range(20):
        v = rng.standard_normal(scheme.group_size) * rng.uniform(0.2, 5.0)
        g = qf.quantize_group(v, scheme, np.random.default_rng(k))
        t = np.clip(v / g.scale, sgrid[0], sgrid[-1])
        lo = sgrid[np.clip(np.searchsorted(sgrid, t, side="right") - 1, 0, sgrid.size - 1)]
        hi = sgrid[np.clip(np.searchsorted(sgrid, t, side="left"), 0, sgrid.size - 1)]
        assert np.all((g.codes == lo) | (g.codes == hi))


# ------------------------------------------------------------ int formats


def test_intspec_grid_max():
    assert qf.IntSpec(4).grid_max == 7
    assert qf.IntSpec(8).grid_max == 127
    with pytest.raises(InvalidSpec):
        qf.IntSpec(1)
    for bits in (4.5, "4"):  # 4.5 would quantize on a grid with max 10.31
        with pytest.raises(InvalidSpec, match="bits"):
            qf.IntSpec(bits)


def test_int_quantize_codes_are_integers():
    scheme = qf.int4_scheme()
    g = qf.quantize_group(np.random.default_rng(13).standard_normal(32), scheme)
    np.testing.assert_array_equal(g.codes, np.round(g.codes))
    assert np.abs(g.codes).max() <= 7
