"""End-to-end acceptance checks.

Each test here pins one user-facing contract of the package — the noise-model
optimality claims, the bound chains, the exact transform algebra, quantizer
behavior, the directional quality ordering on heavy-tailed data, and sweep
determinism.  Run with ``pytest tests/test_acceptance.py -v`` for one
pass/fail line per contract; each test also prints a ``[acceptance]`` summary
(visible with ``-s`` or in captured output).
"""

import json
import math

import numpy as np
import pytest

from _oracles import compose_transform
from wushkit import cli
from wushkit import noise
from wushkit import pipeline as pl
from wushkit import quantformats as qf
from wushkit import stats_bounds as sb
from wushkit import transforms as tf
from wushkit.linalg import hadamard, random_rotation, sym_eigen

FP_MODEL = noise.FpRelative(3, 3)
INT_MODEL = noise.IntAbsmax(4)


def _passed(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


def _spectral_setup(d: int, seed: int):
    """Random SPD moment plus its eigenbasis and singular values."""
    moment, _ = noise.random_spd_moment(d, seed)
    u, lam = sym_eigen(moment)
    s = np.sqrt(lam)
    return moment, u, s


def _optimal_transform(d: int, u, s):
    return compose_transform(hadamard(d), np.sqrt(s), np.eye(d), u, s)


# ---------------------------------------------------------------------------
# 1. the whitening + Hadamard transform attains the FP-noise lower bound


def test_fp_noise_optimal_transform_attains_lower_bound():
    ratios = []
    for d in (16, 32):
        for seed in range(10):
            moment, u, s = _spectral_setup(d, seed)
            t = _optimal_transform(d, u, s)
            est = noise.one_sided_loss_mc(t, moment, FP_MODEL, 100_000, seed)
            bound = FP_MODEL.eta_second_moment() * float(s.sum()) ** 2 / d
            ratios.append(est.value / bound)
    assert min(ratios) >= 0.97 and max(ratios) <= 1.05
    _passed(
        "fp optimal transform attains lower bound",
        f"20 instances, loss/bound in [{min(ratios):.4f}, {max(ratios):.4f}]",
    )


# ---------------------------------------------------------------------------
# 2. orthogonal transforms cannot reduce FP noise below tr(S^2)


def test_fp_noise_orthogonal_transforms_are_futile():
    checked = beat = 0
    for d, seed in ((16, 0), (32, 3)):
        moment, u, s = _spectral_setup(d, seed)
        opt = noise.one_sided_loss_mc(
            _optimal_transform(d, u, s), moment, FP_MODEL, 100_000, seed
        )
        target = FP_MODEL.eta_second_moment() * float(np.sum(s * s))
        floor = FP_MODEL.eta_second_moment() * float(s.sum()) ** 2 / d
        candidates = (
            np.eye(d),
            hadamard(d),
            random_rotation(d, seed + 7),
        )
        for t in candidates:
            est = noise.one_sided_loss_mc(t, moment, FP_MODEL, 100_000, seed + 1)
            assert abs(est.value - target) <= 3.0 * est.se
            checked += 1
            if target - floor > 5.0 * (est.se + opt.se):
                assert est.value > opt.value
                beat += 1
    _passed(
        "orthogonal transforms are futile under fp noise",
        f"{checked} transforms match tr(S^2) within 3 SE; "
        f"optimal transform won all {beat} resolvable comparisons",
    )


# ---------------------------------------------------------------------------
# 3. the INT-noise loss sits inside its two-sided bound chain


def test_int_noise_loss_contained_in_bound_chain():
    trials = failures = 0
    tightest = math.inf
    for d in (16, 32):
        refined_factor = (2.0 * math.log(2.0 * d) + 2.0) / d
        for seed in range(50):
            moment, u, s = _spectral_setup(d, seed)
            t = _optimal_transform(d, u, s)
            est = noise.one_sided_loss_mc(t, moment, INT_MODEL, 20_000, seed)
            scaled = est.value / INT_MODEL.eta_second_moment()
            tr = float(s.sum())
            lower, upper = tr * tr / d, tr * tr
            refined = refined_factor * tr * tr
            trials += 1
            if not (lower <= scaled <= upper and scaled <= refined):
                failures += 1
            tightest = min(tightest, refined / scaled)
    assert trials == 100 and failures == 0
    _passed(
        "int noise loss contained in bound chain",
        f"100/100 trials inside [lower, upper] and refined cap "
        f"(tightest refined/measured = {tightest:.2f})",
    )


# ---------------------------------------------------------------------------
# 4. the max-square moment bounds hold for every family / dim / correlation


def test_max_square_bounds_hold_for_all_dims_and_correlations():
    worst_slack = math.inf
    cells = 0
    for family in sb.FAMILIES:
        for k in range(1, 11):  # d = 2 .. 1024
            d = 1 << k
            for cov in sb.COV_STRUCTURES:
                est = sb.mc_max_sq(family, d, cov, n_samples=1_000_000, seed=0)
                slack = est.bound - (est.empirical + 3.0 * est.se)
                assert slack >= 0.0, (family, d, cov, est)
                worst_slack = min(worst_slack, slack)
                cells += 1
    _passed(
        "max-square bounds hold across dims and correlations",
        f"{cells} family/dim/correlation cells, worst slack {worst_slack:.3f}",
    )


@pytest.mark.parametrize("family", sb.FAMILIES)
@pytest.mark.parametrize("cov", sb.COV_STRUCTURES)
@pytest.mark.xfail(
    strict=True,
    reason=(
        "at d = 1 both bounds equal the marginal second moment exactly, so an "
        "unbiased Monte Carlo estimate plus three standard errors exceeds the "
        "bound almost surely; the one-dimensional case admits no slack for a "
        "one-sided estimate-above-bound check (the violation-detection "
        "direction, MaxSqEstimate.consistent(), is what holds at d = 1)"
    ),
)
def test_max_square_bound_has_no_slack_at_dim_one(family, cov):
    est = sb.mc_max_sq(family, 1, cov, n_samples=1_000_000, seed=0)
    assert est.empirical + 3.0 * est.se <= est.bound


# ---------------------------------------------------------------------------
# 5. exact-algebra invariants of the transform constructions


def test_transform_algebra_exact_invariants():
    # Hadamard family: orthogonal with +-d^-1/2 entries
    d = 1
    while d <= 128:
        h = hadamard(d)
        assert np.max(np.abs(h @ h.T - np.eye(d))) <= 1e-12
        np.testing.assert_allclose(np.abs(h), d ** -0.5, rtol=1e-14)
        d *= 2

    # every kind's two sides multiply back to the identity
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 64))
    b = rng.standard_normal((16, 64))
    mw, mx = (a @ a.T / 64, b @ b.T / 64)
    for kind in tf.TRANSFORM_KINDS:
        t_act, t_weight = tf.build_block(kind, mw[None], mx[None], seed=1)
        assert np.max(np.abs(t_act[0] @ t_weight[0].T - np.eye(16))) <= 1e-8

    # the Hadamard factor equalizes the transformed activation moment
    t_act, _ = tf.build_block("wush", mw[None], mx[None])
    diag = np.diag(t_act[0] @ mx @ t_act[0].T)
    assert np.max(np.abs(diag - diag.mean())) / diag.mean() <= 1e-8

    # isotropic input: the construction degenerates to the plain Hadamard
    for d in (8, 32):
        t_act, _ = tf.build_block("wush", np.eye(d)[None], np.eye(d)[None])
        assert np.max(np.abs(t_act[0] - hadamard(d))) <= 1e-12

    _passed(
        "transform algebra exact invariants",
        "hadamard entries/orthogonality to d=128, pairing 1e-8 for all 5 kinds, "
        "diagonal equalization 1e-8, isotropy reduction 1e-12",
    )


# ---------------------------------------------------------------------------
# 6. quantizer grids, scales and rounding contracts


def test_quantizer_grids_scales_and_rounding_contracts():
    np.testing.assert_array_equal(
        qf.enumerate_grid(qf.E2M1), [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
    )

    rng = np.random.default_rng(1)
    for k in range(20):
        v = rng.standard_normal(32) * rng.uniform(0.01, 30.0)
        scale = qf.quantize_group(v, qf.mxfp4_scheme()).scale
        assert math.frexp(scale)[0] == 0.5  # exact power of two
    for k in range(20):
        v = rng.standard_normal(16) * rng.uniform(0.01, 30.0)
        scale = qf.quantize_group(v, qf.nvfp4_scheme()).scale
        assert qf.rtn_value(scale, qf.E4M3) == scale  # representable scale

    # stochastic rounding is unbiased per coordinate
    v = np.random.default_rng(2).standard_normal(32) * 1.7
    reps = 100_000
    m = np.tile(v[:, None], (1, reps))
    scheme = qf.mxfp4_scheme(rounding=qf.ROUND_STOCHASTIC)
    out = qf.quantize_matrix(m, scheme, np.random.default_rng(5))
    mean = out.mean(axis=1)
    se = out.std(axis=1, ddof=1) / math.sqrt(reps)
    assert np.all(se > 0.0)
    worst = float(np.max(np.abs(mean - v) / se))
    assert worst <= 4.0

    # deterministic rounding is idempotent (absent clipping, which shrinks
    # values on requantization by design)
    m = np.random.default_rng(3).standard_normal((64, 7))
    for scheme in (
        qf.mxfp4_scheme(),
        qf.nvfp4_scheme(),
        qf.int4_scheme(clipping=None),
    ):
        once = qf.quantize_matrix(m, scheme)
        np.testing.assert_array_equal(qf.quantize_matrix(once, scheme), once)

    _passed(
        "quantizer grids, scales and rounding contracts",
        f"grid exact, scale formats honored, stochastic bias <= {worst:.2f} SE "
        f"at 1e5 reps, deterministic idempotence",
    )


# ---------------------------------------------------------------------------
# 7. the adaptive transforms beat the baselines on heavy-tailed layers


def _heavy_tailed_layer(seed: int):
    return pl.gen_synthetic(
        pl.SyntheticSpec(
            d_in=128,
            d_out=128,
            d_batch=512,
            spectrum_power=1.0,
            tail="student_t",
            tail_dof=4.0,
            outlier_count=2,
            outlier_magnitude=10.0,
            seed=seed,
        )
    )


def test_adaptive_transforms_beat_baselines_on_heavy_tailed_layers():
    int4_wins = mx_wins = nv_wins = 0
    n_seeds = 40
    for seed in range(n_seeds):
        w, x = _heavy_tailed_layer(seed)

        def loss(kind, scheme):
            return pl.layer_loss(w, x, kind, scheme, seed=seed).layer_loss

        i4 = {k: loss(k, qf.int4_scheme()) for k in ("wush", "h", "i")}
        if i4["wush"] < i4["h"] < i4["i"]:
            int4_wins += 1

        mx = {k: loss(k, qf.mxfp4_scheme()) for k in ("wush", "h")}
        if mx["wush"] < mx["h"]:
            mx_wins += 1

        nv = {k: loss(k, qf.nvfp4_scheme()) for k in ("wus", "wush", "h")}
        close = abs(nv["wus"] - nv["wush"]) <= 0.1 * max(nv["wus"], nv["wush"])
        if close and nv["wus"] < nv["h"] and nv["wush"] < nv["h"]:
            nv_wins += 1

    assert int4_wins >= 38  # 95% of 40
    assert mx_wins >= 36  # 90% of 40
    assert nv_wins >= 36  # 90% of 40
    _passed(
        "adaptive transforms beat baselines on heavy-tailed layers",
        f"int4 full ordering {int4_wins}/40, mxfp4 {mx_wins}/40, "
        f"nvfp4 near-tie-and-win {nv_wins}/40",
    )


# ---------------------------------------------------------------------------
# 8. the dropped error-cross-term is small at 4-bit settings


def test_first_order_error_decomposition_dominates():
    worst = 0.0
    for seed in range(10):
        w, x = _heavy_tailed_layer(seed)
        for scheme in (qf.int4_scheme(), qf.mxfp4_scheme(), qf.nvfp4_scheme()):
            _, _, gap = pl.first_order_gap(w, x, "wush", scheme, seed=seed)
            worst = max(worst, gap)
    assert worst < 0.2
    _passed(
        "first-order error decomposition dominates",
        f"max relative cross-term gap {worst:.4f} over 10 seeds x 3 schemes",
    )


# ---------------------------------------------------------------------------
# 9. sweeps are byte-for-byte reproducible


def test_sweep_rerun_is_byte_identical(tmp_path):
    doc = {
        "data": {"synthetic": {"d_in": 64, "d_out": 8, "d_batch": 64}},
        "transforms": ["i", "h", "wush"],
        "schemes": ["int4", "mxfp4"],
        "seeds": [0, 1],
        "output": "losses.csv",
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    first = (tmp_path / "losses.csv").read_bytes()
    (tmp_path / "losses.csv").unlink()
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    second = (tmp_path / "losses.csv").read_bytes()
    assert first == second
    n_rows = len(first.decode().splitlines()) - 3
    _passed(
        "sweep rerun is byte identical",
        f"{n_rows} rows, {len(first)} bytes, two runs compared",
    )
