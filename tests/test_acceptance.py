"""Acceptance gate: one test per shipping criterion, one printed verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -rA` to see every line.

Criteria 9 and the first two parts of criterion 10 need the public ETT
datasets. Drop ETTh1.csv / ETTm1.csv / ETTm2.csv into $FBM_DATA_DIR
(default: <repo>/data) to enable them; without the files those tests skip
with a BLOCKED message rather than passing vacuously.

Desk-scale knobs (epoch budgets, hidden widths for the directional NL vs L
check) are chosen to fit the stated runtime bounds on one CPU core and are
marked inline; tolerances come from the criteria and are not loosened.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from fbm import autodiff as ad
from fbm.autodiff import AttentionParams, Tensor
from fbm.blocks import (
    Centralization,
    InteractionBlock,
    InteractionConfig,
    PatchLayout,
    SeasonalBlock,
    TrendBlock,
    TrendConfig,
    patch,
    unpatch,
)
from fbm.cli import main
from fbm.data import SlidingWindows, SplitSpec, load_csv, split, zscore_apply, zscore_fit
from fbm.fourier import build_bases, expand_array, rdft_array, reconstruct
from fbm.models import ForecastModel, ModelSpec
from fbm.train import TrainConfig, make_case1, train
from gradcheck import input_grad_err, param_grad_err

DATA_DIR = Path(os.environ.get("FBM_DATA_DIR", Path(__file__).resolve().parents[1] / "data"))


def verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


def blocked(num, name, missing):
    msg = (
        f"[BLOCKED] criterion {num:02d} {name}: needs {missing} under {DATA_DIR} "
        "(set FBM_DATA_DIR or drop the public CSV there)"
    )
    print(msg)
    pytest.skip(msg)


# --- 1: reconstruction invariant ------------------------------------------------


def test_c01_reconstruction_roundtrip():
    t0 = time.perf_counter()
    worst = 0.0
    for T in (8, 96, 336):
        bases = build_bases(T)
        rng = np.random.default_rng(T)
        for _ in range(100):
            x = rng.standard_normal(T)
            G = expand_array(*rdft_array(x), bases)
            worst = max(worst, float(np.max(np.abs(reconstruct(G) - x))))
    dt = time.perf_counter() - t0
    verdict(
        1, "reconstruction", worst < 1e-9 and dt < 5.0,
        f"max |reconstruct(expand(rdft(x))) - x| = {worst:.2e} over 300 windows, {dt:.2f}s",
    )


# --- 2: Hermitian symmetry of the real-input DFT ----------------------------------


def test_c02_hermitian_symmetry():
    T = 336
    n = np.arange(T)
    F = np.exp(-2j * np.pi * np.outer(n, n) / T)  # naive full DFT matrix
    worst = half_err = 0.0
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(T)
        H = F @ x
        worst = max(worst, float(np.max(np.abs(H[1:] - np.conj(H[1:][::-1])))))
        H_R, H_I = rdft_array(x)
        half = H_R + 1j * H_I
        half_err = max(half_err, float(np.max(np.abs(half - H[: T // 2 + 1]))))
    verdict(
        2, "hermitian symmetry", worst < 1e-9 and half_err < 1e-9,
        f"max |H[T-k] - conj(H[k])| = {worst:.2e}, half-spectrum vs naive {half_err:.2e}",
    )


# --- 3: basis orthogonality --------------------------------------------------------


def test_c03_basis_orthogonality():
    T = 336
    bases = build_bases(T)
    c = np.where((np.arange(T // 2 + 1) == 0) | (np.arange(T // 2 + 1) == T // 2), 1.0, 2.0)
    # undo the c_k/T amplitude scaling so columns are plain cos/sin samples
    cols = np.concatenate([bases.C[:T] * T / c, bases.S[:T] * T / c], axis=1)
    M = cols.T @ cols
    np.fill_diagonal(M, 0.0)
    worst = float(np.max(np.abs(M)))
    verdict(
        3, "orthogonality", worst < 1e-8 * T,
        f"max off-diagonal inner product {worst:.2e} < {1e-8 * T:.2e}",
    )


# --- 4: seasonal fused kernel == rolling filter over padded features -----------------


def test_c04_seasonal_trick_equivalence():
    T, L = 32, 8
    K = T // 2
    sb = SeasonalBlock(T, L)
    bases = build_bases(T, pad=L - 1)
    Cp, Sp = bases.C[:, 1:], bases.S[:, 1:]  # [T+L-1, K], DC dropped
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        sb.W.value = rng.standard_normal((T, K))
        X = rng.standard_normal((3, 2, T))
        H_R, H_I = rdft_array(X)
        hr, hi = H_R[..., 1:], H_I[..., 1:]
        with ad.no_grad():
            fused = sb.forward(Tensor(hr), Tensor(hi)).value
        # direct route: materialize padded features, slide W over time rows
        Gp = hr[..., None, :] * Cp + hi[..., None, :] * Sp  # [B, D, T+L-1, K]
        direct = np.stack(
            [np.sum(sb.W.value * Gp[:, :, v : v + T], axis=(-1, -2)) for v in range(L)],
            axis=-1,
        )
        worst = max(worst, float(np.max(np.abs(fused - direct))))
    verdict(4, "seasonal trick", worst < 1e-8, f"max |fused - direct| = {worst:.2e} over 20 W")


# --- 5: gradient suite -------------------------------------------------------------


def _op_cases(rng):
    a34 = rng.standard_normal((3, 4))
    b34 = rng.standard_normal((3, 4))
    row4 = rng.standard_normal(4)
    safe_div = np.sign(b34) * (0.5 + np.abs(b34))
    kink_free = np.sign(a34) * (0.2 + np.abs(a34))
    positive = 0.5 + np.abs(b34)
    m1 = rng.standard_normal((2, 3, 4))
    m2 = rng.standard_normal((2, 4, 2))
    att = AttentionParams(np.random.default_rng(5), 4, 6, "att")
    return [
        ("add", lambda t: ad.add(t[0], t[1]), [a34, b34]),
        ("add broadcast", lambda t: ad.add(t[0], t[1]), [a34, row4]),
        ("sub", lambda t: ad.sub(t[0], t[1]), [a34, b34]),
        ("mul", lambda t: ad.mul(t[0], t[1]), [a34, b34]),
        ("mul broadcast", lambda t: ad.mul(t[0], t[1]), [a34, row4]),
        ("div", lambda t: ad.div(t[0], t[1]), [a34, safe_div]),
        ("neg", lambda t: ad.neg(t[0]), [a34]),
        ("scale", lambda t: ad.scale(t[0], 1.7), [a34]),
        ("sqrt", lambda t: ad.sqrt(t[0]), [positive]),
        ("relu", lambda t: ad.relu(t[0]), [kink_free]),
        ("matmul", lambda t: ad.matmul(t[0], t[1]), [a34, rng.standard_normal((4, 2))]),
        ("matmul batched", lambda t: ad.matmul(t[0], t[1]), [m1, m2]),
        ("transpose", lambda t: ad.transpose(t[0], (1, 0, 2)), [m1]),
        ("swap_last2", lambda t: ad.swap_last2(t[0]), [m1]),
        ("reshape", lambda t: ad.reshape(t[0], (4, 3)), [a34]),
        ("slice", lambda t: t[0][:, 1:3], [m1]),
        ("reduce_sum", lambda t: ad.reduce_sum(t[0], axis=1), [m1]),
        ("reduce_sum all", lambda t: ad.reduce_sum(t[0]), [a34]),
        ("reduce_mean", lambda t: ad.reduce_mean(t[0], axis=-1, keepdims=True), [m1]),
        ("reduce_mean all", lambda t: ad.reduce_mean(t[0]), [a34]),
        ("softmax", lambda t: ad.softmax_lastdim(t[0]), [m1]),
        ("standardize", lambda t: ad.standardize_lastdim(t[0]), [m1]),
        ("attention_block", lambda t: ad.attention_block(t[0], att), [m1[..., :4]]),
    ]


def test_c05_gradient_suite():
    errs = {}
    rng = np.random.default_rng(50)
    for name, build, arrays in _op_cases(rng):
        def loss(ts, build=build):
            y = build(ts)
            return (y * y).mean()

        errs[f"op {name}"] = input_grad_err(loss, arrays)

    # blocks at T = 16; seeds keep every relu pre-activation away from the
    # central-difference step so the oracle itself stays clean
    T = 16
    brng = np.random.default_rng(0)
    blocks = {
        "trend mlp": TrendBlock(
            brng, T, 4, 2, TrendConfig(backbone="mlp", h1=6, h2=7, P=4, scales=(1, 2))
        ),
        "trend transformer": TrendBlock(
            brng, T, 4, 2, TrendConfig(backbone="transformer", h1=6, h2=7, K=2, P=4, scales=(1,))
        ),
        "interaction": InteractionBlock(
            brng, T, 4, 3, InteractionConfig(C1=4, C2=3, h3=5, K=1)
        ),
    }
    drng = np.random.default_rng(0)
    G2 = drng.standard_normal((2, 2, T, T // 2))
    G3 = drng.standard_normal((2, 3, T, T // 2))
    X2 = drng.standard_normal((2, 2, T))
    for name, blk in blocks.items():
        G = G3 if name == "interaction" else G2

        def make_loss(blk=blk, G=G):
            y = blk.forward(Tensor(G))
            return (y * y).mean()

        errs[name] = param_grad_err(make_loss, blk.params())

    sb = SeasonalBlock(T, 4)
    sb.W.value = np.random.default_rng(0).standard_normal((T, T // 2)) * 0.3
    hr = drng.standard_normal((2, 2, T // 2))
    hi = drng.standard_normal((2, 2, T // 2))

    def seasonal_loss():
        y = sb.forward(Tensor(hr), Tensor(hi))
        return (y * y).mean()

    errs["seasonal"] = param_grad_err(seasonal_loss, sb.params())

    for variant, kw in [
        ("fbm-nl", dict(nl_h1=6, nl_h2=6)),
        ("fbm-np", dict(np_cfg=TrendConfig(backbone="transformer", P=4, h1=6, h2=6, K=1))),
    ]:
        model = ForecastModel(ModelSpec(variant=variant, T=T, L=4, D=2, **kw), seed=0)

        def model_loss(model=model):
            y = model.forward(X2)
            return (y * y).mean()

        errs[variant] = param_grad_err(model_loss, model.params)

    worst_name = max(errs, key=errs.get)
    worst = errs[worst_name]
    verdict(
        5, "gradient suite", worst < 1e-4,
        f"{len(errs)} checks, worst rel err {worst:.2e} ({worst_name})",
    )


# --- 6: roundtrips ---------------------------------------------------------------


def test_c06_roundtrips():
    worst = 0.0
    exact = True
    layout = PatchLayout.make(T=16, K=8, P=4)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cent = Centralization(D=3)
        cent.gamma.value = np.sign(rng.standard_normal(3)) * (0.5 + rng.random(3))
        cent.beta.value = rng.standard_normal(3)
        x = rng.standard_normal((2, 3, 4, 5))
        with ad.no_grad():
            xhat, stats = cent.centralize(Tensor(x))
            back = cent.decentralize(xhat, stats).value
        worst = max(worst, float(np.max(np.abs(back - x))))

        G = rng.standard_normal((2, 3, 16, 8))
        with ad.no_grad():
            again = unpatch(patch(Tensor(G), layout), layout).value
        exact = exact and np.array_equal(again, G)
    verdict(
        6, "roundtrips", worst < 1e-10 and exact,
        f"centralize inverse max err {worst:.2e}, patch roundtrip exact={exact}, 50 seeds",
    )


# --- 7: interaction mask locality ----------------------------------------------------


def test_c07_interaction_mask_locality():
    T, L, D, C1, C2 = 16, 8, 3, 4, 5
    rng = np.random.default_rng(7)
    blk = InteractionBlock(rng, T, L, D, InteractionConfig(C1=C1, C2=C2, h3=6, K=2))
    G = rng.standard_normal((2, D, T, T // 2))
    with ad.no_grad():
        base = blk.forward(Tensor(G)).value
    untouched = True
    for t in range(T - C1):
        Gp = G.copy()
        Gp[:, :, t, :] += 1.3
        with ad.no_grad():
            out = blk.forward(Tensor(Gp)).value
        untouched = untouched and np.array_equal(out, base)
    # perturbing inside the window must register (otherwise the check is vacuous)
    Gp = G.copy()
    Gp[:, :, T - 1, :] += 1.3
    with ad.no_grad():
        sensitive = not np.array_equal(blk.forward(Tensor(Gp)).value, base)
    horizon_zero = bool(np.all(base[..., C2:] == 0.0))
    verdict(
        7, "interaction mask locality", untouched and sensitive and horizon_zero,
        f"{T - C1} outside-window perturbations inert={untouched}, "
        f"inside-window sensitive={sensitive}, steps >= C2 exactly zero={horizon_zero}",
    )


# --- 8: Case I separation ------------------------------------------------------------


def test_c08_case1_separation():
    t0 = time.perf_counter()
    src = make_case1(0)  # 1000 paired windows, T=336, L=96, batch 64
    model = ForecastModel(ModelSpec(variant="fbm-l", T=336, L=96, D=1), seed=1)
    cfg = TrainConfig(T=336, L=96, epochs=12, patience=12, lr=0.01, batch_size=64, seed=0)
    _, rep = train(model, src, cfg)
    full_mse = rep.test["mse"]

    ctrl = ForecastModel(ModelSpec(variant="diag", T=336, L=96, D=1), seed=1)
    ctrl_cfg = TrainConfig(T=336, L=96, epochs=40, patience=40, lr=0.05, batch_size=64, seed=0)
    _, ctrl_rep = train(ctrl, src, ctrl_cfg)
    ctrl_mse = ctrl_rep.test["mse"]
    dt = time.perf_counter() - t0
    verdict(
        8, "case I separation", full_mse < 1e-3 and ctrl_mse > 0.1 and dt < 120.0,
        f"full real/imag mixing {full_mse:.2e} < 1e-3, per-bin diagonal control "
        f"{ctrl_mse:.3f} > 0.1 (converged), {dt:.1f}s",
    )


# --- 9: desk-scale ETT reproduction ---------------------------------------------------


def _ett_windows(filename, T, L, batch_size):
    ds = load_csv(DATA_DIR / filename)
    ranges = split(ds, SplitSpec.ett_months(), T, L)
    stats = zscore_fit(ds, ranges.train)
    return SlidingWindows(zscore_apply(ds, stats), ranges, T, L, batch_size), ds.D


def _desk_run(filename, variant, lr, epochs, seed, **spec_kw):
    src, D = _ett_windows(filename, 336, 96, 128)
    model = ForecastModel(ModelSpec(variant=variant, T=336, L=96, D=D, **spec_kw), seed=seed)
    cfg = TrainConfig(
        T=336, L=96, epochs=epochs, patience=5, lr=lr, batch_size=128, seed=seed
    )
    _, rep = train(model, src, cfg)
    return rep.test


def test_c09_table_etth1():
    if not (DATA_DIR / "ETTh1.csv").exists():
        blocked(9, "ETTh1/96 desk scale", "ETTh1.csv")
    t0 = time.perf_counter()
    # lr from the hourly-row setting; 30-epoch cap with patience 5 fits the bound
    test = _desk_run("ETTh1.csv", "fbm-l", lr=2e-5, epochs=30, seed=2021)
    dt = time.perf_counter() - t0
    ok = abs(test["mse"] - 0.366) <= 0.02 and abs(test["mae"] - 0.390) <= 0.02 and dt < 900
    verdict(
        9, "ETTh1/96 desk scale", ok,
        f"mse {test['mse']:.3f} (target 0.366 +- 0.02), mae {test['mae']:.3f} "
        f"(target 0.390 +- 0.02), {dt:.0f}s",
    )


def test_c09_table_ettm2():
    if not (DATA_DIR / "ETTm2.csv").exists():
        blocked(9, "ETTm2/96 desk scale", "ETTm2.csv")
    t0 = time.perf_counter()
    # 15-minute data has ~4x the windows (~48s/epoch measured); the epoch cap
    # keeps the run inside the bound with margin, patience usually stops sooner
    test = _desk_run("ETTm2.csv", "fbm-l", lr=4e-5, epochs=15, seed=2021)
    dt = time.perf_counter() - t0
    ok = abs(test["mse"] - 0.164) <= 0.02 and dt < 900
    verdict(
        9, "ETTm2/96 desk scale", ok,
        f"mse {test['mse']:.3f} (target 0.164 +- 0.02), {dt:.0f}s",
    )


# --- 10: directional ablation echoes ---------------------------------------------------


def test_c10_ettm1_nl_beats_l():
    if not (DATA_DIR / "ETTm1.csv").exists():
        blocked(10, "ETTm1 NL <= L", "ETTm1.csv")
    t0 = time.perf_counter()
    # directional check at desk widths: nl hidden 128 keeps the three paired
    # runs tractable on one core; the ordering, not the absolute MSE, is scored
    l_scores, nl_scores = [], []
    for seed in (1, 2, 3):
        l_scores.append(
            _desk_run("ETTm1.csv", "fbm-l", lr=4e-5, epochs=8, seed=seed)["mse"]
        )
        nl_scores.append(
            _desk_run("ETTm1.csv", "fbm-nl", lr=4e-5, epochs=8, seed=seed,
                      nl_h1=128, nl_h2=128)["mse"]
        )
    med_l, med_nl = float(np.median(l_scores)), float(np.median(nl_scores))
    dt = time.perf_counter() - t0
    verdict(
        10, "ETTm1 NL <= L", med_nl <= med_l,
        f"median over 3 seeds: fbm-nl {med_nl:.3f} <= fbm-l {med_l:.3f}, {dt:.0f}s",
    )


ETTM1_TREND = TrendConfig(backbone="mlp", h1=128, h2=1440, P=14, scales=(1, 2, 4))
ETTM1_INTER = InteractionConfig(C1=48, C2=48, h3=128, K=3)


def test_c10_fbm_s_trains_stably():
    if not (DATA_DIR / "ETTm1.csv").exists():
        blocked(10, "FBM-S 5-epoch stability", "ETTm1.csv")
    ds = load_csv(DATA_DIR / "ETTm1.csv")
    # 3000-step subsample: full-width model, enough windows for every split
    sub = type(ds)(name=ds.name, values=ds.values[:, :3000], timestamps=None)
    ranges = split(sub, SplitSpec.ratio(0.7, 0.15, 0.15), 336, 96)
    stats = zscore_fit(sub, ranges.train)
    src = SlidingWindows(zscore_apply(sub, stats), ranges, 336, 96, 64)
    spec = ModelSpec(
        variant="fbm-s", T=336, L=96, D=ds.D, trend=ETTM1_TREND, interaction=ETTM1_INTER
    )
    model = ForecastModel(spec, seed=4)
    cfg = TrainConfig(T=336, L=96, epochs=5, patience=5, lr=4e-5, batch_size=64, seed=4)
    _, rep = train(model, src, cfg)  # raises NumericError on any non-finite loss
    vals = [e["val_mse"] for e in rep.epochs]
    monotone_ish = all(b <= a * 1.10 for a, b in zip(vals, vals[1:])) and vals[-1] < vals[0]
    verdict(
        10, "FBM-S 5-epoch stability", len(vals) == 5 and monotone_ish,
        f"val mse per epoch {['%.4f' % v for v in vals]}, no non-finite loss",
    )


def test_c10_zero_init_fbm_s_predicts_window_mean():
    spec = ModelSpec(
        variant="fbm-s", T=336, L=96, D=3,
        trend=TrendConfig(backbone="mlp", h1=8, h2=9, P=14, scales=(1, 2, 4)),
        interaction=InteractionConfig(C1=48, C2=48, h3=8, K=1),
    )
    model = ForecastModel(spec, seed=0, zero_weights=True)
    X = np.random.default_rng(10).standard_normal((4, 3, 336)) * 3.0 + 1.5
    pred = model.predict(X)
    mean = X.mean(axis=-1, keepdims=True)
    ok = np.array_equal(pred, np.broadcast_to(mean, pred.shape))
    verdict(10, "zero-init window mean", ok, "prediction equals per-window channel mean exactly")


# --- 11: parameter-count check --------------------------------------------------------


def test_c11_parameter_counts():
    rc = main(
        [
            "model-describe", "--variant", "fbm-s", "--T", "336", "--L", "96",
            "--D", "170", "--trend-backbone", "mlp", "--trend-h1", "256",
            "--trend-h2", "1440", "--trend-p", "14", "--scales", "2",
            "--interaction", "--c1", "24", "--c2", "96", "--h3", "512",
            "--inter-k", "3",
        ]
    )
    assert rc == 0
    spec = ModelSpec(
        variant="fbm-s", T=336, L=96, D=170,
        trend=TrendConfig(backbone="mlp", h1=256, h2=1440, P=14, scales=(2,)),
        interaction=InteractionConfig(C1=24, C2=96, h3=512, K=3),
    )
    counts = dict(ForecastModel(spec, seed=0).describe())
    targets = {"trend": 5.56, "interaction": 6.82, "seasonal": 0.05}
    detail = []
    ok = True
    for name, target in targets.items():
        millions = counts[name] / 1e6
        ok = ok and abs(millions - target) <= 0.01 * target + 0.01
        detail.append(f"{name} {millions:.3f}M vs {target}M")
    verdict(11, "parameter counts", ok, ", ".join(detail) + " (within 1% + rounding)")
