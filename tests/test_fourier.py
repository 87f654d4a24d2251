import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbm import fourier as fb
from fbm.autodiff import Tensor
from fbm.blocks import Grid, downsample_op
from fbm.errors import ConfigError

from oracles import direct_downsample, naive_complex_dft, naive_complex_idft


def test_rdft_constant_window():
    H_R, H_I = fb.rdft_array(np.full(8, 2.5))
    expect = np.zeros(5)
    expect[0] = 8 * 2.5
    np.testing.assert_allclose(H_R, expect, atol=1e-12)
    np.testing.assert_allclose(H_I, np.zeros(5), atol=1e-12)


def test_rdft_pure_cosine_bin():
    T = 16
    x = np.cos(2 * np.pi * 3 * np.arange(T) / T)
    H_R, H_I = fb.rdft_array(x)
    expect = np.zeros(T // 2 + 1)
    expect[3] = T / 2
    np.testing.assert_allclose(H_R, expect, atol=1e-10)
    np.testing.assert_allclose(H_I, np.zeros(T // 2 + 1), atol=1e-10)


def test_rdft_hand_example():
    H_R, H_I = fb.rdft_array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(H_R, [10.0, -2.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(H_I, [0.0, 2.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("bad_T", [3, 7, 335])
def test_odd_length_rejected(bad_T):
    with pytest.raises(ConfigError):
        fb.rdft_array(np.zeros(bad_T))
    with pytest.raises(ConfigError):
        fb.build_bases(bad_T)


def test_tiny_length_rejected():
    with pytest.raises(ConfigError):
        fb.rdft_array(np.zeros(2))


@pytest.mark.parametrize("seed", range(20))
def test_hermitian_symmetry_vs_naive_dft(seed):
    T = 32  # the acceptance suite runs T=336; keep the unit test fast
    x = np.random.default_rng(seed).normal(size=T)
    full = naive_complex_dft(x)
    for k in range(1, T // 2):
        assert abs(full[T - k] - np.conj(full[k])) < 1e-9
    H_R, H_I = fb.rdft_array(x)
    np.testing.assert_allclose(H_R, full[: T // 2 + 1].real, atol=1e-9)
    np.testing.assert_allclose(H_I, full[: T // 2 + 1].imag, atol=1e-9)
    assert H_I[0] == 0.0 and H_I[T // 2] == 0.0


def test_basis_matrix_values():
    T = 8
    b = fb.build_bases(T)
    ck = np.array([1.0, 2, 2, 2, 1])
    np.testing.assert_allclose(b.C[0], ck / T, atol=1e-15)  # cos(0) = 1
    np.testing.assert_array_equal(b.S[:, 0], np.zeros(T))
    np.testing.assert_allclose(b.C[:, 0], np.full(T, 1.0 / T), atol=1e-15)
    # column orthogonality by direct summation, unnormalized columns
    cos2 = b.C[:, 2] * T / ck[2]
    cos3 = b.C[:, 3] * T / ck[3]
    assert abs(np.dot(cos2, cos3)) < 1e-12


def test_basis_orthogonality_direct_summation():
    T = 64
    n = np.arange(T)
    cols_c = [np.cos(2 * np.pi * k * n / T) for k in range(T // 2 + 1)]
    cols_s = [-np.sin(2 * np.pi * k * n / T) for k in range(T // 2 + 1)]
    for k in range(T // 2 + 1):
        for j in range(T // 2 + 1):
            if k != j:
                assert abs(np.dot(cols_c[k], cols_c[j])) < 1e-8 * T
                assert abs(np.dot(cols_s[k], cols_s[j])) < 1e-8 * T
            assert abs(np.dot(cols_c[k], cols_s[j])) < 1e-8 * T


@settings(max_examples=30, deadline=None)
@given(
    T=st.sampled_from([8, 16, 96]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reconstruction_roundtrip(T, seed):
    x = np.random.default_rng(seed).normal(size=T) * 10
    G = fb.expand_array(*fb.rdft_array(x), fb.build_bases(T))
    assert np.max(np.abs(fb.reconstruct(G) - x)) < 1e-9


def test_reconstruction_matches_complex_idft_oracle():
    T = 24
    x = np.random.default_rng(7).normal(size=T)
    G = fb.expand_array(*fb.rdft_array(x), fb.build_bases(T))
    full = naive_complex_dft(x)
    back = naive_complex_idft(full)
    np.testing.assert_allclose(fb.reconstruct(G), back.real, atol=1e-9)


def test_expand_single_bin_is_that_cosine():
    T = 16
    x = np.cos(2 * np.pi * 2 * np.arange(T) / T)
    G = fb.expand_array(*fb.rdft_array(x), fb.build_bases(T))
    other = np.delete(G, 2, axis=1)
    assert np.max(np.abs(other)) < 1e-10
    np.testing.assert_allclose(G[:, 2], x, atol=1e-10)


def test_expand_phase_shifted_cosine_stays_in_its_column():
    T = 16
    x = np.cos(2 * np.pi * 2 * np.arange(T) / T + np.pi / 4)
    G = fb.expand_array(*fb.rdft_array(x), fb.build_bases(T))
    np.testing.assert_allclose(G[:, 2], x, atol=1e-10)


def test_drop_dc_after_standardization():
    T = 96
    rng = np.random.default_rng(0)
    x = rng.normal(size=T) + 5.0
    x = (x - x.mean()) / x.std()
    H_R, H_I = fb.rdft_array(x)
    assert abs(H_R[0]) < 1e-9 * T  # DC bin vanishes for zero-mean input
    G = fb.expand_array(H_R, H_I, fb.build_bases(T), drop_dc=True)
    assert G.shape == (T, T // 2)
    assert np.max(np.abs(fb.reconstruct(G) - x)) < 1e-9


def test_expand_length_mismatch():
    with pytest.raises(ConfigError):
        fb.expand_array(*fb.rdft_array(np.zeros(8)), fb.build_bases(16))


def test_negative_basis_pad_rejected():
    with pytest.raises(ConfigError, match="basis pad must be >= 0, got -1"):
        fb.build_bases(16, pad=-1)


def test_padded_rows_are_analytic_continuation():
    T, L = 16, 5
    b = fb.build_bases(T, pad=L - 1)
    assert b.C.shape == (T + L - 1, T // 2 + 1)
    k = np.arange(T // 2 + 1)
    ck = np.where((k == 0) | (k == T // 2), 1.0, 2.0) / T
    for v in range(L - 1):
        n = T + v
        np.testing.assert_allclose(b.C[n], ck * np.cos(2 * np.pi * k * n / T), atol=1e-10)
        expect_s = -ck * np.sin(2 * np.pi * k * n / T)
        expect_s[0] = 0.0
        expect_s[T // 2] = 0.0
        np.testing.assert_allclose(b.S[n], expect_s, atol=1e-10)


@pytest.mark.parametrize("T,pad", [(16, 40), (32, 7), (336, 95)])
def test_padded_rows_repeat_rows_mod_T_bitwise(T, pad):
    # diag reads its horizon rows straight from the padded tables, so they
    # must equal the window's rows n mod T bit for bit, zero signs included
    b = fb.build_bases(T, pad=pad)
    rows = np.arange(T, T + pad) % T
    for table in (b.C, b.S):
        assert table[T:].tobytes() == table[rows].tobytes()


SIGN_BIT = np.int64(np.iinfo(np.int64).min)


@pytest.mark.parametrize("T", [4, 6, 8, 16, 18, 336])  # T = 0 and 2 mod 4
def test_tables_are_one_wave_folded_by_symmetry(T):
    cm, sm = fb.dft_matrices(T)
    half, j = T // 2, np.arange(T)
    cos, sin = cm[:, 1], -sm[:, 1]  # column 1 is the wave itself
    nk = j[:, None] * np.arange(half + 1) % T
    assert cm.tobytes() == cos[nk].tobytes()
    assert sm[:, 1:half].tobytes() == (-sin[nk[:, 1:half]]).tobytes()
    assert sm[:, [0, half]].tobytes() == np.zeros((T, 2)).tobytes()  # DC and Nyquist: +0.0
    # half-wave antisymmetry, bit for bit: what lets Adam fold a bin's period in two
    for wave in (cos, sin):
        assert wave[:half].view(np.int64).tolist() == (wave[half:].view(np.int64) ^ SIGN_BIT).tolist()
    # reflection: equal, and bit for bit but for the sign of a zero (cos(T/4) is +0.0,
    # so by the half-wave rule cos(3T/4) is -0.0)
    m = np.arange(1, half)
    for got, want in ((cos[T - m], cos[m]), (sin[T - m], -sin[m])):
        assert np.array_equal(got, want)
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
    assert not cm.flags.writeable and not sm.flags.writeable
    ang = 2.0 * np.pi * nk / T
    assert np.abs(cm - np.cos(ang)).max() <= 2e-15
    assert np.abs(sm[:, 1:half] + np.sin(ang[:, 1:half])).max() <= 2e-15


def test_rdft_array_takes_a_stack_as_one_product():
    # the whole stack goes through one GEMM: each window's halves within roundoff of its own
    x = np.random.default_rng(3).normal(size=(3, 2, 16))
    H_R, H_I = fb.rdft_array(x)
    cm, sm = fb.dft_matrices(16)
    assert H_R.shape == H_I.shape == (3, 2, 9)
    for b in range(3):
        for d in range(2):
            for got, table in ((H_R, cm), (H_I, sm)):
                bound = 4 * np.finfo(float).eps * (np.abs(x[b, d]) @ np.abs(table))
                assert np.all(np.abs(got[b, d] - x[b, d] @ table) <= bound)


def test_amplitude_phase_triangle():
    # construct a spectrum whose fused coefficients are A=3, B=4 at bin 1
    real = np.zeros(5)  # T = 8
    imag = np.zeros(5)
    real[1] = 3.0 / 2.0  # c_1 = 2 doubles it back to 3
    imag[1] = -4.0 / 2.0  # B = -c_1 * H_I
    ap = fb.amplitude_phase(real, imag)
    np.testing.assert_allclose(ap.amp[1], 5.0, atol=1e-12)
    np.testing.assert_allclose(ap.phase[1], np.arctan2(4.0, 3.0), atol=1e-12)


def test_amplitude_phase_pure_cosine_is_zero_phase():
    T = 16
    x = np.cos(2 * np.pi * 3 * np.arange(T) / T)
    ap = fb.amplitude_phase(*fb.rdft_array(x))
    assert abs(ap.phase[3]) < 1e-10
    # fused coefficients carry c_k and the missing 1/T: unit cosine -> R = T
    np.testing.assert_allclose(ap.amp[3], float(T), atol=1e-9)


def test_amplitude_phase_zero_bin_convention():
    ap = fb.amplitude_phase(np.zeros(5), np.zeros(5))  # T = 8
    np.testing.assert_array_equal(ap.phase, np.zeros(5))
    np.testing.assert_array_equal(ap.amp, np.zeros(5))


def test_case1_phase_gap_law():
    # a window and its 104-step-shifted copy share amplitude; phases differ
    # by 2*pi*k*104/336 at the active bin
    T, k, shift = 336, 14, 104
    delta = 17.3
    n = np.arange(T)
    x = np.cos(2 * np.pi * k * (n + delta) / T)
    y = np.cos(2 * np.pi * k * (n + delta + shift) / T)
    ap_x = fb.amplitude_phase(*fb.rdft_array(x))
    ap_y = fb.amplitude_phase(*fb.rdft_array(y))
    np.testing.assert_allclose(ap_x.amp[k], ap_y.amp[k], atol=1e-9)
    gap = (ap_x.phase[k] - ap_y.phase[k]) % (2 * np.pi)
    expect = (2 * np.pi * k * shift / T) % (2 * np.pi)
    np.testing.assert_allclose(gap, expect, atol=1e-9)


def _downsample(G, kernel):
    # the dense grid [..., t, f] built back from the coarse Grid's coef[..., f, c] and rows[f, c, t]
    coarse = downsample_op(Grid.of(Tensor(G)), kernel)
    return np.einsum("...fc,fct->...tf", coarse.coef.value, coarse.rows)


@pytest.mark.parametrize("kernel", [2, 4])
def test_downsample_matches_the_direct_oracle(kernel):
    rng = np.random.default_rng(3)
    G = rng.normal(size=(2, 16, 8))
    np.testing.assert_allclose(
        _downsample(G, kernel), direct_downsample(G, kernel), atol=1e-12
    )


def test_downsample_preserves_reconstruction_mean():
    # frequency summation keeps each row's total; time averaging then
    # matches the window means of the reconstructed series. Uses the
    # model's layout: DC dropped, T/2 columns (even).
    T = 32
    x = np.random.default_rng(5).normal(size=T)
    x = x - x.mean()
    G = fb.expand_array(*fb.rdft_array(x), fb.build_bases(T), drop_dc=True)[None]
    d1 = _downsample(G, 2)
    np.testing.assert_allclose(
        d1.sum(axis=-1)[0], x.reshape(-1, 2).mean(axis=1), atol=1e-9
    )


def test_downsample_constant_series():
    # with DC kept (T=30 gives an even column count) a constant survives
    T = 30
    x = np.full(T, 3.0)
    G = fb.expand_array(*fb.rdft_array(x), fb.build_bases(T))[None]
    d1 = _downsample(G, 2)
    np.testing.assert_allclose(d1.sum(axis=-1), np.full((1, T // 2), 3.0), atol=1e-9)


def test_downsample_rejects_nondivisible():
    with pytest.raises(ConfigError):
        _downsample(np.zeros((1, 6, 9)), 4)
    with pytest.raises(ConfigError):
        _downsample(np.zeros((1, 8, 4)), 3)


def test_amplitude_distribution_copies_nothing_and_equals_the_percentiles_of_a_copy():
    amps = np.random.default_rng(2).uniform(size=(2001, 3, 24))
    want = (amps.mean(axis=0), *np.percentile(amps.copy(), [2.5, 97.5], axis=0))
    tracemalloc.start()
    try:
        got = fb.amplitude_distribution(amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert peak < amps.nbytes / 4, peak / amps.nbytes  # amps is reordered in place


def test_amplitude_distribution_percentiles():
    rng = np.random.default_rng(1)
    amps = rng.uniform(size=(400, 2, 5))
    mean, lo, hi = fb.amplitude_distribution(amps)
    assert mean.shape == lo.shape == hi.shape == (2, 5)
    assert np.all(lo <= mean) and np.all(mean <= hi)
    np.testing.assert_allclose(mean, amps.mean(axis=0), atol=1e-12)
