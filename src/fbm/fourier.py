"""DFT analysis and Fourier basis expansion into time-frequency features.

A length-T real window is analyzed into T/2+1 real/imaginary coefficient
pairs (the remaining bins are implied by conjugate symmetry). Multiplying
the coefficients with the cosine/sine basis tables spreads the window
into a T x (T/2+1) feature grid whose frequency-sum reconstructs the
window. The tables can be continued analytically past n = T-1, where
their rows give the sinusoids' values at horizon steps.

The DFT is the O(T^2) matrix form on purpose: T <= 336 here, the matrix
doubles as the exact Jacobian of the expansion, and angles are reduced
mod T, so the tables stay accurate to ~1e-15 even in the padded region.
Every entry is read from one wave, cos and sin of 2 pi j / T for j in
[0, T), computed on its first quarter and folded out by symmetry, so the
wave's identities hold bit for bit: cos(j + T/2) = -cos(j) and
sin(j + T/2) = -sin(j), and, but for the sign of a zero, cos(T - j) =
cos(j) and sin(T - j) = -sin(j). So a bin whose rows have an even period
(but Nyquist, whose sine row is +0.0) has a second half-period exactly the
first negated, and autodiff's factored Adam steps it on half its period.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError


def _check_window_length(T):
    if T < 4 or T % 2 != 0:
        raise ConfigError(f"window length must be even and >= 4, got {T}")


@dataclass(frozen=True)
class BasisMatrices:
    """Scaled cosine/sine tables over n in [0, T+pad), k in [0, T/2]."""

    C: np.ndarray
    S: np.ndarray
    T: int


@dataclass(frozen=True)
class AmplitudePhase:
    amp: np.ndarray
    phase: np.ndarray


@lru_cache(maxsize=32)
def dft_matrices(T):
    """Tables turning a window into its half spectrum: H_R = x @ cm, H_I = x @ sm.

    Entry [n, k] is the wave cos / -sin at j = nk mod T, with trig calls for
    j <= T/4 only: the rest of the first half wave is their reflection
    (cos(T/2 - j) = -cos(j), sin(T/2 - j) = sin(j), and cos(T/4) exactly 0),
    and the second half wave is the first negated."""
    _check_window_length(T)
    half = T // 2
    j = np.arange(half)
    r = np.minimum(j, half - j)  # j reflected into the first quarter
    ang = 2.0 * np.pi * r / T
    cos = np.where(r == j, 1.0, -1.0) * np.where(4 * r == T, 0.0, np.cos(ang))
    sin = np.sin(ang)
    cos, sin = np.concatenate([cos, -cos]), np.concatenate([sin, -sin])  # then the second half
    nk = np.arange(T)[:, None] * np.arange(half + 1) % T
    cm = cos[nk]
    sm = -sin[nk]
    sm[:, [0, half]] = 0.0  # DC's and Nyquist's sines are zero: +0.0 in every row
    cm.flags.writeable = False
    sm.flags.writeable = False
    return cm, sm


def rdft_array(X):
    """Half spectrum of a window or a batch of them:
    X[..., T] -> (H_R[..., T/2+1], H_I[..., T/2+1])."""
    X = np.asarray(X, dtype=np.float64)
    cm, sm = dft_matrices(X.shape[-1])
    rows, shape = X.reshape(-1, X.shape[-1]), X.shape[:-1] + (-1,)  # one GEMM for a stack, as ad.matmul
    return (rows @ cm).reshape(shape), (rows @ sm).reshape(shape)


@lru_cache(maxsize=32)
def build_bases(T, pad=0):
    """C[n,k] = (1/T) c_k cos(2 pi k n / T), S[n,k] = -(1/T) c_k sin(...).

    c_k doubles every bin except DC and Nyquist so that the frequency-sum
    over H_R*C + H_I*S reproduces the window. Rows n >= T (pad > 0) are
    the analytic continuation of the same sinusoids, not zero padding:
    the reduced angle of row n is that of row n mod T, so they are scaled
    copies of the rows of dft_matrices(T).
    """
    _check_window_length(T)
    if pad < 0:
        raise ConfigError(f"basis pad must be >= 0, got {pad}")
    cm, sm = dft_matrices(T)
    rows = np.arange(T + pad) % T
    k = np.arange(T // 2 + 1)
    ck = np.where((k == 0) | (k == T // 2), 1.0, 2.0) / T
    C = ck * cm[rows]
    S = ck * sm[rows]
    C.flags.writeable = False
    S.flags.writeable = False
    return BasisMatrices(C=C, S=S, T=T)


def expand_array(H_R, H_I, bases, drop_dc=False):
    """Time-frequency features G[..., n, k] = H_R[..., k] C[n, k] + H_I[..., k] S[n, k]
    of full spectrum halves H_*[..., T/2+1]; G is [..., T, K] with K = T/2(+1).

    Only the first T rows of the bases are used.
    """
    if H_R.shape[-1] != bases.T // 2 + 1:
        raise ConfigError(f"basis length {bases.T} does not fit {H_R.shape[-1]} spectrum bins")
    C = bases.C[: bases.T]
    S = bases.S[: bases.T]
    if drop_dc:
        C, S = C[:, 1:], S[:, 1:]
        H_R, H_I = H_R[..., 1:], H_I[..., 1:]
    return H_R[..., None, :] * C + H_I[..., None, :] * S


def reconstruct(G):
    """Sum the frequency columns back into a time series."""
    return np.asarray(G, dtype=np.float64).sum(axis=-1)


def amplitude_phase(H_R, H_I):
    """Fuse each bin's cos/sin pair of full halves H_*[..., T/2+1] into
    amplitude and phase.

    Uses the doubled coefficients (a_k, -b_k) as the (A, B) legs, so a
    pure cosine bin lands at phase 0. Phase of an empty bin is 0 by
    convention; atan2 range is (-pi, pi].
    """
    k = np.arange(H_R.shape[-1])
    ck = np.where((k == 0) | (k == k[-1]), 1.0, 2.0)
    A = ck * H_R
    B = -(ck * H_I)
    R = np.hypot(A, B)
    phase = np.where(R == 0.0, 0.0, np.arctan2(B, A))
    return AmplitudePhase(amp=R, phase=phase)


def amplitude_distribution(amps):
    """Per-channel amplitude spread across windows: amps[W, D, K] -> (mean[D, K], lo95[D, K],
    hi95[D, K]) with the 2.5/97.5 percentiles. A float64 amps is reordered along axis 0."""
    amps = np.asarray(amps, dtype=np.float64)
    mean = amps.mean(axis=0)  # before the percentiles reorder amps in place
    lo, hi = np.percentile(amps, [2.5, 97.5], axis=0, overwrite_input=True)
    return mean, lo, hi
