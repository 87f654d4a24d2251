"""DFT analysis and Fourier basis expansion into time-frequency features.

A length-T real window is analyzed into T/2+1 real/imaginary coefficient
pairs (the remaining bins are implied by conjugate symmetry). Multiplying
the coefficients with the cosine/sine basis tables spreads the window
into a T x (T/2+1) feature grid whose frequency-sum reconstructs the
window. The tables can be continued analytically past n = T-1 so a
rolling filter can emit horizon values.

The DFT is the O(T^2) matrix form on purpose: T <= 336 here, the matrix
doubles as the exact Jacobian of the expansion, and angles are reduced
mod T before the trig calls so the tables stay accurate to ~1e-15 even
in the padded region.
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
class Spectrum:
    """Half spectrum H[..., k], k = 0..T/2, of a real window or a batch of them."""

    real: np.ndarray
    imag: np.ndarray
    T: int


@dataclass(frozen=True)
class BasisMatrices:
    """Scaled cosine/sine tables over n in [0, T+pad), k in [0, T/2]."""

    C: np.ndarray
    S: np.ndarray
    T: int
    pad: int


@dataclass(frozen=True)
class AmplitudePhase:
    amp: np.ndarray
    phase: np.ndarray


@lru_cache(maxsize=32)
def dft_matrices(T):
    """Tables turning a window into its half spectrum: H_R = x @ cm, H_I = x @ sm."""
    _check_window_length(T)
    n = np.arange(T, dtype=np.int64)[:, None]
    k = np.arange(T // 2 + 1, dtype=np.int64)[None, :]
    ang = 2.0 * np.pi * ((n * k) % T) / T
    cm = np.cos(ang)
    sm = -np.sin(ang)
    sm[:, 0] = 0.0
    sm[:, T // 2] = 0.0  # sin(pi*n) is identically zero; drop the trig roundoff
    cm.flags.writeable = False
    sm.flags.writeable = False
    return cm, sm


def rdft(x):
    """Half spectrum of one real window (k = 0..T/2)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"rdft expects a 1-d window, got shape {x.shape}")
    H_R, H_I = rdft_array(x)
    return Spectrum(real=H_R, imag=H_I, T=x.shape[0])


def rdft_array(X):
    """Batched half spectrum: X[..., T] -> (H_R[..., T/2+1], H_I[..., T/2+1])."""
    X = np.asarray(X, dtype=np.float64)
    cm, sm = dft_matrices(X.shape[-1])
    return X @ cm, X @ sm


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
    return BasisMatrices(C=C, S=S, T=T, pad=pad)


def basis_expand(spec, bases, drop_dc=False):
    """Single-channel time-frequency features G[n,k] = H_R[k] C[n,k] + H_I[k] S[n,k]."""
    if bases.T != spec.T:
        raise ConfigError(f"basis length {bases.T} != spectrum length {spec.T}")
    return expand_array(spec.real, spec.imag, bases, drop_dc=drop_dc)


def expand_array(H_R, H_I, bases, drop_dc=False):
    """Batched expansion: H_*[..., T/2+1] -> G[..., T, K] with K = T/2(+1).

    Only the first T rows of the bases are used; the padded rows exist
    for the seasonal filter, which works from the spectrum directly.
    """
    C = bases.C[: bases.T]
    S = bases.S[: bases.T]
    if drop_dc:
        C, S = C[:, 1:], S[:, 1:]
        H_R, H_I = H_R[..., 1:], H_I[..., 1:]
    return H_R[..., None, :] * C + H_I[..., None, :] * S


def reconstruct(G):
    """Sum the frequency columns back into a time series."""
    return np.asarray(G, dtype=np.float64).sum(axis=-1)


def amplitude_phase(spec):
    """Fuse each bin's cos/sin pair into amplitude and phase.

    Uses the doubled coefficients (a_k, -b_k) as the (A, B) legs, so a
    pure cosine bin lands at phase 0. Phase of an empty bin is 0 by
    convention; atan2 range is (-pi, pi].
    """
    T = spec.T
    k = np.arange(T // 2 + 1)
    ck = np.where((k == 0) | (k == T // 2), 1.0, 2.0)
    A = ck * spec.real
    B = -(ck * spec.imag)
    R = np.hypot(A, B)
    phase = np.where(R == 0.0, 0.0, np.arctan2(B, A))
    return AmplitudePhase(amp=R, phase=phase)


def amplitude_distribution(amps):
    """Per-channel amplitude spread across windows: amps[W, D, K] ->
    (mean[D, K], lo95[D, K], hi95[D, K]) with the 2.5/97.5 percentiles."""
    amps = np.asarray(amps, dtype=np.float64)
    mean = amps.mean(axis=0)
    lo, hi = np.percentile(amps, [2.5, 97.5], axis=0)
    return mean, lo, hi
