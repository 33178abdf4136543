"""Independent numpy reference for the `simulate` workload's outputs.

Nothing here imports wickflow.  The reference integrates the shifted
equation X = Y + Z with exponential Euler, Y(0) = Z(0) = 0, drawing the
noise of trajectory i from the documented stream (master_seed, i, 1) and
evaluating the Wick nonlinearity :p(X):_C directly by the Hermite
recurrence He_{j+1} = x He_j - j c He_{j-1} (no Wick towers).
"""

import struct

import numpy as np

TWO_PI = 2.0 * np.pi


def lattice(K):
    """Wavenumbers in FFT order and lambda_k = 1 + |k|^2 on the window |k|_inf <= K."""
    n = 2 * K + 1
    k = np.fft.fftfreq(n, d=1.0 / n).round().astype(np.int64)
    return k, 1.0 + (k[:, None] ** 2 + k[None, :] ** 2).astype(np.float64)


def stationary_counterterm(K):
    """c_C = (2 pi)^-2 sum_k 1/(2 lambda_k): pointwise variance of the truncated free field."""
    return float(np.sum(0.5 / lattice(K)[1])) / TWO_PI**2


def final_snapshot(K, M, a, delta, n_steps, master_seed, trajectory, c=None):
    """Real-grid samples (M x M) of X = Y + Z after `n_steps` steps of size `delta`."""
    k, lam = lattice(K)
    c = stationary_counterterm(K) if c is None else c
    window = np.ix_(k % M, k % M)
    decay = np.exp(-lam * delta)
    weight = (1.0 - decay) / lam
    sigma = np.sqrt((1.0 - decay**2) / (2.0 * lam))
    rng = np.random.default_rng([master_seed, trajectory, 1])
    Y = np.zeros_like(lam, dtype=np.complex128)
    Z = np.zeros_like(Y)

    def values(coeffs):
        big = np.zeros((M, M), dtype=np.complex128)
        big[window] = coeffs
        return np.fft.ifft2(big).real * (M * M / TWO_PI)

    for _ in range(n_steps):
        x = values(Y + Z)
        he_prev, he, drift = np.ones_like(x), x, a[1] * np.ones_like(x)
        for j in range(1, len(a) - 1):  # drift = sum_m m a_m He_{m-1}(x; c)
            drift = drift + (j + 1) * a[j + 1] * he
            he_prev, he = he, x * he - j * c * he_prev
        Y = decay * Y - weight * np.fft.fft2(drift)[window] * (TWO_PI / (M * M))
        raw = (rng.standard_normal(lam.shape) + 1j * rng.standard_normal(lam.shape)) * np.sqrt(0.5)
        xi = (raw + np.conj(np.roll(raw[::-1, ::-1], (1, 1), axis=(0, 1)))) * np.sqrt(0.5)
        Z = decay * Z + sigma * xi
    return values(Y + Z)


def read_wck1(path):
    """(K, M, fields) from a WCK1 file: magic, u32 K, M, count, then float64 M x M blocks."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, K, M, count = struct.unpack_from("<4sIII", data)
    if magic != b"WCK1" or len(data) != 16 + 8 * count * M * M:
        raise ValueError(f"{path}: not a complete WCK1 file")
    return K, M, np.frombuffer(data, dtype="<f8", offset=16).reshape(count, M, M)
