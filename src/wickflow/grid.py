"""Torus lattice, its dealiased sampling grid and the grid transforms.

A real field on [0, 2*pi)^2 is a `SpectralField`: its coefficients against
e_k(x) = (2*pi)^{-1} exp(i k.x), |k|_inf <= K, held as a half window (see
the README's design notes); its samples on the M x M grid are plain arrays.
M is chosen so that pointwise products of band-limited fields up to a
configured degree hold exact coefficients on the window: a product of d
fields with cutoff K has frequencies up to d*K, and its aliases stay out of
|k|_inf <= K once M >= (d+1)*K + 1.

The linear operator throughout is A = Laplacian - 1, with eigenvalues
-lambda_k, lambda_k = 1 + |k|^2 > 0.
"""

import functools

import numpy as np

from .errors import ConfigurationError, DomainError

# Largest M whose transforms run as dense products, set from a crossover
# table (README, design notes; scripts/transform_tables.py).
DFT_MAX_M = 146


def sample_count(K: int, max_degree: int) -> int:
    """M of `TorusGrid(K, max_degree)`: the least even M >= (max_degree+1)*K + 1
    and >= 2(2K+1); even sizes keep FFTs fast."""
    M = max((max_degree + 1) * K + 1, 2 * (2 * K + 1))
    return M + (M % 2)


class TorusGrid:
    """Truncated Fourier lattice |k|_inf <= K plus its dealiased M x M grid.

    `kx`, `ky`, `ksq` and `lam` cover the whole lattice, (2K+1, 2K+1) in
    wrap order [0..K, -K..-1] on both axes; coefficient arrays are half
    windows, the first K+1 columns of that layout.

    Parameters
    ----------
    K : int
        Maximum retained wavenumber per axis; modes k in {-K..K}^2.
    max_degree : int
        Largest polynomial degree of pointwise products that must be
        dealiased exactly.  Determines the real-grid size M.
    """

    def __init__(self, K: int, max_degree: int = 3):
        if K < 0:
            raise ConfigurationError(f"K must be >= 0, got {K}")
        if max_degree < 1:
            raise ConfigurationError(f"max_degree must be >= 1, got {max_degree}")
        self.K = int(K)
        self.max_degree = int(max_degree)
        n = 2 * self.K + 1
        self.M = sample_count(self.K, self.max_degree)
        self.L = 2.0 * np.pi

        self.wavenumbers = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        self.kx = self.wavenumbers[:, None] * np.ones(n, dtype=np.int64)[None, :]
        self.ky = np.ones(n, dtype=np.int64)[:, None] * self.wavenumbers[None, :]
        self.ksq = self.kx**2 + self.ky**2
        self.lam = 1.0 + self.ksq.astype(np.float64)

        self._rows = self.wavenumbers % self.M  # window rows on the M-point axis
        self._neg = -np.arange(n) % n  # wrap-order index of -k along one axis
        # flat index in a (2K+1)^2 array of -k, for each k of the half window
        self._neg_flat = (self._neg[:, None] * n + self._neg[None, :self.K + 1]).ravel()

        self.cell_area = (self.L / self.M) ** 2

    def __eq__(self, other):
        return (
            isinstance(other, TorusGrid)
            and self.K == other.K
            and self.M == other.M
        )

    def __hash__(self):
        return hash((self.K, self.M))

    def __repr__(self):
        return f"TorusGrid(K={self.K}, M={self.M}, max_degree={self.max_degree})"

    def compute_grid(self, degree: int) -> "TorusGrid":
        """Where a degree-`degree` polynomial of this grid's fields is evaluated.

        Its derivative's products are alias-free, and its integral's
        quadrature exact, on M >= degree*K + 1 points: the smallest such
        grid of the lattice if it is coarser than this one, else this one
        (which stays too small where it was).  Coefficient arrays have the
        same shape on both, so fields move between them without a copy.
        """
        small = _lattice_grid(self.K, max(degree - 1, 1))
        return small if small.M < self.M else self

    def assert_product_degree(self, d: int):
        """Raise unless degree-d pointwise products are alias-free on this grid."""
        if d < 1:
            raise ConfigurationError(f"product degree must be >= 1, got {d}")
        if (d + 1) * self.K + 1 > self.M:
            raise ConfigurationError(
                f"grid M={self.M} cannot dealias degree-{d} products at K={self.K}; "
                f"construct the grid with max_degree >= {d}"
            )

    # -- low-level array transforms (hot path, no field wrappers) ----------

    def coeffs_to_values(self, coeffs: np.ndarray, band: int | None = None) -> np.ndarray:
        """Half windows (..., 2K+1, K+1) -> real samples (..., M, M).

        Leading axes are a batch; each slice's samples are bitwise those of
        its unbatched call.  `band` = s in 0..K transforms only the modes
        |k|_inf <= s, at the cost of that sub-window, and then also takes the
        band's own half window (..., 2s+1, s+1); None is s = K.  A window of
        any other shape raises ConfigurationError.
        """
        s = self.K if band is None else self._band(band)
        if s < self.K or self.M > DFT_MAX_M:
            coeffs = self._band_window(coeffs, s)
        if self.M <= DFT_MAX_M:
            E, G, _, _ = _dft_matrices(s, self.M)
            try:
                return (E @ coeffs).view(np.float64) @ G
            except ValueError:
                # numpy's, for a window of another shape at band K: caught
                # here, not checked beforehand, so the K = 4 solver's
                # transforms pay nothing for it
                raise self._window_error(np.shape(coeffs), s) from None
        rows = self._rows if s == self.K else _window(s, self.M)[1]
        half = np.zeros(coeffs.shape[:-2] + (self.M, s + 1), dtype=np.complex128)
        half[..., rows, :] = coeffs * (1.0 / self.L)
        half = np.fft.ifft(half, axis=-2, norm="forward")
        # the imaginary part of the ky = 0 output is dropped by irfft
        return np.fft.irfft(half, n=self.M, axis=-1, norm="forward")

    def values_to_coeffs(self, values: np.ndarray, band: int | None = None) -> np.ndarray:
        """Real samples (..., M, M) -> half windows (..., 2K+1, K+1).

        Exact as long as the samples have no aliases in the window, which
        `assert_product_degree` guarantees for polynomials of this grid's
        fields.  Column ky = 0 holds kx and -kx, both computed, so it is
        Hermitian only to rounding (a few 1e-16 of its largest coefficient);
        every inverse drops its anti-Hermitian part.  Batches as
        `coeffs_to_values`; samples of any other shape raise
        ConfigurationError.  `band` = s computes only the modes
        |k|_inf <= s, zeros elsewhere, at the cost of that sub-window.
        """
        s = self.K if band is None else self._band(band)
        idx, rows = _window(s, self.M) if s < self.K else (None, self._rows)
        if self.M <= DFT_MAX_M:
            _, _, F, Eh = _dft_matrices(s, self.M)
            try:
                h = Eh @ (values @ F).view(np.complex128)
            except ValueError:  # numpy's matmul, for samples of another shape
                raise self._samples_error(np.shape(values)) from None
        else:
            if np.shape(values)[-2:] != (self.M, self.M):
                raise self._samples_error(np.shape(values))
            h = np.fft.fft(np.fft.rfft(values, axis=-1)[..., :s + 1], axis=-2)[..., rows, :]
            h *= self.L / self.M**2
        if s == self.K:
            return h
        out = np.zeros(h.shape[:-2] + (2 * self.K + 1, self.K + 1), dtype=np.complex128)
        out[..., idx[:, None], idx[:s + 1]] = h
        return out

    def full_window(self, half: np.ndarray) -> np.ndarray:
        """The whole lattice (..., 2K+1, 2K+1) of half windows: the columns
        ky < 0 are the conjugate mirrors conj h(-k)."""
        return np.concatenate((half, np.conj(half[..., self._neg, :0:-1])), axis=-1)

    def _band(self, band) -> int:
        """The cutoff s of a transform's `band` argument other than None."""
        if isinstance(band, (int, np.integer)) and not isinstance(band, bool) \
                and 0 <= band <= self.K:
            return int(band)
        raise ConfigurationError(f"band must be an int in 0..{self.K} or None, got {band!r}")

    def _band_window(self, coeffs, s: int):
        """The band s part of a half window, or the band's own half window as
        it is; any other shape raises ConfigurationError."""
        shape = np.shape(coeffs)[-2:]
        if shape == (2 * s + 1, s + 1):
            return coeffs
        if shape != (2 * self.K + 1, self.K + 1):
            raise self._window_error(shape, s)
        return coeffs[..., _window(s, self.M)[0], :s + 1]

    def _window_error(self, shape, s: int) -> ConfigurationError:
        own = f", or with band={s} (..., {2 * s + 1}, {s + 1})" if s < self.K else ""
        return ConfigurationError(
            f"coefficient window of shape {shape} on K={self.K}: expected a half window "
            f"(..., {2 * self.K + 1}, {self.K + 1}){own}")

    def _samples_error(self, shape) -> ConfigurationError:
        return ConfigurationError(
            f"samples of shape {shape} on M={self.M}: expected (..., {self.M}, {self.M})")


_lattice_grid = functools.cache(TorusGrid)


@functools.cache
def _dft_matrices(K: int, M: int):
    """The dense transforms of the (K, M) grid, built on first use.

    With x_m = 2*pi*m/M, k_i the window wavenumbers and j = 0..K:
    E[m, i] = exp(i k_i x_m); G interleaves the rows cos(j x_m)/L and
    -sin(j x_m)/L, those of j > 0 doubled, since column j stands for j and
    -j; F interleaves the columns cos(j x_m) and -sin(j x_m);
    Eh = conj(E)^T L/M^2.  Phases are reduced mod M in integers.
    """
    L = 2.0 * np.pi
    n = 2 * K + 1
    m = np.arange(M)
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    E = np.exp(1j * (np.outer(m, k) % M) * (L / M))
    jx = (np.outer(np.arange(K + 1), m) % M) * (L / M)
    cs = np.stack((np.cos(jx), -np.sin(jx)), axis=1)  # (K+1, 2, M)
    G = cs.reshape(2 * K + 2, M) / L
    G[2:] *= 2.0
    F = np.ascontiguousarray(cs.transpose(2, 0, 1).reshape(M, 2 * K + 2))
    Eh = np.ascontiguousarray(np.conj(E).T) * (L / M**2)
    return E, G, F, Eh


@functools.cache
def _window(s: int, M: int):
    """The wrap-order wavenumbers [0..s, -s..-1], which index the sub-window
    |k|_inf <= s in a wrap-order array of any cutoff K >= s (a negative
    index counts from the end), and their rows on the M-point axis."""
    n = 2 * s + 1
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    return idx, idx % M


class SpectralField:
    """A real field: its half window of coefficients on a grid,
    ``coeffs[i, j]`` the coefficient of mode (wavenumbers[i], j)."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (2 * grid.K + 1, grid.K + 1):
            raise ConfigurationError(
                f"coefficient window of shape {coeffs.shape} on K={grid.K}: expected a "
                f"half window ({2 * grid.K + 1}, {grid.K + 1})")
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralField":
        return cls(grid, np.zeros((2 * grid.K + 1, grid.K + 1), dtype=np.complex128))

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def get_mode(self, k1: int, k2: int) -> complex:
        """The coefficient of mode k; for k2 < 0, the conjugate of mode -k's."""
        n = 2 * self.grid.K + 1
        if k2 < 0:
            return complex(self.coeffs[-k1 % n, -k2]).conjugate()
        return complex(self.coeffs[k1 % n, k2])

    def set_mode(self, k1: int, k2: int, value: complex):
        """Set the coefficient of mode k (for k2 < 0, mode -k's to its
        conjugate).  Column ky = 0 holds k and -k apart: set both there."""
        n = 2 * self.grid.K + 1
        if k2 < 0:
            self.coeffs[-k1 % n, -k2] = np.conj(value)
        else:
            self.coeffs[k1 % n, k2] = value

    def l2_norm(self) -> float:
        """L^2(T^2) norm, the l^2 norm of the whole lattice (Parseval)."""
        return float(np.sqrt(np.sum(np.abs(self.grid.full_window(self.coeffs)) ** 2)))

    def hermitian_defect(self) -> float:
        """max |c(kx, 0) - conj c(-kx, 0)|: column ky = 0 holds both modes of
        each pair, the one part of a half window that can fail to be real."""
        col = self.coeffs[:, 0]
        return float(np.max(np.abs(col - np.conj(col[self.grid._neg]))))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ConfigurationError("fields live on different grids")


def apply_semigroup(u: SpectralField, t: float) -> SpectralField:
    """Heat semigroup e^{tA}, A = Laplacian - 1: mode k decays by e^{-lambda_k t}."""
    if t < 0:
        raise DomainError(f"semigroup time must be >= 0, got {t}")
    return SpectralField(u.grid, u.coeffs * np.exp(-u.grid.lam * t)[:, :u.grid.K + 1])
