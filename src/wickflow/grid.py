"""Torus discretization and spectral primitives.

Fields live on the square torus [0, 2*pi)^2 and are represented two ways:

* ``RealField`` -- samples on an M x M uniform grid, used for pointwise
  (polynomial) operations;
* ``SpectralField`` -- complex coefficients against the orthonormal basis
  e_k(x) = (2*pi)^{-1} exp(i k.x) on the truncated lattice |k|_inf <= K,
  used for everything linear (semigroup, noise).

The real grid is deliberately finer than the spectral cutoff so that
pointwise products of band-limited fields up to a configured polynomial
degree hold exact Fourier coefficients on the retained window (no
aliasing).  A product of d fields with cutoff K has frequencies up to
d*K, and aliased copies on an M-grid stay out of the window |k|_inf <= K
as soon as M >= (d+1)*K + 1.

The linear operator throughout is A = Laplacian - 1, with eigenvalues
-lambda_k, lambda_k = 1 + |k|^2 > 0.
"""

import functools

import numpy as np

from .errors import ConfigurationError, DomainError

# Largest M whose transforms run as dense products (see TorusGrid), set from
# a crossover table measured single and batched (README, design notes;
# scripts/transform_tables.py): the dense route wins every column up to
# M = 146 and the forward loses at 150 and 162.
DFT_MAX_M = 146


def sample_count(K: int, max_degree: int) -> int:
    """M of `TorusGrid(K, max_degree)`: the least even M >= (max_degree+1)*K + 1
    and >= 2(2K+1); even sizes keep FFTs fast."""
    M = max((max_degree + 1) * K + 1, 2 * (2 * K + 1))
    return M + (M % 2)


class TorusGrid:
    """Truncated Fourier lattice plus its dealiased real sampling grid.

    The two grid transforms are pruned half-spectrum transforms.  A real
    field needs only the half-spectrum ky >= 0, and of that only the
    (2K+1) x (K+1) corner |kx| <= K, 0 <= ky <= K is nonzero.  The inverse
    takes the columns ky > 0 as the Hermitian part (c(k) + conj c(-k))/2,
    so the result equals the real part of the full inverse also for a
    non-Hermitian coefficient array; the forward fills the columns ky < 0
    by conjugate symmetry, exactly.  The route depends on M alone:

    * M <= DFT_MAX_M: dense products with matrices cached per (K, M)
      (`_dft_matrices`).  The inverse is E @ H, E[m, i] = exp(i k_i x_m),
      then a real product against cos/sin rows in j; the forward is the
      transpose pair.  On these sizes two small matrix products cost
      fewer and cheaper calls than two FFTs.
    * M > DFT_MAX_M: pruned FFTs.  The inverse scatters the columns
      ky = 0..K into an M x (K+1) array, runs a complex inverse FFT along
      axis 0 and a complex-to-real FFT along axis 1; the forward runs a
      real FFT along axis 1, keeps K+1 columns, runs a complex FFT along
      axis 0 and gathers the window rows.

    Both transforms take a `band` s <= K: they then act on the sub-window
    |k|_inf <= s alone, as above with s in place of K (on the dense route
    with the matrices of (s, M)), which projects the field to that band.

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

        # wavenumbers in FFT (wrap-around) order: [0..K, -K..-1]
        self.wavenumbers = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        self.kx = self.wavenumbers[:, None] * np.ones(n, dtype=np.int64)[None, :]
        self.ky = np.ones(n, dtype=np.int64)[:, None] * self.wavenumbers[None, :]
        self.ksq = self.kx**2 + self.ky**2
        self.lam = 1.0 + self.ksq.astype(np.float64)

        self._rows = self.wavenumbers % self.M  # window rows on the M-point axis
        self._neg = -np.arange(n) % n  # wrap-order index of -k along one axis
        self._neg_flat = (self._neg[:, None] * n + self._neg[None, :]).ravel()  # -k, flat

        x = self.L * np.arange(self.M) / self.M
        self.x1 = x[:, None] * np.ones(self.M)[None, :]
        self.x2 = np.ones(self.M)[:, None] * x[None, :]
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
        """Window coefficients -> real samples on the fine M x M grid.

        Equals Re of the full inverse FFT of the zero-padded window, for any
        complex input; only the columns ky = 0..K are transformed.  Leading
        axes are a batch: each (2K+1, 2K+1) slice is transformed on its own,
        and its samples are bitwise those of the unbatched call.

        `band` = s in 0..K transforms only the coefficients with |k|_inf <= s
        (the others are treated as zero) and costs by the (2s+1)^2 window;
        None, like s = K, transforms the whole window.
        """
        s, L = self.K if band is None else self._band(band), self.L
        neg, rows = self._neg, self._rows
        if s < self.K:
            idx, neg, rows = _window(s, self.M)
            coeffs = coeffs[..., idx[:, None], idx]
        if self.M <= DFT_MAX_M:
            # Re(E H W) with W[j, m] = exp(i j x_m): E H read as (re, im) pairs
            # against G's rows (cos, -sin); the weights 1/L of column 0 and
            # 2 * 0.5/L of the Hermitian sums are G's 1/L
            E, G, _, _ = _dft_matrices(s, self.M)
            H = np.concatenate((coeffs[..., :1], coeffs[..., 1:s + 1]
                                + np.conj(coeffs[..., neg, :s:-1])), axis=-1)
            return (E @ H).view(np.float64) @ G
        half = np.zeros(coeffs.shape[:-2] + (self.M, s + 1), dtype=np.complex128)
        half[..., rows, 0] = coeffs[..., 0] * (1.0 / L)
        # the imaginary part of the ky = 0 output is dropped by irfft; the
        # columns ky > 0 carry k and -k together as the Hermitian part
        half[..., rows, 1:] = (coeffs[..., 1:s + 1]
                               + np.conj(coeffs[..., neg, :s:-1])) * (0.5 / L)
        half = np.fft.ifft(half, axis=-2, norm="forward")
        return np.fft.irfft(half, n=self.M, axis=-1, norm="forward")

    def values_to_coeffs(self, values: np.ndarray, band: int | None = None) -> np.ndarray:
        """Real samples -> coefficients on the retained window.

        Exact as long as the sampled function has no frequency aliasing
        into the window, which `assert_product_degree` guarantees for
        polynomial operations performed on this grid.  The columns ky < 0
        are the exact conjugates of their mirrors, c(-k) = conj c(k).

        `band` = s in 0..K computes only the coefficients with |k|_inf <= s
        and returns zeros elsewhere, at the cost of the (2s+1)^2 window;
        None, like s = K, computes the whole window.
        """
        s = self.K if band is None else self._band(band)
        neg, rows = self._neg, self._rows
        if s < self.K:
            idx, neg, rows = _window(s, self.M)
        if self.M <= DFT_MAX_M:
            _, _, F, Eh = _dft_matrices(s, self.M)
            half = Eh @ (values @ F).view(np.complex128)
        else:
            half = np.fft.fft(np.fft.rfft(values, axis=1)[:, :s + 1], axis=0)[rows]
            half *= self.L / self.M**2
        coeffs = np.concatenate((half, np.conj(half[neg, s:0:-1])), axis=1)
        if s == self.K:
            return coeffs
        n = 2 * self.K + 1
        out = np.zeros((n, n), dtype=np.complex128)
        out[idx[:, None], idx] = coeffs
        return out

    def _band(self, band) -> int:
        """The cutoff s of a transform's `band` argument other than None."""
        if isinstance(band, (int, np.integer)) and not isinstance(band, bool) \
                and 0 <= band <= self.K:
            return int(band)
        raise ConfigurationError(f"band must be an int in 0..{self.K} or None, got {band!r}")


_lattice_grid = functools.cache(TorusGrid)


@functools.cache
def _dft_matrices(K: int, M: int):
    """The dense half-spectrum transforms of the (K, M) grid, built on first use.

    With x_m = 2*pi*m/M, k_i the window wavenumbers and j = 0..K:
    E[m, i] = exp(i k_i x_m); G interleaves the rows cos(j x_m)/L and
    -sin(j x_m)/L; F interleaves the columns cos(j x_m) and -sin(j x_m);
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
    F = np.ascontiguousarray(cs.transpose(2, 0, 1).reshape(M, 2 * K + 2))
    Eh = np.ascontiguousarray(np.conj(E).T) * (L / M**2)
    return E, G, F, Eh


@functools.cache
def _window(s: int, M: int):
    """Indices of the |k|_inf <= s window inside any larger window, M-point grid.

    The wrap-order wavenumbers [0..s, -s..-1] index the sub-window in a
    wrap-order array of any cutoff K >= s (a negative index counts from the
    end); returned with the window's own index of -k and its rows on the
    M-point axis.
    """
    n = 2 * s + 1
    idx = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    return idx, -np.arange(n) % n, idx % M


class RealField:
    """Real samples of a field on the fine grid of a `TorusGrid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.M, grid.M):
            raise ConfigurationError(
                f"values shape {values.shape} does not match grid M={grid.M}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("field values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def constant(cls, grid: TorusGrid, c: float) -> "RealField":
        return cls(grid, np.full((grid.M, grid.M), float(c)))

class SpectralField:
    """Coefficients of a real field against e_k = (2*pi)^{-1} exp(i k.x).

    The coefficient array uses FFT wrap-around ordering on both axes,
    i.e. ``coeffs[i, j]`` belongs to ``(wavenumbers[i], wavenumbers[j])``.
    Hermitian symmetry coeffs(-k) = conj(coeffs(k)) encodes realness.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        n = 2 * grid.K + 1
        if coeffs.shape != (n, n):
            raise ConfigurationError(
                f"coeffs shape {coeffs.shape} does not match K={grid.K}"
            )
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralField":
        n = 2 * grid.K + 1
        return cls(grid, np.zeros((n, n), dtype=np.complex128))

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def get_mode(self, k1: int, k2: int) -> complex:
        n = 2 * self.grid.K + 1
        return complex(self.coeffs[k1 % n, k2 % n])

    def set_mode(self, k1: int, k2: int, value: complex):
        n = 2 * self.grid.K + 1
        self.coeffs[k1 % n, k2 % n] = value

    def l2_norm(self) -> float:
        """L^2(T^2) norm, equal to the coefficient l^2 norm (Parseval)."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def hermitian_defect(self) -> float:
        sym = np.conj(self.coeffs[self.grid._neg][:, self.grid._neg])  # conj at -k
        return float(np.max(np.abs(self.coeffs - sym)))

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


def to_spectral(f: RealField) -> SpectralField:
    """Forward transform; exact for band-limited samples."""
    return SpectralField(f.grid, f.grid.values_to_coeffs(f.values))


def to_real(u: SpectralField) -> RealField:
    """Inverse transform onto the fine dealiased grid."""
    return RealField(u.grid, u.grid.coeffs_to_values(u.coeffs))


def apply_semigroup(u: SpectralField, t: float) -> SpectralField:
    """Heat semigroup e^{tA}, A = Laplacian - 1: mode k decays by e^{-lambda_k t}."""
    if t < 0:
        raise DomainError(f"semigroup time must be >= 0, got {t}")
    return SpectralField(u.grid, u.coeffs * np.exp(-u.grid.lam * t))
