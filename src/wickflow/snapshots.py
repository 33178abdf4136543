"""Field snapshot binary format.

Layout: magic bytes ``WCK1``, then little-endian u32 K, u32 M, u32 count,
followed by count * M * M little-endian 64-bit floats, row-major (real-grid
samples, one block per field).
"""

import struct

import numpy as np

from .errors import ConfigurationError
from .grid import RealField, SpectralField, TorusGrid, sample_count, to_real

MAGIC = b"WCK1"
_HEADER = struct.Struct("<4sIII")


def write_snapshots(path, fields) -> None:
    fields = list(fields)
    if not fields:
        raise ConfigurationError("nothing to write")
    reals = [to_real(f) if isinstance(f, SpectralField) else f for f in fields]
    grid = reals[0].grid
    for f in reals:
        if f.grid != grid:
            raise ConfigurationError("snapshot fields live on different grids")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, grid.K, grid.M, len(reals)))
        for f in reals:
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshots(path, grid: TorusGrid | None = None):
    """Read fields back; a grid with matching (K, M) may be supplied to reuse.

    The header is checked before any grid is built: the file must hold
    exactly its `count` >= 1 blocks of M x M samples, and M must be the
    size of a standard grid at cutoff K.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ConfigurationError(f"{path}: truncated header")
    magic, K, M, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ConfigurationError(f"{path}: bad magic {magic!r}")
    if count < 1 or len(data) != _HEADER.size + 8 * count * M * M:
        raise ConfigurationError(
            f"{path}: {len(data)} bytes are not a header and {count} fields of {M}x{M} samples"
        )
    if grid is None:
        grid = _grid_for(K, M)
    elif grid.K != K or grid.M != M:
        raise ConfigurationError(
            f"{path}: snapshot (K={K}, M={M}) does not match grid {grid!r}"
        )
    blocks = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(count, M, M)
    return [RealField(grid, values) for values in blocks]


def _grid_for(K: int, M: int) -> TorusGrid:
    """The grid of the least max_degree d with M points at cutoff K.

    `sample_count` is the 2(2K+1) floor up to d = 1 and grows with d past
    it, reaching M first at d = ceil((M - 2)/K) - 1.
    """
    d = 1 if K == 0 or M <= 2 * (2 * K + 1) else -(-(M - 2) // K) - 1
    if sample_count(K, d) != M:
        raise ConfigurationError(f"no standard grid has K={K}, M={M}")
    return TorusGrid(K, max_degree=d)
