import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wickflow import ConfigurationError, TorusGrid, sample_stationary
from wickflow.snapshots import read_snapshots, write_snapshots


def test_round_trip(tmp_path):
    grid = TorusGrid(3)
    rng = np.random.default_rng(0)
    fields = [sample_stationary(grid, rng) for _ in range(3)]
    path = tmp_path / "fields.wck1"
    write_snapshots(path, fields)
    back_grid, back = read_snapshots(path)
    assert back.shape == (3, grid.M, grid.M)
    assert back_grid.K == 3 and back_grid.M == grid.M
    for a, b in zip(fields, back):
        assert np.array_equal(grid.coeffs_to_values(a.coeffs), b)


def test_spectral_inputs_accepted(tmp_path):
    grid = TorusGrid(2)
    u = sample_stationary(grid, np.random.default_rng(1))
    path = tmp_path / "one.wck1"
    write_snapshots(path, [u])
    back_grid, (back,) = read_snapshots(path, grid=grid)
    assert back_grid is grid
    assert np.max(np.abs(back - grid.coeffs_to_values(u.coeffs))) < 1e-12


def test_header_layout(tmp_path):
    grid = TorusGrid(2)
    u = sample_stationary(grid, np.random.default_rng(2))
    path = tmp_path / "h.wck1"
    write_snapshots(path, [u, u])
    raw = path.read_bytes()
    magic, K, M, count = struct.unpack_from("<4sIII", raw)
    assert magic == b"WCK1"
    assert (K, M, count) == (2, grid.M, 2)
    assert len(raw) == 16 + count * M * M * 8
    first = np.frombuffer(raw, dtype="<f8", count=M * M, offset=16).reshape(M, M)
    assert np.array_equal(first, grid.coeffs_to_values(u.coeffs))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.wck1"
    path.write_bytes(b"NOPE" + b"\0" * 12)
    with pytest.raises(ConfigurationError):
        read_snapshots(path)


def test_truncated_payload_rejected(tmp_path):
    grid = TorusGrid(2)
    u = sample_stationary(grid, np.random.default_rng(3))
    path = tmp_path / "t.wck1"
    write_snapshots(path, [u])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ConfigurationError):
        read_snapshots(path)


def _snapshot_bytes(tmp_path, K, max_degree, n_fields, seed):
    grid = TorusGrid(K, max_degree=max_degree)
    rng = np.random.default_rng(seed)
    fields = [sample_stationary(grid, rng) for _ in range(n_fields)]
    path = tmp_path / "f.wck1"
    write_snapshots(path, fields)
    return path, fields


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(K=st.integers(0, 6), max_degree=st.integers(1, 6), n_fields=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_round_trip_any_grid(tmp_path, K, max_degree, n_fields, seed):
    path, fields = _snapshot_bytes(tmp_path, K, max_degree, n_fields, seed)
    grid, back = read_snapshots(path)
    assert grid == fields[0].grid and len(back) == n_fields
    for a, b in zip(fields, back):
        assert np.array_equal(grid.coeffs_to_values(a.coeffs), b)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(K=st.integers(0, 6), n_fields=st.integers(1, 3), cut=st.floats(0.0, 1.0),
       extra=st.integers(0, 255))
def test_truncated_or_extended_files_rejected(tmp_path, K, n_fields, cut, extra):
    path, _ = _snapshot_bytes(tmp_path, K, 3, n_fields, 0)
    data = path.read_bytes()
    path.write_bytes(data[:int(cut * (len(data) - 1))])
    with pytest.raises(ConfigurationError):
        read_snapshots(path)
    path.write_bytes(data + bytes([extra]))
    with pytest.raises(ConfigurationError):
        read_snapshots(path)


def test_every_truncation_and_one_byte_extension_rejected(tmp_path):
    path, _ = _snapshot_bytes(tmp_path, 1, 3, 2, 4)
    data = path.read_bytes()
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(ConfigurationError):
            read_snapshots(path)
    for extra in range(256):
        path.write_bytes(data + bytes([extra]))
        with pytest.raises(ConfigurationError):
            read_snapshots(path)


@pytest.mark.parametrize("K, M, count, payload", [
    (2**32 - 1, 2**32 - 2, 0, 0),   # a 16-byte file whose grid would need terabytes
    (2**32 - 1, 2**32 - 2, 1, 0),
    (2**32 - 1, 2**32 - 2, 1, 8 * 36),
    (2**31, 6, 1, 8 * 36),           # a complete file, but M = 6 is no grid size at this K
    (3, 15, 1, 8 * 15 * 15),         # odd M
    (2, 8, 1, 8 * 8 * 8),            # K = 2 grids start at M = 10
])
def test_header_is_checked_before_any_grid_is_built(tmp_path, K, M, count, payload):
    path = tmp_path / "h.wck1"
    path.write_bytes(struct.pack("<4sIII", b"WCK1", K, M, count) + b"\0" * payload)
    with pytest.raises(ConfigurationError):
        read_snapshots(path)



@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_rejected(tmp_path, bad):
    grid = TorusGrid(2)
    path = tmp_path / "nan.wck1"
    values = np.zeros((grid.M, grid.M))
    values[1, 3] = bad
    path.write_bytes(struct.pack("<4sIII", b"WCK1", 2, grid.M, 1) + values.astype("<f8").tobytes())
    with pytest.raises(ConfigurationError, match="finite"):
        read_snapshots(path)
