"""Reference routes that only the tests reach.

`block` forms one Littlewood-Paley block, the oracle of `besov.block_norms`
and `besov.block_rms`; `dealiased_product` forms exact spectral products
through the grid transforms, the route the convolution oracle and the
product identities check.
"""

from wickflow import ConfigurationError, SpectralField
from wickflow.besov import DyadicPartition, _check_grid
from wickflow.grid import _check_same_grid


def block(u: SpectralField, j: int, partition: DyadicPartition) -> SpectralField:
    """Littlewood-Paley block: the multiplier of annulus j applied to u."""
    _check_grid(u, partition)
    return SpectralField(u.grid, u.coeffs * partition.multiplier(j))


def dealiased_product(fields, degree: int | None = None) -> SpectralField:
    """Exact spectral product of band-limited fields, truncated to the window.

    `degree` defaults to the number of factors; pass it explicitly when the
    factors are themselves powers so the padding check stays honest.
    """
    fields = list(fields)
    if not fields:
        raise ConfigurationError("dealiased_product needs at least one field")
    _check_same_grid(*fields)
    grid = fields[0].grid
    d = len(fields) if degree is None else int(degree)
    grid.assert_product_degree(d)
    prod = grid.coeffs_to_values(fields[0].coeffs)
    for f in fields[1:]:
        prod = prod * grid.coeffs_to_values(f.coeffs)
    return SpectralField(grid, grid.values_to_coeffs(prod))
