"""The operator matrix on the whole truncated basis: the reference that the
live block of ``dwork.DworkMatrix`` must reproduce.

It gathers c_{Q w - u} for every basis pair from the series box by masking
the exponents that fall outside it (``at``), not by the package's padded
cell index, and takes Tr(G^m) by the plain ring matrix power on that full
matrix, with no Hodge bound anywhere; det(I - T G) of the full matrix is
``padic.char_series_prefix`` on the same array with every degree on the
whole matrix (no per-degree prefixes)."""

import numpy as np

from dworksum import padic
from fraction_lattice import points


def at(series, E):
    """Coordinates (..., blow) of c_e for every exponent of E (..., n): the
    box cell of e inside the box, zero outside it."""
    rel = E - series.lo
    inside = ((rel >= 0) & (rel < series.dims)).all(axis=-1)
    out = np.zeros((*inside.shape, series.params.blow), dtype=np.int64)
    out[inside] = series.coeffs[np.ravel_multi_index(rel[inside].T, series.dims)]
    return out


def full_coords(series, basis):
    """(dim, dim, blow) coordinates of c_{Q w - u} over all basis pairs."""
    W = np.array(points(basis), dtype=np.int64).reshape(-1, len(series.lo))
    return at(series, series.Q * W[:, None, :] - W[None, :, :])


def full_trace(params, C, m):
    """Tr(C^m) by m - 1 ring matrix products on the full matrix."""
    n, blow = C.shape[0], params.blow
    P = C
    if m > 1:
        E = padic.encode_ring_matrix(params, C)
        for _ in range(m - 1):
            P = padic.matmul_mod(P.reshape(n, n * blow), E, params.pM).reshape(C.shape)
    return params.from_coords(np.einsum("hhb->b", P))
