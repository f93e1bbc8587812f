"""The operator matrix on the whole truncated basis: the reference that the
live block of ``dwork.DworkMatrix`` must reproduce.

It gathers c_{Q w - u} for every basis pair from the series box with
``SeriesBox.at`` and takes Tr(G^m) by the plain ring matrix power on that
full matrix, with no Hodge bound anywhere; det(I - T G) of the full matrix
is ``padic.char_series_prefix`` on the same array."""

import numpy as np

from dworksum import padic


def full_coords(series, basis):
    """(dim, dim, blow) coordinates of c_{Q w - u} over all basis pairs."""
    W = np.array(basis.points, dtype=np.int64).reshape(-1, len(series.lo))
    return series.at(series.Q * W[:, None, :] - W[None, :, :])


def full_trace(params, C, m):
    """Tr(C^m) by m - 1 ring matrix products on the full matrix."""
    n, blow = C.shape[0], params.blow
    P = C
    if m > 1:
        E = padic.encode_ring_matrix(params, C)
        for _ in range(m - 1):
            P = padic.matmul_mod(P.reshape(n, n * blow), E, params.pM).reshape(C.shape)
    return params.from_coords(np.einsum("hhb->b", P))
