"""The dense clow kernel: the reference that the staircase kernel
``padic.char_series_prefix`` must reproduce.

It is the division-free closed-ordered-walk program of Mahajan and Vinay in
its dense form: each step multiplies the whole (m, m*blow) state G[h, v] by
the block's encoding and restarts every head on the full state, with no use
of G[h, v] = 0 for v < h.  The contract is the same: with ``sizes``, c_k is
read on the leading block of order sizes[k - 1]; each run of equal sizes is
one pass."""

import numpy as np

from dworksum.padic import (
    RamifiedElement,
    RingParams,
    diagonal_product_sum,
    encode_ring_matrix,
    matmul_mod,
)


def _row_product(G: np.ndarray, E: np.ndarray, pM: int, out: np.ndarray,
                 scratch: np.ndarray) -> None:
    """out = G E mod p^M for a walk state G (n, n, blow) and an encoding E of
    the same order, in E's dtype.  In float64 the product stays below 2^53
    (_float_terms), so floor(out / p^M) is the exact quotient, taken in
    scratch, an array of out's shape (np.fmod and np.floor_divide are slow
    on large quotients)."""
    rows = G.reshape(len(G), -1)
    if E.dtype == np.float64:
        np.matmul(rows, E, out=out.reshape(rows.shape))
        np.divide(out, pM, out=scratch)
        np.floor(scratch, out=scratch)
        scratch *= pM
        out -= scratch
    else:
        out[...] = matmul_mod(rows, E, pM).reshape(out.shape)


def _restart(P: np.ndarray, upper: np.ndarray, pM: int, out: np.ndarray):
    """The walk state that follows the products P, into out (contiguous):
    it keeps the open-walk extensions v > h, and each head d restarts on the
    diagonal with minus the closures P[h, h] at all heads h < d.  Returns
    the closures, a (n, blow) view of P's diagonal."""
    n = len(P)
    close = np.diagonal(P).T  # walks closing at each head
    np.multiply(P, upper[:n, :n], out=out)
    restart = out.reshape(n * n, -1)[n + 1::n + 1]
    np.cumsum(close[:-1], axis=0, out=restart)
    np.negative(restart, out=restart)
    restart %= pM
    return close


def char_series_prefix(
    params: RingParams,
    coords: np.ndarray,
    K: int,
    encoded: np.ndarray | None = None,
    sizes=None,
) -> list[RamifiedElement]:
    """Coefficients 1, c_1..c_K of det(I - T*mat), ascending, exact mod p^M,
    by the closed-ordered-walk (clow) dynamic program of Mahajan and Vinay:
    one ring matmul per degree and no divisions, so no p-adic precision loss.
    K is clamped to the order n, so K = n gives the whole series.

    coords: the square matrix as an (n, n, blow) array of residues.  sizes,
    when given, is nonincreasing and c_k is read on the leading principal
    block of order sizes[k - 1], which the caller knows to carry c_k (dwork's
    per-degree Hodge prefixes); by default every degree reads the whole
    matrix.  Each run of degrees on one block is one pass of the program.
    The walk state G[h, v] has the block's shape; degree 1 is free (I E = E)
    and so is the state after it, the leading part of one state shared by
    every block; a middle degree is G's coordinate rows times the row-layout
    encoding E, and the pass's last degree reads only the closing diagonal
    of G E (diagonal_product_sum).  encoded, when given, is E
    (encode_ring_matrix) of a leading block no smaller than any pass that
    multiplies (sizes[2]), so a caller that holds it does not encode the
    matrix again.  All passes share three state buffers, allocated once in
    E's dtype.
    """
    n = coords.shape[0]
    K = min(K, n)
    sizes = [n] * K if sizes is None else [int(s) for s in sizes[:K]]
    out = [params.one()]
    if K == 0:
        return out
    blow, pM = params.blow, params.pM
    d = np.arange(sizes[0])
    out.append(params.from_coords(-coords[d, d].sum(axis=0)))
    if K == 1:
        return out
    E = None
    if K > 2:
        block = coords[:sizes[2], :sizes[2]]
        E = encode_ring_matrix(params, block) if encoded is None else encoded
    dtype = np.int64 if E is None else E.dtype
    upper = np.triu(np.ones((sizes[1], sizes[1]), dtype=bool), k=1)[:, :, None]
    # the state after degree 1, on the largest block that reads it
    first_state = np.empty((sizes[1], sizes[1], blow), dtype=dtype)
    _restart(coords[:sizes[1], :sizes[1]], upper, pM, first_state)
    state = np.empty(sizes[2] ** 2 * blow if K > 2 else 0, dtype=dtype)
    products = np.empty_like(state)
    first = 2
    while first <= K:
        m = sizes[first - 1]
        last = first
        while last < K and sizes[last] == m:
            last += 1
        G = first_state[:m, :m]
        for k in range(2, last):
            P = products[:m * m * blow].reshape(m, m, blow)
            # the product's scratch, then the next state: G's own buffer
            # from the second product on, which the product spends
            nxt = state[:m * m * blow].reshape(m, m, blow)
            _row_product(G, E[:m * blow, :m * blow], pM, P, nxt)
            G = nxt
            close = _restart(P, upper, pM, G)
            if k >= first:
                out.append(params.from_coords(-close.sum(axis=0)))
        close = diagonal_product_sum(params, G, coords[:m, :m])
        out.append(params.from_coords(-close))
        first = last + 1
    return out
