"""Reference product of R = (Z/p^M)[b]/(g) [pi]/(pi^(p-1)+p) by convolution.

Independent of padic's structure tensor: the coordinate vectors are
multiplied as polynomials in (pi, b), the b-degrees above s - 1 are reduced
by b^s = -(g_0 + ... + g_{s-1} b^(s-1)), and the pi-degrees above p - 2 fold
back by pi^(p-1) = -p.
"""

import numpy as np


def b_reduction(params):
    """b^(s+k) as a coefficient row over 1..b^(s-1) mod p^M, k = 0..s-2."""
    s, pM = params.s, params.pM
    rows = []
    cur = [(-c) % pM for c in params.g[:s]]
    rows.append(tuple(cur))
    for _ in range(s - 2):
        carry = cur[s - 1]
        nxt = [0] + cur[:s - 1]
        if carry:
            nxt = [(v + carry * r) % pM for v, r in zip(nxt, rows[0])]
        rows.append(tuple(nxt))
        cur = nxt
    return rows


def mul(params, x, y) -> tuple:
    """Coordinates of the product x y."""
    p, s, pM = params.p, params.s, params.pM
    rows = p - 1
    red = b_reduction(params)
    conv = [[0] * (2 * s - 1) for _ in range(2 * rows - 1)]
    for i1 in range(rows):
        for j1 in range(s):
            a = x[i1 * s + j1]
            if a:
                for i2 in range(rows):
                    for j2 in range(s):
                        conv[i1 + i2][j1 + j2] += a * y[i2 * s + j2]
    for row in conv:
        for k in range(2 * s - 2, s - 1, -1):
            c, row[k] = row[k], 0
            for j in range(s):
                row[j] += c * red[k - s][j]
    out = [0] * params.blow
    for t, row in enumerate(conv):
        # pi^(rows + r) = -p pi^r
        r, sign = (t, 1) if t < rows else (t - rows, -p)
        for j in range(s):
            out[r * s + j] += sign * row[j]
    return tuple(c % pM for c in out)


def rep(params, x) -> np.ndarray:
    """(blow, blow) matrix whose row b is the coordinate row of e_b x."""
    blow = params.blow
    return np.array(
        [mul(params, tuple(int(k == b) for k in range(blow)), x) for b in range(blow)],
        dtype=np.int64,
    )
