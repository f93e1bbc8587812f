"""Integer-span membership, the reference that the relation-lattice tests
check kernel saturation against: a target is back-substituted through the
column Hermite form of polytope, the same reduction gkz.lattice_kernel
reads its basis from.
"""

from dworksum.polytope import column_hermite


def solve_integer(columns, target):
    """One integer solution k of sum k_j columns[j] = target, or None.

    Back-substitutes target through the column Hermite form of the columns,
    so it decides membership of target in their integer span."""
    n, N = len(target), len(columns)
    H, U, pivots = column_hermite(
        [[columns[j][i] for j in range(N)] for i in range(n)], N
    )
    k = [0] * N
    t = list(target)
    for r, c in pivots:
        if t[r] % H[r][c] != 0:
            return None
        f = t[r] // H[r][c]
        k[c] = f
        for i in range(n):
            t[i] -= f * H[i][c]
    if any(x != 0 for x in t):
        return None
    # pull back through the recorded column operations
    return [sum(u * x for u, x in zip(row, k)) for row in U]
