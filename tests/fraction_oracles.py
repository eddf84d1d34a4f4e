"""Plain-Fraction reference routines for the tests.

They share no code with walkmat: no fraction-free integer elimination, no
modular arithmetic, no walkmat polynomial type.  Each is the textbook
algorithm on `fractions.Fraction`, slow and obviously right.
"""

from fractions import Fraction as F


def rref_oracle(grid) -> tuple[list[list[F]], list[int]]:
    """Plain fraction Gauss-Jordan elimination with row swaps: (reduced row
    echelon form, pivot columns).  Shares no code with the fraction-free
    integer elimination in walkmat.exact."""
    a = [[F(x) for x in row] for row in grid]
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def kernel_oracle(grid) -> list[tuple[F, ...]]:
    """A basis of the right kernel: one vector per free column f of the
    reduced form, 1 at f and 0 at every other free column."""
    red, pivots = rref_oracle(grid)
    n = len(grid[0])
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[f] = F(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def poly_remainder(p, q) -> list[F]:
    """The remainder of q divided by p over Q, by long division; p and q
    are coefficient sequences, lowest degree first, p's last one non-zero."""
    rem = [F(c) for c in q]
    k = len(p) - 1
    for top in range(len(rem) - 1, k - 1, -1):
        f = rem[top] / p[-1]
        for i, c in enumerate(p):
            rem[top - k + i] -= f * c
    return rem[:k]
