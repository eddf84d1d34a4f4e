"""Exact rational linear algebra.

Everything here works over arbitrary-precision rationals (``fractions.Fraction``,
aliased ``QQ``) so that rank, solve, inverse, kernel and characteristic
polynomial are exact.  Elimination uses fraction-free Bareiss pivoting with
first-nonzero pivot selection, which makes every result deterministic.

Matrices are immutable values: all operations return fresh matrices, so
instances are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import NonInteger, NoSolution, NonUnique, Singular

QQ = Fraction

Vector = tuple[Fraction, ...]


def _to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class ExactMatrix:
    """Dense matrix of rationals with exact entrywise equality."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(_to_frac(x) for x in row) for row in entries)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        self._entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0

    # -- construction helpers --

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "ExactMatrix":
        cols = [tuple(_to_frac(x) for x in c) for c in columns]
        if cols and any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns")
        n = len(cols[0]) if cols else 0
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    # -- access --

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._entries[i][j]

    def row(self, i: int) -> Vector:
        return self._entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self._entries)

    def row_list(self) -> list[list[Fraction]]:
        return [list(r) for r in self._entries]

    def take_cols(self, indices: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix([[r[j] for j in indices] for r in self._entries])

    def take_rows(self, indices: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix([self._entries[i] for i in indices])

    # -- predicates --

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for r in self._entries for x in r)

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._entries[i][j] == self._entries[j][i]
            for i in range(self.rows) for j in range(i))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._entries for x in r)

    # -- arithmetic --

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix)
                and self._entries == other._entries)

    def __hash__(self) -> int:
        return hash(self._entries)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self._entries, other._entries)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self._entries, other._entries)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-x for x in r] for r in self._entries])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            bt = other._entries
            out = []
            for r in self._entries:
                out.append([sum(r[k] * bt[k][j] for k in range(self.cols))
                            for j in range(other.cols)])
            return ExactMatrix(out)
        s = _to_frac(other)
        return ExactMatrix([[x * s for x in r] for r in self._entries])

    def __rmul__(self, other):
        s = _to_frac(other)
        return ExactMatrix([[s * x for x in r] for r in self._entries])

    def mul_vector(self, vec: Sequence) -> Vector:
        v = [_to_frac(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(r[k] * v[k] for k in range(self.cols))
                     for r in self._entries)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self._entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self._entries)

    def to_float_rows(self) -> list[list[float]]:
        return [[float(x) for x in r] for r in self._entries]


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    """Row-scaled integer copy of m (each row times the lcm of denominators).

    Row scaling by nonzero rationals preserves rank and row echelon pivots.
    """
    out = []
    for r in m._entries:
        lcm = 1
        for x in r:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        out.append([int(x * lcm) for x in r])
    return out


def rank(m: ExactMatrix) -> int:
    """Exact rank via fraction-free (Bareiss) elimination."""
    a = _integer_rows(m)
    nrows, ncols = len(a), (len(a[0]) if a else 0)
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        ar = a[r]
        for i in range(r + 1, nrows):
            ai = a[i]
            f = ai[c]
            for j in range(c, ncols):
                ai[j] = (ai[j] * pv - f * ar[j]) // prev
        prev = pv
        r += 1
    return r


def _rref(grid: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (grid, pivot columns)."""
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if grid[i][c] != 0), None)
        if piv is None:
            continue
        grid[r], grid[piv] = grid[piv], grid[r]
        pv = grid[r][c]
        if pv != 1:
            grid[r] = [x / pv for x in grid[r]]
        for i in range(nrows):
            if i != r and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
    return grid, pivots


def solve(a: ExactMatrix, b: Sequence) -> Vector:
    """Exact solution of a x = b.

    Raises NoSolution when inconsistent and NonUnique when underdetermined.
    """
    bv = [_to_frac(x) for x in b]
    if len(bv) != a.rows:
        raise ValueError("right-hand side length mismatch")
    grid = [list(r) + [bv[i]] for i, r in enumerate(a._entries)]
    grid, pivots = _rref(grid)
    n = a.cols
    if n in pivots:
        raise NoSolution("inconsistent system")
    if len(pivots) < n:
        raise NonUnique("underdetermined system")
    x = [QQ(0)] * n
    for r, c in enumerate(pivots):
        x[c] = grid[r][n]
    return tuple(x)


def solve_matrix(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact solution X of a X = b (multiple right-hand sides at once)."""
    if b.rows != a.rows:
        raise ValueError("shape mismatch")
    n, k = a.cols, b.cols
    grid = [list(r) + list(b._entries[i]) for i, r in enumerate(a._entries)]
    grid, pivots = _rref(grid)
    if any(c >= n for c in pivots):
        raise NoSolution("inconsistent system")
    if len(pivots) < n:
        raise NonUnique("underdetermined system")
    out = [[grid[r][n + j] for j in range(k)] for r in range(n)]
    return ExactMatrix(out)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse; raises Singular when rank < dimension."""
    if not m.is_square():
        raise Singular("matrix is not square")
    n = m.rows
    grid = [list(r) + [QQ(1) if i == j else QQ(0) for j in range(n)]
            for i, r in enumerate(m._entries)]
    grid, pivots = _rref(grid)
    if len(pivots) < n or pivots != list(range(n)):
        raise Singular("matrix is singular")
    return ExactMatrix([row[n:] for row in grid])


def kernel_basis(m: ExactMatrix) -> list[Vector]:
    """Exact basis of the right null space (empty list when trivial).

    Deterministic: free variables are taken in increasing column order and the
    standard back-substituted basis vector is emitted for each.
    """
    grid = [list(r) for r in m._entries]
    grid, pivots = _rref(grid)
    n = m.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [QQ(0)] * n
        v[f] = QQ(1)
        for r, c in enumerate(pivots):
            v[c] = -grid[r][f]
        basis.append(tuple(v))
    return basis


class IntPolynomial:
    """Polynomial with integer coefficients, stored ascending by degree.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0 * x if self.coeffs else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def poly_divides(p: IntPolynomial, q: IntPolynomial) -> bool:
    """True iff p divides q exactly (zero remainder, division over Q[x])."""
    if p.is_zero():
        raise ValueError("division by the zero polynomial")
    if q.is_zero():
        return True
    if q.degree < p.degree:
        return False
    rem = [QQ(c) for c in q.coeffs]
    pc = [QQ(c) for c in p.coeffs]
    lead = pc[-1]
    for top in range(len(rem) - 1, p.degree - 1, -1):
        f = rem[top] / lead
        if f == 0:
            continue
        off = top - p.degree
        for i, c in enumerate(pc):
            rem[off + i] -= f * c
    return all(c == 0 for c in rem[:p.degree])


def char_poly(a: ExactMatrix) -> IntPolynomial:
    """Monic characteristic polynomial of an integer matrix, exactly.

    Faddeev-LeVerrier recurrence in pure integer arithmetic; the division of
    the k-th trace by k is exact for integer matrices and is checked.
    """
    if not a.is_square():
        raise ValueError("matrix must be square")
    if not a.is_integer():
        raise NonInteger("char_poly needs integer entries")
    n = a.rows
    grid = [[int(x) for x in r] for r in a._entries]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]  # leading coefficient, descending order
    for k in range(1, n + 1):
        am = [[sum(grid[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        # exact for integer matrices: the k-th trace is divisible by k
        ck, rem = divmod(-tr, k)
        if rem:
            raise NonInteger("characteristic polynomial not integral")
        coeffs.append(ck)
        m = [[am[i][j] + (ck if i == j else 0) for j in range(n)]
             for i in range(n)]
    return IntPolynomial(list(reversed(coeffs)))
