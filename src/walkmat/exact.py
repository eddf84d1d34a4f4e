"""Exact rational linear algebra.

Matrices hold arbitrary-precision rationals, and rank, solve, kernel and
characteristic polynomial are exact.  This module alone decides how an entry
is stored: an integer is a Python ``int`` and any other rational a
``fractions.Fraction`` (aliased ``QQ``), so integer data such as walk and
adjacency matrices stay ints from input to answer.  All elimination runs
through one fraction-free Gauss-Jordan loop over Python integers
(`_echelon`, Bareiss's integer-preserving step): each row is first scaled to
integers, and only the final answers become ``x / d`` of the last pivot d,
a Fraction only where d does not divide x.  Pivots are the first non-zero
entry in input row order, which makes every result deterministic.

Matrices are immutable values: all operations return fresh matrices, so
instances are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import NonInteger, NoSolution, NonUnique

QQ = Fraction

Number = int | Fraction
Vector = tuple[Number, ...]


def _entry(x) -> Number:
    """The stored form of an exact number: an int when it is an integer
    (bools included), otherwise a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _ratio(x: int, d: int) -> Number:
    """x / d in stored form."""
    q, rem = divmod(x, d)
    return Fraction(x, d) if rem else q


class ExactMatrix:
    """Dense matrix of rationals with exact entrywise equality."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(map(_entry, row)) for row in entries)
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
        cols = list(columns)
        if cols and any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns")
        return cls(zip(*cols))

    # -- access --

    def __getitem__(self, ij: tuple[int, int]) -> Number:
        i, j = ij
        return self._entries[i][j]

    def row(self, i: int) -> Vector:
        return self._entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self._entries)

    def take_cols(self, indices: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix([[r[j] for j in indices] for r in self._entries])

    # -- predicates --

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return all(type(x) is int for r in self._entries for x in r)

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
        s = _entry(other)
        return ExactMatrix([[x * s for x in r] for r in self._entries])

    def __rmul__(self, other):
        s = _entry(other)
        return ExactMatrix([[s * x for x in r] for r in self._entries])

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


def _integer_rows(grid: Iterable[Sequence]) -> list[list[int]]:
    """Row-scaled integer copy of a grid of rationals (each row times the lcm
    of its denominators).

    Row scaling by nonzero rationals preserves rank, the reduced row echelon
    form and the solutions of a linear system.
    """
    out = []
    for r in grid:
        scale = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (scale // x.denominator) for x in r])
    return out


def _echelon(rows: list[list[int]], width: int | None = None
             ) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix: returns
    d times its reduced row echelon form, the pivot columns and d, the last
    pivot (1 if none).

    Pivots are sought in the first `width` columns (default: all).  Each
    step is Bareiss's: every row i but the pivot row p becomes
    (pv a[i] - a[i][c] a[p]) // d_prev, an exact division, as every entry
    is a minor of the input.  The pivot of column c is the first non-pivot
    row, in input order, that is non-zero there, and rows are not swapped:
    the output lists the pivot rows in pivot order, then the others in input
    order, each of those d times its input row minus the pivot rows before
    it in the input that it depends on.
    """
    a = list(rows)
    if width is None:
        width = len(a[0]) if a else 0
    rest = list(range(len(a)))  # the rows that are not pivot rows
    prows, pivots, d = [], [], 1
    for c in range(width):
        p = next((i for i in rest if a[i][c]), None)
        if p is None:
            continue
        ap, pv = a[p], a[p][c]
        for i, ai in enumerate(a):
            f = ai[c]
            if i != p and f:
                a[i] = [(pv * x - f * y) // d for x, y in zip(ai, ap)]
            elif i != p and pv != d:
                a[i] = [pv * x // d for x in ai]
        rest.remove(p)
        prows.append(p)
        pivots.append(c)
        d = pv
    return [a[i] for i in prows + rest], pivots, d


def rank(m: ExactMatrix) -> int:
    """Exact rank: the pivot count of the fraction-free elimination."""
    return len(_echelon(_integer_rows(m._entries))[1])


def solve(a: ExactMatrix, b: Sequence) -> Vector:
    """Exact solution of a x = b.

    Raises NoSolution when inconsistent and NonUnique when underdetermined.
    """
    return solve_matrix(a, ExactMatrix([[x] for x in b])).col(0)


def solve_matrix(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact solution X of a X = b (multiple right-hand sides at once), from
    one elimination of [a | b]."""
    if b.rows != a.rows:
        raise ValueError("shape mismatch")
    rows, pivots, d = _echelon(_integer_rows(
        ra + rb for ra, rb in zip(a._entries, b._entries)))
    n = a.cols
    if pivots and pivots[-1] >= n:
        raise NoSolution("inconsistent system")
    if len(pivots) < n:
        raise NonUnique("underdetermined system")
    return ExactMatrix([[_ratio(x, d) for x in row[n:]] for row in rows[:n]])


def kernel_basis(m: ExactMatrix) -> list[Vector]:
    """Exact basis of the right null space (empty list when trivial).

    Deterministic: free variables are taken in increasing column order and the
    standard back-substituted basis vector is emitted for each.
    """
    rows, pivots, d = _echelon(_integer_rows(m._entries))
    basis = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [0] * m.cols
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = _ratio(-row[f], d)
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
    n, grid = a.rows, a._entries
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
