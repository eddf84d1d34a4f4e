"""Exact rational linear algebra and its one elimination kernel.

Matrices hold arbitrary-precision rationals, and rank and kernel are exact.
This module alone decides how an entry is stored: an integer is a Python
``int`` and any other rational a ``fractions.Fraction``, so integer data
such as walk and adjacency matrices stay ints from input to answer.  All
elimination runs through one fraction-free Gauss-Jordan loop over Python
integers (`_echelon`, Bareiss's integer-preserving step): each row is first
scaled to integers, and only the final answers become ``x / d`` of the last
pivot d, a Fraction only where d does not divide x.  Pivots are the first
non-zero entry in input row order, which makes every result deterministic.
The same elimination runs modulo a prime (`PRIME`) for callers that only
need candidates they verify exactly afterwards.  There each row is packed
into one Python int, a slot per column, wide enough that no slot overflows
before the end (`_slot_bits`): a row update is one bigint multiply-add, and
only the pivot row is unpacked at each pivot.

Matrices are immutable values: all operations return fresh matrices, so
instances are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

# the prime of the modular eliminations: below 2^30 every residue is a
# one-digit CPython int, and p = 3 mod 4 makes a square root mod p one pow
PRIME = (1 << 30) - 41

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


_INT = frozenset((int,))


def _stored_row(row: Iterable) -> Vector:
    """A row in stored form: a row of plain ints is kept as it is, any
    other row goes through `_entry` entry by entry."""
    row = tuple(row)
    return row if set(map(type, row)) <= _INT else tuple(map(_entry, row))


def _divmod(x: int, d: int, modulus: int = 0) -> tuple[int, int]:
    """divmod(x, d); modulo a prime p, (x d^-1 mod p, 0).  A d that is 0
    (mod p) raises ZeroDivisionError."""
    if not modulus:
        return divmod(x, d)
    if not d % modulus:
        raise ZeroDivisionError("not invertible modulo the prime")
    return x * pow(d, -1, modulus) % modulus, 0


def _ratio(x: int, d: int) -> Number:
    """x / d in stored form."""
    q, rem = divmod(x, d)
    return Fraction(x, d) if rem else q


def _divide_rows(rows: Iterable[Iterable[int]], d: int, modulus: int = 0
                 ) -> list[list[Number]]:
    """Every x / d of the integer rows in stored form; modulo a prime,
    x d^-1 reduced, from one inverse (ZeroDivisionError if d = 0 mod p)."""
    if not modulus:
        return [[_ratio(x, d) for x in row] for row in rows]
    inv = _divmod(1, d, modulus)[0]
    return [[x * inv % modulus for x in row] for row in rows]


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


class ExactMatrix:
    """Dense matrix of rationals with exact entrywise equality."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(map(_stored_row, entries))
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


def _slot_bits(modulus: int, terms: int) -> int:
    """Bits per slot of a packed row mod a prime p that takes up to `terms`
    additions of a product of two residues: a slot then stays below
    (terms + 1) p^2, which this width holds."""
    return 2 * modulus.bit_length() + (terms + 1).bit_length()


def _pack(values: Sequence[int], bits: int) -> int:
    """One int holding the non-negative values, value c in bits
    [bits c, bits (c+1))."""
    x = 0
    for v in reversed(values):
        x = (x << bits) | v
    return x


def _unpack(x: int, bits: int, count: int, modulus: int) -> list[int]:
    """The first `count` slots of a packed row, each reduced mod the prime."""
    mask = (1 << bits) - 1
    out = []
    for _ in range(count):
        out.append((x & mask) % modulus)
        x >>= bits
    return out


def _echelon(rows: list[list[int]], width: int | None = None,
             modulus: int = 0) -> tuple[list[list[int]], list[int], int]:
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

    With a prime `modulus` the same elimination runs over GF(p) on the
    input reduced mod p, with the same pivots and output contract (d = 1),
    on packed rows: each row is one int with a slot of `_slot_bits` bits
    per column (`_pack`).  At each pivot only the pivot row is unpacked:
    its slots from c on (it is 0 mod p before c) are reduced, scaled to 1
    and repacked as y.  Every other row i with f = a[i][c] mod p != 0 takes
    one bigint multiply-add, a[i] += f neg, where neg packs p - y_j: that
    is a[i] - f y mod p in every slot, and as no slot goes negative no
    borrow crosses slots.  A slot starts below p and gains f (p - y_j) < p^2
    per pivot, and slots are reduced only when every row is unpacked at the
    end.  A row takes at most one update per pivot and there are at most
    len(rows) pivots, so a slot stays below (len(rows) + 1) p^2, which the
    slot width holds whatever the prime and the input size.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    if modulus:
        return _echelon_mod(rows, width, modulus)
    a = list(rows)
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


def _echelon_mod(rows: list[list[int]], width: int, p: int
                 ) -> tuple[list[list[int]], list[int], int]:
    """The packed-row branch of `_echelon` modulo the prime p."""
    cols = len(rows[0]) if rows else 0
    bits = _slot_bits(p, len(rows))
    mask = (1 << bits) - 1
    a = [_pack([x % p for x in r], bits) for r in rows]
    rest = list(range(len(a)))
    prows, pivots = [], []
    for c in range(width):
        shift = bits * c
        col = [((ai >> shift) & mask) % p for ai in a]
        piv = next((i for i in rest if col[i]), None)
        if piv is None:
            continue
        inv = pow(col[piv], -1, p)
        y = [x * inv % p for x in _unpack(a[piv] >> shift, bits, cols - c, p)]
        a[piv] = _pack(y, bits) << shift
        neg = _pack([p - x for x in y], bits) << shift
        for i, f in enumerate(col):
            if f and i != piv:
                a[i] += f * neg
        rest.remove(piv)
        prows.append(piv)
        pivots.append(c)
    return [_unpack(a[i], bits, cols, p) for i in prows + rest], pivots, 1


def rank(m: ExactMatrix) -> int:
    """Exact rank: the pivot count of the fraction-free elimination."""
    return len(_echelon(_integer_rows(m._entries))[1])


def _kernel(rows: list[list[int]], modulus: int = 0
            ) -> tuple[list[list[int]], int]:
    """d times a basis of the right null space of an integer matrix, and d,
    the last pivot of `_echelon` (1 modulo a prime).

    Deterministic: free columns are taken in increasing order, and the
    vector of free column f is d at f, -row[f] at the pivot column of each
    pivot row and 0 elsewhere.
    """
    rows, pivots, d = _echelon(rows, modulus=modulus)
    width = len(rows[0]) if rows else 0
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        v = [0] * width
        v[f] = d
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis, d


def kernel_basis(m: ExactMatrix) -> list[Vector]:
    """Exact basis of the right null space (empty list when trivial).

    Deterministic: free variables are taken in increasing column order and the
    standard back-substituted basis vector is emitted for each.
    """
    basis, d = _kernel(_integer_rows(m._entries))
    return [tuple(_ratio(x, d) for x in v) for v in basis]


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
