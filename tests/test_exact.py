"""Exact linear algebra kernels against hand-checked reference values and
plain-Fraction reference eliminations."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_oracles import char_poly
from fraction_oracles import kernel_oracle, rref_oracle
import refdata
from walkmat import ExactMatrix, IntPolynomial, kernel_basis, rank
from walkmat.exact import PRIME, _echelon, _kernel


def det_oracle(m: ExactMatrix) -> F:
    """Plain fraction Gaussian elimination determinant, independent of the
    Bareiss code path."""
    n = m.rows
    a = [list(m.row(i)) for i in range(n)]
    det = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = F(1) / a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@st.composite
def rational_matrix(draw, max_rows=5, max_cols=5):
    """Rectangular rational matrices, often rank-deficient: some rows are
    integer combinations of the others, and the rows come shuffled."""
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    independent = draw(st.integers(1, rows))
    base = [[draw(value) for _ in range(cols)] for _ in range(independent)]
    grid = list(base)
    for _ in range(rows - independent):
        coeffs = [draw(st.integers(-2, 2)) for _ in base]
        grid.append([sum(c * b[j] for c, b in zip(coeffs, base))
                     for j in range(cols)])
    return draw(st.permutations(grid))


small_matrix = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n))


def test_rank_identity():
    assert rank(ExactMatrix.identity(4)) == 4


def test_rank_paw_wv():
    assert rank(ExactMatrix(refdata.PAW_WV)) == 3
    assert rank(ExactMatrix(refdata.PAW_W1)) == 3
    assert rank(ExactMatrix(refdata.PAW_W3)) == 4


def test_rank_mates8():
    assert rank(ExactMatrix(refdata.MATES8_W)) == 6


def test_rank_rectangular_and_rational():
    assert rank(ExactMatrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]])) == 1
    assert rank(ExactMatrix([[1, 2, 3], [2, 4, 6]])) == 1


def test_integer_entries_are_stored_as_ints():
    m = ExactMatrix([[F(2), True, F(1, 2)]])
    assert m == ExactMatrix([[2, 1, F(1, 2)]])
    assert [type(x) for x in m.row(0)] == [int, int, F]
    assert hash(ExactMatrix([[F(2)]])) == hash(ExactMatrix([[2]]))
    assert type((ExactMatrix([[2]]) * F(1, 2))[0, 0]) is int
    for bad in (1.0, "1", np.int64(1)):
        with pytest.raises(TypeError):
            ExactMatrix([[bad]])
    # rows of bools only, or of Fractions with denominator 1, become ints
    for row, want in (((True, False), (1, 0)), ((F(4, 2), F(-3)), (2, -3))):
        got = ExactMatrix([row]).row(0)
        assert got == want and [type(x) for x in got] == [int, int]
    # lists, tuples and generators all give tuple rows of equal value
    rows = [[3, -1], [F(1, 2), 0]]
    forms = [ExactMatrix(rows), ExactMatrix(tuple(map(tuple, rows))),
             ExactMatrix((x for x in row) for row in rows)]
    for m in forms:
        assert m == forms[0] and m.rows == 2
        assert all(type(m.row(i)) is tuple and m.row(i) == tuple(rows[i])
                   for i in range(2))
    # answers follow the same rule
    (x,) = kernel_basis(ExactMatrix([[2, 1]]))
    assert x == (F(-1, 2), 1) and [type(v) for v in x] == [F, int]


def test_kernel_identity():
    assert kernel_basis(ExactMatrix.identity(5)) == []


def test_kernel_wv_transpose(paw):
    kb = kernel_basis(ExactMatrix(refdata.PAW_WV).transpose())
    assert len(kb) == 1
    v = kb[0]
    # proportional to (0, 0, 1, -1)
    assert v[0] == 0 and v[1] == 0 and v[2] == -v[3] and v[2] != 0


def test_kernel_mates8():
    kb = kernel_basis(ExactMatrix(refdata.MATES8_W).transpose())
    assert len(kb) == 2


def test_char_poly_zero_matrix():
    assert char_poly(ExactMatrix.zeros(2, 2)) == IntPolynomial([0, 0, 1])


def test_char_poly_paw(paw):
    assert char_poly(paw.adjacency) == IntPolynomial(refdata.PAW_CHAR)
    # PAW_CHAR = PAW_MAIN (x + 1) = x PAW_MAIN + PAW_MAIN
    shifted = [0] + refdata.PAW_MAIN
    assert refdata.PAW_CHAR == [a + b for a, b in
                                zip(shifted, refdata.PAW_MAIN + [0])]


def test_char_poly_c3():
    c3 = ExactMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert char_poly(c3) == IntPolynomial([-2, -3, 0, 1])


def test_char_poly_rejects_rationals():
    with pytest.raises(ValueError):
        char_poly(ExactMatrix([[F(1, 2)]]))


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_char_poly_matches_determinant_evaluations(grid):
    m = ExactMatrix(grid)
    p = char_poly(m)
    n = m.rows
    assert p.coeffs[-1] == 1 and p.degree == n
    for x in range(-2, n + 2):
        shifted = ExactMatrix(
            [[x * (1 if i == j else 0) - grid[i][j] for j in range(n)]
             for i in range(n)])
        assert sum(c * x ** k for k, c in enumerate(p.coeffs)) == \
            det_oracle(shifted)


def test_char_poly_adjacency_coefficients():
    # trace forces the x^{n-1} coefficient to 0 and the x^{n-2} coefficient
    # to minus the edge count, for every adjacency matrix
    from walkmat import edge_count
    from walkmat.oracle import SplitMix64, random_graph
    for seed in range(40):
        rng = SplitMix64(seed)
        n = 2 + rng.below(8)
        g = random_graph(n, rng)
        p = char_poly(g.adjacency)
        assert p.coeffs[n - 1] == 0
        assert p.coeffs[n - 2] == -edge_count(g)


@given(small_matrix, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_row_permutation(grid, rnd):
    m = ExactMatrix(grid)
    order = list(range(m.rows))
    rnd.shuffle(order)
    assert rank(m) == rank(ExactMatrix([m.row(i) for i in order]))
    # and equals the pivot count of the plain-fraction echelon route
    _, pivots = rref_oracle(grid)
    assert rank(m) == len(pivots)


@given(rational_matrix())
@settings(max_examples=200, deadline=None)
def test_rank_and_kernel_match_the_fraction_reference(grid):
    m = ExactMatrix(grid)
    assert rank(m) == len(rref_oracle(grid)[1])
    assert kernel_basis(m) == kernel_oracle(grid)
    assert all(type(x) is int or x.denominator > 1
               for v in kernel_basis(m) for x in v)


def rref_mod_oracle(grid, p) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over GF(p) with row swaps and a division per pivot: the
    reduced row echelon form mod p and its pivot columns."""
    a = [[x % p for x in row] for row in grid]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


@st.composite
def modular_grid(draw):
    """(integer matrix, width) for the modular elimination: small,
    negative and >= 2^64 entries, some rows integer combinations of the
    others, rows shuffled, and a width of None (all columns) or below."""
    entry = st.one_of(st.integers(-4, 4), st.integers(-2 ** 70, 2 ** 70),
                      st.sampled_from([2 ** 64, -2 ** 64, 2 ** 64 + 1]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    independent = draw(st.integers(1, rows))
    base = [[draw(entry) for _ in range(cols)] for _ in range(independent)]
    grid = list(base)
    for _ in range(rows - independent):
        coeffs = [draw(st.integers(-2, 2)) for _ in base]
        grid.append([sum(c * b[j] for c, b in zip(coeffs, base))
                     for j in range(cols)])
    width = draw(st.one_of(st.none(), st.integers(0, cols)))
    return draw(st.permutations(grid)), width


def check_echelon_mod(grid, width, p):
    """`_echelon(grid, width, p)` against the oracle: the pivots and the
    first `width` columns of every row are the oracle's reduced form of
    those columns (unique, so the pivot rows' choice does not matter
    there), and the rows are residues that span the input's row space mod
    p (the same reduced form of the whole matrix)."""
    rows, pivots, d = _echelon(grid, width, p)
    width = len(grid[0]) if width is None else width
    left, want = rref_mod_oracle([row[:width] for row in grid], p)
    assert (pivots, d) == (want, 1)
    assert [row[:width] for row in rows] == left
    assert all(0 <= x < p for row in rows for x in row)
    assert rref_mod_oracle(rows, p) == rref_mod_oracle(grid, p)
    return rows, pivots


@given(modular_grid(), st.sampled_from([2, 3, 7, PRIME, 2 ** 31 - 1]))
@settings(max_examples=200, deadline=None)
def test_echelon_and_kernel_modulo_a_prime(grid_width, p):
    # the same loop over GF(p): d = 1, the pivot rows are the reduced row
    # echelon form mod p (at full width), every other row is zero there,
    # and the kernel vectors annihilate the matrix mod p
    grid, width = grid_width
    check_echelon_mod(grid, width, p)
    rows, pivots = check_echelon_mod(grid, None, p)
    r = len(pivots)
    assert not any(x for row in rows[r:] for x in row)
    assert r <= rank(ExactMatrix(grid))
    basis, d = _kernel(grid, p)
    assert d == 1 and len(basis) == len(grid[0]) - r
    assert all(sum(a * x for a, x in zip(row, v)) % p == 0
               for row in grid for v in basis)


def test_echelon_modulo_a_prime_of_w_and_identity_at_n64():
    # [W | I] of a seeded G(64, 1/2) pivoting in W's columns, as the
    # spectral analysis runs it: at rank 64 mod PRIME the rows are
    # [I | W^-1] mod p; mod 2, W has rank below 64
    from walkmat import VertexSet, walk_matrix
    from walkmat.oracle import SplitMix64, random_graph
    n = 64
    w = walk_matrix(random_graph(n, SplitMix64(64)), VertexSet.full(n))
    grid = [list(w.w.row(v)) + [int(u == v) for u in range(n)]
            for v in range(n)]
    rows, pivots = check_echelon_mod(grid, n, PRIME)
    assert pivots == list(range(n))
    assert rows == rref_mod_oracle(grid, PRIME)[0]
    rows, pivots = check_echelon_mod(grid, n, 2)
    assert len(pivots) < n


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilate(grid):
    m = ExactMatrix(grid)
    kb = kernel_basis(m)
    assert len(kb) == m.cols - rank(m)
    for v in kb:
        assert (m * ExactMatrix.from_columns([v])
                == ExactMatrix.zeros(m.rows, 1))
