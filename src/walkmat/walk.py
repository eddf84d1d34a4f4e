"""Walk matrices W^S = [e, Ae, ..., A^{n-1}e] and their slices.

Columns are built by neighbor summation over adjacency lists, never by matrix
powers: column k+1 at vertex v is the sum of column k over v's neighbors,
picked out of the column in one call of an `operator.itemgetter` built once
per vertex.  Entries are exact arbitrary-precision Python ints; they grow
geometrically with the column index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .errors import (EmptySet, NotDisjoint, MalformedHeader, OrderMismatch,
                     TruncatedBody)
from .exact import ExactMatrix
from .graphs import Graph, VertexSet, _ints


@dataclass(frozen=True)
class WalkMatrix:
    """The n x n walk matrix of a vertex set, with the set it came from."""

    w: ExactMatrix
    vertex_set: VertexSet

    @property
    def n(self) -> int:
        return self.w.rows

    @classmethod
    def from_matrix(cls, m: ExactMatrix) -> "WalkMatrix":
        """Wrap a raw matrix, recovering the set from column 0.

        Column 0 must be 0/1 and non-zero; the remaining entries must be
        non-negative integers.
        """
        if not m.is_square():
            raise ValueError("walk matrix must be square")
        if not m.is_integer():
            raise ValueError("walk matrix entries must be integers")
        col0 = m.col(0)
        if any(x not in (0, 1) for x in col0):
            raise ValueError("column 0 of a walk matrix must be 0/1")
        members = tuple(i + 1 for i, x in enumerate(col0) if x == 1)
        if not members:
            raise EmptySet("column 0 of a walk matrix must be non-zero")
        if any(x < 0 for r in range(m.rows) for x in m.row(r)):
            raise ValueError("walk matrix entries must be non-negative")
        return cls(m, VertexSet(m.rows, members))


@dataclass(frozen=True)
class WalkSlice:
    """Columns A^lo e .. A^hi e of a walk matrix (hi may exceed n-1)."""

    lo: int
    hi: int
    m: ExactMatrix


def _walk_columns(g: Graph, s: VertexSet, count: int) -> list[list[int]]:
    """First `count` columns e, Ae, A^2 e, ... as integer lists."""
    if s.is_empty():
        raise EmptySet("walk matrix needs a non-empty vertex set")
    if s.n != g.n:
        raise OrderMismatch(f"orders differ: set {s.n} vs graph {g.n}")
    n = g.n
    # an itemgetter of one index returns a scalar and of none raises, so a
    # vertex of degree 0 or 1 also picks the zero slot past the column, twice
    # or once: every getter returns a tuple
    gets = [itemgetter(*nbrs, *(n,) * (2 - len(nbrs))) for nbrs in g.neighbors]
    col = list(s.characteristic)
    cols = [col]
    for _ in range(count - 1):
        padded = col + [0]
        col = [sum(get(padded)) for get in gets]
        cols.append(col)
    return cols


def walk_matrix(g: Graph, s: VertexSet) -> WalkMatrix:
    """W^S with columns e, Ae, ..., A^{n-1}e."""
    cols = _walk_columns(g, s, g.n)
    return WalkMatrix(ExactMatrix.from_columns(cols), s)


def verify_candidate(a: ExactMatrix, w: WalkMatrix) -> bool:
    """True iff a is a valid adjacency matrix (0/1, symmetric, zero
    diagonal) that regenerates w exactly.

    The walk recurrence col_{k+1} = a col_k runs on a's own rows and stops
    at the first column that differs from w.
    """
    n = w.n
    if a.shape != (n, n):
        return False
    rows = [a.row(i) for i in range(n)]
    if any(row[i] or not set(row) <= {0, 1} or row != a.col(i)
           for i, row in enumerate(rows)):
        return False
    col = w.vertex_set.characteristic
    for k in range(n):
        if k:
            col = tuple(sum(compress(col, row)) for row in rows)
        if col != w.w.col(k):
            return False
    return True


def walk_slice(g: Graph, s: VertexSet, i: int, j: int) -> WalkSlice:
    """Columns A^i e .. A^j e; j >= n continues the neighbor recurrence."""
    if not 0 <= i <= j:
        raise ValueError("need 0 <= i <= j")
    cols = _walk_columns(g, s, j + 1)
    return WalkSlice(i, j, ExactMatrix.from_columns(cols[i:j + 1]))


def shift_identity_check(g: Graph, s: VertexSet, i: int, j: int) -> bool:
    """True iff A * W_[i,j] = W_[i+1,j+1] exactly."""
    lhs = g.adjacency * walk_slice(g, s, i, j).m
    rhs = walk_slice(g, s, i + 1, j + 1).m
    return lhs == rhs


def additivity_check(g: Graph, s: VertexSet, t: VertexSet) -> bool:
    """True iff W^S + W^T = W^{S u T} for disjoint non-empty S, T."""
    if not s.disjoint_from(t):
        raise NotDisjoint("additivity needs disjoint vertex sets")
    lhs = walk_matrix(g, s).w + walk_matrix(g, t).w
    rhs = walk_matrix(g, s.union(t)).w
    return lhs == rhs


def hankel_matrix(g: Graph, s: VertexSet, i: int, j: int) -> ExactMatrix:
    """(W_[i,j])^T W_[i,j]: entry (p, q) counts (2i+p+q)-walks with both ends
    in S; constant along anti-diagonals."""
    if not 0 <= i < j:
        raise ValueError("need 0 <= i < j")
    m = walk_slice(g, s, i, j).m
    return m.transpose() * m


# --- serialization ---

def to_json(w: WalkMatrix) -> str:
    """JSON with integers as decimal strings (arbitrary precision survives)."""
    cols = [[str(x) for x in w.w.col(k)] for k in range(w.n)]
    return json.dumps({"n": w.n, "set": list(w.vertex_set.members),
                       "columns": cols})


def from_json(text: str) -> WalkMatrix:
    """Parse `to_json` output; the shapes are checked before any indexing,
    so malformed JSON raises MalformedHeader or TruncatedBody."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"bad walk-matrix JSON: {exc}") from exc
    if type(obj) is not dict:
        raise MalformedHeader("walk-matrix JSON is not an object")
    for key in ("n", "set", "columns"):
        if key not in obj:
            raise MalformedHeader(f"walk-matrix JSON lacks {key!r}")
    n, members, cols = obj["n"], obj["set"], obj["columns"]
    if type(n) is not int or type(members) is not list or any(
            type(i) is not int for i in members):
        raise MalformedHeader("walk-matrix JSON needs an integer n and set")
    # to_json writes each entry as a decimal string
    if type(cols) is not list or len(cols) != n or any(
            type(c) is not list or len(c) != n
            or any(type(x) not in (int, str) for x in c) for c in cols):
        raise TruncatedBody("walk-matrix JSON columns are not n x n integers")
    try:
        w = WalkMatrix.from_matrix(
            ExactMatrix.from_columns([[int(x) for x in c] for c in cols]))
    except ValueError as exc:
        raise TruncatedBody(f"bad walk-matrix JSON entry: {exc}") from exc
    if list(w.vertex_set.members) != members:
        raise MalformedHeader("declared set does not match column 0")
    return w


def to_text(w: WalkMatrix) -> str:
    """Plain integer matrix with a '# set: i,j,k' header line."""
    head = "# set: " + ",".join(str(i) for i in w.vertex_set.members)
    body = "\n".join(" ".join(str(x) for x in w.w.row(i))
                     for i in range(w.n))
    return head + "\n" + body + "\n"


def from_text(text: str) -> WalkMatrix:
    declared = None
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if ln.startswith("#"):
            tail = ln[1:].strip()
            if tail.lower().startswith("set:"):
                declared = _ints(tail[4:].replace(",", " "),
                                 MalformedHeader, "set header")
            continue
        rows.append(_ints(ln, TruncatedBody, "walk-matrix row"))
    if not rows:
        raise MalformedHeader("empty walk-matrix text")
    try:
        w = WalkMatrix.from_matrix(ExactMatrix(rows))
    except ValueError as exc:
        raise TruncatedBody(f"bad walk-matrix text: {exc}") from exc
    if declared is not None and list(w.vertex_set.members) != sorted(declared):
        raise MalformedHeader("declared set does not match column 0")
    return w
