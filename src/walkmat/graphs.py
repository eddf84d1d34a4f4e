"""Graph data model, vertex subsets and serialization formats.

Vertices are 1-based at the interface (v_1..v_n) and 0-based internally.
Graphs are simple and undirected: the adjacency matrix is symmetric, 0/1 and
has zero diagonal, enforced at construction.  Instances are immutable.

Three text formats are supported: graph6 (bit-exact round trips), a plain
edge list with an "n m" header, and a whitespace-separated 0/1 adjacency
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (DuplicateEdge, IndexOutOfRange, LoopEdge,
                     MalformedHeader, TooLarge, TrailingGarbage,
                     TruncatedBody, WalkmatError)
from .exact import ExactMatrix

# the largest order an edge-list header may declare, as it asks for n^2
# cells; at n = 1024 a walk matrix holds 10^6 entries of ~10^4 bits each
EDGE_LIST_MAX_ORDER = 1024


def _ints(text: str, error: type[WalkmatError], what: str) -> list[int]:
    """The whitespace-separated integers of text, or error naming what."""
    try:
        return [int(t) for t in text.split()]
    except ValueError:
        raise error(f"bad {what} {text!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with ordered vertex labels."""

    n: int
    adj: tuple[tuple[int, ...], ...]  # symmetric 0/1 grid, zero diagonal
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n != len(self.adj):
            raise ValueError("adjacency size does not match n")
        for i, row in enumerate(self.adj):
            if len(row) != self.n:
                raise ValueError("adjacency is not square")
            if row[i] != 0:
                raise ValueError("adjacency has a non-zero diagonal entry")
            for j, x in enumerate(row):
                if x not in (0, 1):
                    raise ValueError("adjacency entries must be 0 or 1")
                if self.adj[j][i] != x:
                    raise ValueError("adjacency is not symmetric")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"v{i+1}" for i in range(self.n)))
        elif len(self.labels) != self.n:
            raise ValueError("label count does not match n")

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(j for j, x in enumerate(row) if x)
                     for row in self.adj)

    @cached_property
    def adjacency(self) -> ExactMatrix:
        return ExactMatrix(self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as 1-based (i, j) pairs with i < j."""
        return [(i + 1, j + 1) for i in range(self.n)
                for j in range(i + 1, self.n) if self.adj[i][j]]

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image of the graph under the permutation i -> perm[i] (0-based).

        Vertex i of self becomes vertex perm[i] of the result, so an edge
        (i, j) maps to (perm[i], perm[j]).
        """
        n = self.n
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            pi = perm[i]
            for j in self.neighbors[i]:
                adj[pi][perm[j]] = 1
        return Graph(n, tuple(tuple(r) for r in adj))


@dataclass(frozen=True)
class VertexSet:
    """Subset of 1..n with its 0/1 characteristic vector."""

    n: int
    members: tuple[int, ...]  # sorted, 1-based

    def __post_init__(self):
        ms = tuple(sorted(set(self.members)))
        for i in ms:
            if not 1 <= i <= self.n:
                raise IndexOutOfRange(f"vertex {i} outside 1..{self.n}")
        object.__setattr__(self, "members", ms)

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "VertexSet":
        return cls(n, tuple(members))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, tuple(range(1, n + 1)))

    @property
    def characteristic(self) -> tuple[int, ...]:
        ms = set(self.members)
        return tuple(1 if i + 1 in ms else 0 for i in range(self.n))

    def is_empty(self) -> bool:
        return not self.members

    def is_full(self) -> bool:
        return len(self.members) == self.n

    def __len__(self) -> int:
        return len(self.members)

    def disjoint_from(self, other: "VertexSet") -> bool:
        return not set(self.members) & set(other.members)

    def union(self, other: "VertexSet") -> "VertexSet":
        if self.n != other.n:
            raise ValueError("vertex sets live on different orders")
        return VertexSet(self.n, self.members + other.members)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]],
                   labels: Sequence[str] = ()) -> Graph:
    """Build a graph from 1-based edge pairs; rejects loops and duplicates."""
    adj = [[0] * n for _ in range(n)]
    for i, j in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"edge ({i},{j}) outside 1..{n}")
        if i == j:
            raise LoopEdge(f"loop at vertex {i}")
        a, b = i - 1, j - 1
        if adj[a][b]:
            raise DuplicateEdge(f"edge ({i},{j}) given twice")
        adj[a][b] = adj[b][a] = 1
    return Graph(n, tuple(tuple(r) for r in adj), tuple(labels))


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degree of each vertex, in label order."""
    return tuple(sum(row) for row in g.adj)


def edge_count(g: Graph) -> int:
    return sum(degree_sequence(g)) // 2


# --- graph6 ---

_G6_HEADER = ">>graph6<<"


def _g6_read_order(data: str) -> tuple[int, int]:
    """Decode the N(n) size header; returns (n, bytes consumed)."""
    if not data:
        raise MalformedHeader("empty graph6 string")
    c0 = ord(data[0])
    if c0 == 126:
        if len(data) >= 2 and ord(data[1]) == 126:
            if len(data) < 8:
                raise MalformedHeader("truncated 8-byte size header")
            vals = [ord(c) - 63 for c in data[2:8]]
            if any(v < 0 or v > 63 for v in vals):
                raise MalformedHeader("invalid size header byte")
            n = 0
            for v in vals:
                n = (n << 6) | v
            return n, 8
        if len(data) < 4:
            raise MalformedHeader("truncated 4-byte size header")
        vals = [ord(c) - 63 for c in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise MalformedHeader("invalid size header byte")
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        return n, 4
    if not 63 <= c0 <= 125:
        raise MalformedHeader(f"invalid size byte {data[0]!r}")
    return c0 - 63, 1


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional '>>graph6<<' prefix allowed)."""
    data = text.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    n, used = _g6_read_order(data)
    body = data[used:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise TruncatedBody(f"need {nbytes} body bytes, got {len(body)}")
    if len(body) > nbytes:
        raise TrailingGarbage(f"{len(body) - nbytes} extra bytes")
    bits = []
    for c in body:
        v = ord(c) - 63
        if v < 0 or v > 63:
            raise TruncatedBody(f"invalid body byte {c!r}")
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise TrailingGarbage("non-zero padding bits")
    adj = [[0] * n for _ in range(n)]
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                adj[i][j] = adj[j][i] = 1
            t += 1
    return Graph(n, tuple(tuple(r) for r in adj))


def emit_graph6(g: Graph) -> str:
    """Encode a graph in graph6 format."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        head = chr(126) * 2 + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(g.adj[i][j])
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + (bits[k] << 5 | bits[k+1] << 4 | bits[k+2] << 3
                  | bits[k+3] << 2 | bits[k+4] << 1 | bits[k+5]))
        for k in range(0, len(bits), 6))
    return head + body


# --- plain text formats ---

def parse_edge_list_text(text: str) -> Graph:
    """Parse the "n m" header + one "i j" line per edge format."""
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise MalformedHeader("empty edge list")
    head = _ints(lines[0], MalformedHeader, "header line")
    if len(head) != 2:
        raise MalformedHeader(f"bad header line {lines[0]!r}")
    n, m = head
    if n < 0:
        raise MalformedHeader(f"negative order in header {lines[0]!r}")
    if n > EDGE_LIST_MAX_ORDER:
        raise TooLarge(f"order {n} above the cap {EDGE_LIST_MAX_ORDER}")
    if len(lines) - 1 != m:
        raise TruncatedBody(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        edge = _ints(ln, TruncatedBody, "edge line")
        if len(edge) != 2:
            raise TruncatedBody(f"bad edge line {ln!r}")
        edges.append(tuple(edge))
    return from_edge_list(n, edges)


def emit_edge_list_text(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"] + [f"{i} {j}" for i, j in edges]
    return "\n".join(lines) + "\n"


def parse_adjacency_text(text: str) -> Graph:
    """Parse n lines of n space-separated 0/1 tokens."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append(tuple(_ints(ln, TruncatedBody, "adjacency row")))
    if not rows:
        raise MalformedHeader("empty adjacency matrix")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise TruncatedBody("adjacency matrix is not square")
    try:
        return Graph(n, tuple(rows))
    except ValueError as exc:
        raise TruncatedBody(f"bad adjacency matrix: {exc}") from None


def emit_adjacency_text(g: Graph) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in g.adj) + "\n"
