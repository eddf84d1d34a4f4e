"""Exception hierarchy shared by all walkmat modules."""


class WalkmatError(Exception):
    """Base class for every error raised by this package."""


# --- exact linear algebra ---

class NonUnique(WalkmatError):
    """Linear system is underdetermined."""


# --- graph construction and parsing ---

class LoopEdge(WalkmatError):
    """An edge (i, i) was supplied."""


class DuplicateEdge(WalkmatError):
    """The same edge was supplied twice."""


class IndexOutOfRange(WalkmatError):
    """A vertex index lies outside 1..n."""


class MalformedHeader(WalkmatError):
    """A header, declared vertex set or JSON shape is missing or invalid."""


class TruncatedBody(WalkmatError):
    """An input body is short or holds a token that is not an integer, or
    its matrix is no adjacency or walk matrix: not square, an adjacency
    entry not 0/1, a non-zero diagonal or an asymmetric adjacency, a walk
    column 0 not 0/1 or a negative walk entry."""


class TrailingGarbage(WalkmatError):
    """graph6 body has extra bytes or non-zero padding bits."""


# --- walk matrices ---

class EmptySet(WalkmatError):
    """A non-empty vertex set was required."""


class NotDisjoint(WalkmatError):
    """Two vertex sets were required to be disjoint."""


class NotAWalkMatrix(WalkmatError):
    """The input cannot be the walk matrix of any graph: its leading columns
    are dependent, a recovered polynomial is not integral, or the degree sum
    is odd."""


# --- spectral / numeric realization ---

class RealizationFailed(WalkmatError):
    """A numeric realization failed its own E*M = W or column-sum check."""


# --- reconstruction ---

class MissingEdgeCount(WalkmatError):
    """Rank n-2 reconstruction with a proper subset S needs the edge count."""


class NegativeDiscriminant(NotAWalkMatrix):
    """The non-main eigenvalue discriminant is negative; the input is not a
    genuine walk matrix."""


# --- canonical forms / certificates ---

class OrderMismatch(WalkmatError):
    """Two graphs, or a graph and a vertex set, have different orders."""


class TheoremViolation(WalkmatError):
    """A theorem-backed equivalence failed; indicates an implementation bug."""


# --- size caps ---

class TooLarge(WalkmatError):
    """Input exceeds a documented size cap: an edge-list order or the
    order a brute-force oracle accepts."""
