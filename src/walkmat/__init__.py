"""Exact walk-matrix toolkit.

Compute the walk matrix W^S = [e, Ae, ..., A^{n-1}e] of a graph for any
vertex subset, recover the spectral decomposition (rank, main polynomial,
main eigenvalues/eigenvectors) from W alone, reconstruct the adjacency
matrix whenever rank(W) >= n-2, and canonicalize walk matrices for
walk-equivalence and isomorphism certificates.  All core algebra is exact:
integer data stay Python ints, eliminations are fraction-free over integers
and rationals appear only in answers that are not integers; floating point
appears only in the numeric realization, a clearly marked derived view.

The brute-force harnesses behind the `stats` and `roundtrip` commands live
in `walkmat.oracle`, which `import walkmat` does not load.
`walkmat.reconstruct` names the function, not the module of that name.
"""

from .canonical import (IsoCertificate, LexForm, certify_isomorphism,
                        certify_set_automorphism, lex_form,
                        restriction_equivalence_check, walk_equivalent)
from .exact import ExactMatrix, IntPolynomial, kernel_basis, rank
from .graphs import (Graph, VertexSet, degree_sequence, edge_count,
                     emit_graph6, from_edge_list, parse_adjacency_text,
                     parse_edge_list_text, parse_graph6)
from .reconstruct import (ReconstructionInput, ReconstructionResult,
                          reconstruct, verify_candidate)
from .spectral import (NumericRealization, Restriction, SpectralSummary,
                       kernel_projector, main_eigen_realize, restriction,
                       spectral_summary, summary_from_walk)
from .walk import (WalkMatrix, WalkSlice, additivity_check, hankel_matrix,
                   shift_identity_check, walk_matrix, walk_slice)

__version__ = "0.1.0"
