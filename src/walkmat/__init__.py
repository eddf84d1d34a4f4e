"""Exact walk-matrix toolkit.

Compute the walk matrix W^S = [e, Ae, ..., A^{n-1}e] of a graph for any
vertex subset, recover the spectral decomposition (rank, main polynomial,
main eigenvalues/eigenvectors) from W alone, reconstruct the adjacency
matrix whenever rank(W) >= n-2, and canonicalize walk matrices for
walk-equivalence and isomorphism certificates.  All core algebra is exact:
integer data stay Python ints, eliminations are fraction-free over integers
and rationals appear only in answers that are not integers; floating point
appears only in the numeric realization, a clearly marked derived view.
"""

from .canonical import (IsoCertificate, LexForm, certify_isomorphism,
                        certify_set_automorphism, lex_form,
                        restriction_equivalence_check, walk_equivalent)
from .exact import ExactMatrix, IntPolynomial, QQ, kernel_basis, rank
from .graphs import (Graph, VertexSet, degree_sequence, edge_count,
                     emit_graph6, from_edge_list, parse_adjacency_text,
                     parse_edge_list_text, parse_graph6)
from .oracle import (RankStats, RoundtripReport, SplitMix64, WalkCountTable,
                     brute_force_isomorphic, char_poly, count_walks,
                     enumerate_graph_classes, exhaustive_roundtrip,
                     float_eigencheck, main_poly_via_dependence,
                     poly_divides, random_graph, rank_statistics, solve)
from .reconstruct import (ReconstructionInput, ReconstructionResult,
                          rank_n, rank_n1, rank_n2, reconstruct,
                          verify_candidate)
from .spectral import (NumericRealization, Restriction, SpectralSummary,
                       kernel_projector, main_eigen_realize, restriction,
                       spectral_summary, summary_from_walk)
from .walk import (WalkMatrix, WalkSlice, additivity_check, hankel_matrix,
                   shift_identity_check, walk_matrix, walk_slice)

__version__ = "0.1.0"
