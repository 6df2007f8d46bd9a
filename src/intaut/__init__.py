"""Integral-distance geometry over odd-order finite fields.

Exact arithmetic in GF(p^h), the squared-distance relation on affine
points, the group of distance-compatible affine-semilinear maps, orbit
analysis, and an independent graph-automorphism engine that verifies the
two group computations against each other.
"""

from .errors import InternalInconsistencyError, NotABijectionError, TooLargeError
from .field import Field, is_irreducible, least_irreducible, poly_str
from .space import (SphereClass, SphereCounts, DEFAULT_MAX_POINTS,
                    canonical_index, point_of_index, enumerate_points,
                    distance, norm, is_integral, classify,
                    sphere_counts_enumerated, sphere_counts_formula)
from .transform import (SemiaffineMap, normalize_map, to_permutation,
                        recognize_semiaffine, preserves_integral,
                        satisfies_zero_iff, preserves_cones,
                        read_permutation_file, write_permutation_file)
from .orbits import (OrbitDecomposition, OrbitalStatus, orbits_under,
                     classify_partition, m_orbits, orbital_connected)
from .graph import (IntegralGraph, AutGroupResult, ClassificationReport,
                    Verdict, build_integral_graph, flip_edge,
                    refine_coloring, automorphism_group, verify_classification,
                    expected_verdict, graph6_bytes, parse_graph6,
                    dimacs_text, parse_dimacs)

__version__ = "0.1.0"
