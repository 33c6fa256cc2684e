"""Exact-arithmetic wall-and-chamber and ADE singularity computations
on the algebraic Mukai lattice of a K3 surface."""

from .errors import (CapExceeded, DomainError, Inconsistent, InvalidMukaiVector,
                     InvalidTwist, InvariantError, MarkNotOne, MarksMismatch,
                     NodeOutOfRange, NonIsotropicV, NonPositivePolarization,
                     NotAffineADE, NotDefinite, NotFiniteADE, NotMinusTwo,
                     RankZeroImage, SchemaError, TriplePoint, UOnUPrime,
                     WrongSignature)
from .lattice import (PicardLattice, Sublattice, enumerate_norm_vectors,
                      is_negative_definite, orthogonal_complement, pairing)
from .mukai import (MukaiVector, TwistParameter, delta_map, is_primitive,
                    mukai_pairing, mukai_square, rho)
from .roots import (AffineDiagram, CartanMatrix, FiniteDiagram,
                    classify_affine, classify_finite, delete_node,
                    lie_algebra_dimension, marks, positive_roots,
                    reduce_to_fundamental, simple_reflection,
                    weyl_group_order, weyl_orbit)
from .strata import (DualGraph, SingularityReport, StratumData,
                     classify_singularity, no_triple_point_check, psi_sets,
                     strata_orthogonality, validate_stratum)
from .walls import (ChamberPosition, CurveClass, WallVector, apply_weyl_word,
                    cross_wall, curve_classes, enumerate_walls, locate,
                    normalize_mod_v, reflect, slope_condition,
                    small_twist_violations, u_prime)
from .families import (ExampleInstance, ExampleSpec, fundamental_alpha,
                       generate_example)
from .pipeline import (dot_graph, dumps_report, parse_instance,
                       pipeline_classify, serialize_instance)

__version__ = "0.1.0"
