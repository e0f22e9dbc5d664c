"""Exact workbench for Grassmann graphs over finite fields.

Constructs, verifies, classifies, and rigidity-tests isometric embeddings
of Johnson graphs in Grassmann graphs, entirely with exact arithmetic
over GF(q) at desk scale.
"""

from .config import Caps, caps, caps_from_env, set_caps
from .embeddings import (Classification, EmbeddingInstance, IsometryDefect,
                         build_dual_construction, build_sum_construction, classify, rebuild,
                         verify_assignment)
from .errors import (BudgetExhaustedError, CapExceededError, ClassificationError,
                     GrassmannLabError, InternalInvariantError, NotIsometricError,
                     SchemaError, ValidationError)
from .fields import GF
from .grassmannian import (GrassmannianSpec, distance, gaussian_binomial, iter_rref_bases,
                           pg_points)
from .independence import (Ambient, PointSet, SearchResult, canonical_simplex,
                           is_independent, m_dependency_witness, point_set,
                           search_m_independent, simplex_rank)
from .johnson import (JohnsonAut, johnson_aut_group, johnson_distance, johnson_vertices,
                      transposition_aut, vertex_from_indices, vertex_indices)
from .oracle import (CrossValidationReport, OracleResult, SearchConfig, cross_validate,
                     enumerate_embeddings)
from .rigidity import (ExtensionWitness, NotExtendable, RigidityReport, extend_automorphism,
                       induced_by_semilinear, is_rigid, solve_semilinear_mapping)
from .subspaces import (SemilinearMap, Subspace, annihilator, contragredient,
                        intersect_many, intersect_subspaces, sum_many, sum_subspaces)

__version__ = "0.1.0"
