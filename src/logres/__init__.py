"""logres: exact combinatorics and linear algebra of toric log models.

Local models A_{P,K} with their face stratification and splitting schemes,
log connections and Higgs data, graded monodromy modules, canonical
extensions across good embeddings, Fuchs-type regularity tests for formal
curve germs, and Koszul-complex cohomology comparison.
"""

from .canext import (ExponentsReport, GoodEmbeddingModel, TauSection,
                     canonical_extension, exponents_report, restrict,
                     tau_normalize)
from .cohomology import (CohomologyReport, KoszulInput, LocalSystem,
                         build_lobject, comparison_report, koszul_cohomology,
                         local_system_round_trip, log_point_model,
                         torus_de_rham, underline)
from .connections import LogConnection, LogDifferentials, MonPoly, is_flat
from .errors import (ConditionsFailed, CyclicVectorNotFound,
                     IrrationalEigenvalue, InvalidObject, LogresError,
                     ModelMismatch, NonCommuting, NonConstant, NonUnitValue,
                     NotAFace, NotFlat, NotHollow, NotNcType, ParseError)
from .field import GaussRat, format_scalar
from .germs import (DiffModuleGerm, GermMap, RatFunc, gauge_transform,
                    germ_direct_sum, germ_dual, germ_tensor, is_fuchsian,
                    pullback_germ, scalar_theta_form)
from .linalg import (EigenBlock, Matrix, eigen_decompose, integer_eigenspaces,
                     matrix_rank, reassemble)
from .lobjects import (GradedPiece, LObject, ValidationReport, check_axioms,
                       graded_piece, tensor)
from .monoids import (AffineMonoid, Face, ModelClass, MonoidIdeal,
                      classify_model, faces, localize, quotient,
                      quotient_with_map, radical)
from .rh import (HiggsData, from_lobject, higgs_conditions, higgs_decompose,
                 to_lobject)
from .strata import (HollowStructure, Splitting, StratumDescriptor,
                     eps_pullback, pullback_to_cover, splitting_cover,
                     splitting_delta, strata_decomposition)
from .textio import Document, parse_document, print_document

__version__ = "0.1.0"
