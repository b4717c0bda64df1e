"""logres: exact combinatorics and linear algebra of toric log models.

Local models A_{P,K} with their face stratification and splitting schemes,
log connections and Higgs data, graded monodromy modules, canonical
extensions across good embeddings, Fuchs-type regularity tests for formal
curve germs, and Koszul-complex cohomology comparison.

`import logres` loads no submodule: each exported name is imported from
its defining module on first use (PEP 562), so a program, or a CLI
command, pays only for the modules it runs.
"""

import importlib

# defining module -> the names this package exports from it
_EXPORTS = {
    "canext": ("ExponentsReport", "GoodEmbeddingModel", "TauSection",
               "canonical_extension", "exponents_report", "restrict",
               "tau_normalize"),
    "cohomology": ("CohomologyReport", "KoszulInput", "LocalSystem",
                   "build_lobject", "comparison_report", "koszul_cohomology",
                   "local_system_round_trip", "log_point_model",
                   "torus_de_rham", "underline"),
    "connections": ("LogConnection", "LogDifferentials", "MonPoly",
                    "is_flat"),
    "errors": ("ConditionsFailed", "CyclicVectorNotFound",
               "IrrationalEigenvalue", "InvalidObject", "LogresError",
               "ModelMismatch", "NonCommuting", "NonConstant", "NonUnitValue",
               "NotAFace", "NotFlat", "NotHollow", "NotNcType", "ParseError"),
    "field": ("GaussRat", "format_scalar"),
    "germs": ("DiffModuleGerm", "GermMap", "RatFunc", "gauge_transform",
              "germ_direct_sum", "germ_dual", "germ_tensor", "is_fuchsian",
              "pullback_germ", "scalar_theta_form"),
    "linalg": ("EigenBlock", "Matrix", "eigen_decompose",
               "integer_eigenspaces", "matrix_rank", "reassemble"),
    "lobjects": ("GradedPiece", "LObject", "ValidationReport",
                 "check_axioms", "graded_piece", "tensor"),
    "monoids": ("AffineMonoid", "Face", "ModelClass", "MonoidIdeal",
                "classify_model", "faces", "localize", "quotient",
                "quotient_with_map", "radical"),
    "rh": ("HiggsData", "from_lobject", "higgs_conditions", "higgs_decompose",
           "to_lobject"),
    "strata": ("HollowStructure", "Splitting", "StratumDescriptor",
               "eps_pullback", "pullback_to_cover", "splitting_cover",
               "splitting_delta", "strata_decomposition"),
    "textio": ("Document", "parse_document", "print_document"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"gaussint", "lattice"}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(importlib.import_module("." + module, __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
