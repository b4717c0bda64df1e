"""`import logres` loads no submodule, and a CLI command imports only the
modules it runs, while the package keeps exporting the same names."""

import importlib
import json
import subprocess
import sys

import pytest

import logres

from checkout import REPO_ROOT, subprocess_env

# the names `logres` exports, by defining module
EXPORTS = {
    "canext": ["ExponentsReport", "GoodEmbeddingModel", "TauSection",
               "canonical_extension", "exponents_report", "restrict",
               "tau_normalize"],
    "cohomology": ["CohomologyReport", "KoszulInput", "LocalSystem",
                   "build_lobject", "comparison_report", "koszul_cohomology",
                   "local_system_round_trip", "log_point_model",
                   "torus_de_rham", "underline"],
    "connections": ["LogConnection", "LogDifferentials", "MonPoly",
                    "is_flat"],
    "errors": ["ConditionsFailed", "CyclicVectorNotFound",
               "IrrationalEigenvalue", "InvalidObject", "LogresError",
               "ModelMismatch", "NonCommuting", "NonConstant", "NonUnitValue",
               "NotAFace", "NotFlat", "NotHollow", "NotNcType", "ParseError"],
    "field": ["GaussRat", "format_scalar"],
    "germs": ["DiffModuleGerm", "GermMap", "RatFunc", "gauge_transform",
              "germ_direct_sum", "germ_dual", "germ_tensor", "is_fuchsian",
              "pullback_germ", "scalar_theta_form"],
    "linalg": ["EigenBlock", "Matrix", "eigen_decompose",
               "integer_eigenspaces", "matrix_rank", "reassemble"],
    "lobjects": ["GradedPiece", "LObject", "ValidationReport",
                 "check_axioms", "graded_piece", "tensor"],
    "monoids": ["AffineMonoid", "Face", "ModelClass", "MonoidIdeal",
                "classify_model", "faces", "localize", "quotient",
                "quotient_with_map", "radical"],
    "rh": ["HiggsData", "from_lobject", "higgs_conditions", "higgs_decompose",
           "to_lobject"],
    "strata": ["HollowStructure", "Splitting", "StratumDescriptor",
               "eps_pullback", "pullback_to_cover", "splitting_cover",
               "splitting_delta", "strata_decomposition"],
    "textio": ["Document", "parse_document", "print_document"],
}
NAMES = sorted(n for names in EXPORTS.values() for n in names)
SUBMODULES = sorted(EXPORTS) + ["gaussint", "lattice"]


def test_export_surface_unchanged():
    assert logres.__all__ == NAMES
    star = {}
    exec("from logres import *", star)
    listed = dir(logres)
    for module, names in EXPORTS.items():
        defining = importlib.import_module("logres." + module)
        for name in names:
            obj = getattr(defining, name)
            assert getattr(logres, name) is obj, name
            assert star[name] is obj, name
            assert name in listed, name
    assert sorted(set(star) - {"__builtins__"}) == NAMES
    with pytest.raises(AttributeError):
        logres.no_such_name
    for module in SUBMODULES:
        assert getattr(logres, module) is sys.modules["logres." + module]
    with pytest.raises(AttributeError):
        logres.corpus


# imports logres, runs one command through cli.main (if given), and prints
# the logres submodules loaded
CHILD = """
import contextlib, io, json, sys
import logres
if sys.argv[1:]:
    import logres.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert logres.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(n[7:] for n in sys.modules
                        if n.startswith("logres."))))
"""


@pytest.mark.parametrize("argv, absent", [
    ([], SUBMODULES + ["cli"]),
    (["faces", "demos/data/quadric.txt", "P"],
     ["canext", "cohomology", "connections", "germs", "lobjects", "rh",
      "strata"]),
    (["germ", "fuchs", "demos/data/germs.txt", "IRR"],
     ["canext", "cohomology", "lobjects", "rh", "strata"]),
], ids=["import", "faces", "germ-fuchs"])
def test_command_loads_only_what_it_runs(argv, absent):
    r = subprocess.run([sys.executable, "-c", CHILD] + argv, cwd=REPO_ROOT,
                       env=subprocess_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = json.loads(r.stdout)
    assert not set(absent) & set(loaded), loaded
