import json
from fractions import Fraction as F

import pytest

from logres.errors import ParseError
from logres.field import GaussRat
from logres.textio import parse_document, print_document

from checkout import demo_path, run_cli

SAMPLE = """# running example document
monoid P = [[1,0],[1,1],[1,2]]
monoid N2 = [[1,0],[0,1]]
ideal K in N2 = [[2,0],[0,3]]
monoid N = [[1]]
ideal KH in N = [[1]]
tau T = window(-1,0]
lobject V over (N, KH) { gen g1: deg=[-1/2]; gamma1: label=-1/2 nilpotent=[[0]] }
connection C on (N, KH) { U1 = [[1/2]] }
germ G = [[0,0],[-2/t,1]]
localsystem W r=1 { block: labels=[-1/2] nilpotent1=[[0]] }
"""


def test_parse_reference_literals():
    doc = parse_document(SAMPLE)
    P = doc.get("P", "monoid")
    assert P.generators == ((1, 0), (1, 1), (1, 2))
    t = doc.get("T", "tau")
    assert t.lo == F(-1)
    V = doc.get("V", "lobject")
    assert V.degrees == ((GaussRat(F(-1, 2)),),)
    G = doc.get("G", "germ")
    assert G.rank == 2 and not G.theta_matrix[1][0].is_zero()


def test_unicode_minus_accepted():
    doc = parse_document("monoid P = [[1]]\nideal K in P = [[1]]\n"
                         "lobject V over (P,K) { gen g1: deg=[−1/2]; "
                         "gamma1: label=−1/2 nilpotent=[[0]] }\n")
    V = doc.get("V", "lobject")
    assert V.degrees == ((GaussRat(F(-1, 2)),),)


def test_parse_print_round_trip():
    doc = parse_document(SAMPLE)
    text = print_document(doc)
    doc2 = parse_document(text)
    assert doc == doc2
    assert print_document(doc2) == text


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_document("monoid P = [[1,0],[1,")
    assert e.value.line == 1 and e.value.column == 22
    with pytest.raises(ParseError) as e:
        parse_document("monoid P = [[1]]\nwibble Q = 3\n")
    assert e.value.line == 2 and e.value.column == 1
    with pytest.raises(ParseError):
        parse_document("tau T = window(-1,1]")


def test_scalar_and_expression_forms():
    doc = parse_document(
        "monoid N = [[1]]\nideal K in N = []\n"
        "connection C on (N, K) { U1 = [[1/2+3/4*i, x^[1]],[0, -i]] }\n")
    c = doc.get("C", "connection")
    assert c.omega[0][0][0].constant_value() == GaussRat(F(1, 2), F(3, 4))
    assert not c.omega[0][0][1].is_constant()


def test_embedding_declares_derived_models():
    doc = parse_document(
        "monoid N = [[1]]\nideal K in N = [[2]]\nembedding E = (N, K) x 1\n"
        "lobject V over (E_Q, E_KQ) { gen g1: deg=[0, 5/2]; "
        "gamma1: label=0 nilpotent=[[0]]; gamma2: label=5/2 nilpotent=[[0]] }\n")
    E = doc.get("E", "embedding")
    V = doc.get("V", "lobject")
    assert V.monoid == E.monoid_q


@pytest.fixture(scope="module")
def sample_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("docs") / "sample.txt"
    p.write_text(SAMPLE)
    return str(p)


def test_cli_faces_and_strata(sample_path):
    r = run_cli(["faces", sample_path, "P"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["result"]) == 4
    r = run_cli(["strata", sample_path, "N2", "K"])
    assert r.returncode == 0


def test_cli_strata_a1_two_components(tmp_path):
    p = tmp_path / "a1.txt"
    p.write_text("monoid N = [[1]]\nideal K0 in N = []\n")
    r = run_cli(["strata", str(p)])
    out = json.loads(r.stdout)
    assert len(out["result"]) == 2
    ranks = sorted((s["torus_rank"], s["log_rank"]) for s in out["result"])
    assert ranks == [(0, 1), (1, 0)]
    closed = next(s for s in out["result"] if s["torus_rank"] == 0)
    assert closed["sharp_fiber_rank"] == 1


def test_cli_germ_fuchs(sample_path, tmp_path):
    r = run_cli(["germ", "fuchs", sample_path, "G"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"] == {"fuchsian": True}
    p = tmp_path / "irr.txt"
    p.write_text("germ G = [[1/t]]\n")
    r = run_cli(["germ", "fuchs", str(p)])
    assert json.loads(r.stdout)["result"] == {"fuchsian": False}


def test_cli_missing_file_exit_2():
    r = run_cli(["rh", "to-lobject", "missing.txt"])
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert any("FileNotFound" in d for d in out["diagnostics"])


def test_cli_parse_error_exit_3(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("monoid P = [[1,0],[1,")
    r = run_cli(["faces", str(p)])
    assert r.returncode == 3
    assert any("ParseError" in d for d in json.loads(r.stdout)["diagnostics"])


def test_cli_unknown_command_exit_1():
    r = run_cli(["frobnicate", "x.txt"])
    assert r.returncode == 1


@pytest.mark.parametrize("value", ["x", "", "1.5", "-1", "0"])
def test_cli_bad_bound_is_usage_error(value):
    r = run_cli(["faces", demo_path("quadric.txt"), "P", "--bound=" + value])
    assert r.returncode == 1
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    first, rest = r.stderr.split("\n", 1)
    assert first == ("invalid --bound value %r: expected a positive integer"
                     % value)
    assert rest.startswith("usage: logres")


def test_cli_bound_flag_accepted():
    r = run_cli(["radical", demo_path("quadric.txt"), "--bound=6"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["diagnostics"] == []


def test_cli_reports_byte_stable(sample_path):
    a = run_cli(["rh", "to-lobject", sample_path, "C"])
    b = run_cli(["rh", "to-lobject", sample_path, "C"])
    assert a.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli(["cohomology", "koszul", sample_path, "W"])
    d = run_cli(["cohomology", "koszul", sample_path, "W"])
    assert c.returncode == 0 and c.stdout == d.stdout
    assert json.loads(c.stdout)["result"] == {"dims": [0, 0]}


def test_cli_locsys_roundtrip(sample_path):
    r = run_cli(["locsys", "roundtrip", sample_path, "W"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"]["identity"] is True


def test_cli_dot_output(sample_path):
    r = run_cli(["faces", sample_path, "P", "--dot"])
    assert r.returncode == 0
    assert r.stdout.startswith("digraph")


def test_cli_domain_error_exit_2(tmp_path):
    p = tmp_path / "irrational.txt"
    p.write_text("monoid N = [[1]]\nideal K0 in N = []\n"
                 "connection C on (N, K0) { U1 = [[0,1],[2,0]] }\n")
    r = run_cli(["rh", "to-lobject", str(p)])
    assert r.returncode == 2
    assert any("IrrationalEigenvalue" in d
               for d in json.loads(r.stdout)["diagnostics"])


def test_lobject_json_round_trip():
    from logres.corpus import free_model, random_lobject, rng
    from logres.textio import lobject_from_json, lobject_to_json

    r = rng(71)
    P, K = free_model(2)
    for _ in range(5):
        V = random_lobject(r, P, K, rank_max=4)
        data = json.loads(json.dumps(lobject_to_json(V), sort_keys=True))
        assert lobject_from_json(data) == V


def test_cli_concatenates_extra_document_files(tmp_path):
    conn = tmp_path / "conn.txt"
    conn.write_text("monoid N = [[1]]\nideal K0 in N = []\n"
                    "connection C on (N, K0) { U1 = [[2/3]] }\n")
    germmap = tmp_path / "map.txt"
    # the second file references the first file's model
    germmap.write_text("germmap M on (N, K0) { face = [0]; coords = [t^2]; "
                       "units = [] }\n")
    r = run_cli(["germ", "pullback", str(conn), str(germmap)])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"]["theta"] == [["4/3"]]


def test_cli_germ_tensor():
    r = run_cli(["germ", "tensor", demo_path("germs.txt"), "REG", "IRR"])
    assert r.returncode == 0
    theta = json.loads(r.stdout)["result"]["theta"]
    assert len(theta) == 2  # rank 2 x rank 1
