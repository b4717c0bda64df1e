import contextlib
import io
import json
import os
import shlex
import time
from fractions import Fraction as F

import pytest

from logres import cli
from logres.errors import ParseError
from logres.field import GaussRat
from logres.textio import parse_document, print_document

from checkout import REPO_ROOT, demo_path, run_cli

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
    # a misspelt keyword is reported where it starts, not at the token
    # after it
    for text, column, word in [
            ("localsystem W r=1 { blok: labels=[0] nilpotent1=[[0]] }",
             21, "block"),
            ("localsystem W r=1 { block: labls=[0] nilpotent1=[[0]] }",
             28, "labels")]:
        with pytest.raises(ParseError) as e:
            parse_document(text)
        assert (e.value.line, e.value.column) == (1, column)
        assert e.value.expected == (word,)
        assert str(e.value) == "1:%d: expected '%s'" % (column, word)
    # one malformed list of each kind, a missing name and a duplicate name:
    # the exact message, position and expected tokens
    model = "monoid N = [[1]]\nideal K0 in N = []\n"
    for text, message, line, column, expected in [
            ("monoid P = [[1,x]]",
             "expected an integer, found 'x'", 1, 16, ("INT",)),
            ("monoid P = [[1] [2]]", "expected ']', found '['", 1, 17, ("]",)),
            (model + "lobject V over (N, K0) { gen g: deg=[1 2] }",
             "expected ']', found '2'", 3, 40, ("]",)),
            (model + "lobject V over (N, K0) { gen g: deg=[0]; "
             "gamma1: label=0 nilpotent=[[0],0] }",
             "expected '[', found '0'", 3, 73, ("[",)),
            (model + "connection C on (N, K0) { U1 = [[1] [2]] }",
             "expected ']', found '['", 3, 37, ("]",)),
            (model + "connection C on (N, K0) { U1 = [] }",
             "expected '[', found ']'", 3, 33, ("[",)),
            ("germ G = []", "expected '[', found ']'", 1, 11, ("[",)),
            (model + "germmap M on (N, K0) { face = [0 1] }",
             "expected ']', found '1'", 3, 34, ("]",)),
            (model + "germmap M on (N, K0) { face = [0]; coords = [t t] }",
             "expected ']', found 't'", 3, 48, ("]",)),
            (model + "splitting S on (N, K0) { units = [1,] }",
             "expected a number, i, or '('", 3, 37, ("INT", "NAME", "(")),
            ("localsystem W r=1 { block: labels=[0] nilpotent1=[0] }",
             "expected '[', found '0'", 1, 51, ("[",)),
            ("localsystem W r=2 { block: labels=[0,0] nilpotent1=[[0]] "
             "nilpotent3=[[0]] }",
             "expected 'nilpotent2'", 1, 58, ("nilpotent2",)),
            ("tau T = window(0,1)", "expected ']', found ')'", 1, 19, ("]",)),
            ("tau T = window(0,2]", "window must have unit length", 1, 20,
             ()),
            ("monoid = [[1]]", "expected a name, found '='", 1, 8, ("NAME",)),
            ("monoid P = [[1]]\nmonoid P = [[2]]", "duplicate name 'P'", 2, 1,
             ())]:
        with pytest.raises(ParseError) as e:
            parse_document(text)
        assert str(e.value) == "%d:%d: %s" % (line, column, message)
        assert (e.value.line, e.value.column) == (line, column)
        assert e.value.expected == expected


def test_scalar_and_expression_forms():
    doc = parse_document(
        "monoid N = [[1]]\nideal K in N = []\n"
        "connection C on (N, K) { U1 = [[1/2+3/4*i, x^[1]],[0, -i]] }\n")
    c = doc.get("C", "connection")
    assert c.omega[0][0][0].constant_value() == GaussRat(F(1, 2), F(3, 4))
    assert not c.omega[0][0][1].is_constant()


def test_powers_are_square_and_multiply():
    # an exponent costs about log2(e) products, in ring and germ entries
    model = "monoid N = [[1]]\nideal K0 in N = []\n"
    for text in [model + "connection C on (N, K0) { U1 = [[x^[1]^100000]] }",
                 "germ G = [[t^3000]]"]:
        start = time.perf_counter()
        parse_document(text)
        assert time.perf_counter() - start < 0.5
    doc = parse_document(
        model + "connection C on (N, K0) { U1 = [[(1+x^[1])^7]] }\n"
        "connection D on (N, K0) { U1 = [[(1+x^[1])*(1+x^[1])*(1+x^[1])*"
        "(1+x^[1])*(1+x^[1])*(1+x^[1])*(1+x^[1])]] }\n"
        "germ G = [[(1+t)^7]]\n"
        "germ H = [[(1+t)*(1+t)*(1+t)*(1+t)*(1+t)*(1+t)*(1+t)]]\n")
    assert doc.get("C").omega == doc.get("D").omega
    assert doc.get("G").theta_matrix == doc.get("H").theta_matrix


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
    # membership is exact, so no command reads --bound= any more
    r = run_cli(["faces", demo_path("quadric.txt"), "P", "--bound=" + value])
    assert r.returncode == 1
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    first, rest = r.stderr.split("\n", 1)
    assert first == "unknown flag --bound=" + value
    assert rest.startswith("usage: logres")


def test_cli_bound_flag_is_unknown():
    r = run_cli(["radical", demo_path("quadric.txt"), "--bound=6"])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("unknown flag --bound=6\nusage: logres")


@pytest.mark.parametrize("value", ["(a,b]", "foo", "(0,2]", "", "(0,1",
                                   "(1/0,1]", "(0,1,2]", "(0.5,1.5]"])
def test_cli_bad_tau_window_is_usage_error(value):
    r = run_cli(["canext", "extend", demo_path("canext.txt"), "V", "E",
                 "--tau-window=" + value])
    assert r.returncode == 1
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    first, rest = r.stderr.split("\n", 1)
    assert first == ("invalid --tau-window value %r: expected (a,b] with "
                     "b = a+1" % value)
    assert rest.startswith("usage: logres")


@pytest.mark.parametrize("args, first", [
    (["faces", demo_path("quadric.txt"), "P", "--tau-window=(0,1]"],
     "flag --tau-window does not apply to faces"),
    (["germ", "fuchs", demo_path("germs.txt"), "IRR", "--dot"],
     "flag --dot does not apply to germ fuchs"),
    (["radical", demo_path("quadric.txt"), "--dot"],
     "flag --dot does not apply to radical"),
    (["faces", demo_path("quadric.txt"), "P", "X", "Y", "Z"],
     "too many names for faces: X Y Z"),
    (["print", demo_path("mixed.txt"), "C"],
     "too many names for print: C"),
    (["canext", "extend", demo_path("canext.txt"), "V", "E", "F"],
     "too many names for canext extend: F"),
], ids=["tau-window-faces", "dot-germ-fuchs", "dot-radical",
        "names-faces", "names-print", "names-canext-extend"])
def test_cli_unread_flag_or_surplus_name_is_usage_error(args, first):
    r = run_cli(args)
    assert r.returncode == 1
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    line, rest = r.stderr.split("\n", 1)
    assert line == first
    assert rest.startswith("usage: logres")


def test_cli_tau_window_flag_has_no_short_alias():
    args = ["canext", "extend", demo_path("canext.txt"), "V", "E"]
    r = run_cli(args + ["--tau=(-1,0]"])
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("unknown flag --tau=(-1,0]\n")
    r = run_cli(args + ["--tau-window=(-1,0]"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["diagnostics"] == []


def test_cli_tau_window_flag_reads_a_tau_window(tmp_path):
    # the flag takes the window of a tau declaration, in the same syntax
    with open(demo_path("canext.txt")) as fh:
        text = fh.read()
    p = tmp_path / "canext_half.txt"
    p.write_text(text.replace("tau T = window(-1,0]",
                              "tau T = window(-1/2,1/2]"))
    args = ["canext", "extend", demo_path("canext.txt"), "V", "E"]
    declared = run_cli(["canext", "extend", str(p), "V", "E"])
    flagged = run_cli(args + ["--tau-window=(-1/2,1/2]"])
    assert declared.returncode == flagged.returncode == 0
    assert declared.stdout == flagged.stdout
    assert run_cli(args).stdout != flagged.stdout


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


@pytest.mark.parametrize("text, diagnostic", [
    ("monoid P = [[1,0],[1,1,2]]\n",
     "monoid P (line 1): generators of mixed dimension"),
    ("monoid P = []\n",
     "monoid P (line 1): ambient_rank required for the zero monoid"),
    ("monoid P = [[1,0]]\nideal K in P = [[1]]\n",
     "ideal K in P (line 2): dimension mismatch"),
    ("monoid P = [[1,0],[0,1]]\nideal K in P = [[-1,0]]\n",
     "ideal K in P (line 2): ideal generator (-1, 0) is not in the monoid"),
    ("germ g = [[1, 2], [3]]\n",
     "germ g (line 1): theta matrix must be square"),
    ("monoid N = [[1]]\nideal K0 in N = []\n"
     "connection C on (N, K0) { U1 = [[1,2]] }\n",
     "connection C (line 3): connection matrices must be square, equal size"),
    ("monoid N = [[1]]\nideal K0 in N = []\n"
     "connection C on (N, K0) { U1 = [[1/0]] }\n",
     "connection C (line 3): division by zero in Q(i)"),
], ids=["mixed-dimension", "zero-monoid", "ideal-dimension", "ideal-outside",
        "germ-not-square", "connection-not-square", "connection-zero-division"])
def test_cli_invalid_declaration_exit_2(tmp_path, text, diagnostic):
    p = tmp_path / "invalid.txt"
    p.write_text(text)
    r = run_cli(["faces", str(p)])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    out = json.loads(r.stdout)
    assert out["result"] is None
    assert out["diagnostics"] == ["InvalidDeclaration: " + diagnostic]


def test_cli_localsystem_nilpotent_sizes_exit_2(tmp_path):
    p = tmp_path / "locsys.txt"
    p.write_text("# one block, nilpotents of sizes 1 and 2\n"
                 "localsystem W r=2 { block: labels=[0,0] "
                 "nilpotent1=[[0]] nilpotent2=[[0,1],[0,0]] }\n")
    r = run_cli(["print", str(p)])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["diagnostics"] == [
        "InvalidDeclaration: localsystem W (line 2): "
        "block nilpotents must share a size"]


def test_lobject_nilpotent_block_shape_is_parse_error():
    with pytest.raises(ParseError, match="nilpotent block size"):
        parse_document("monoid N = [[1]]\nideal KH in N = [[1]]\n"
                       "lobject V over (N, KH) { gen g1: deg=[0]; "
                       "gen g2: deg=[0]; gamma1: label=0 "
                       "nilpotent=[[0],[0]] }\n")


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


def test_cli_missing_extra_document_exit_2(tmp_path):
    missing = str(tmp_path / "map.txt")
    r = run_cli(["germ", "pullback", demo_path("germs.txt"), missing])
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["inputs"] == [demo_path("germs.txt")]
    assert out["diagnostics"] == [
        "FileNotFound: [Errno 2] No such file or directory: %r" % missing]


def test_cli_missing_embedding_names_the_command(sample_path):
    r = run_cli(["canext", "restrict", sample_path])
    assert r.returncode == 2
    assert json.loads(r.stdout)["diagnostics"] == [
        "KeyError: 'document declares no embedding (canext restrict)'"]


def main_in(directory, argv, monkeypatch):
    """(exit code, stdout) of cli.main(argv) run in directory."""
    monkeypatch.chdir(directory)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main_captured(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_non_utf8_document_exit_2(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"monoid P = [[1]]\n\xff\n")
    code, out, err = main_captured(["faces", str(p)])
    assert (code, err) == (2, "")
    assert json.loads(out)["diagnostics"] == [
        "UnicodeDecodeError: %s: 'utf-8' codec can't decode byte 0xff in "
        "position 17: invalid start byte" % p]


def test_cli_deep_parentheses_are_a_parse_error(tmp_path):
    p = tmp_path / "deep.txt"
    head = "monoid N = [[1]]\nideal KH in N = [[1]]\n"
    entry = "connection C on (N, KH) { U1 = [[%s1/2%s]] }\n"
    p.write_text(head + entry % ("(" * 100, ")" * 100))
    assert main_captured(["flat", str(p)])[0] == 0
    p.write_text(head + entry % ("(" * 300, ")" * 300))
    code, out, err = main_captured(["flat", str(p)])
    assert (code, err) == (3, "")
    # at the 101st "(", which follows the 33 characters before the entry
    assert json.loads(out)["diagnostics"] == [
        "ParseError: 3:134: parentheses nested deeper than 100"]


def test_cli_many_leading_minus_signs(tmp_path):
    p = tmp_path / "minus.txt"
    lobject = ("monoid N = [[1]]\nideal KH in N = [[1]]\n"
               "lobject V over (N, KH) { gen g1: deg=[%s1/2]; "
               "gamma1: label=-1/2 nilpotent=[[0]] }\n")
    p.write_text(lobject % "-")
    one = main_captured(["rh", "from-lobject", str(p)])
    p.write_text(lobject % ("-" * 3001))
    many = main_captured(["rh", "from-lobject", str(p)])
    assert one[0] == 0 and many == one


def test_cli_name_that_is_also_a_file_stays_a_name(tmp_path, monkeypatch):
    (tmp_path / "P").write_text("monoid P = [[1,0],[0,1]]\n")
    here = main_in(REPO_ROOT, ["faces", "demos/data/quadric.txt", "P"],
                   monkeypatch)
    there = main_in(tmp_path, ["faces", demo_path("quadric.txt"), "P"],
                    monkeypatch)
    assert here[0] == 0
    assert there == here


def readme_command_lines():
    """The `logres` lines of README's command-line block, as argv."""
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("logres ")]


def test_readme_command_lines_run(monkeypatch):
    lines = readme_command_lines()
    assert len(lines) >= 12
    for argv in lines:
        code, out = main_in(REPO_ROOT, argv, monkeypatch)
        assert code == 0, (argv, out)


def test_cli_germ_tensor():
    r = run_cli(["germ", "tensor", demo_path("germs.txt"), "REG", "IRR"])
    assert r.returncode == 0
    theta = json.loads(r.stdout)["result"]["theta"]
    assert len(theta) == 2  # rank 2 x rank 1
