"""Seeded mutation fuzz of the CLI over the demo documents.

Each case runs one command of the CLI's command table through `cli.main`
in this process.  Most cases mutate its document of demos/data a few
times (characters, number tokens, whole lines and raw bytes that are not
UTF-8) and write it to a file;
the others keep the document and mutate the argument list instead: a
flag the command does not read, a surplus name, an unknown name, or a
name that is also a file in the working directory.  Whatever the input,
the CLI must keep its contract, with no exception escaping: exit 1 prints
nothing on stdout and one line plus the usage on stderr; exit 0, 2 or 3
prints one JSON report on stdout.  The cases are drawn from LOGRES_SEED.
"""

import contextlib
import io
import json
import re

from logres import cli

from checkout import demo_path
from corpus import rng

CASES = 500

# command -> (its document, a name for each of its named inputs)
DOCUMENTS = {
    "faces": ("quadric.txt", ["P"]),
    "strata": ("a1.txt", ["N", "K0"]),
    "classify": ("logpoint.txt", ["N", "KH"]),
    "radical": ("quadric.txt", ["N2", "K"]),
    "flat": ("logpoint.txt", ["C"]),
    "higgs": ("mixed.txt", ["C", "S"]),
    "rh to-lobject": ("logpoint.txt", ["C"]),
    "rh from-lobject": ("canext.txt", ["VQ"]),
    "canext restrict": ("canext.txt", ["VQ", "E"]),
    "canext extend": ("canext.txt", ["V", "E"]),
    "canext exponents": ("canext.txt", ["VQ", "E"]),
    "germ fuchs": ("germs.txt", ["IRR"]),
    "germ pullback": ("germs.txt", ["C", "M"]),
    "germ tensor": ("germs.txt", ["REG", "IRR"]),
    "cohomology koszul": ("locsys.txt", ["W"]),
    "cohomology derham": ("mixed.txt", ["C", "S"]),
    "cohomology compare": ("mixed.txt", ["C", "S"]),
    "locsys roundtrip": ("locsys.txt", ["W"]),
    "print": ("mixed.txt", []),
}
# (the input that makes a command read the flag, the flag); no command
# reads --bound=
FLAGS = [("dot", "--dot"), ("tau", "--tau-window=(0,1]"),
         (None, "--bound=3")]

ALPHABET = " \n,;[]()={}:/-+*^0123456789tix"
NUMBERS = ["0", "1", "-1", "2", "1/2", "1/0", "i", "t", "3/t", "-2/3"]
NUMBER = re.compile(r"(?<!\w)-?\d+(/\d+)?")
# bytes that are never valid UTF-8 where they are inserted (a lone
# continuation byte, a lead byte of an overlong form, a byte outside
# UTF-8), as the surrogates that the "surrogateescape" error handler
# writes back as those bytes
RAW = ["\udc80", "\udcc0", "\udcff"]


def mutate(r, text):
    """One random edit of text: a character, a number token (the most
    likely edit, since it keeps the syntax and moves the values), a whole
    line or a raw byte."""
    kind = r.randrange(10)
    pos = r.randrange(len(text) + 1)
    if kind == 9:
        return text[:pos] + r.choice(RAW) + text[pos:]
    if kind == 0:
        return text[:pos] + text[pos + 1:]
    if kind == 1:
        return text[:pos] + r.choice(ALPHABET) + text[pos:]
    if kind == 2:
        return text[:pos] + r.choice(ALPHABET) + text[pos + 1:]
    if kind < 6:
        numbers = list(NUMBER.finditer(text))
        if numbers:
            m = r.choice(numbers)
            return text[:m.start()] + r.choice(NUMBERS) + text[m.end():]
        return text
    lines = text.split("\n")
    i, j = r.randrange(len(lines)), r.randrange(len(lines))
    if kind == 6:
        del lines[i]
    elif kind == 7:
        lines.insert(i, lines[j])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def mutate_argv(r, command, names, tmp_path):
    """The argument list after the document, mutated in one of four
    ways; the working directory is tmp_path."""
    inputs = cli._COMMANDS[command][0]
    kind = r.randrange(4)
    if kind == 0:
        flag = r.choice([f for k, f in FLAGS if k not in inputs])
        return names + [flag]
    if kind == 1 or not names:
        return names + r.choice([["X"], ["Y", "Z"]])
    if kind == 2:
        i = r.randrange(len(names))
        return names[:i] + ["NOPE"] + names[i + 1:]
    (tmp_path / r.choice(names)).write_text("not ( a document\n")
    return names


def run_case(r, tmp_path):
    """Run one command on a mutated document or with a mutated argument
    list, in-process; (argv, document, code, stdout, stderr)."""
    command = r.choice(sorted(DOCUMENTS))
    doc, names = DOCUMENTS[command]
    with open(demo_path(doc), encoding="utf-8") as fh:
        text = fh.read()
    if r.randrange(4):
        for _ in range(r.randint(1, 3)):
            text = mutate(r, text)
        path = tmp_path / "mutated.txt"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        argv = (command.split() + [str(path)]
                + names[:r.randint(0, len(names))])
    else:
        argv = (command.split() + [demo_path(doc)]
                + mutate_argv(r, command, names, tmp_path))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:
        raise AssertionError("%r escaped on %r with document:\n%s"
                             % (e, argv, text)) from e
    return argv, text, code, out.getvalue(), err.getvalue()


def test_every_table_command_is_fuzzed():
    assert set(DOCUMENTS) == set(cli._COMMANDS)


def test_cli_contract_under_mutation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    r = rng(9101)
    for _ in range(CASES):
        argv, text, code, out, err = run_case(r, tmp_path)
        case = (argv, text, code, out, err)
        if code == 1:
            assert out == "", case
            line, rest = err.split("\n", 1)
            assert line and not line.startswith("usage"), case
            assert rest.startswith("usage: logres"), case
            continue
        assert code in (0, 2, 3), case
        assert err == "", case
        report = json.loads(out)
        assert bool(report["diagnostics"]) == (code != 0), case
