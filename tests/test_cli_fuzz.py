"""Seeded mutation fuzz of the CLI over the demo documents.

Each case mutates one document of demos/data a few times (characters,
number tokens and whole lines), writes it to a file and runs a command on
it through `cli.main` in this process.  Whatever the input, the CLI must
keep its contract: exit code 0, 2 or 3, one JSON report on stdout, and no
exception escaping.  The cases are drawn from LOGRES_SEED.
"""

import contextlib
import io
import json
import re

from logres import cli

from checkout import demo_path
from corpus import rng

CASES = 500

# (document, command words before the path, names after it)
COMMANDS = [
    ("a1.txt", ["strata"], []),
    ("quadric.txt", ["faces"], ["P"]),
    ("logpoint.txt", ["classify"], []),
    ("logpoint.txt", ["flat"], []),
    ("mixed.txt", ["higgs"], []),
    ("logpoint.txt", ["rh", "to-lobject"], []),
    ("canext.txt", ["canext", "extend"], ["V", "E"]),
    ("canext.txt", ["canext", "exponents"], ["VQ", "E"]),
    ("germs.txt", ["germ", "fuchs"], ["IRR"]),
    ("germs.txt", ["germ", "pullback"], []),
    ("mixed.txt", ["cohomology", "compare"], []),
    ("locsys.txt", ["locsys", "roundtrip"], []),
    ("locsys.txt", ["cohomology", "koszul"], []),
    ("germs.txt", ["germ", "tensor"], ["REG", "IRR"]),
    ("canext.txt", ["canext", "restrict"], []),
    ("logpoint.txt", ["rh", "from-lobject"], []),
    ("quadric.txt", ["radical"], []),
    ("mixed.txt", ["print"], []),
]

ALPHABET = " \n,;[]()={}:/-+*^0123456789tix"
NUMBERS = ["0", "1", "-1", "2", "1/2", "1/0", "i", "t", "3/t", "-2/3"]
NUMBER = re.compile(r"(?<!\w)-?\d+(/\d+)?")


def mutate(r, text):
    """One random edit of text: a character, a number token (the most
    likely edit, since it keeps the syntax and moves the values) or a
    whole line."""
    kind = r.randrange(9)
    pos = r.randrange(len(text) + 1)
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


def run_case(r, tmp_path):
    """Mutate a document, run its command in-process; (argv, code, out)."""
    doc, words, names = r.choice(COMMANDS)
    with open(demo_path(doc), encoding="utf-8") as fh:
        text = fh.read()
    for _ in range(r.randint(1, 3)):
        text = mutate(r, text)
    path = tmp_path / "mutated.txt"
    path.write_text(text, encoding="utf-8")
    argv = words + [str(path)] + names
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:
        raise AssertionError("%r escaped on %r with document:\n%s"
                             % (e, argv, text)) from e
    return argv, text, code, out.getvalue()


def test_cli_contract_under_mutation(tmp_path):
    r = rng(9101)
    for _ in range(CASES):
        argv, text, code, out = run_case(r, tmp_path)
        assert code in (0, 2, 3), (argv, text, code, out)
        report = json.loads(out)
        assert bool(report["diagnostics"]) == (code != 0), (argv, text, out)
