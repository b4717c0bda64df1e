"""Byte stability of the CLI over the demo documents.

Every command of the CLI's command table runs on every document of
demos/data, with no flag, with --dot and with --tau-window=(-2,-1]: 399
invocations, each run through `cli.main` in this process, from the
checkout root and with relative paths, so the record does not depend on
where the checkout sits.  For each, tests/data/cli_golden.json records the
exit code, stdout and the first line of stderr.  A change that keeps the
CLI's reports byte-identical keeps this test passing.

When a change alters a report on purpose, rewrite the record with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in CHANGES.md which reports changed and why.
"""

import contextlib
import io
import json
import os
import sys

from logres import cli

from checkout import REPO_ROOT

GOLDEN = os.path.join(REPO_ROOT, "tests", "data", "cli_golden.json")
FLAGS = [[], ["--dot"], ["--tau-window=(-2,-1]"]]


def invocations():
    """Every argv of the record, in a fixed order."""
    documents = sorted(os.listdir(os.path.join(REPO_ROOT, "demos", "data")))
    return [command.split() + ["demos/data/" + doc] + flag
            for command in cli._COMMANDS for doc in documents
            for flag in FLAGS]


def run(argv):
    """{code, stdout, stderr's first line} of cli.main(argv), run in
    the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue().split("\n", 1)[0]}


def record():
    return [run(argv) for argv in invocations()]


def test_cli_reports_match_golden(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [g["argv"] for g in golden] == invocations()
    changed = [(g, now) for g, now in zip(golden, record()) if g != now]
    assert not changed, "%d of %d invocations changed; first:\n%r\n%r" % (
        len(changed), len(golden), changed[0][0], changed[0][1])


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    entries = record()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write("wrote %d invocations to %s\n"
                     % (len(entries), os.path.relpath(GOLDEN)))
