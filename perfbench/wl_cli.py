"""Workload `cli`: the documented `logres` commands on demos/data, each
run as its own process, the way a user runs them.

Interpreter start, `import logres`, parsing the document and printing the
JSON report dominate here, so every algorithm layer should read "no
change" on this workload; an import-time or parser change shows only
here.  The seed fixes the order of the commands within each round.

An answer is correct when the process exits 0, its output parses (as
JSON, or as a DOT digraph for `--dot`), it is byte-identical to that
command's first invocation in this process, and the README's stated
results hold.  The traced run replays the same commands in-process
through logres.cli.main, so the library layers can be timed.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys

from common import Draw, Op

# the command lines of the README's "Command line" section; the last one
# is its split-document form, fed from germs.txt cut in two
COMMANDS = [
    ["strata", "demos/data/a1.txt"],
    ["faces", "demos/data/quadric.txt", "P", "--dot"],
    ["classify", "demos/data/logpoint.txt"],
    ["flat", "demos/data/logpoint.txt"],
    ["higgs", "demos/data/mixed.txt"],
    ["rh", "to-lobject", "demos/data/logpoint.txt"],
    ["canext", "extend", "demos/data/canext.txt", "V", "E",
     "--tau-window=(-1,0]"],
    ["canext", "exponents", "demos/data/canext.txt", "VQ", "E"],
    ["germ", "fuchs", "demos/data/germs.txt", "IRR"],
    ["germ", "pullback", "demos/data/germs.txt"],
    ["cohomology", "compare", "demos/data/mixed.txt"],
    ["locsys", "roundtrip", "demos/data/locsys.txt"],
    ["germ", "pullback", "@conn.txt", "@map.txt"],
]
PULLBACK, SPLIT_PULLBACK = 9, 12     # the same pullback, one file or two
ROUNDS = 3                           # about 5 s of commands
# The commands' times are those of child processes, which the reference
# computation in the benchmark's own process does not follow (scaling by
# it made runs of the same code spread more, not less).  So the reference
# here is a child too: an interpreter that starts and exits, which is
# most of what a command costs.  REF_S is its usual CPU time on the
# machine of perfbench/baseline.json.
REF_S = 0.065


def _readme_facts(i, out):
    """Results the README states for these documents."""
    if COMMANDS[i][0] == "strata":
        return len(out["result"]) == 2
    if COMMANDS[i][:2] == ["germ", "fuchs"]:
        return out["result"] == {"fuchsian": False}
    if COMMANDS[i][:2] == ["cohomology", "compare"]:
        r = out["result"]
        return r["deRham"] == [0, 0, 0] and r["localSystem"] == [1, 2, 1]
    return True


class Commands:
    """The command lines with their split documents and first outputs."""

    def __init__(self, root, work):
        self.root = root
        self.first = {}
        os.makedirs(work, exist_ok=True)
        with open(os.path.join(root, "demos/data/germs.txt")) as fh:
            lines = fh.read().splitlines(keepends=True)
        split = {"conn.txt": [l for l in lines if not l.startswith("germmap")],
                 "map.txt": [l for l in lines if l.startswith("germmap")]}
        for name, part in split.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.writelines(part)
        self.argv = [[os.path.join(work, a[1:]) if a.startswith("@") else a
                      for a in cmd] for cmd in COMMANDS]

    def check(self, i, returncode, stdout):
        if returncode != 0:
            return False
        if "--dot" in COMMANDS[i]:
            if not stdout.startswith("digraph"):
                return False
        else:
            try:
                out = json.loads(stdout)
            except ValueError:
                return False
            if not _readme_facts(i, out):
                return False
            if i == SPLIT_PULLBACK and out["result"] != json.loads(
                    self.first[PULLBACK])["result"]:
                return False
        return stdout == self.first[i]


_COMMANDS = None


def _commands(root):
    # kept across set-up repetitions, so "first invocation" means the
    # first in this process
    global _COMMANDS
    if _COMMANDS is None:
        _COMMANDS = Commands(root, os.path.join(root, ".bench_out", "cli"))
    return _COMMANDS


def _one_byte_off(stdout):
    """One indentation space turned into a tab: the output still parses,
    so only the byte comparison can catch it."""
    return stdout.replace("  ", " \t", 1)


def _subprocess_op(cmds, i, src):
    env = dict(os.environ, PYTHONPATH=src)

    def call():
        return subprocess.run([sys.executable, "-m", "logres.cli"]
                              + cmds.argv[i], cwd=cmds.root, env=env,
                              capture_output=True, text=True, timeout=120)

    def check(proc):
        cmds.first.setdefault(i, proc.stdout)
        return cmds.check(i, proc.returncode, proc.stdout)

    def corrupt(proc):
        return subprocess.CompletedProcess(proc.args, 0,
                                           _one_byte_off(proc.stdout), "")

    return Op("cli", lambda: (), call, check, corrupt=corrupt)


def _inprocess_op(L, cmds, i):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = L.cli.main(list(cmds.argv[i]))
        return code, buf.getvalue()

    def check(res):
        return cmds.check(i, *res)

    def corrupt(res):
        return res[0], _one_byte_off(res[1])

    return Op("cli", lambda: (), call, check, corrupt=corrupt)


def prepare(L, seed, ctx):
    cmds = _commands(ctx.root)
    r = Draw("cli", seed, "timed").value
    order = []
    for _ in range(ROUNDS):
        rnd = list(range(len(COMMANDS)))
        r.shuffle(rnd)
        order.append(rnd)
    # the warm-up is one invocation of every command; for a fixed set of
    # documents it is also the reference each later run must reproduce
    warm = [_subprocess_op(cmds, i, ctx.src) for i in range(len(COMMANDS))]
    if ctx.traced:
        return [[_inprocess_op(L, cmds, i) for i in rnd] for rnd in order], warm
    return [[_subprocess_op(cmds, i, ctx.src) for i in rnd]
            for rnd in order], warm


def reference():
    """CPU seconds of `python -c pass` in a child process."""
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True,
                   timeout=120)
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return c1.ru_utime + c1.ru_stime - c0.ru_utime - c0.ru_stime


def import_time_us(src, repeats=5):
    """Median cumulative import time of logres.cli, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import logres.cli"], env=env,
                              capture_output=True, text=True, timeout=120)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "logres.cli":
                times.append(int(fields[1]))
    return statistics.median(times)
