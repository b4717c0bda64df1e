"""The logres benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Generates workload W's inputs from seed N with the benchmark's own
generators, runs them through the public functions of the logres package
in src/ of this checkout, and checks every answer against a result known
by construction.  One caller, no threads: a closed loop in which each
operation starts when the previous one has returned.

--trace 0 times the operations untraced, in passes over the seed's whole
operation list (each on a fresh set-up) until S seconds of operation
time have passed, at least three passes, and prints the end-to-end
metrics.  Each operation counts with the least of its times over the
passes.  Times are CPU time of this process and of the subprocesses it
waited for (the cli workload's commands): the operations are
single-threaded and compute-bound, and on a shared machine wall time
also counts the time other programs hold the processor.  They are
scaled to the machine's usual speed by a reference computation timed
between rounds (see measure()).  Unscaled and wall-clock figures
are printed beside them.
--trace 1 runs each round untraced and then traced (see tracer.py) for
S seconds of untraced wall time, and prints the per-layer metrics.
Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Metric names
and units come from BENCHMARK.json at the root of the checkout.

Exit status: 0 when every answer was right, 1 when any was wrong, 2 when
the library or BENCHMARK.json is missing, 3 when a checker failed its own
self-test.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from common import mat_mul

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MODULES = ("errors", "field", "gaussint", "linalg", "lattice", "monoids",
           "connections", "lobjects", "strata", "rh", "canext", "cohomology",
           "germs", "textio", "cli")
WORKLOADS = {"connections": "wl_connections", "germs": "wl_germs",
             "monoids": "wl_monoids", "cli": "wl_cli"}
MIN_PASSES = 3


class SelfTestFailed(Exception):
    pass


def import_library():
    """A fresh import of the logres modules from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "logres" or n.startswith("logres.")]:
        del sys.modules[name]
    L = SimpleNamespace()
    for m in MODULES:
        setattr(L, m, importlib.import_module("logres." + m))
    where = os.path.abspath(L.field.__file__)
    if not where.startswith(SRC + os.sep):
        raise ImportError("logres imported from %s, not from %s" % (where, SRC))
    return L


def judge(op, result, exc):
    """Is this outcome right?  An expected rejection must raise the
    expected type; anything else must return and pass its check."""
    if op.expect is not None:
        return isinstance(exc, op.expect)
    if exc is not None:
        return False
    try:
        return bool(op.check(result))
    except Exception:
        return False


def cpu_seconds():
    """CPU time of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(op, tracer=None):
    """((wall seconds, CPU seconds), result, exception) of one operation;
    only call() is timed, and traced when a tracer is given."""
    try:
        args = op.build()
    except Exception as e:
        return (0.0, 0.0), None, e
    if tracer is not None:
        tracer.op += 1
        tracer.recording = True
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        result, exc = op.call(*args), None
    except Exception as e:
        result, exc = None, e
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    if tracer is not None:
        tracer.recording = False
    return (wall, cpu), result, exc


def warm_up(ops):
    """Run the warm-up set, and show on it that every checker accepts the
    right answer and rejects a wrong one."""
    for op in ops:
        _, result, exc = run_op(op)
        if not judge(op, result, exc):
            raise SelfTestFailed("warm-up %s: wrong answer (%r)" % (op.kind, exc))
        if op.expect is not None:
            wrong = [judge(op, None, None), judge(op, None, RuntimeError())]
        else:
            wrong = [judge(op, op.corrupt(result), None),
                     judge(op, result, RuntimeError())]
        if any(wrong):
            raise SelfTestFailed("checker of %s accepts a wrong answer" % op.kind)


def setup(wl, seed, ctx):
    c0 = cpu_seconds()
    L = import_library()
    rounds, warm = wl.prepare(L, seed, ctx)
    warm_up(warm)
    return cpu_seconds() - c0, L, rounds


WALL, CPU, SCALED = 0, 1, 2

# usual CPU time of reference() on the machine of perfbench/baseline.json
REF_S = 0.035
_REF_A = [[(Fraction(i + 2 * j + 1, j + 3), Fraction(i - j, 7))
           for j in range(12)] for i in range(12)]


def reference():
    """CPU seconds of a fixed computation of the benchmark's own: the
    square of a 12x12 matrix over Q(i) with Fraction entries, the kind
    of arithmetic the library spends its time in.  It calls no library
    code, so only the machine's speed moves it.  Other programs sharing
    the machine slow everything by up to 2x, in phases of seconds to
    minutes, and CPU time counts that slowdown too."""
    c0 = cpu_seconds()
    mat_mul(_REF_A, _REF_A)
    return cpu_seconds() - c0


def measure(rounds, tracer=None, scale=None):
    """Run each round of operations once, in order.  Returns the (wall,
    CPU, scaled CPU) latencies, the failures and the busy time on the
    first two clocks.  `scale` is a pair (reference function, its usual
    time).  With it the reference runs before the first round and after
    every round, and the scaled CPU time of a round's operations is their
    CPU time times the usual time over the median of the two references
    before the round and the two after it: the time at the machine's
    usual speed.  The median keeps a single reference that ran in a short
    lull from setting the scale.  Without `scale` the scaled time is the
    CPU time."""
    lat, failures = [], []
    busy = [0.0, 0.0]
    ref, usual = scale or (None, 1.0)
    refs = [ref()] if ref else []
    ends = []
    for ops in rounds:
        for op in ops:
            dt, result, exc = run_op(op, tracer)
            busy[WALL] += dt[WALL]
            busy[CPU] += dt[CPU]
            if not judge(op, result, exc):
                failures.append((len(lat), op.kind,
                                 repr(exc) if exc else "wrong answer"))
            lat.append(dt)
        ends.append(len(lat))
        if ref:
            refs.append(ref())
    start = 0
    for k, end in enumerate(ends):
        # round k lies between refs[k] and refs[k + 1]
        factor = (usual / statistics.median(refs[max(0, k - 1):k + 3])
                  if ref else 1.0)
        lat[start:end] = [(w, c, c * factor) for w, c in lat[start:end]]
        start = end
    return lat, failures, busy


def quantile(xs, p):
    """The p-quantile by the Harrell-Davis estimator: a mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) distribution of
    the quantile's rank.  A run's operations fall into clusters of very
    different cost, and a single order statistic at a quantile that sits
    between clusters jumps from one to the other when two operations
    swap places; the weighted mean moves smoothly."""
    s = sorted(xs)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if n < 2 or a <= 1 or b <= 1:
        return s[min(n - 1, max(0, round(p * n) - 1))]
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # weight of order statistic i: the Beta mass on [i/n, (i+1)/n], by
    # Simpson's rule on four panels
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (4 * n)
        f = [density(lo + k * h) for k in range(5)]
        weights.append(f[0] + 4 * f[1] + 2 * f[2] + 4 * f[3] + f[4])
    return sum(w * x for w, x in zip(weights, s)) / sum(weights)


def tail(xs, beyond=10):
    """The highest percentile with at least `beyond` samples above it,
    estimated as in quantile(), and that percentile."""
    n = len(xs)
    if n <= beyond:
        return max(xs), 100.0
    return quantile(xs, (n - beyond) / n), 100.0 * (n - beyond) / n


def end_to_end(name, wl, seed, seconds, ctx):
    """Passes over the seed's whole operation list until `seconds` of
    operation CPU time have passed, at least MIN_PASSES of them; each
    pass runs on a fresh set-up.  Times are scaled to the machine's usual
    speed (see measure()) by reference() or by the workload's own
    reference, and an operation's time is the least of its passes (best
    of k, as timeit takes it), which drops slowdowns the reference did
    not catch.  Throughput and latencies come from these per-operation
    times; setup_s is the median of the scaled set-ups.  The unscaled
    figures are printed beside them."""
    ref = getattr(wl, "reference", reference)
    usual = getattr(wl, "REF_S", REF_S)
    setups, raw_setups, best, failures = [], [], None, []
    attempted = passes = 0
    busy = 0.0
    while passes < MIN_PASSES or busy < seconds:
        # the previous set goes first, so the peak memory of a set-up
        # holds one copy of the library and its instances
        L = rounds = None
        gc.collect()
        before = ref()
        took, L, rounds = setup(wl, seed, ctx)
        after = ref()
        raw_setups.append(took)
        setups.append(took * 2 * usual / (before + after))
        gc.collect()
        lat, fails, spent = measure(rounds, scale=(ref, usual))
        busy += spent[CPU]
        attempted += len(lat)
        failures += fails
        best = lat if best is None else [tuple(map(min, a, b))
                                         for a, b in zip(best, lat)]
        passes += 1
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    lat = [dt[SCALED] for dt in best]
    raw = [dt[CPU] for dt in best]
    wall = [dt[WALL] for dt in best]
    tail_s, pct = tail(lat)
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": quantile(lat, 0.5) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {
        "ops_per_s": "%d operations, best of %d passes; unscaled %.4g, "
                     "wall %.4g" % (len(lat), passes, len(raw) / sum(raw),
                                    len(wall) / sum(wall)),
        "latency_p50_ms": "n=%d; unscaled %.4g, wall %.4g" % (
            len(lat), quantile(raw, 0.5) * 1e3, quantile(wall, 0.5) * 1e3),
        "latency_tail_ms": "p%.1f, n=%d; unscaled %.4g, wall %.4g" % (
            pct, len(lat), tail(raw)[0] * 1e3, tail(wall)[0] * 1e3),
        "setup_s": "median of %d set-ups; unscaled %.4g" % (
            len(setups), statistics.median(raw_setups)),
        "peak_rss_mb": "children" if name == "cli" else "this process",
    }
    return values, notes, attempted, failures


def per_layer(name, wl, seed, seconds, ctx):
    from tracer import Tracer

    # gauge_transform runs while the germs are generated, so set-up is
    # traced too; only that function's numbers are taken from it
    L = import_library()
    gen = Tracer(L)
    gen.install()
    gen.recording = True
    try:
        rounds, warm = wl.prepare(L, seed, ctx)
    finally:
        gen.uninstall()
    warm_up(warm)
    # each round runs untraced and then traced, so a drift in machine
    # speed hits both sides of the overhead ratio alike
    tracer = Tracer(L)
    lat, failures = [], []
    busy = tbusy = 0.0
    done = 0
    gc.collect()
    while busy < seconds:
        one = [rounds[done % len(rounds)]]
        plain = measure(one)
        tracer.install()
        try:
            traced = measure(one, tracer=tracer)
        finally:
            tracer.uninstall()
        for run in (plain, traced):
            lat += run[0]
            failures += run[1]
        busy += plain[2][WALL]
        tbusy += traced[2][WALL]
        done += 1
    values = tracer.summary(tbusy)
    for key, v in gen.summary(0.0).items():
        if key.startswith("germs.gauge_transform."):
            values[key] = v
    values["trace.overhead_ratio"] = tbusy / busy
    values["cli.import_logres_us"] = (wl.import_time_us(SRC) if name == "cli"
                                      else 0)
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, "spans-%s-%d.json" % (name, seed)))
    notes = {"trace.overhead_ratio": "%.3f s traced / %.3f s untraced, "
                                     "%d rounds" % (tbusy, busy, done)}
    return values, notes, len(lat), failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "logres", "__init__.py")):
        print("no logres package under %s" % SRC, file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("no BENCHMARK.json at %s" % ROOT, file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    ctx = SimpleNamespace(root=ROOT, src=SRC, traced=bool(args.trace))
    wl = importlib.import_module(WORKLOADS[args.workload])
    run = per_layer if args.trace else end_to_end
    try:
        values, notes, attempted, failures = run(
            args.workload, wl, args.seed, args.seconds, ctx)
    except SelfTestFailed as e:
        print("self-test failed: %s" % e, file=sys.stderr)
        return 3

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                              args.trace))
    for m in wanted:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        note = notes.get(m["name"])
        print("  %-48s %14.6g %-6s%s" % (m["name"], v, m["unit"],
                                        "  (%s)" % note if note else ""))
    print("  %-48s %14.6g %-6s  (%d of %d operations)" % (
        "failed_ratio", len(failures) / attempted, "ratio", len(failures),
        attempted))
    for i, kind, what in failures[:20]:
        print("FAILED op %d (%s): %s" % (i, kind, what), file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
