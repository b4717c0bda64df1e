"""Per-layer tracing from outside the library.

Public functions of the logres modules are replaced by wrappers for the
traced run only.  A function is replaced in its own module and in every
logres module that imported it by name (rh.eigen_decompose and
cohomology.eigen_decompose are the same object under two names), so calls
from inside the library go through the wrapper too.  Methods are
replaced on their class.

Each wrapped call records one span (name, start, end, parent span, op id)
in memory.  Scalar GaussRat arithmetic and RatFunc construction are only
counted: a span per scalar operation would swamp the run.
"""

import json
import sys
import time

# (module, attribute path, metric prefix); the prefix names the layer
SPANNED = [
    ("linalg", "Matrix.charpoly", "linalg.Matrix.charpoly"),
    ("linalg", "gaussian_rational_roots", "linalg.gaussian_rational_roots"),
    ("linalg", "matrix_eigenvalues", "linalg.matrix_eigenvalues"),
    ("gaussint", "gi_divisors", "gaussint.gi_divisors"),
    ("linalg", "eigen_decompose", "linalg.eigen_decompose"),
    ("linalg", "Matrix.rref", "linalg.Matrix.rref"),
    ("linalg", "Matrix.solve", "linalg.Matrix.solve"),
    ("linalg", "Matrix.__mul__", "linalg.Matrix.mul"),
    ("lattice", "strictly_positive_solution",
     "lattice.strictly_positive_solution"),
    ("lattice", "rational_kernel", "lattice.rational_kernel"),
    ("lattice", "hnf_rows", "lattice.hnf_rows"),
    ("monoids", "AffineMonoid.faces", "monoids.AffineMonoid.faces"),
    ("monoids", "AffineMonoid.contains", "monoids.AffineMonoid.contains"),
    ("monoids", "AffineMonoid.elements_in_box",
     "monoids.AffineMonoid.elements_in_box"),
    ("monoids", "radical", "monoids.radical"),
    ("monoids", "classify_model", "monoids.classify_model"),
    ("germs", "pgcd", "germs.pgcd"),
    ("germs", "rf_solve", "germs.rf_solve"),
    ("germs", "scalar_theta_form", "germs.scalar_theta_form"),
    ("germs", "is_fuchsian", "germs.is_fuchsian"),
    ("germs", "gauge_transform", "germs.gauge_transform"),
    ("germs", "pullback_germ", "germs.pullback_germ"),
    ("connections", "is_flat", "connections.is_flat"),
    ("lobjects", "check_axioms", "lobjects.check_axioms"),
    ("rh", "to_lobject", "rh.to_lobject"),
    ("rh", "from_lobject", "rh.from_lobject"),
    ("rh", "higgs_decompose", "rh.higgs_decompose"),
    ("canext", "canonical_extension", "canext.canonical_extension"),
    ("canext", "restrict", "canext.restrict"),
    ("cohomology", "torus_de_rham", "cohomology.torus_de_rham"),
    ("cohomology", "koszul_cohomology", "cohomology.koszul_cohomology"),
    ("cohomology", "comparison_report", "cohomology.comparison_report"),
    ("textio", "parse_document", "textio.parse_document"),
    ("textio", "print_document", "textio.print_document"),
    ("cli", "main", "cli.main"),
]

# (module, class, methods, counter): counted, never spanned
COUNTED = [
    ("field", "GaussRat", ("__mul__", "__rmul__"), "field.GaussRat.mul"),
    ("field", "GaussRat", ("__add__", "__radd__"), "field.GaussRat.add"),
    ("field", "GaussRat", ("__truediv__",), "field.GaussRat.truediv"),
    ("germs", "RatFunc", ("__init__",), "germs.RatFunc.new"),
]


# work counters beyond calls and time: prefix -> (counter, amount of a call)
EXTRA = {
    "gaussint.gi_divisors": ("yielded", lambda args, result: len(result)),
    "linalg.Matrix.rref": ("cells",
                           lambda args, result: args[0].rows * args[0].cols),
    "lattice.strictly_positive_solution": ("true",
                                           lambda args, result: int(result)),
    "monoids.AffineMonoid.contains": ("true",
                                      lambda args, result: int(result)),
}


class Tracer:
    def __init__(self, L):
        self.L = L
        self.names = [prefix for _, _, prefix in SPANNED]
        self.spans = []         # [name id, start, end, parent, op id]
        self.stack = []
        self.op = -1
        self.recording = False  # on only while an operation is timed
        self.counts = {}
        self._undo = []

    # -- installing ------------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "logres"
                                      or name.startswith("logres."))]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = self._modules()
        for nid, (mod, path, prefix) in enumerate(SPANNED):
            owner = getattr(self.L, mod)
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            orig = owner.__dict__[parts[-1]]
            wrapper = self._span_wrapper(nid, prefix, orig)
            self._set(owner, parts[-1], wrapper)
            if len(parts) == 1:
                for m in modules:
                    if m is not owner and m.__dict__.get(parts[-1]) is orig:
                        self._set(m, parts[-1], wrapper)
        for mod, cls, methods, counter in COUNTED:
            klass = getattr(getattr(self.L, mod), cls)
            self.counts.setdefault(counter + ".calls", 0)
            for meth in methods:
                self._set(klass, meth,
                          self._count_wrapper(counter + ".calls",
                                              klass.__dict__[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _span_wrapper(self, nid, prefix, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        extra = EXTRA.get(prefix)
        if extra is not None:
            key, amount = prefix + "." + extra[0], extra[1]
            counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                counts[key] += amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.recording:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------------

    def summary(self, op_seconds):
        """Per-layer metrics from the spans of the traced pass."""
        n = len(self.names)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        top = 0.0
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
            if parent < 0:
                top += dur
        stats = {}
        for nid, prefix in enumerate(self.names):
            stats[prefix + ".calls"] = calls[nid]
            stats[prefix + ".self_s"] = own[nid]
            stats[prefix + ".total_s"] = total[nid]
        stats.update(self.counts)
        for prefix in ("lattice.strictly_positive_solution",
                       "monoids.AffineMonoid.contains"):
            c = stats[prefix + ".calls"]
            stats[prefix + ".true_ratio"] = stats[prefix + ".true"] / c if c else 0.0
        stf = self.names.index("germs.scalar_theta_form")
        solve = self.names.index("germs.rf_solve")
        inner = sum(1 for nid, _, _, parent, _ in self.spans
                    if nid == solve and parent >= 0
                    and self.spans[parent][0] == stf)
        stats["germs.cyclic_hit_ratio"] = calls[stf] / inner if inner else 0.0
        # self times of all spans add up to the time of the top-level ones;
        # set against the traced operation time they show what the spans
        # account for
        stats["trace.coverage_ratio"] = top / op_seconds if op_seconds else 0.0
        return stats

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end",
                                                       "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
