"""Command-line interface: parse a declaration document, dispatch to the
library, and emit a deterministic JSON (or DOT) report.

Exit codes: 0 success, 1 usage, 2 domain error (including missing files),
3 parse error.
"""

from __future__ import annotations

import json
import sys

from . import textio
from .canext import (TauSection, canonical_extension, exponents_report,
                     restrict)
from .cohomology import (KoszulInput, comparison_report, koszul_cohomology,
                         local_system_round_trip, torus_de_rham)
from .errors import LogresError, ParseError
from .field import format_scalar
from .germs import germ_tensor, is_fuchsian, pullback_germ
from .monoids import classify_model, faces, radical
from .rh import from_lobject, higgs_conditions, higgs_decompose, to_lobject
from .strata import strata_decomposition
from .textio import (_fmt_mp_matrix, _fmt_ratfunc, parse_document,
                     print_document)

USAGE = """usage: logres <command> <document> [names...] [flags]

commands:
  faces DOC [P]                       face lattice of a monoid
  strata DOC [P [K]]                  stratification descriptors
  classify DOC [P [K]]                locally-constant / hollow flags
  radical DOC [P [K]]                 radical of an ideal
  flat DOC [C]                        integrability of a connection
  higgs DOC [C [S]]                   Higgs decomposition under a splitting
  rh to-lobject DOC [C]               graded module of a constant connection
  rh from-lobject DOC [V]             connection of a graded module
  canext restrict DOC [V [E]]         restriction across the embedding
  canext extend DOC [V [E]]           canonical extension (uses tau)
  canext exponents DOC [V [E]]        exponents at infinity report
  germ fuchs DOC [G]                  regular-singularity test
  germ pullback DOC [C [M]]           pullback along a curve germ
  germ tensor DOC [G1 G2]             tensor product of germs
  cohomology koszul DOC [W]           Koszul dims of a local system
  cohomology derham DOC [C [S]]       de Rham dims by characters
  cohomology compare DOC [C [S]]      three-sided comparison report
  locsys roundtrip DOC [W]            local-system round trip
  print DOC                           canonical reprint of the document

flags: --dot, --tau-window="(a,b]", --bound=N (N a positive integer)
"""


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    flags = {"dot": False, "tau": None, "bound": None}
    args = []
    for a in argv:
        if a == "--dot":
            flags["dot"] = True
        elif a.startswith("--tau-window=") or a.startswith("--tau="):
            flags["tau"] = a.split("=", 1)[1]
        elif a.startswith("--bound="):
            value = a.split("=", 1)[1]
            if not (value.isascii() and value.isdigit() and int(value) > 0):
                sys.stderr.write("invalid --bound value %r: expected a "
                                 "positive integer\n" % value)
                sys.stderr.write(USAGE)
                return 1
            flags["bound"] = int(value)
        elif a.startswith("--"):
            sys.stderr.write("unknown flag %s\n" % a)
            sys.stderr.write(USAGE)
            return 1
        else:
            args.append(a)
    if not args:
        sys.stderr.write(USAGE)
        return 1
    command = args.pop(0)
    if command in ("rh", "canext", "germ", "cohomology", "locsys"):
        if not args:
            sys.stderr.write(USAGE)
            return 1
        command = command + " " + args.pop(0)
    handler = _COMMANDS.get(command)
    if handler is None:
        sys.stderr.write("unknown command %r\n" % command)
        sys.stderr.write(USAGE)
        return 1
    if not args:
        sys.stderr.write(USAGE)
        return 1
    path = args.pop(0)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _emit_error(command, path, "FileNotFound: %s" % e)
        return 2
    # further positional arguments naming existing files are concatenated
    # before parsing, so inputs may be split across documents (e.g. a
    # connection file plus a germ-map file referring to its model)
    import os

    for extra in [a for a in args if os.path.exists(a)]:
        args.remove(extra)
        with open(extra, "r", encoding="utf-8") as fh:
            text = text + "\n" + fh.read()
    try:
        doc = parse_document(text)
    except ParseError as e:
        _emit_error(command, path, "ParseError: %s" % e)
        return 3
    try:
        result, names, dot = handler(doc, args, flags)
    except ParseError as e:
        _emit_error(command, path, "ParseError: %s" % e)
        return 3
    except (LogresError, KeyError, ValueError, ZeroDivisionError) as e:
        _emit_error(command, path, "%s: %s" % (type(e).__name__, e))
        return 2
    if flags["dot"] and dot is not None:
        sys.stdout.write(dot)
        if not dot.endswith("\n"):
            sys.stdout.write("\n")
        return 0
    report = {"command": command, "inputs": names, "result": result,
              "diagnostics": []}
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _emit_error(command, path, message):
    report = {"command": command, "inputs": [path], "result": None,
              "diagnostics": [message]}
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _take(doc, args, kind, what):
    if args:
        name = args.pop(0)
        return name, doc.get(name, kind)
    name, value = doc.first_of(kind)
    if value is None:
        raise KeyError("document declares no %s (%s)" % (kind, what))
    return name, value


def _take_optional_ideal(doc, args, monoid):
    from .monoids import MonoidIdeal

    if args:
        name = args.pop(0)
        return name, doc.get(name, "ideal")
    name, value = doc.first_of("ideal")
    if value is None or value.monoid != monoid:
        return "(empty)", MonoidIdeal(monoid, ())
    return name, value


def _tau_from(doc, flags):
    if flags["tau"]:
        text = flags["tau"].strip()
        if not (text.startswith("(") and text.endswith("]")):
            raise ValueError("tau window must look like (a,b]")
        lo, hi = text[1:-1].split(",")
        from fractions import Fraction

        lo, hi = Fraction(lo.strip()), Fraction(hi.strip())
        if hi - lo != 1:
            raise ValueError("tau window must have unit length")
        return TauSection(lo)
    name, value = doc.first_of("tau")
    return value if value is not None else TauSection()


# -- serializers ---------------------------------------------------------------

def _ser_matrix(m):
    return [[format_scalar(x) for x in row] for row in m.entries]


def _ser_lobject(V):
    return {
        "rank": V.rank,
        "degrees": [[format_scalar(x) for x in d] for d in V.degrees],
        "log_matrices": [_ser_matrix(m) for m in V.log_matrices],
        "monoid": [list(g) for g in V.monoid.generators],
        "ideal": [list(k) for k in V.ideal.generators],
    }


def _ser_connection(c):
    return {
        "rank": c.rank,
        "monoid": [list(g) for g in c.monoid.generators],
        "ideal": [list(k) for k in c.ideal.generators],
        "omega": [_fmt_mp_matrix(c.omega[k])
                  for k in range(c.differentials.rank)],
    }


def _ser_germ(g):
    return [[_fmt_ratfunc(x) for x in row] for row in g.theta_matrix]


# -- command handlers ----------------------------------------------------------

def _cmd_faces(doc, args, flags):
    name, P = _take(doc, args, "monoid", "faces")
    out = [{"indices": sorted(f.generator_indices),
            "span": [list(v) for v in f.span],
            "group_rank": f.group_rank()} for f in faces(P)]
    return out, [name], P.face_lattice_dot()


def _cmd_strata(doc, args, flags):
    pname, P = _take(doc, args, "monoid", "strata")
    kname, K = _take_optional_ideal(doc, args, P)
    sd = strata_decomposition(P, K, bound=flags["bound"])
    out = [{"face": sorted(s.face.generator_indices),
            "torus_rank": s.torus_rank,
            "log_rank": s.log_rank,
            "sharp_fiber_rank": s.sharp_fiber_rank,
            "induced_ideal": [list(k) for k in s.induced_ideal.generators]}
           for s in sd]
    dot = _strata_dot(sd)
    return out, [pname, kname], dot


def _strata_dot(sd):
    lines = ["digraph strata {"]
    for i, s in enumerate(sd):
        lines.append('  s%d [label="F=%s (%d,%d)"];' % (
            i, sorted(s.face.generator_indices), s.torus_rank, s.log_rank))
    for i, a in enumerate(sd):
        for j, b in enumerate(sd):
            if i == j:
                continue
            if a.face.generator_indices < b.face.generator_indices and not any(
                    a.face.generator_indices < c.face.generator_indices
                    < b.face.generator_indices for c in sd):
                lines.append("  s%d -> s%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines)


def _cmd_classify(doc, args, flags):
    pname, P = _take(doc, args, "monoid", "classify")
    kname, K = _take_optional_ideal(doc, args, P)
    mc = classify_model(P, K, bound=flags["bound"])
    return ({"locally_constant": mc.locally_constant, "hollow": mc.hollow},
            [pname, kname], None)


def _cmd_radical(doc, args, flags):
    pname, P = _take(doc, args, "monoid", "radical")
    kname, K = _take_optional_ideal(doc, args, P)
    rad = radical(P, K, bound=flags["bound"])
    return ([list(g) for g in rad.generators], [pname, kname], None)


def _cmd_flat(doc, args, flags):
    from .connections import is_flat

    name, c = _take(doc, args, "connection", "flat")
    return {"flat": is_flat(c)}, [name], None


def _cmd_higgs(doc, args, flags):
    cname, c = _take(doc, args, "connection", "higgs")
    sname, s = _take(doc, args, "splitting", "higgs")
    c1, c2, c3, base, rhos = higgs_conditions(c, s)
    result = {"conditions": {"base_integrable": c1, "residues_commute": c2,
                             "residues_horizontal": c3},
              "succeeds": c1 and c2 and c3}
    if result["succeeds"]:
        hd = higgs_decompose(c, s)
        result["base"] = _ser_connection(hd.base)
        result["residues"] = [_fmt_mp_matrix(rho) for rho in hd.residues]
    return result, [cname, sname], None


def _cmd_to_lobject(doc, args, flags):
    name, c = _take(doc, args, "connection", "rh to-lobject")
    V = to_lobject(c, bound=flags["bound"])
    return _ser_lobject(V), [name], None


def _cmd_from_lobject(doc, args, flags):
    name, V = _take(doc, args, "lobject", "rh from-lobject")
    c = from_lobject(V)
    return _ser_connection(c), [name], None


def _take_embedding(doc, args):
    if args:
        name = args.pop(0)
        return name, doc.get(name, "embedding")
    name, value = doc.first_of("embedding")
    if value is None:
        raise KeyError("document declares no embedding")
    return name, value


def _cmd_canext_restrict(doc, args, flags):
    vname, V = _take(doc, args, "lobject", "canext restrict")
    ename, E = _take_embedding(doc, args)
    out = restrict(E, V)
    return _ser_lobject(out), [vname, ename], None


def _cmd_canext_extend(doc, args, flags):
    vname, V = _take(doc, args, "lobject", "canext extend")
    ename, E = _take_embedding(doc, args)
    tau = _tau_from(doc, flags)
    out, shifts = canonical_extension(E, V, tau)
    return ({"object": _ser_lobject(out),
             "shifts": [list(s) for s in shifts]}, [vname, ename], None)


def _cmd_canext_exponents(doc, args, flags):
    vname, V = _take(doc, args, "lobject", "canext exponents")
    ename, E = _take_embedding(doc, args)
    tau = _tau_from(doc, flags)
    rep = exponents_report(E, V, tau)
    return ({"exponents": [[format_scalar(x) for x in e]
                           for e in rep.exponents],
             "adapted": rep.adapted}, [vname, ename], None)


def _cmd_germ_fuchs(doc, args, flags):
    name, g = _take(doc, args, "germ", "germ fuchs")
    return {"fuchsian": is_fuchsian(g)}, [name], None


def _cmd_germ_pullback(doc, args, flags):
    cname, c = _take(doc, args, "connection", "germ pullback")
    mname, m = _take(doc, args, "germmap", "germ pullback")
    g = pullback_germ(c, m)
    return {"theta": _ser_germ(g)}, [cname, mname], None


def _cmd_germ_tensor(doc, args, flags):
    n1, g1 = _take(doc, args, "germ", "germ tensor")
    n2, g2 = _take(doc, args, "germ", "germ tensor")
    return {"theta": _ser_germ(germ_tensor(g1, g2))}, [n1, n2], None


def _cmd_koszul(doc, args, flags):
    name, W = _take(doc, args, "localsystem", "cohomology koszul")
    dims = koszul_cohomology(KoszulInput(blocks=W.blocks,
                                         num_operators=W.num_generators))
    return {"dims": dims}, [name], None


def _cmd_derham(doc, args, flags):
    cname, c = _take(doc, args, "connection", "cohomology derham")
    sname, s = _take(doc, args, "splitting", "cohomology derham")
    return {"dims": torus_de_rham(c, s)}, [cname, sname], None


def _cmd_compare(doc, args, flags):
    cname, c = _take(doc, args, "connection", "cohomology compare")
    sname, s = _take(doc, args, "splitting", "cohomology compare")
    tau = _tau_from(doc, flags)
    rep = comparison_report(c, s, tau, bound=flags["bound"])
    return ({"deRham": list(rep.de_rham), "groupV0": list(rep.group_v0),
             "localSystem": list(rep.local_system), "adapted": rep.adapted,
             "deRham_equals_groupV0": rep.de_rham_equals_group,
             "groupV0_equals_localSystem": rep.group_equals_local_system},
            [cname, sname], None)


def _cmd_locsys_roundtrip(doc, args, flags):
    name, W = _take(doc, args, "localsystem", "locsys roundtrip")
    tau = _tau_from(doc, flags)
    V, Wb = local_system_round_trip(W, tau)
    return ({"object": _ser_lobject(V),
             "identity": Wb == W.sorted_blocks()}, [name], None)


def _cmd_print(doc, args, flags):
    return {"text": print_document(doc)}, [], print_document(doc)


_COMMANDS = {
    "faces": _cmd_faces,
    "strata": _cmd_strata,
    "classify": _cmd_classify,
    "radical": _cmd_radical,
    "flat": _cmd_flat,
    "higgs": _cmd_higgs,
    "rh to-lobject": _cmd_to_lobject,
    "rh from-lobject": _cmd_from_lobject,
    "canext restrict": _cmd_canext_restrict,
    "canext extend": _cmd_canext_extend,
    "canext exponents": _cmd_canext_exponents,
    "germ fuchs": _cmd_germ_fuchs,
    "germ pullback": _cmd_germ_pullback,
    "germ tensor": _cmd_germ_tensor,
    "cohomology koszul": _cmd_koszul,
    "cohomology derham": _cmd_derham,
    "cohomology compare": _cmd_compare,
    "locsys roundtrip": _cmd_locsys_roundtrip,
    "print": _cmd_print,
}


if __name__ == "__main__":
    sys.exit(main())
