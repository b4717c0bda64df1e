"""Command-line interface: parse a declaration document, dispatch to the
library, and emit a deterministic JSON (or DOT) report.

Exit codes: 0 success, 1 usage, 2 domain error (including missing files),
3 parse error.
"""

from __future__ import annotations

import json
import sys

from .errors import LogresError, ParseError
from .field import format_scalar
from .textio import (_fmt_mp_matrix, _fmt_ratfunc, parse_document,
                     print_document)

# Each command handler imports the library functions it calls, so a
# command loads (and, without cached bytecode, compiles) only its modules.

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

flags: --dot (faces, strata, print); --tau-window="(a,b]" with b = a+1
(canext extend, canext exponents, cohomology compare, locsys roundtrip)
"""


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    flags = {}  # flag -> value, for the flags given
    args = []
    for a in argv:
        if a == "--dot":
            flags[a] = True
        elif a.startswith("--tau-window="):
            value = a.split("=", 1)[1]
            flags["--tau-window"] = _window_start(value)
            if flags["--tau-window"] is None:
                sys.stderr.write("invalid --tau-window value %r: expected "
                                 "(a,b] with b = a+1\n" % value)
                sys.stderr.write(USAGE)
                return 1
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
    if command not in _COMMANDS:
        sys.stderr.write("unknown command %r\n" % command)
        sys.stderr.write(USAGE)
        return 1
    handler, max_names, reads = _COMMANDS[command]
    unread = [f for f in flags if f not in reads]
    if unread:
        sys.stderr.write("flag %s does not apply to %s\n"
                         % (unread[0], command))
        sys.stderr.write(USAGE)
        return 1
    if not args:
        sys.stderr.write(USAGE)
        return 1
    path = args.pop(0)
    # further positional arguments naming existing files are concatenated
    # before parsing, so inputs may be split across documents (e.g. a
    # connection file plus a germ-map file referring to its model)
    import os

    extras = [a for a in args if os.path.exists(a)]
    for extra in extras:
        args.remove(extra)
    if len(args) > max_names:
        sys.stderr.write("too many names for %s: %s\n"
                         % (command, " ".join(args[max_names:])))
        sys.stderr.write(USAGE)
        return 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _emit_error(command, path, "FileNotFound: %s" % e)
        return 2
    for extra in extras:
        with open(extra, "r", encoding="utf-8") as fh:
            text = text + "\n" + fh.read()
    try:
        doc = parse_document(text)
    except ParseError as e:
        _emit_error(command, path, "ParseError: %s" % e)
        return 3
    except LogresError as e:
        _emit_error(command, path, "%s: %s" % (type(e).__name__, e))
        return 2
    try:
        result, names, dot = handler(doc, args, flags)
    except ParseError as e:
        _emit_error(command, path, "ParseError: %s" % e)
        return 3
    except (LogresError, KeyError, IndexError, ValueError,
            ZeroDivisionError) as e:
        _emit_error(command, path, "%s: %s" % (type(e).__name__, e))
        return 2
    if "--dot" in flags:
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


def _window_start(text):
    """a for a unit window "(a,b]" with b = a+1, else None."""
    from fractions import Fraction

    text = text.strip()
    ends = text[1:-1].split(",")
    if not (text.startswith("(") and text.endswith("]")) or len(ends) != 2:
        return None
    try:
        lo, hi = (Fraction(e.strip()) for e in ends)
    except (ValueError, ZeroDivisionError):
        return None
    return lo if hi - lo == 1 else None


def _tau_from(doc, flags):
    from .canext import TauSection

    if "--tau-window" in flags:
        return TauSection(flags["--tau-window"])
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
    from .monoids import faces

    name, P = _take(doc, args, "monoid", "faces")
    out = [{"indices": sorted(f.generator_indices),
            "span": [list(v) for v in f.span],
            "group_rank": f.group_rank()} for f in faces(P)]
    return out, [name], P.face_lattice_dot()


def _cmd_strata(doc, args, flags):
    from .strata import strata_decomposition

    pname, P = _take(doc, args, "monoid", "strata")
    kname, K = _take_optional_ideal(doc, args, P)
    sd = strata_decomposition(P, K)
    out = [{"face": sorted(s.face.generator_indices),
            "torus_rank": s.torus_rank,
            "log_rank": s.log_rank,
            "sharp_fiber_rank": s.sharp_fiber_rank,
            "induced_ideal": [list(k) for k in s.induced_ideal.generators]}
           for s in sd]
    dot = _strata_dot(sd)
    return out, [pname, kname], dot


def _strata_dot(sd):
    from .monoids import covering_pairs

    lines = ["digraph strata {"]
    for i, s in enumerate(sd):
        lines.append('  s%d [label="F=%s (%d,%d)"];' % (
            i, sorted(s.face.generator_indices), s.torus_rank, s.log_rank))
    for i, j in covering_pairs([s.face.generator_indices for s in sd]):
        lines.append("  s%d -> s%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines)


def _cmd_classify(doc, args, flags):
    from .monoids import classify_model

    pname, P = _take(doc, args, "monoid", "classify")
    kname, K = _take_optional_ideal(doc, args, P)
    mc = classify_model(P, K)
    return ({"locally_constant": mc.locally_constant, "hollow": mc.hollow},
            [pname, kname], None)


def _cmd_radical(doc, args, flags):
    from .monoids import radical

    pname, P = _take(doc, args, "monoid", "radical")
    kname, K = _take_optional_ideal(doc, args, P)
    rad = radical(P, K)
    return ([list(g) for g in rad.generators], [pname, kname], None)


def _cmd_flat(doc, args, flags):
    from .connections import is_flat

    name, c = _take(doc, args, "connection", "flat")
    return {"flat": is_flat(c)}, [name], None


def _cmd_higgs(doc, args, flags):
    from .rh import higgs_conditions, higgs_decompose

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
    from .rh import to_lobject

    name, c = _take(doc, args, "connection", "rh to-lobject")
    V = to_lobject(c)
    return _ser_lobject(V), [name], None


def _cmd_from_lobject(doc, args, flags):
    from .rh import from_lobject

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
    from .canext import restrict

    vname, V = _take(doc, args, "lobject", "canext restrict")
    ename, E = _take_embedding(doc, args)
    out = restrict(E, V)
    return _ser_lobject(out), [vname, ename], None


def _cmd_canext_extend(doc, args, flags):
    from .canext import canonical_extension

    vname, V = _take(doc, args, "lobject", "canext extend")
    ename, E = _take_embedding(doc, args)
    tau = _tau_from(doc, flags)
    out, shifts = canonical_extension(E, V, tau)
    return ({"object": _ser_lobject(out),
             "shifts": [list(s) for s in shifts]}, [vname, ename], None)


def _cmd_canext_exponents(doc, args, flags):
    from .canext import exponents_report

    vname, V = _take(doc, args, "lobject", "canext exponents")
    ename, E = _take_embedding(doc, args)
    tau = _tau_from(doc, flags)
    rep = exponents_report(E, V, tau)
    return ({"exponents": [[format_scalar(x) for x in e]
                           for e in rep.exponents],
             "adapted": rep.adapted}, [vname, ename], None)


def _cmd_germ_fuchs(doc, args, flags):
    from .germs import is_fuchsian

    name, g = _take(doc, args, "germ", "germ fuchs")
    return {"fuchsian": is_fuchsian(g)}, [name], None


def _cmd_germ_pullback(doc, args, flags):
    from .germs import pullback_germ

    cname, c = _take(doc, args, "connection", "germ pullback")
    mname, m = _take(doc, args, "germmap", "germ pullback")
    g = pullback_germ(c, m)
    return {"theta": _ser_germ(g)}, [cname, mname], None


def _cmd_germ_tensor(doc, args, flags):
    from .germs import germ_tensor

    n1, g1 = _take(doc, args, "germ", "germ tensor")
    n2, g2 = _take(doc, args, "germ", "germ tensor")
    return {"theta": _ser_germ(germ_tensor(g1, g2))}, [n1, n2], None


def _cmd_koszul(doc, args, flags):
    from .cohomology import KoszulInput, koszul_cohomology

    name, W = _take(doc, args, "localsystem", "cohomology koszul")
    dims = koszul_cohomology(KoszulInput(blocks=W.blocks,
                                         num_operators=W.num_generators))
    return {"dims": dims}, [name], None


def _cmd_derham(doc, args, flags):
    from .cohomology import torus_de_rham

    cname, c = _take(doc, args, "connection", "cohomology derham")
    sname, s = _take(doc, args, "splitting", "cohomology derham")
    return {"dims": torus_de_rham(c, s)}, [cname, sname], None


def _cmd_compare(doc, args, flags):
    from .cohomology import comparison_report

    cname, c = _take(doc, args, "connection", "cohomology compare")
    sname, s = _take(doc, args, "splitting", "cohomology compare")
    tau = _tau_from(doc, flags)
    rep = comparison_report(c, s, tau)
    return ({"deRham": list(rep.de_rham), "groupV0": list(rep.group_v0),
             "localSystem": list(rep.local_system), "adapted": rep.adapted,
             "deRham_equals_groupV0": rep.de_rham_equals_group,
             "groupV0_equals_localSystem": rep.group_equals_local_system},
            [cname, sname], None)


def _cmd_locsys_roundtrip(doc, args, flags):
    from .cohomology import local_system_round_trip

    name, W = _take(doc, args, "localsystem", "locsys roundtrip")
    tau = _tau_from(doc, flags)
    V, Wb = local_system_round_trip(W, tau)
    return ({"object": _ser_lobject(V),
             "identity": Wb == W.sorted_blocks()}, [name], None)


def _cmd_print(doc, args, flags):
    text = print_document(doc)
    return {"text": text}, [], text


# command -> (handler, the most names it takes, the flags it reads)
_DOT = ("--dot",)
_TAU = ("--tau-window",)
_COMMANDS = {
    "faces": (_cmd_faces, 1, _DOT),
    "strata": (_cmd_strata, 2, _DOT),
    "classify": (_cmd_classify, 2, ()),
    "radical": (_cmd_radical, 2, ()),
    "flat": (_cmd_flat, 1, ()),
    "higgs": (_cmd_higgs, 2, ()),
    "rh to-lobject": (_cmd_to_lobject, 1, ()),
    "rh from-lobject": (_cmd_from_lobject, 1, ()),
    "canext restrict": (_cmd_canext_restrict, 2, ()),
    "canext extend": (_cmd_canext_extend, 2, _TAU),
    "canext exponents": (_cmd_canext_exponents, 2, _TAU),
    "germ fuchs": (_cmd_germ_fuchs, 1, ()),
    "germ pullback": (_cmd_germ_pullback, 2, ()),
    "germ tensor": (_cmd_germ_tensor, 2, ()),
    "cohomology koszul": (_cmd_koszul, 1, ()),
    "cohomology derham": (_cmd_derham, 2, ()),
    "cohomology compare": (_cmd_compare, 2, _TAU),
    "locsys roundtrip": (_cmd_locsys_roundtrip, 1, _TAU),
    "print": (_cmd_print, 0, _DOT),
}


if __name__ == "__main__":
    sys.exit(main())
