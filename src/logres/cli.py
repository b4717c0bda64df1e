"""Command-line interface: parse a declaration document, dispatch to the
library, and emit a deterministic JSON (or DOT) report.

    logres <command> <document> [names...] [documents...] [flags]

`_COMMANDS` states once what each command takes: the inputs it reads,
in order, its help text and its handler.  The usage text, the two-word
command groups, the most names a command takes and the flags it reads
all follow from it.  After the document, an argument that is a
declaration name (an identifier, as the document lexer reads one) names
the next input; any other argument is a further document, read after the
first.  An input given no name is the document's first declaration of
its kind.

Exit codes: 0 success, 1 usage, 2 domain error (including missing files),
3 parse error.
"""

from __future__ import annotations

import json
import sys

from .errors import LogresError, ParseError
from .field import format_scalar
from .textio import (_fmt_mp_matrix, _fmt_ratfunc, _lex, parse_document,
                     parse_window_text, print_document)

# Each command handler imports the library functions it calls, so a
# command loads (and, without cached bytecode, compiles) only its modules.


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    flags = {}  # flag -> value, for the flags given
    args = []
    for a in argv:
        if a == "--dot":
            flags[a] = True
        elif a.startswith("--tau-window="):
            value = a.split("=", 1)[1]
            try:
                flags["--tau-window"] = parse_window_text(value)
            except (ParseError, ZeroDivisionError):
                return _usage_error("invalid --tau-window value %r: expected "
                                    "(a,b] with b = a+1" % value)
        elif a.startswith("--"):
            return _usage_error("unknown flag %s" % a)
        else:
            args.append(a)
    if not args:
        return _usage_error()
    command = args.pop(0)
    if command in _GROUPS:
        if not args:
            return _usage_error()
        command = command + " " + args.pop(0)
    if command not in _COMMANDS:
        return _usage_error("unknown command %r" % command)
    inputs, _, handler = _COMMANDS[command]
    reads = [flag for kind, (flag, _) in _FLAGS.items() if kind in inputs]
    unread = [f for f in flags if f not in reads]
    if unread:
        return _usage_error("flag %s does not apply to %s"
                            % (unread[0], command))
    if not args:
        return _usage_error()
    path = args.pop(0)
    # a name is an identifier; anything else is a further document,
    # concatenated after the first (e.g. a germ map referring to the model
    # of a connection in another file)
    names, paths = [], [path]
    for a in args:
        (names if _is_name(a) else paths).append(a)
    surplus = names[sum(kind in _LETTERS for kind in inputs):]
    if surplus:
        return _usage_error("too many names for %s: %s"
                            % (command, " ".join(surplus)))
    texts = []
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        except OSError as e:
            _emit_error(command, path, "FileNotFound: %s" % e)
            return 2
        except UnicodeDecodeError as e:
            _emit_error(command, path, "UnicodeDecodeError: %s: %s" % (p, e))
            return 2
    text = "\n".join(texts)
    try:
        doc = parse_document(text)
        names, objects = _resolve(doc, command, names, flags)
        result, dot = handler(*objects)
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


def _usage_error(message=None):
    if message:
        sys.stderr.write(message + "\n")
    sys.stderr.write(USAGE)
    return 1


def _emit_error(command, path, message):
    report = {"command": command, "inputs": [path], "result": None,
              "diagnostics": [message]}
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _is_name(arg):
    """Is arg one declaration name, as the document lexer reads it?"""
    try:
        toks = _lex(arg)
    except ParseError:
        return False
    return len(toks) == 2 and toks[0].kind == "NAME" and toks[0].text == arg


def _resolve(doc, command, names, flags):
    """(report names, objects) for the inputs of command, in order.

    A named input takes the next of names (checked to be of its kind),
    else the document's first declaration of its kind.  "ideal?" falls
    back to the empty ideal when the first declared ideal is not one of
    the preceding monoid; "tau" is --tau-window=, else the document's
    first tau, else the default window; "document" is the document.
    """
    names = list(names)
    taken, objects = [], []
    for kind in _COMMANDS[command][0]:
        if kind == "document":
            objects.append(doc)
        elif kind == "tau":
            from .canext import TauSection

            if "--tau-window" in flags:
                objects.append(TauSection(flags["--tau-window"]))
            else:
                tau = doc.first_of("tau")[1]
                objects.append(TauSection() if tau is None else tau)
        elif kind in _LETTERS:
            wanted = kind.rstrip("?")
            if names:
                name = names.pop(0)
                value = doc.get(name, wanted)
            else:
                name, value = doc.first_of(wanted)
                if kind == "ideal?" and (value is None
                                         or value.monoid != objects[-1]):
                    from .monoids import MonoidIdeal

                    name, value = "(empty)", MonoidIdeal(objects[-1], ())
                elif value is None:
                    raise KeyError("document declares no %s (%s)"
                                   % (kind, command))
            taken.append(name)
            objects.append(value)
    return taken, objects


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


# -- command handlers: the resolved inputs -> (result, DOT text or None) ------

def _cmd_faces(P):
    from .monoids import faces

    return ([{"indices": sorted(f.generator_indices),
              "span": [list(v) for v in f.span],
              "group_rank": f.group_rank()} for f in faces(P)],
            P.face_lattice_dot())


def _cmd_strata(P, K):
    from .monoids import covering_pairs
    from .strata import strata_decomposition

    sd = strata_decomposition(P, K)
    out = [{"face": sorted(s.face.generator_indices),
            "torus_rank": s.torus_rank,
            "log_rank": s.log_rank,
            "sharp_fiber_rank": s.sharp_fiber_rank,
            "induced_ideal": [list(k) for k in s.induced_ideal.generators]}
           for s in sd]
    lines = ["digraph strata {"]
    for i, s in enumerate(sd):
        lines.append('  s%d [label="F=%s (%d,%d)"];' % (
            i, sorted(s.face.generator_indices), s.torus_rank, s.log_rank))
    for i, j in covering_pairs([s.face.generator_indices for s in sd]):
        lines.append("  s%d -> s%d;" % (i, j))
    lines.append("}")
    return out, "\n".join(lines)


def _cmd_classify(P, K):
    from .monoids import classify_model

    mc = classify_model(P, K)
    return {"locally_constant": mc.locally_constant, "hollow": mc.hollow}, None


def _cmd_radical(P, K):
    from .monoids import radical

    return [list(g) for g in radical(P, K).generators], None


def _cmd_flat(c):
    from .connections import is_flat

    return {"flat": is_flat(c)}, None


def _cmd_higgs(c, s):
    from .rh import higgs_conditions, higgs_decompose

    c1, c2, c3, base, rhos = higgs_conditions(c, s)
    result = {"conditions": {"base_integrable": c1, "residues_commute": c2,
                             "residues_horizontal": c3},
              "succeeds": c1 and c2 and c3}
    if result["succeeds"]:
        hd = higgs_decompose(c, s)
        result["base"] = _ser_connection(hd.base)
        result["residues"] = [_fmt_mp_matrix(rho) for rho in hd.residues]
    return result, None


def _cmd_to_lobject(c):
    from .rh import to_lobject

    return _ser_lobject(to_lobject(c)), None


def _cmd_from_lobject(V):
    from .rh import from_lobject

    return _ser_connection(from_lobject(V)), None


def _cmd_canext_restrict(V, E):
    from .canext import restrict

    return _ser_lobject(restrict(E, V)), None


def _cmd_canext_extend(V, E, tau):
    from .canext import canonical_extension

    out, shifts = canonical_extension(E, V, tau)
    return ({"object": _ser_lobject(out),
             "shifts": [list(s) for s in shifts]}, None)


def _cmd_canext_exponents(V, E, tau):
    from .canext import exponents_report

    rep = exponents_report(E, V, tau)
    return ({"exponents": [[format_scalar(x) for x in e]
                           for e in rep.exponents],
             "adapted": rep.adapted}, None)


def _cmd_germ_fuchs(g):
    from .germs import is_fuchsian

    return {"fuchsian": is_fuchsian(g)}, None


def _cmd_germ_pullback(c, m):
    from .germs import pullback_germ

    return {"theta": _ser_germ(pullback_germ(c, m))}, None


def _cmd_germ_tensor(g1, g2):
    from .germs import germ_tensor

    return {"theta": _ser_germ(germ_tensor(g1, g2))}, None


def _cmd_koszul(W):
    from .cohomology import KoszulInput, koszul_cohomology

    return {"dims": koszul_cohomology(KoszulInput(
        blocks=W.blocks, num_operators=W.num_generators))}, None


def _cmd_derham(c, s):
    from .cohomology import torus_de_rham

    return {"dims": torus_de_rham(c, s)}, None


def _cmd_compare(c, s, tau):
    from .cohomology import comparison_report

    rep = comparison_report(c, s, tau)
    return ({"deRham": list(rep.de_rham), "groupV0": list(rep.group_v0),
             "localSystem": list(rep.local_system), "adapted": rep.adapted,
             "deRham_equals_groupV0": rep.de_rham_equals_group,
             "groupV0_equals_localSystem": rep.group_equals_local_system},
            None)


def _cmd_locsys_roundtrip(W, tau):
    from .cohomology import local_system_round_trip

    V, Wb = local_system_round_trip(W, tau)
    return {"object": _ser_lobject(V),
            "identity": Wb == W.sorted_blocks()}, None


def _cmd_print(doc):
    text = print_document(doc)
    return {"text": text}, text


# command -> (inputs, help, handler).  The inputs are document kinds, each
# given by name or else the first of its kind, plus "ideal?" (an ideal of
# the monoid before it, by default its first declared ideal or else the
# empty one), "tau" (read from --tau-window=), "document" (the document
# itself) and the mark "dot" (the command reads --dot).
_COMMANDS = {
    "faces": (("monoid", "dot"), "face lattice of a monoid", _cmd_faces),
    "strata": (("monoid", "ideal?", "dot"), "stratification descriptors",
               _cmd_strata),
    "classify": (("monoid", "ideal?"), "locally-constant / hollow flags",
                 _cmd_classify),
    "radical": (("monoid", "ideal?"), "radical of an ideal", _cmd_radical),
    "flat": (("connection",), "integrability of a connection", _cmd_flat),
    "higgs": (("connection", "splitting"),
              "Higgs decomposition under a splitting", _cmd_higgs),
    "rh to-lobject": (("connection",),
                      "graded module of a constant connection",
                      _cmd_to_lobject),
    "rh from-lobject": (("lobject",), "connection of a graded module",
                        _cmd_from_lobject),
    "canext restrict": (("lobject", "embedding"),
                        "restriction across the embedding",
                        _cmd_canext_restrict),
    "canext extend": (("lobject", "embedding", "tau"), "canonical extension",
                      _cmd_canext_extend),
    "canext exponents": (("lobject", "embedding", "tau"),
                         "exponents at infinity report",
                         _cmd_canext_exponents),
    "germ fuchs": (("germ",), "regular-singularity test", _cmd_germ_fuchs),
    "germ pullback": (("connection", "germmap"),
                      "pullback along a curve germ", _cmd_germ_pullback),
    "germ tensor": (("germ", "germ"), "tensor product of germs",
                    _cmd_germ_tensor),
    "cohomology koszul": (("localsystem",), "Koszul dims of a local system",
                          _cmd_koszul),
    "cohomology derham": (("connection", "splitting"),
                          "de Rham dims by characters", _cmd_derham),
    "cohomology compare": (("connection", "splitting", "tau"),
                           "three-sided comparison report", _cmd_compare),
    "locsys roundtrip": (("localsystem", "tau"), "local-system round trip",
                         _cmd_locsys_roundtrip),
    "print": (("document", "dot"), "canonical reprint of the document",
              _cmd_print),
}
# the placeholder of each input given by name
_LETTERS = {"monoid": "P", "ideal?": "K", "connection": "C",
            "splitting": "S", "lobject": "V", "embedding": "E", "germ": "G",
            "germmap": "M", "localsystem": "W"}
# the input that marks a flag -> (the flag, how the usage shows it)
_FLAGS = {"dot": ("--dot", "--dot"),
          "tau": ("--tau-window", '--tau-window="(a,b]" with b = a+1')}
_GROUPS = {command.split()[0] for command in _COMMANDS if " " in command}


def _usage():
    lines = ["usage: logres <command> <document> [names...] [flags]", "",
             "A name is an identifier; it picks the declaration of the next "
             "input,",
             "else the first of its kind is used.  Any other argument after "
             "<document>",
             "is a further document, read after it.", "", "commands:"]
    for command, (inputs, help_text, _) in _COMMANDS.items():
        letters = [_LETTERS[kind] for kind in inputs if kind in _LETTERS]
        shape = "".join(" [" + x for x in letters) + "]" * len(letters)
        lines.append("  %-35s %s" % (command + " DOC" + shape, help_text))
    lines += ["", "flags:"]
    for kind, (_, shown) in _FLAGS.items():
        lines += ["  " + shown, "      " + ", ".join(
            command for command, (inputs, _, _) in _COMMANDS.items()
            if kind in inputs)]
    return "\n".join(lines) + "\n"


USAGE = _usage()


if __name__ == "__main__":
    sys.exit(main())
