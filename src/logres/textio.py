"""Line-oriented declaration format: lexer, recursive-descent parser, and
the canonical printer used for byte-stable round trips.

One declaration per block; vectors are bracketed integer/rational lists,
scalars use a/b+c/d*i, monomials x^[p1,...,pm], germ entries are rational
expressions in t.  Errors carry 1-based line/column and the expected
tokens.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidDeclaration, ParseError
from .field import GaussRat, ZERO, ONE, I as IUNIT, format_scalar
from .linalg import Matrix

# The deepest parenthesis nesting an expression may have.  Each level costs
# four frames of the recursive descent, so this stays well inside Python's
# recursion limit.
MAX_NESTING = 100

# The domain classes are imported where a declaration (or an entry mode)
# builds them, so parsing loads only the modules of the kinds it meets.


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)@%d:%d" % (self.kind, self.text, self.line, self.col)


def _lex(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "−":  # unicode minus
            c = "-"
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            toks.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "[]{}(),;:=/^*+-.":
            toks.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    toks.append(_Token("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _lex(text)
        self.pos = 0
        self.nesting = 0  # open parentheses around the current expression

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind, what=None):
        t = self.peek()
        if t.kind != kind:
            raise ParseError("expected %s, found %r" % (what or kind, t.text),
                             t.line, t.col, expected=(kind,))
        return self.next()

    def keyword(self, word, what=None):
        """Consume the NAME token `word`; else a ParseError at the token
        found, "expected <what>" (default: the word quoted)."""
        t = self.expect("NAME", "'%s'" % word)
        if t.text != word:
            raise ParseError("expected %s" % (what or "'%s'" % word),
                             t.line, t.col, expected=(word,))

    def accept(self, kind):
        if self.peek().kind == kind:
            return self.next()
        return None

    def fail(self, message, expected=()):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected=expected)

    # -- numeric atoms ------------------------------------------------------

    def parse_int(self):
        neg = False
        while self.peek().kind == "-":
            self.next()
            neg = not neg
        t = self.expect("INT", "an integer")
        v = int(t.text)
        return -v if neg else v

    def parse_rational(self):
        num = self.parse_int()
        if self.peek().kind == "/" and self.peek(1).kind == "INT":
            self.next()
            den = int(self.expect("INT").text)
            return Fraction(num, den)
        return Fraction(num)

    def parse_int_vector(self):
        self.expect("[", "'['")
        out = []
        if self.peek().kind != "]":
            out.append(self.parse_int())
            while self.accept(","):
                out.append(self.parse_int())
        self.expect("]", "']'")
        return tuple(out)

    def parse_vector_list(self):
        self.expect("[", "'['")
        out = []
        if self.peek().kind != "]":
            out.append(self.parse_int_vector())
            while self.accept(","):
                out.append(self.parse_int_vector())
        self.expect("]", "']'")
        return out

    # -- expressions ---------------------------------------------------------
    # mode: "scalar" -> GaussRat; "ring" -> MonPoly (dim given);
    # "germ" -> RatFunc

    def parse_expr(self, mode, dim=None):
        val = self.parse_term(mode, dim)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term(mode, dim)
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self, mode, dim):
        val = self.parse_factor(mode, dim)
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.parse_factor(mode, dim)
            if op == "*":
                val = val * rhs
            else:
                val = self._divide(val, rhs, mode)
        return val

    def _divide(self, a, b, mode):
        if mode != "ring":
            return a / b
        # ring mode: division only by constants
        if not b.is_constant():
            self.fail("division by a non-constant in a ring entry")
        return a.scale(ONE / b.constant_value())

    def parse_factor(self, mode, dim):
        neg = False  # leading minus signs, read by parity
        while self.accept("-"):
            neg = not neg
        val = self.parse_atom(mode, dim)
        if self.peek().kind == "^" and self.peek(1).kind != "[":
            self.next()
            sign = -1 if self.accept("-") else 1
            e = sign * int(self.expect("INT", "an exponent").text)
            if mode != "ring":
                val = val ** e
            elif e < 0:
                self.fail("negative power in a ring entry")
            else:
                from .connections import MonPoly

                out = MonPoly.constant(1, dim)
                for _ in range(e):
                    out = out * val
                val = out
        return -val if neg else val

    def parse_atom(self, mode, dim):
        if mode == "germ":
            from .germs import POLY_T, RatFunc, poly_const
        elif mode == "ring":
            from .connections import MonPoly
        t = self.peek()
        if t.kind == "INT":
            self.next()
            v = Fraction(int(t.text))
            if mode == "germ":
                return RatFunc(poly_const(v))
            if mode == "scalar":
                return GaussRat(v)
            return MonPoly.constant(v, dim)
        if t.kind == "NAME" and t.text == "i":
            self.next()
            if mode == "germ":
                return RatFunc((IUNIT,))
            if mode == "scalar":
                return IUNIT
            return MonPoly.constant(IUNIT, dim)
        if t.kind == "NAME" and t.text == "t" and mode == "germ":
            self.next()
            return RatFunc(POLY_T)
        if t.kind == "NAME" and t.text == "x" and mode == "ring":
            self.next()
            self.expect("^", "'^' after x")
            exp = self.parse_int_vector()
            if len(exp) != dim:
                self.fail("monomial exponent has wrong length")
            return MonPoly.monomial(exp)
        if t.kind == "(":
            if self.nesting == MAX_NESTING:
                self.fail("parentheses nested deeper than %d" % MAX_NESTING)
            self.next()
            self.nesting += 1
            v = self.parse_expr(mode, dim)
            self.nesting -= 1
            self.expect(")", "')'")
            return v
        self.fail("expected a number, i%s%s, or '('" % (
            ", t" if mode == "germ" else "",
            ", x^[..]" if mode == "ring" else ""),
            expected=("INT", "NAME", "("))

    def parse_scalar(self):
        return self.parse_expr("scalar")

    def parse_scalar_vector(self):
        self.expect("[", "'['")
        out = []
        if self.peek().kind != "]":
            out.append(self.parse_scalar())
            while self.accept(","):
                out.append(self.parse_scalar())
        self.expect("]", "']'")
        return tuple(out)

    def parse_scalar_matrix(self):
        self.expect("[", "'['")
        rows = []
        if self.peek().kind != "]":
            rows.append(self.parse_scalar_vector())
            while self.accept(","):
                rows.append(self.parse_scalar_vector())
        self.expect("]", "']'")
        return Matrix(rows)

    def parse_entry_matrix(self, mode, dim):
        self.expect("[", "'['")
        rows = []
        while True:
            self.expect("[", "'['")
            row = []
            if self.peek().kind != "]":
                row.append(self.parse_expr(mode, dim))
                while self.accept(","):
                    row.append(self.parse_expr(mode, dim))
            self.expect("]", "']'")
            rows.append(row)
            if not self.accept(","):
                break
        self.expect("]", "']'")
        return rows


class Document:
    """Named entities in declaration order."""

    def __init__(self):
        self.order = []       # (kind, name)
        self.entities = {}    # name -> (kind, value)
        self.sources = {}     # name -> canonical declaration text
        self.derived = set()  # names materialized by another declaration

    def add(self, kind, name, value, source, token=None, derived=False):
        if name in self.entities:
            raise ParseError("duplicate name %r" % name,
                             token.line if token else 1,
                             token.col if token else 1)
        self.order.append((kind, name))
        self.entities[name] = (kind, value)
        self.sources[name] = source
        if derived:
            self.derived.add(name)

    def get(self, name, kind=None):
        if name not in self.entities:
            raise KeyError("unknown entity %r" % name)
        k, v = self.entities[name]
        if kind is not None and k != kind:
            raise KeyError("entity %r is a %s, wanted %s" % (name, k, kind))
        return v

    def first_of(self, kind):
        for k, name in self.order:
            if k == kind:
                return name, self.entities[name][1]
        return None, None

    def __eq__(self, other):
        return (isinstance(other, Document) and self.order == other.order
                and self.entities == other.entities)


def parse_document(text) -> Document:
    p = _Parser(text)
    doc = Document()
    while p.peek().kind != "EOF":
        t = p.peek()
        if t.kind != "NAME":
            p.fail("expected a declaration keyword", expected=("NAME",))
        kw = t.text
        handler = _DECLS.get(kw)
        if handler is None:
            raise ParseError("unknown declaration %r" % kw, t.line, t.col,
                             expected=tuple(sorted(_DECLS)))
        name = p.peek(1).text
        try:
            handler(p, doc)
        except (ValueError, IndexError, ZeroDivisionError) as e:
            # a constructor rejected the declaration's value
            raise InvalidDeclaration("%s %s" % (kw, name), t.line,
                                     str(e)) from e
    return doc


def _model_ref(p, doc):
    """(P, K) or P / K or bare P reference; returns (monoid, ideal, names)."""
    if p.accept("("):
        mname = p.expect("NAME", "a monoid name").text
        p.expect(",", "','")
        kname = p.expect("NAME", "an ideal name").text
        p.expect(")", "')'")
    else:
        mname = p.expect("NAME", "a monoid name").text
        p.expect("/", "'/'")
        kname = p.expect("NAME", "an ideal name").text
    try:
        monoid = doc.get(mname, "monoid")
        ideal = doc.get(kname, "ideal")
    except KeyError as e:
        p.fail(str(e))
    if ideal.monoid != monoid:
        p.fail("ideal %s does not live in monoid %s" % (kname, mname))
    return monoid, ideal, (mname, kname)


def _decl_monoid(p, doc):
    from .monoids import AffineMonoid

    t = p.next()  # 'monoid'
    name = p.expect("NAME", "a name").text
    p.expect("=", "'='")
    gens = p.parse_vector_list()
    value = AffineMonoid(gens)
    src = "monoid %s = %s" % (name, _fmt_veclist(gens))
    doc.add("monoid", name, value, src, t)


def _decl_ideal(p, doc):
    from .monoids import MonoidIdeal

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.keyword("in")
    mname = p.expect("NAME", "a monoid name").text
    p.expect("=", "'='")
    gens = p.parse_vector_list()
    try:
        monoid = doc.get(mname, "monoid")
    except KeyError as e:
        p.fail(str(e))
    try:
        value = MonoidIdeal(monoid, gens)
    except ValueError as e:
        raise InvalidDeclaration("ideal %s in %s" % (name, mname), t.line,
                                 str(e)) from e
    src = "ideal %s in %s = %s" % (name, mname, _fmt_veclist(gens))
    doc.add("ideal", name, value, src, t)


def _decl_tau(p, doc):
    from .canext import TauSection

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.expect("=", "'='")
    p.keyword("window")
    p.expect("(", "'('")
    lo = p.parse_rational()
    p.expect(",", "','")
    hi = p.parse_rational()
    p.expect("]", "']'")
    if hi - lo != 1:
        p.fail("window must have unit length")
    value = TauSection(lo)
    src = "tau %s = window(%s,%s]" % (name, lo, hi)
    doc.add("tau", name, value, src, t)


def _decl_splitting(p, doc):
    from .strata import HollowStructure, Splitting

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.keyword("on")
    monoid, ideal, (mn, kn) = _model_ref(p, doc)
    p.expect("{", "'{'")
    monomial = None
    units = None
    while not p.accept("}"):
        key = p.expect("NAME", "'monomial' or 'units'").text
        p.expect("=", "'='")
        if key == "monomial":
            monomial = p.parse_vector_list()
        elif key == "units":
            units = p.parse_scalar_vector()
        else:
            p.fail("unknown splitting field %r" % key)
        p.accept(";")
    hs = HollowStructure(monoid, ideal)
    if monomial is None:
        monomial = [[0] * hs.torus_rank for _ in range(hs.sharp_rank)]
    value = Splitting(hs, monomial, units)
    src = "splitting %s on (%s, %s) { monomial = %s; units = %s }" % (
        name, mn, kn, _fmt_veclist(monomial),
        _fmt_scalar_vec(value.unit_part))
    doc.add("splitting", name, value, src, t)


def _decl_connection(p, doc):
    from .connections import LogConnection, LogDifferentials

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.keyword("on")
    monoid, ideal, (mn, kn) = _model_ref(p, doc)
    dim = monoid.ambient_rank
    mats = {}
    p.expect("{", "'{'")
    while not p.accept("}"):
        key = p.expect("NAME", "U<k>")
        if not key.text.startswith("U") or not key.text[1:].isdigit():
            raise ParseError("expected U1..U%d" % dim, key.line, key.col)
        k = int(key.text[1:])
        if not 1 <= k <= dim:
            raise ParseError("direction %d out of range" % k,
                             key.line, key.col)
        p.expect("=", "'='")
        mats[k - 1] = p.parse_entry_matrix("ring", dim)
        p.accept(";")
    if len(mats) != dim:
        p.fail("connection needs all %d direction matrices" % dim)
    rank = len(mats[0])
    diff = LogDifferentials(monoid, ideal)
    value = LogConnection(diff, [mats[k] for k in range(dim)], rank=rank)
    src = "connection %s on (%s, %s) { %s }" % (
        name, mn, kn,
        "; ".join("U%d = %s" % (k + 1, _fmt_mp_matrix(value.omega[k]))
                  for k in range(dim)))
    doc.add("connection", name, value, src, t)


def _decl_lobject(p, doc):
    t = p.next()
    name = p.expect("NAME", "a name").text
    p.keyword("over")
    monoid, ideal, (mn, kn) = _model_ref(p, doc)
    dim = monoid.ambient_rank
    p.expect("{", "'{'")
    gens = []           # (name, degree)
    gamma_blocks = {}   # (k, class_rep_name or None) -> (label, Matrix)
    couplings = []      # (k, src_name, dst_name, coeff)
    while not p.accept("}"):
        key = p.expect("NAME", "'gen', 'gamma<k>', or 'couple'")
        if key.text == "gen":
            gname = p.expect("NAME", "a generator name").text
            p.expect(":", "':'")
            p.keyword("deg")
            p.expect("=", "'='")
            deg = p.parse_scalar_vector()
            if len(deg) != dim:
                p.fail("degree vector has wrong length")
            gens.append((gname, deg))
        elif key.text == "couple":
            gk = p.expect("NAME", "gamma<k>")
            k = _gamma_index(gk, dim)
            src_name = p.expect("NAME", "a generator name").text
            p.expect("->", "'->'")
            dst = p.expect("NAME", "a generator name").text
            p.expect(":", "':'")
            coeff = p.parse_scalar()
            couplings.append((k, src_name, dst, coeff))
        elif key.text.startswith("gamma"):
            k = _gamma_index(key, dim)
            rep = None
            if p.accept("("):
                rep = p.expect("NAME", "a generator name").text
                p.expect(")", "')'")
            p.expect(":", "':'")
            p.keyword("label")
            p.expect("=", "'='")
            label = p.parse_scalar()
            p.keyword("nilpotent")
            p.expect("=", "'='")
            nil = p.parse_scalar_matrix()
            gamma_blocks[(k, rep)] = (label, nil)
        else:
            p.fail("unknown lobject field %r" % key.text)
        p.accept(";")
    if not gens:
        p.fail("lobject needs at least one generator")
    value = _assemble_lobject(p, monoid, ideal, gens, gamma_blocks, couplings)
    src = _print_lobject(name, mn, kn, gens, value)
    doc.add("lobject", name, value, src, t)


def _gamma_index(tok, dim):
    text = tok.text
    if not text.startswith("gamma") or not text[5:].isdigit():
        raise ParseError("expected gamma1..gamma%d" % dim, tok.line, tok.col)
    k = int(text[5:])
    if not 1 <= k <= dim:
        raise ParseError("gamma index out of range", tok.line, tok.col)
    return k - 1


def _assemble_lobject(p, monoid, ideal, gens, gamma_blocks, couplings):
    from .lobjects import LObject

    dim = monoid.ambient_rank
    names = [g for g, _ in gens]
    degrees = [d for _, d in gens]
    n = len(gens)
    # classes by equal degree, in declaration order
    classes = {}
    for idx, (_, d) in enumerate(gens):
        classes.setdefault(d, []).append(idx)
    mats = [[[ZERO] * n for _ in range(n)] for _ in range(dim)]
    for (k, rep), (label, nil) in gamma_blocks.items():
        if rep is None:
            if len(classes) != 1:
                p.fail("gamma%d needs a class representative: several "
                       "degree classes present" % (k + 1))
            idx = next(iter(classes.values()))
        else:
            if rep not in names:
                p.fail("unknown generator %r" % rep)
            idx = classes[degrees[names.index(rep)]]
        if label != degrees[idx[0]][k]:
            p.fail("gamma%d label must equal the class degree coordinate"
                   % (k + 1))
        if nil.rows != len(idx) or nil.cols != len(idx):
            p.fail("nilpotent block size does not match the class")
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                mats[k][ia][ib] = nil.entries[a][b]
    for k, src_name, dst, coeff in couplings:
        if src_name not in names or dst not in names:
            p.fail("unknown generator in coupling")
        j = names.index(src_name)
        i = names.index(dst)
        mats[k][i][j] = coeff
    return LObject(monoid, ideal, degrees, [Matrix(m) for m in mats])


def _decl_germ(p, doc):
    from .germs import DiffModuleGerm

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.expect("=", "'='")
    rows = p.parse_entry_matrix("germ", None)
    value = DiffModuleGerm(rows)
    src = "germ %s = %s" % (name, _fmt_rf_matrix(value.theta_matrix))
    doc.add("germ", name, value, src, t)


def _decl_germmap(p, doc):
    from .germs import GermMap

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.keyword("on")
    monoid, ideal, (mn, kn) = _model_ref(p, doc)
    p.expect("{", "'{'")
    face_idx = None
    coords = []
    units = []
    while not p.accept("}"):
        key = p.expect("NAME", "'face', 'coords', or 'units'").text
        p.expect("=", "'='")
        if key == "face":
            face_idx = p.parse_int_vector()
        elif key == "coords":
            coords = _parse_germ_vector(p)
        elif key == "units":
            units = _parse_germ_vector(p)
        else:
            p.fail("unknown germmap field %r" % key)
        p.accept(";")
    if face_idx is None:
        p.fail("germmap needs a face")
    face = _find_face(p, monoid, face_idx)
    value = GermMap(monoid, face, coords, units)
    src = "germmap %s on (%s, %s) { face = %s; coords = %s; units = %s }" % (
        name, mn, kn, _fmt_ints(face_idx),
        _fmt_rf_vec(value.coordinate_values), _fmt_rf_vec(value.splitting_units))
    doc.add("germmap", name, value, src, t)


def _parse_germ_vector(p):
    p.expect("[", "'['")
    out = []
    if p.peek().kind != "]":
        out.append(p.parse_expr("germ"))
        while p.accept(","):
            out.append(p.parse_expr("germ"))
    p.expect("]", "']'")
    return out


def _find_face(p, monoid, indices):
    target = frozenset(indices)
    for f in monoid.faces():
        if f.generator_indices == target:
            return f
    p.fail("generator indices %s do not span a face" % sorted(target))


def _decl_embedding(p, doc):
    from .canext import GoodEmbeddingModel

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.expect("=", "'='")
    monoid, ideal, (mn, kn) = _model_ref(p, doc)
    p.keyword("x", "'x <rank>'")
    r = p.parse_int()
    value = GoodEmbeddingModel(monoid, ideal, r)
    src = "embedding %s = (%s, %s) x %d" % (name, mn, kn, r)
    doc.add("embedding", name, value, src, t)
    # register the derived monoids and ideals for lobject declarations;
    # they reprint through the embedding declaration itself
    for suffix, mono, ide in (("Q", value.monoid_q, value.ideal_q),
                              ("Qp", value.monoid_qp, value.ideal_qp)):
        doc.add("monoid", "%s_%s" % (name, suffix), mono,
                "monoid %s_%s = %s" % (name, suffix,
                                       _fmt_veclist(mono.generators)),
                derived=True)
        doc.add("ideal", "%s_K%s" % (name, suffix), ide,
                "ideal %s_K%s in %s_%s = %s" % (
                    name, suffix, name, suffix,
                    _fmt_veclist(ide.generators)),
                derived=True)


def _decl_localsystem(p, doc):
    from .cohomology import LocalSystem

    t = p.next()
    name = p.expect("NAME", "a name").text
    p.keyword("r", "'r = <rank>'")
    p.expect("=", "'='")
    r = p.parse_int()
    p.expect("{", "'{'")
    blocks = []
    while not p.accept("}"):
        p.keyword("block")
        p.expect(":", "':'")
        p.keyword("labels")
        p.expect("=", "'='")
        labels = p.parse_scalar_vector()
        if len(labels) != r:
            p.fail("need %d labels" % r)
        nils = []
        for k in range(r):
            p.keyword("nilpotent%d" % (k + 1))
            p.expect("=", "'='")
            nils.append(p.parse_scalar_matrix())
        blocks.append((labels, nils))
        p.accept(";")
    value = LocalSystem(r, blocks)
    src = _print_localsystem(name, value)
    doc.add("localsystem", name, value, src, t)


_DECLS = {
    "monoid": _decl_monoid,
    "ideal": _decl_ideal,
    "tau": _decl_tau,
    "splitting": _decl_splitting,
    "connection": _decl_connection,
    "lobject": _decl_lobject,
    "germ": _decl_germ,
    "germmap": _decl_germmap,
    "embedding": _decl_embedding,
    "localsystem": _decl_localsystem,
}


# -- canonical printing -------------------------------------------------------

def _fmt_ints(v):
    return "[%s]" % ",".join(str(x) for x in v)


def _fmt_veclist(vs):
    return "[%s]" % ",".join(_fmt_ints(v) for v in vs)


def _fmt_scalar_vec(v):
    return "[%s]" % ",".join(format_scalar(x) for x in v)


def _fmt_scalar_matrix(m):
    return "[%s]" % ",".join(_fmt_scalar_vec(row) for row in m.entries)


def _fmt_monpoly(mp):
    if mp.is_zero():
        return "0"
    parts = []
    for e, c in mp.terms:
        if not any(e):
            parts.append(format_scalar(c))
        elif c == ONE:
            parts.append("x^%s" % _fmt_ints(e))
        else:
            parts.append("(%s)*x^%s" % (format_scalar(c), _fmt_ints(e)))
    return "+".join(parts).replace("+-", "-")


def _fmt_mp_matrix(mat):
    return "[%s]" % ",".join(
        "[%s]" % ",".join(_fmt_monpoly(x) for x in row) for row in mat)


def _fmt_poly(pcoeffs):
    if not pcoeffs:
        return "0"
    parts = []
    for i, c in enumerate(pcoeffs):
        if c.is_zero():
            continue
        if i == 0:
            parts.append(format_scalar(c))
        else:
            tp = "t" if i == 1 else "t^%d" % i
            if c == ONE:
                parts.append(tp)
            else:
                parts.append("(%s)*%s" % (format_scalar(c), tp))
    return "+".join(parts).replace("+-", "-")


def _fmt_ratfunc(f):
    if f.den == (ONE,):
        return _fmt_poly(f.num)
    return "(%s)/(%s)" % (_fmt_poly(f.num), _fmt_poly(f.den))


def _fmt_rf_vec(v):
    return "[%s]" % ",".join(_fmt_ratfunc(x) for x in v)


def _fmt_rf_matrix(m):
    return "[%s]" % ",".join(_fmt_rf_vec(row) for row in m)


def _print_lobject(name, mn, kn, gens, V):
    parts = []
    for gname, deg in gens:
        parts.append("gen %s: deg=%s" % (gname, _fmt_scalar_vec(deg)))
    names = [g for g, _ in gens]
    seen_classes = []
    for c, idx in enumerate(V.classes):
        rep = names[idx[0]]
        seen_classes.append((c, idx, rep))
    for k in range(V.directions):
        for c, idx, rep in seen_classes:
            nil = V.log_matrices[k].submatrix(idx, idx)
            label = V.class_degree(c)[k]
            tag = "gamma%d(%s)" % (k + 1, rep) if len(seen_classes) > 1 \
                else "gamma%d" % (k + 1)
            parts.append("%s: label=%s nilpotent=%s" % (
                tag, format_scalar(label), _fmt_scalar_matrix(nil)))
    for k, i, j, coeff, _ in V.off_diagonal_entries():
        parts.append("couple gamma%d %s -> %s: %s" % (
            k + 1, names[j], names[i], format_scalar(coeff)))
    return "lobject %s over (%s, %s) { %s }" % (name, mn, kn,
                                                "; ".join(parts))


def _print_localsystem(name, W):
    parts = []
    for labels, nils in W.blocks:
        seg = "block: labels=%s" % _fmt_scalar_vec(labels)
        for k, nmat in enumerate(nils):
            seg += " nilpotent%d=%s" % (k + 1, _fmt_scalar_matrix(nmat))
        parts.append(seg)
    return "localsystem %s r=%d { %s }" % (name, W.num_generators,
                                           "; ".join(parts))


def print_document(doc: Document) -> str:
    return "\n".join(doc.sources[name] for _, name in doc.order
                     if name not in doc.derived) + "\n"


def lobject_to_json(V) -> dict:
    """JSON-ready dict for a graded module; inverse of lobject_from_json."""
    return {
        "monoid": [list(g) for g in V.monoid.generators],
        "ambient_rank": V.monoid.ambient_rank,
        "ideal": [list(k) for k in V.ideal.generators],
        "degrees": [[format_scalar(x) for x in d] for d in V.degrees],
        "log_matrices": [[[format_scalar(x) for x in row]
                          for row in m.entries] for m in V.log_matrices],
    }


def lobject_from_json(data) -> LObject:
    from .lobjects import LObject
    from .monoids import AffineMonoid, MonoidIdeal

    monoid = AffineMonoid(data["monoid"], ambient_rank=data["ambient_rank"])
    ideal = MonoidIdeal(monoid, data["ideal"], validate=False)
    degrees = [[parse_scalar_text(x) for x in d] for d in data["degrees"]]
    mats = [Matrix([[parse_scalar_text(x) for x in row] for row in m])
            for m in data["log_matrices"]]
    return LObject(monoid, ideal, degrees, mats)


def parse_scalar_text(text) -> GaussRat:
    p = _Parser(text)
    v = p.parse_scalar()
    p.expect("EOF", "end of input")
    return v
