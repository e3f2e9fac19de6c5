"""Parsers for the CLI surface: field descriptors, elements, polynomials,
graded-ring elements and bivariate rational expressions.

One tokenizer and expression grammar builds a syntax tree, and one fold
evaluates it; each evaluator supplies only its leaves, its table of
operations and its rule for ^.  The grammar is the usual one: + - * /
with parentheses, and ^ taking an integer or a parenthesized rational
exponent of absolute value at most MAX_EXPONENT; a power of a polynomial
in x, or of a bivariate expression in T and S, has degree at most
MAX_EXPONENT.  A malformed rational literal, in an exponent or in a
--choice value, is a ParseError naming it.

Sums, products and runs of signs of any length are parsed and folded by
loops; only parentheses recurse, and they nest at most MAX_NESTING deep.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partial
from typing import List, Optional

from . import fpoly, graded
from .errors import ParseError
from .fields import FpctField, FpPerfField, FqtField, QpField, ValuedField
from .poly import Poly
from .values import Q, Value, is_inf, value_from_str

# the largest |e| accepted in x^e, t^e, T^e, S^e or n^e, and the largest
# degree of a power of a polynomial in x or in T and S: x^e and t^e build
# objects of size e and a power of a dense polynomial costs about e^2
# products, so a larger exponent or degree is refused before any arithmetic
MAX_EXPONENT = 1000

# the deepest nesting of parentheses accepted: the parser and the fold
# descend a few frames per level, so deeper input is refused before it
# can exhaust the interpreter's stack
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")


def tokenize(s: str) -> List[str]:
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ParseError(f"unexpected character {s[pos]!r} at position {pos}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: List[str]):
        self.toks = tokens
        self.i = 0
        self.depth = 0  # open parentheses

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, found {got!r}")

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self):
        # leading signs bind looser than ^: -x^2 is -(x^2)
        negs = 0
        while self.peek() in ("-", "+"):
            negs += self.next() == "-"
        node = self.parse_atom()
        if self.peek() == "^":
            self.next()
            exp = self.parse_exponent()
            node = ("pow", node, exp)
        for _ in range(negs):
            node = ("neg", node)
        return node

    def parse_atom(self):
        tok = self.next()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.isdigit():
            try:
                return ("int", int(tok))
            except ValueError:  # beyond the interpreter's digit limit
                raise ParseError(f"integer literal of {len(tok)} digits is too long") from None
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            return ("name", tok)
        raise ParseError(f"unexpected token {tok!r}")

    def parse_exponent(self) -> Fraction:
        neg = False
        if self.peek() == "-":
            self.next()
            neg = True
        tok = self.next()
        if tok == "(":
            text = ""
            if self.peek() == "-":
                self.next()
                text = "-"
            num = self.next()
            if not num.isdigit():
                raise ParseError(f"expected integer exponent, found {num!r}")
            text += num
            if self.peek() == "/":
                self.next()
                den = self.next()
                if not den.isdigit():
                    raise ParseError(f"expected integer denominator, found {den!r}")
                text += "/" + den
            self.expect(")")
        elif tok.isdigit():
            text = tok
        else:
            raise ParseError(f"expected exponent, found {tok!r}")
        e = parse_value(text, finite=True)
        if abs(e) > MAX_EXPONENT:
            raise ParseError(f"exponent {text} exceeds {MAX_EXPONENT} in absolute value")
        return -e if neg else e


def parse_value(text: str, finite: bool = False) -> Value:
    """A value literal: a rational such as "3/4" or "-2", or "inf" unless
    ``finite``.  Anything else, a zero denominator included, is a
    ParseError that names the literal."""
    try:
        v = value_from_str(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}") from None
    if finite and is_inf(v):
        raise ParseError(f"{text!r} is not a finite rational")
    return v


def parse_expression(s: str):
    p = _Parser(tokenize(s))
    node = p.parse_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing token {p.peek()!r}")
    return node


def _fold(node, atom, ops, power, where=""):
    """Evaluate a syntax tree bottom-up.

    ``atom`` takes the "int" and "name" leaves, ``ops`` maps neg/add/sub/
    mul/div to functions of the evaluated children (left to right), and
    ``power(base_node, exp)`` gets the unevaluated base, since a rule may
    depend on its syntax.  A kind missing from ``ops`` is a ParseError.

    The first children are followed by a loop, so a long sum, product or
    run of signs (a deep left spine) costs no recursion; the later
    children are folded recursively on the way back up, left to right.
    """
    spine = []
    while node[0] not in ("int", "name", "pow"):
        op = ops.get(node[0])
        if op is None:
            raise ParseError(f"bad node {node[0]!r}{where}")
        spine.append((op, node[2:]))
        node = node[1]
    acc = power(node[1], node[2]) if node[0] == "pow" else atom(node)
    for op, rest in reversed(spine):
        acc = op(acc, *[_fold(child, atom, ops, power, where) for child in rest])
    return acc


# ---------------------------------------------------------------------------
# Field descriptors
# ---------------------------------------------------------------------------

_DESC_RE = re.compile(r"([A-Za-z]+)\(([^)]*)\)")
_FIELD_KINDS = {cls.name: cls for cls in (QpField, FqtField, FpPerfField, FpctField)}


def parse_field(s: str) -> ValuedField:
    """Qp(2) | Fq(9,t) | FpPerf(3,t) | FpC(2,c,t)."""
    m = _DESC_RE.fullmatch(s.strip())
    if not m:
        raise ParseError(f"bad field descriptor {s!r}")
    name, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
    cls = _FIELD_KINDS.get(name)
    if cls is None:
        raise ParseError(f"unknown field kind {name!r}")
    if args[1:] != cls.args.split(",")[1:]:
        raise ParseError(f"bad field descriptor {s!r}: expected {name}({cls.args})")
    try:
        return cls(int(args[0]))
    except ValueError as exc:
        raise ParseError(f"bad field descriptor {s!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Elements and polynomials
# ---------------------------------------------------------------------------


def _elem_pow(K: ValuedField, val, exp: Fraction):
    if exp.denominator == 1:
        return K.pow(val, exp.numerator)
    v = K.valuate(val)
    if is_inf(v) or not K.eq(val, K.canonical_unit(v)):
        raise ParseError("fractional exponents apply to powers of t only")
    return K.canonical_unit(v * exp)


def _elem_atom(K: ValuedField, leaf):
    kind, v = leaf
    if kind == "int":
        return K.from_int(v)
    if v == "t" and hasattr(K, "t"):
        return K.t()
    if v == "c" and K.kind == "Fpct":
        return K.c()
    raise ParseError(f"unknown symbol {v!r} in {K.descriptor_str()}")


def eval_element(node, K: ValuedField):
    atom = partial(_elem_atom, K)
    ops = {"neg": K.neg, "add": K.add, "sub": K.sub, "mul": K.mul, "div": K.div}

    def power(base, exp):
        return _elem_pow(K, _fold(base, atom, ops, power), exp)

    return _fold(node, atom, ops, power)


def parse_element(s: str, K: ValuedField):
    return eval_element(parse_expression(s), K)


def eval_poly(node, K: ValuedField) -> Poly:
    def atom(leaf):
        if leaf == ("name", "x"):
            return Poly.x(K)
        return Poly.const(K, _elem_atom(K, leaf))

    def div(num, den):
        if den.degree != 0:
            raise ParseError("cannot divide by a polynomial in x")
        return num.scale(K.inv(den[0]))

    ops = {"neg": operator.neg, "add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": div}

    def power(base_node, exp):
        base = _fold(base_node, atom, ops, power)
        if base.degree == 0:
            return Poly.const(K, _elem_pow(K, base[0], exp))
        if exp.denominator != 1 or exp < 0:
            raise ParseError("polynomial exponents must be nonnegative integers")
        if base.degree * exp.numerator > MAX_EXPONENT:
            raise ParseError(f"degree {base.degree * exp.numerator} of a power "
                             f"exceeds {MAX_EXPONENT}")
        return base ** exp.numerator

    return _fold(node, atom, ops, power)


def parse_poly(s: str, K: ValuedField) -> Poly:
    return eval_poly(parse_expression(s), K)


# ---------------------------------------------------------------------------
# Graded-ring elements: capital T marks the graded variable
# ---------------------------------------------------------------------------


def eval_graded(node, K: ValuedField) -> graded.SemigroupRingElement:
    R = K.residue_field
    where = " in a graded element"

    def mono(exp, c):
        return graded.element(K, [(exp, c)])

    def atom(leaf):
        kind, v = leaf
        if kind == "int":
            return mono(Q(0), R.from_int(v))
        if v == "T":
            return mono(Q(1), R.one())
        raise ParseError(f"unknown symbol {v!r}{where}")

    def neg(x):
        return graded.element(K, [(e, R.neg(c)) for e, c in x.terms])

    mul = partial(graded.twisted_mul, K)
    ops = {"neg": neg, "add": lambda x, y: graded.add(K, x, y),
           "sub": lambda x, y: graded.add(K, x, neg(y)), "mul": mul}

    def power(base_node, exp):
        # T^e is the unit monomial of exponent e; any other base is a
        # twisted power by square-and-multiply (twisted_mul is associative:
        # the twist is the coboundary of the choice function)
        if base_node == ("name", "T"):
            if exp < 0:
                raise ParseError("graded exponents must be nonnegative")
            return mono(exp, R.one())
        if exp.denominator != 1 or exp < 0:
            raise ParseError("only T may carry fractional exponents")
        base = _fold(base_node, atom, ops, power, where)
        if exp == 0:
            return mono(Q(0), R.one())
        return fpoly.square_and_multiply(mul, base, exp.numerator)

    return _fold(node, atom, ops, power, where)


def parse_graded(s: str, K: ValuedField) -> graded.SemigroupRingElement:
    return eval_graded(parse_expression(s), K)


def parse_choice_overrides(s: str, K: ValuedField) -> dict:
    """Override table syntax: "1=3,2=18" (gamma=element)."""
    out = {}
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad override {part!r}")
        gamma_s, elem_s = part.split("=", 1)
        gamma = parse_value(gamma_s, finite=True)
        if gamma in out:
            raise ParseError(f"override at {gamma_s.strip()!r} given twice")
        out[gamma] = parse_element(elem_s, K)
    return out


# ---------------------------------------------------------------------------
# Bivariate rational expressions in T, S with c_i symbols
# ---------------------------------------------------------------------------


def eval_bivariate(node, F, cs):
    """Evaluate to (num, den), polynomials in S over F[T]: fpoly tuples over
    fpoly.PolyRing(F), with c_i bound to cs[i]."""
    R = fpoly.PolyRing(F)
    one = fpoly.const(R, R.one())

    def const(c):
        return fpoly.const(R, fpoly.const(F, c))

    def atom(leaf):
        kind, v = leaf
        if kind == "int":
            return const(F.from_int(v)), one
        if v == "T":
            return (fpoly.x(F),), one
        if v == "S":
            return fpoly.x(R), one
        m = re.fullmatch(r"c(\d+)", v)
        if m:
            idx = int(m.group(1))
            if not 1 <= idx < len(cs):
                raise ParseError(f"coefficient {v} is not one of c1..c{len(cs) - 1} "
                                 f"(l_max = {len(cs) - 1})")
            return const(cs[idx]), one
        raise ParseError(f"unknown symbol {v!r} in a bivariate expression")

    mul = partial(fpoly.mul, R)

    def neg(a):
        return fpoly.neg(R, a[0]), a[1]

    def add(a, b):
        return fpoly.add(R, mul(a[0], b[1]), mul(b[0], a[1])), mul(a[1], b[1])

    def div(a, b):
        if not b[0]:
            raise ParseError("division by the zero expression")
        return mul(a[0], b[1]), mul(a[1], b[0])

    ops = {"neg": neg, "add": add, "sub": lambda a, b: add(a, neg(b)),
           "mul": lambda a, b: (mul(a[0], b[0]), mul(a[1], b[1])), "div": div}

    def power(base_node, exp):
        num, den = _fold(base_node, atom, ops, power)
        if exp.denominator != 1:
            raise ParseError("bivariate exponents must be integers")
        e = exp.numerator
        if e < 0:
            if not num:
                raise ParseError("division by the zero expression")
            num, den, e = den, num, -e
        d = max(_total_degree(num), _total_degree(den))
        if d * e > MAX_EXPONENT:
            raise ParseError(f"degree {d * e} of a power exceeds {MAX_EXPONENT}")
        return fpoly.pow_(R, num, e), fpoly.pow_(R, den, e)

    return _fold(node, atom, ops, power)


def _total_degree(f) -> int:
    """Total degree in S and T of a polynomial in S over F[T]; -1 for zero."""
    return max((j + fpoly.deg(c) for j, c in enumerate(f) if c), default=-1)
