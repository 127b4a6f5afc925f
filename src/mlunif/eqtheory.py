"""Bridge between equational unification over two-operator Boolean algebras
and modal unification.

Terms over meet, complement, the constant one and two operators translate
to formulas with the first operator read as the universal box and the second
as the relational box; an equation becomes the biconditional of the two
translated sides, and its unifiability coincides with the unifiability of
that formula in the universal-box logic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from .errors import LanguageMismatch, ParseError
from .formula import (
    And, Bot, Box, Formula, Iff, Implies, Modality, Nominal, Not, Top, Var,
    _Tokens,
)


class Term:
    pass


@dataclass(frozen=True)
class IndVar(Term):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable index must be >= 1")


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Complement(Term):
    sub: Term


@dataclass(frozen=True)
class BoxOp(Term):
    which: int  # 1 or 2
    sub: Term

    def __post_init__(self):
        if self.which not in (1, 2):
            raise ValueError("operator index must be 1 or 2")


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


_OP_TO_MODALITY = {1: Modality.UNIV, 2: Modality.REL}
_MODALITY_TO_OP = {Modality.UNIV: 1, Modality.REL: 2}


def term_to_formula(t: Term) -> Formula:
    """Individual variables become propositional variables with the same
    index, one becomes true, and the operators become the universal and the
    relational box."""
    if isinstance(t, IndVar):
        return Var(t.index)
    if isinstance(t, One):
        return Top()
    if isinstance(t, Meet):
        return And(term_to_formula(t.left), term_to_formula(t.right))
    if isinstance(t, Complement):
        return Not(term_to_formula(t.sub))
    if isinstance(t, BoxOp):
        return Box(_OP_TO_MODALITY[t.which], term_to_formula(t.sub))
    raise TypeError("not a term: %r" % (t,))


def formula_to_term(phi: Formula) -> Term:
    """Inverse of term_to_formula on its image.

    Defined on desugared base-language formulas; false, which has no term
    constant, maps to the complement of one.
    """
    if isinstance(phi, Var):
        return IndVar(phi.index)
    if isinstance(phi, Top):
        return One()
    if isinstance(phi, Bot):
        return Complement(One())
    if isinstance(phi, And):
        return Meet(formula_to_term(phi.left), formula_to_term(phi.right))
    if isinstance(phi, Not):
        return Complement(formula_to_term(phi.sub))
    if isinstance(phi, Box):
        which = _MODALITY_TO_OP.get(phi.modality)
        if which is None:
            raise LanguageMismatch("the hybrid box has no term image")
        return BoxOp(which, formula_to_term(phi.sub))
    if isinstance(phi, Nominal):
        raise LanguageMismatch("nominals have no term image")
    raise LanguageMismatch("no term image for %r; desugar first" % (phi,))


def unification_instance(eq: Equation) -> Formula:
    """Formula whose unifiability in the universal-box logic matches the
    equation's unifiability modulo the algebra plus the universal-box
    axioms."""
    return Iff(term_to_formula(eq.lhs), term_to_formula(eq.rhs))


def theory_implications() -> List[Formula]:
    """The four inequalities pinning the first operator down as a universal
    box, rendered as implications (an inequality abbreviates a meet
    equation, and the translated biconditional is equivalent to the
    implication in the target logic)."""
    p = Var(1)
    u = Modality.UNIV
    r = Modality.REL
    return [
        Implies(Box(u, p), Box(r, p)),
        Implies(Box(u, p), p),
        Implies(Box(u, p), Box(u, Box(u, p))),
        Implies(p, Box(u, Not(Box(u, Not(p))))),
    ]


# --- concrete term syntax -------------------------------------------------------
#
# Reuses the formula tokens with [1]/[2] for the operators and x<k> for
# individual variables: term := "~" term | "[1]" term | "[2]" term
#                             | atom ("&" atom)* ; atom := "true" | x<k> | "(...)".

_TERM_TOKEN_RE = re.compile(
    r"\s*(?:(?P<box1>\[1\])|(?P<box2>\[2\])|(?P<not>~)|(?P<and>&)"
    r"|(?P<lp>\()|(?P<rp>\))|(?P<one>true\b)|(?P<var>x\d+))"
)


class _TermParser(_Tokens):
    token_re = _TERM_TOKEN_RE
    token_name = "a term token"

    def parse_meet(self) -> Term:
        out = self.parse_unary()
        while self.peek() == "and":
            self.next()
            out = Meet(out, self.parse_unary())
        return out

    def parse_unary(self) -> Term:
        kind = self.peek()
        if kind == "not":
            self.next()
            return Complement(self.parse_unary())
        if kind == "box1":
            self.next()
            return BoxOp(1, self.parse_unary())
        if kind == "box2":
            self.next()
            return BoxOp(2, self.parse_unary())
        if kind == "one":
            self.next()
            return One()
        if kind == "var":
            _, text, _ = self.next()
            return IndVar(int(text[1:]))
        if kind == "lp":
            self.next()
            out = self.parse_meet()
            if self.peek() != "rp":
                raise self.error("')'")
            self.next()
            return out
        raise self.error("a term")


def parse_term(text: str) -> Term:
    parser = _TermParser(text)
    return parser.parse_all(parser.parse_meet, "a term")


def parse_equation(text: str) -> Equation:
    lhs, sep, rhs = text.partition("=")
    if not sep:
        raise ParseError(0, "an equation 'lhs = rhs'", text)
    return Equation(parse_term(lhs), parse_term(rhs))


def print_term(t: Term) -> str:
    if isinstance(t, IndVar):
        return "x%d" % t.index
    if isinstance(t, One):
        return "true"
    if isinstance(t, Meet):
        left = print_term(t.left)  # meet is left-associative
        right = print_term(t.right)
        if isinstance(t.right, Meet):
            right = "(%s)" % right
        return "%s & %s" % (left, right)
    if isinstance(t, Complement):
        return "~" + _atomish(t.sub)
    if isinstance(t, BoxOp):
        return "[%d]" % t.which + _atomish(t.sub)
    raise TypeError("not a term: %r" % (t,))


def _atomish(t: Term) -> str:
    text = print_term(t)
    if isinstance(t, Meet):
        return "(%s)" % text
    return text
