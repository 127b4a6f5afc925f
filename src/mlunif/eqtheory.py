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
from dataclasses import dataclass, fields
from typing import List, Optional

from .errors import LanguageMismatch, ParseError
from .formula import (
    And, Bot, Box, Formula, Iff, Implies, Modality, Nominal, Not, Top, Var,
    _Tokens, postorder,
)


class Term:
    """Base of the term nodes, compared structurally.  A term's hash is
    computed once, from its children's, and equality walks an explicit
    stack, so neither recurses on a deep term (formula.postorder hashes
    every node it meets)."""

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((type(self),) + self._key()))

    def _key(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a._key(), b._key()):
                if isinstance(x, Term):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True


@dataclass(frozen=True, eq=False)
class IndVar(Term):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable index must be >= 1")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class One(Term):
    pass


@dataclass(frozen=True, eq=False)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Complement(Term):
    sub: Term


@dataclass(frozen=True, eq=False)
class BoxOp(Term):
    which: int  # 1 or 2
    sub: Term

    def __post_init__(self):
        if self.which not in (1, 2):
            raise ValueError("operator index must be 1 or 2")
        super().__post_init__()


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


_OP_TO_MODALITY = {1: Modality.UNIV, 2: Modality.REL}
_MODALITY_TO_OP = {Modality.UNIV: 1, Modality.REL: 2}


def _subterms(t: Term) -> tuple:
    if isinstance(t, Meet):
        return (t.left, t.right)
    if isinstance(t, (Complement, BoxOp)):
        return (t.sub,)
    return ()


def term_to_formula(t: Term) -> Formula:
    """Individual variables become propositional variables with the same
    index, one becomes true, and the operators become the universal and the
    relational box."""
    out = {}
    for node in postorder(t, _subterms):
        if isinstance(node, IndVar):
            phi = Var(node.index)
        elif isinstance(node, One):
            phi = Top()
        elif isinstance(node, Meet):
            phi = And(out[node.left], out[node.right])
        elif isinstance(node, Complement):
            phi = Not(out[node.sub])
        elif isinstance(node, BoxOp):
            phi = Box(_OP_TO_MODALITY[node.which], out[node.sub])
        else:
            raise TypeError("not a term: %r" % (node,))
        out[node] = phi
    return out[t]


def formula_to_term(phi: Formula) -> Term:
    """Inverse of term_to_formula on its image.

    Defined on base-language formulas over true, false, ~, & and boxes;
    false, which has no term constant, maps to the complement of one.
    """
    out = {}
    for node in postorder(phi):
        if isinstance(node, Var):
            t = IndVar(node.index)
        elif isinstance(node, Top):
            t = One()
        elif isinstance(node, Bot):
            t = Complement(One())
        elif isinstance(node, And):
            t = Meet(out[node.left], out[node.right])
        elif isinstance(node, Not):
            t = Complement(out[node.sub])
        elif isinstance(node, Box):
            which = _MODALITY_TO_OP.get(node.modality)
            if which is None:
                raise LanguageMismatch("the hybrid box has no term image")
            t = BoxOp(which, out[node.sub])
        elif isinstance(node, Nominal):
            raise LanguageMismatch("nominals have no term image")
        else:
            raise LanguageMismatch(
                "no term image for %r; write it with ~, & and boxes" % (node,))
        out[node] = t
    return out[phi]


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


_TERM_PREFIX = {"not": Complement, "box1": lambda sub: BoxOp(1, sub),
                "box2": lambda sub: BoxOp(2, sub)}


class _TermParser(_Tokens):
    token_re = _TERM_TOKEN_RE
    token_name = "a term token"

    def term(self) -> Term:
        """The grammar over explicit stacks: `ops` holds the prefix operators
        and open parentheses still waiting for their operand, `meets` the
        meet read so far in each open group (None before its first
        operand)."""
        ops: List[str] = []
        meets: List[Optional[Term]] = [None]
        while True:
            while self.peek() in ("not", "box1", "box2", "lp"):
                kind = self.next()[0]
                ops.append(kind)
                if kind == "lp":
                    meets.append(None)
            kind = self.peek()
            if kind not in ("one", "var"):
                raise self.error("a term")
            text = self.next()[1]
            out = One() if kind == "one" else IndVar(int(text[1:]))
            while True:
                while ops and ops[-1] != "lp":
                    out = _TERM_PREFIX[ops.pop()](out)
                meets[-1] = out if meets[-1] is None else Meet(meets[-1], out)
                if self.peek() != "rp" or not ops:
                    break
                self.next()
                ops.pop()
                out = meets.pop()
            if self.peek() == "and":
                self.next()
                continue
            if ops:
                raise self.error("')'")
            return meets[0]


def parse_term(text: str) -> Term:
    parser = _TermParser(text)
    return parser.parse_all(parser.term, "a term")


def parse_equation(text: str) -> Equation:
    lhs, sep, rhs = text.partition("=")
    if not sep:
        raise ParseError(0, "an equation 'lhs = rhs'", text)
    return Equation(parse_term(lhs), parse_term(rhs))


def print_term(t: Term) -> str:
    text = {}

    def atomish(sub: Term) -> str:
        return "(%s)" % text[sub] if isinstance(sub, Meet) else text[sub]

    for node in postorder(t, _subterms):
        if isinstance(node, IndVar):
            out = "x%d" % node.index
        elif isinstance(node, One):
            out = "true"
        elif isinstance(node, Meet):
            # meet is left-associative
            out = "%s & %s" % (text[node.left], atomish(node.right))
        elif isinstance(node, Complement):
            out = "~" + atomish(node.sub)
        elif isinstance(node, BoxOp):
            out = "[%d]" % node.which + atomish(node.sub)
        else:
            raise TypeError("not a term: %r" % (node,))
        text[node] = out
    return text[t]
