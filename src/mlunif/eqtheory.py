"""Bridge between equational unification over two-operator Boolean algebras
and modal unification.

A term over meet, complement, the constant one and two operators is an L
formula over `&`, `~`, `true`, `[u]` and `[]`: the first operator is the
universal box and the second the relational box, and individual variables
are propositional variables.  Terms are therefore stored as hash-consed
`formula.Formula` nodes and only written differently, in term syntax
(`x<k>`, `true`, `&`, `~`, `[1]`, `[2]`).  An equation becomes the
biconditional of its two sides, and its unifiability coincides with the
unifiability of that formula in the universal-box logic.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import List, Optional

from .errors import LanguageMismatch, ParseError
from .formula import (
    BOT, TOP, And, Bot, Box, Formula, Iff, Implies, Modality, Nominal, Not,
    Top, Var, _Tokens, postorder,
)

# the operator text of each box a term may hold
_BOX_TEXT = {Modality.UNIV: "[1]", Modality.REL: "[2]"}


def _check_term(phi: Formula) -> None:
    """Raise LanguageMismatch unless phi uses only variables, true, false
    (the complement of one), &, ~, [u] and []."""
    for node in postorder(phi):
        if isinstance(node, (Var, Top, Bot, And, Not)):
            continue
        if isinstance(node, Box):
            if node.modality in _BOX_TEXT:
                continue
            raise LanguageMismatch("the hybrid box has no term image")
        if isinstance(node, Nominal):
            raise LanguageMismatch("nominals have no term image")
        raise LanguageMismatch(
            "no term image for %r; write it with ~, & and boxes" % (node,))


@dataclass(frozen=True)
class Equation:
    lhs: Formula
    rhs: Formula

    def __post_init__(self):
        _check_term(self.lhs)
        _check_term(self.rhs)


def unification_instance(eq: Equation) -> Formula:
    """Formula whose unifiability in the universal-box logic matches the
    equation's unifiability modulo the algebra plus the universal-box
    axioms."""
    return Iff(eq.lhs, eq.rhs)


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


_TERM_PREFIX = {"not": Not, "box1": functools.partial(Box, Modality.UNIV),
                "box2": functools.partial(Box, Modality.REL)}


class _TermParser(_Tokens):
    token_re = _TERM_TOKEN_RE
    token_name = "a term token"

    def term(self) -> Formula:
        """The grammar over explicit stacks: `ops` holds the prefix operators
        and open parentheses still waiting for their operand, `meets` the
        meet read so far in each open group (None before its first
        operand)."""
        ops: List[str] = []
        meets: List[Optional[Formula]] = [None]
        while True:
            while self.peek() in ("not", "box1", "box2", "lp"):
                kind = self.next()[0]
                ops.append(kind)
                if kind == "lp":
                    meets.append(None)
            kind = self.peek()
            if kind not in ("one", "var"):
                raise self.error("a term")
            text = self.tokens[self.i][1]
            if kind == "var" and int(text[1:]) < 1:
                raise self.error("a variable index of at least 1")
            self.next()
            out = TOP if kind == "one" else Var(int(text[1:]))
            while True:
                while ops and ops[-1] != "lp":
                    out = _TERM_PREFIX[ops.pop()](out)
                meets[-1] = out if meets[-1] is None else And(meets[-1], out)
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


def parse_term(text: str) -> Formula:
    parser = _TermParser(text)
    return parser.parse_all(parser.term, "a term")


def parse_equation(text: str) -> Equation:
    lhs, sep, rhs = text.partition("=")
    if not sep:
        raise ParseError(0, "an equation 'lhs = rhs'", text)
    return Equation(parse_term(lhs), parse_term(rhs))


def print_term(t: Formula) -> str:
    """t in term syntax, with a meet parenthesized only as the right operand
    of a meet or the operand of a prefix operator (meet is
    left-associative); parse_term(print_term(t)) is t, except that false
    prints as ~true."""
    _check_term(t)
    out: List[str] = []
    # (term, whether a meet there needs parentheses), or text to emit
    stack: list = [(t, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        f, grouped = item
        if isinstance(f, And):
            parts = [(f.left, False), " & ", (f.right, True)]
            stack.extend(reversed(["("] + parts + [")"] if grouped else parts))
        elif isinstance(f, Var):
            out.append("x%d" % f.index)
        elif f is TOP or f is BOT:
            out.append("true" if f is TOP else "~true")
        else:
            out.append("~" if isinstance(f, Not) else _BOX_TEXT[f.modality])
            stack.append((f.sub, True))
    return "".join(out)
