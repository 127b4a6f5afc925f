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

import re

from .errors import LanguageMismatch
from .formula import (
    And, Bot, Box, Formula, Iff, Implies, Modality, Nominal, Not, Top, Var,
    _dag_text, _Parser, postorder,
)
from .record import FrozenRecord


def _check_term(phi: Formula) -> None:
    """Raise LanguageMismatch unless phi uses only variables, true, false
    (the complement of one), &, ~, [u] and []."""
    for node in postorder(phi):
        if isinstance(node, (Var, Top, Bot, And, Not)):
            continue
        if isinstance(node, Box):
            if node.modality is not Modality.HYB:
                continue
            raise LanguageMismatch("the hybrid box has no term image")
        if isinstance(node, Nominal):
            raise LanguageMismatch("nominals have no term image")
        raise LanguageMismatch(
            "no term image for %r; write it with ~, & and boxes" % (node,))


class Equation(FrozenRecord):
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


def theory_implications() -> list[Formula]:
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
# Formula syntax with other spellings: x<k> for p<k>, [1] for [u], [2] for
# [], and only the connectives & and ~ and the constant true.  Subterms a
# term shares are named on `$k := <term>` lines, as in formula text.

# formula token -> its term spelling, for the printer
_TERM_SPELLING = {"p": "x", "[u]": "[1]", "[]": "[2]", "false": "~true"}
# term operator -> the formula operator the parser reads in its place
_FORMULA_SPELLING = {"[1]": "[u]", "[2]": "[]"}


class _TermParser(_Parser):
    token_re = re.compile(
        r"\s*(?:(?P<binary>&)|(?P<prefix>~|\[[12]\])|(?P<lp>\()|(?P<rp>\))"
        r"|(?P<const>true\b)|(?P<var>x\d+)|(?P<ref>\$\d+)|(?P<def>:=)|(?P<eq>=))"
    )
    token_name = "a term token"

    def __init__(self, text: str):
        super().__init__(text)
        self.tokens = [(kind, _FORMULA_SPELLING.get(tok, tok), pos)
                       for kind, tok, pos in self.tokens]


def parse_term(text: str) -> Formula:
    parser = _TermParser(text)
    return parser.parse_all(parser.text_formula, "a term")


def parse_equation(text: str) -> Equation:
    """`lhs = rhs`, after `$k :=` lines that name subterms for both sides."""
    parser = _TermParser(text)

    def equation() -> Equation:
        lhs = parser.text_formula()
        if parser.peek() != "eq":
            raise parser.error("'='")
        parser.next()
        return Equation(lhs, parser.formula())

    return parser.parse_all(equation, "an equation 'lhs = rhs'")


def print_term(t: Formula) -> str:
    """t in term syntax, with the fewest parentheses and each shared
    subterm written once; parse_term(print_term(t)) is t, except that false
    prints as ~true."""
    _check_term(t)
    lines, texts = _dag_text([t], _TERM_SPELLING)
    return "\n".join(lines + texts)
