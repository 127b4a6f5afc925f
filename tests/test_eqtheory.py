import random

import pytest

from mlunif.decision import Valid, valid
from mlunif.errors import LanguageMismatch, ParseError
from mlunif.formula import (
    BOT, TOP, And, Box, Diamond, Iff, Implies, Modality, Nominal, Not, Or,
    Var, apply_subst, ground_substitutions, parse, variables,
)
from mlunif.eqtheory import (
    Equation, parse_equation, parse_term, print_term, theory_implications,
    unification_instance,
)
from helpers import random_term


def test_translation_basics():
    # term text names the same node as the matching formula text
    assert parse_term("true") is TOP
    assert parse_term("[1](x1 & x2)") is parse("[u](p1 & p2)")
    assert parse_term("[2]x1") is Box(Modality.REL, Var(1))
    assert print_term(TOP) == "true"
    assert print_term(parse("[u]p1")) == "[1]x1"
    assert print_term(parse("~[](p1 & p2) & p3")) == "~[2](x1 & x2) & x3"


def test_translation_roundtrip_500_terms():
    rng = random.Random(1812)
    for _ in range(500):
        t = random_term(rng, 4)
        assert parse_term(print_term(t)) is t


def test_non_term_nodes_rejected():
    cases = [
        (Nominal(1), "nominals have no term image"),
        (Box(Modality.HYB, TOP), "the hybrid box has no term image"),
        (Or(Var(1), TOP), "no term image for parse('p1 | true')"),
        (Implies(Var(1), TOP), "no term image for parse('p1 -> true')"),
        (Iff(Var(1), TOP), "no term image for parse('p1 <-> true')"),
        (Diamond(Modality.REL, Var(1)), "no term image for parse('<>p1')"),
        (Diamond(Modality.UNIV, Var(1)), "no term image for parse('<u>p1')"),
        (Diamond(Modality.HYB, Var(1)), "no term image for parse('<h>p1')"),
    ]
    for node, message in cases:
        nested = Box(Modality.UNIV, And(Var(2), Not(node)))
        for build in (lambda: Equation(nested, TOP), lambda: Equation(TOP, nested),
                      lambda: print_term(nested)):
            with pytest.raises(LanguageMismatch) as info:
                build()
            assert str(info.value).startswith(message), node


def test_bot_maps_to_complement_of_one():
    assert print_term(BOT) == "~true"
    assert parse_term(print_term(BOT)) is Not(TOP)


def test_unification_instance_identity():
    eq = Equation(Var(1), Var(1))
    phi = unification_instance(eq)
    assert phi is parse("p1 <-> p1")
    assert isinstance(valid(phi), Valid)


def test_unification_instance_negation_not_ground_unifiable():
    eq = Equation(Var(1), Not(Var(1)))
    phi = unification_instance(eq)
    for sigma in ground_substitutions(variables(phi)):
        assert not isinstance(valid(apply_subst(sigma, phi)), Valid)


def test_unification_instance_necessitation():
    eq = Equation(TOP, Box(Modality.UNIV, TOP))
    phi = unification_instance(eq)
    assert isinstance(valid(phi), Valid)


def test_theory_implications_valid():
    for phi in theory_implications():
        assert isinstance(valid(phi), Valid), phi


def test_term_parser_roundtrip():
    rng = random.Random(55)
    for _ in range(300):
        t = random_term(rng, 4)
        assert parse_term(print_term(t)) is t


def test_term_parser_examples():
    assert parse_term("[1](x1 & x2)") is Box(Modality.UNIV, And(Var(1), Var(2)))
    assert parse_term("~x3 & true") is And(Not(Var(3)), TOP)
    assert parse_term("x1 & x2 & x3") is And(And(Var(1), Var(2)), Var(3))
    for text in ("x1 &", "p1", "x0", "~[1]x0 & x1"):
        with pytest.raises(ParseError):
            parse_term(text)


def test_parse_equation():
    eq = parse_equation("x1 = ~x1")
    assert eq == Equation(Var(1), Not(Var(1)))
    for text in ("x1 ~x1", "x1 =", "= x1", "x1 = x2 = x3", "x1 := x2", "$1 := x1 = $2"):
        with pytest.raises(ParseError):
            parse_equation(text)


def test_parse_equation_names_subterms_for_both_sides():
    # the `=` inside `:=` does not split the equation
    eq = parse_equation("$1 := x1 & x2\n$1 = ~$1")
    assert eq == Equation(parse_term("x1 & x2"), parse_term("~(x1 & x2)"))
    eq = parse_equation("$1 := x1 & [2]x2\n$2 := $1 & ~$1\n[1]$2 = $2 & $1")
    s = parse_term("x1 & [2]x2")
    assert eq == Equation(Box(Modality.UNIV, And(s, Not(s))), And(And(s, Not(s)), s))


def test_printed_term_is_linear_in_the_dag():
    # t -> t & ~t doubles the tree each time but adds two DAG nodes; the
    # tree of the 20-fold term is already 7 MB of text
    t = Var(1)
    for _ in range(200):
        t = And(t, Not(t))
    text = print_term(t)
    assert len(text) < 10_000
    assert text.startswith("$1 := x1 & ~x1\n$2 := $1 & ~$1\n")
    assert parse_term(text) is t


def test_deep_terms_translate_print_and_parse():
    # the printer, the parser and the term check run without recursion
    t = Var(1)
    for k in range(5000):
        t = And(t, Var(2)) if k % 3 == 0 else (Not(t) if k % 3 == 1 else Box(Modality.UNIV, t))
    Equation(t, t)
    assert print_term(t).count("x2") == 1667
    assert parse_term(print_term(t)) is t
