import random

import pytest

from mlunif.decision import KU, Valid, valid
from mlunif.errors import LanguageMismatch, ParseError
from mlunif.formula import (
    BOT, TOP, And, Box, Modality, Nominal, Not, Top, Var, apply_subst,
    ground_substitutions, parse, variables,
)
from mlunif.eqtheory import (
    BoxOp, Complement, Equation, IndVar, Meet, One, formula_to_term,
    parse_equation, parse_term, print_term, term_to_formula,
    theory_implications, unification_instance,
)


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([One(), IndVar(rng.randint(1, 3))])
    kind = rng.randrange(4)
    if kind == 0:
        return Meet(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == 1:
        return Complement(random_term(rng, depth - 1))
    return BoxOp(rng.randint(1, 2), random_term(rng, depth - 1))


def test_translation_basics():
    assert term_to_formula(One()) == Top()
    assert term_to_formula(BoxOp(1, Meet(IndVar(1), IndVar(2)))) == \
        Box(Modality.UNIV, And(Var(1), Var(2)))
    assert term_to_formula(BoxOp(2, IndVar(1))) == Box(Modality.REL, Var(1))
    assert formula_to_term(Top()) == One()
    assert formula_to_term(Box(Modality.UNIV, Var(1))) == BoxOp(1, IndVar(1))


def test_translation_roundtrip_500_terms():
    rng = random.Random(1812)
    for _ in range(500):
        t = random_term(rng, 4)
        assert formula_to_term(term_to_formula(t)) == t


def test_formula_to_term_rejects_hybrid_syntax():
    with pytest.raises(LanguageMismatch):
        formula_to_term(Nominal(1))
    with pytest.raises(LanguageMismatch):
        formula_to_term(Box(Modality.HYB, Top()))


def test_bot_maps_to_complement_of_one():
    assert formula_to_term(BOT) == Complement(One())
    assert term_to_formula(formula_to_term(BOT)) == Not(TOP)


def test_unification_instance_identity():
    eq = Equation(IndVar(1), IndVar(1))
    phi = unification_instance(eq)
    assert phi == parse("p1 <-> p1")
    assert isinstance(valid(phi, KU), Valid)


def test_unification_instance_negation_not_ground_unifiable():
    eq = Equation(IndVar(1), Complement(IndVar(1)))
    phi = unification_instance(eq)
    for sigma in ground_substitutions(variables(phi)):
        assert not isinstance(valid(apply_subst(sigma, phi), KU), Valid)


def test_unification_instance_necessitation():
    eq = Equation(One(), BoxOp(1, One()))
    phi = unification_instance(eq)
    assert isinstance(valid(phi, KU), Valid)


def test_theory_implications_valid():
    for phi in theory_implications():
        assert isinstance(valid(phi, KU), Valid), phi


def test_term_parser_roundtrip():
    rng = random.Random(55)
    for _ in range(300):
        t = random_term(rng, 4)
        assert parse_term(print_term(t)) == t


def test_term_parser_examples():
    assert parse_term("[1](x1 & x2)") == BoxOp(1, Meet(IndVar(1), IndVar(2)))
    assert parse_term("~x3 & true") == Meet(Complement(IndVar(3)), One())
    assert parse_term("x1 & x2 & x3") == Meet(Meet(IndVar(1), IndVar(2)), IndVar(3))
    with pytest.raises(ParseError):
        parse_term("x1 &")
    with pytest.raises(ParseError):
        parse_term("p1")


def test_parse_equation():
    eq = parse_equation("x1 = ~x1")
    assert eq == Equation(IndVar(1), Complement(IndVar(1)))
    with pytest.raises(ParseError):
        parse_equation("x1 ~x1")


def test_deep_terms_translate_print_and_parse():
    # the translations, the printer, the parser and term equality run
    # without recursion
    t = IndVar(1)
    for k in range(5000):
        t = Meet(t, IndVar(2)) if k % 3 == 0 else (Complement(t) if k % 3 == 1 else BoxOp(1, t))
    assert formula_to_term(term_to_formula(t)) == t
    assert print_term(t).count("x2") == 1667
    assert parse_term(print_term(t)) == t
    assert parse_term(print_term(t)) != Complement(t)
