import ast
import inspect
import pathlib
import random

import pytest

from mlunif import decision, encoding, eqtheory, formula, kripke
from mlunif.encoding import tower
from mlunif.errors import LanguageError, ParseError
from mlunif.formula import (
    BOT, H2, L, TOP, And, Box, Diamond, Iff, Implies, Modality, Nominal, Not,
    Or, Substitution, Var, apply_subst, check_language,
    ground_substitutions, nominals, parse, parse_substitution, postorder,
    pretty, size, surrogate_exists, variables,
)
from helpers import compose, modal_depth, random_formula

REL = Modality.REL
UNIV = Modality.UNIV
HYB = Modality.HYB


def test_parse_alpha():
    phi = parse("<>true & []<>true")
    assert phi == And(Diamond(REL, TOP), Box(REL, Diamond(REL, TOP)))


def test_parse_atomic_var():
    assert parse("p1") == Var(1)


def test_nominal_rejected_in_base_language():
    with pytest.raises(LanguageError):
        parse("n1 & <h>p2", L)
    # the same text is fine as a hybrid formula
    parse("n1 & <h>p2", H2)


def test_universal_box_rejected_in_hybrid_language():
    with pytest.raises(LanguageError):
        parse("[u]p1", H2)


def test_universal_box_mixed_with_nominal_rejected():
    # the offending symbols sit below other connectives, so the check has
    # to see flags gathered from the whole subterm
    phi = Box(REL, Not(And(Box(UNIV, Var(1)), Diamond(REL, Nominal(1)))))
    for language in (L, H2):
        with pytest.raises(LanguageError):
            check_language(phi, language)
    with pytest.raises(LanguageError):
        parse("[u]p1 & <>n1", H2)


def test_equal_formulas_are_one_object():
    assert parse("p1 & true") is And(Var(1), TOP)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("p1 & & p2")
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(p1")
    with pytest.raises(ParseError):
        parse("p1 p2")
    with pytest.raises(ParseError):
        parse("q1")


def test_precedence_and_associativity():
    assert parse("p1 & p2 & p3") == And(And(Var(1), Var(2)), Var(3))
    assert parse("p1 | p2 & p3") == Or(Var(1), And(Var(2), Var(3)))
    assert parse("p1 -> p2 -> p3") == Implies(Var(1), Implies(Var(2), Var(3)))
    assert parse("p1 <-> p2 <-> p3") == Iff(Var(1), Iff(Var(2), Var(3)))
    assert parse("~[]p1 & <u>p2") == And(Not(Box(REL, Var(1))), Diamond(UNIV, Var(2)))
    assert parse("[] <> p1") == Box(REL, Diamond(REL, Var(1)))


def test_pretty_basic():
    assert pretty(Box(REL, BOT)) == "[]false"
    assert pretty(And(Var(1), Not(Var(1)))) == "p1 & ~p1"
    assert pretty(And(Var(1), And(Var(2), Var(3)))) == "p1 & (p2 & p3)"
    assert pretty(Implies(Implies(Var(1), Var(2)), Var(3))) == "(p1 -> p2) -> p3"
    assert pretty(Box(REL, And(Var(1), Var(2)))) == "[](p1 & p2)"
    assert pretty(Diamond(HYB, Nominal(2))) == "<h>n2"
    assert pretty(parse("p1 -> p2 | p3")) == "p1 -> p2 | p3"


def test_roundtrip_random_formulas():
    rng = random.Random(20240817)
    for i in range(1000):
        language = L if i % 2 == 0 else H2
        phi = random_formula(rng, depth=5, num_vars=3, language=language, num_noms=2)
        again = parse(pretty(phi), language)
        assert again == phi, pretty(phi)


def test_apply_subst_examples():
    sigma = Substitution({1: TOP})
    assert apply_subst(sigma, Box(UNIV, Var(1))) == Box(UNIV, TOP)
    phi = random_formula(random.Random(7), depth=4)
    assert apply_subst(Substitution({}), phi) == phi
    # nominals stay fixed
    sigma = Substitution({1: Diamond(REL, Var(2))})
    phi = And(Box(REL, Var(1)), Nominal(1))
    assert apply_subst(sigma, phi) == And(Box(REL, Diamond(REL, Var(2))), Nominal(1))


def test_subst_composition():
    rng = random.Random(99)
    for _ in range(100):
        phi = random_formula(rng, depth=4, num_vars=3)
        tau = Substitution({1: random_formula(rng, depth=2, num_vars=3),
                            2: random_formula(rng, depth=2, num_vars=3)})
        sig = Substitution({2: random_formula(rng, depth=2, num_vars=3),
                            3: random_formula(rng, depth=2, num_vars=3)})
        lhs = apply_subst(compose(sig, tau), phi)
        rhs = apply_subst(sig, apply_subst(tau, phi))
        assert lhs == rhs


def test_subst_identity_on_variable_free():
    sigma = Substitution({1: BOT, 2: TOP})
    phi = parse("<>true & [](false | true)")
    assert apply_subst(sigma, phi) == phi


def test_ground_substitutions_order_and_count():
    assert list(ground_substitutions(set())) == [Substitution({})]
    two = list(ground_substitutions({1}))
    assert two == [Substitution({1: BOT}), Substitution({1: TOP})]
    four = list(ground_substitutions({2, 1}))
    assert len(four) == 4
    assert four[0] == Substitution({1: BOT, 2: BOT})
    assert four[1] == Substitution({1: BOT, 2: TOP})
    assert four[2] == Substitution({1: TOP, 2: BOT})
    assert four[3] == Substitution({1: TOP, 2: TOP})
    ks = list(ground_substitutions({1, 2, 3}))
    assert len(ks) == 8 and len({tuple(sorted((k, v) for k, v in s.mapping.items())) for s in ks}) == 8


def test_surrogate_exists():
    assert surrogate_exists(TOP) == Diamond(HYB, And(Nominal(1), Diamond(HYB, TOP)))
    beta = Box(REL, BOT)
    assert surrogate_exists(beta) == Diamond(HYB, And(Nominal(1), Diamond(HYB, beta)))
    with pytest.raises(LanguageError):
        surrogate_exists(Box(UNIV, Var(1)))


def test_symbol_collections_and_depth():
    phi = parse("n1 & <h>(p2 & []n3)", H2)
    assert variables(phi) == {2}
    assert nominals(phi) == {1, 3}
    assert modal_depth(phi) == 2
    assert size(Var(1)) == 1


def test_substitution_serialization_roundtrip():
    sigma = Substitution({1: parse("<>true & []false"), 2: BOT})
    text = sigma.serialize()
    assert parse_substitution(text) == sigma


def test_check_language_accepts_shared_core():
    phi = parse("[](p1 & <>true)")
    check_language(phi, L)
    check_language(phi, H2)


def test_shared_subterms_are_printed_once():
    alpha = parse("<>true & []<>true")
    assert pretty(alpha) == "$1 := <>true\n$1 & []$1"
    assert parse(pretty(alpha)) is alpha
    # names are numbered in post-order, once across both images
    shared = Or(Var(1), Var(2))
    sigma = Substitution({1: And(shared, Not(shared)), 2: shared})
    assert sigma.serialize() == "$1 := p1 | p2\np1 := $1 & ~$1\np2 := $1\n"
    assert parse_substitution(sigma.serialize()) == sigma


def test_formula_text_is_linear_in_the_dag():
    # the tree of tower(0, 10) is several MB of text; its DAG has 242 nodes
    assert len(pretty(tower(0, 10))) < 20_000
    assert len(repr(tower(0, 10))) < 20_000


def test_names_must_be_defined_once_before_use():
    with pytest.raises(ParseError) as e:
        parse("$1 & p1\n$1 := p2")
    assert e.value.position == 0
    with pytest.raises(ParseError) as e:
        parse("$1 := p1\n$1 := p2\n$1")
    assert e.value.position == 9
    with pytest.raises(ParseError) as e:
        parse_substitution("p1 := $2\n")
    assert e.value.position == 6
    # a substitution line's head is a variable no other line defines
    with pytest.raises(ParseError) as e:
        parse_substitution("p1 := true\np0 := true\n")
    assert e.value.position == 11
    with pytest.raises(ParseError) as e:
        parse_substitution("p1 := true\np1 := false\n")
    assert e.value.position == 11


def test_postorder_visits_children_first_once_each():
    phi = And(Or(Var(1), Var(2)), Not(Or(Var(1), Var(2))))
    assert list(postorder(phi)) == [
        Var(1), Var(2), Or(Var(1), Var(2)), Not(Or(Var(1), Var(2))), phi]


def test_no_formula_pass_calls_itself():
    # a pass that recursed once per nesting level would fail on deep DAGs
    # at the interpreter's default recursion limit
    for module in (formula, kripke, decision, encoding, eqtheory):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name) \
                        and callee.value.id == "self":
                    callee = callee.attr
                elif isinstance(callee, ast.Name):
                    callee = callee.id
                assert callee != fn.name, (module.__name__, fn.name)


def test_every_imported_name_is_used():
    # the imports of a module should say which code it relies on
    paths = sorted(pathlib.Path(formula.__file__).parent.glob("*.py"))
    paths += sorted(pathlib.Path(__file__).parent.glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_every_public_definition_is_referenced():
    # a public function, class, method or constant of the library that no
    # code names (as a name, an attribute, an import or a string such as
    # the attribute names the bench tracer wraps) is dead code
    src = sorted(pathlib.Path(formula.__file__).parent.glob("*.py"))
    repo = pathlib.Path(__file__).parent.parent
    paths = src + sorted((repo / "tests").glob("*.py")) + sorted((repo / "bench").glob("*.py"))
    defined, referenced = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docstrings:
                referenced.add(node.value)
        if path not in src:
            continue
        for node in tree.body:
            for d in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    names = [d.name]
                else:
                    targets = d.targets if isinstance(d, ast.Assign) else [getattr(d, "target", None)]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                for name in names:
                    if not name.startswith("_"):
                        defined[name] = path.name
    unreferenced = sorted((path, name) for name, path in defined.items() if name not in referenced)
    assert unreferenced == []
