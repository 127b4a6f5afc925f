import itertools
import random

import pytest

from mlunif.errors import LanguageMismatch, UnboundSymbol, UnknownPoint
from mlunif.formula import (
    BOT, H2, L, TOP, And, Box, Diamond, Implies, Modality, Nominal, Not, Or,
    Substitution, Var, apply_subst, parse, variables,
)
from mlunif.kripke import (
    CounterModel, Frame, Model, Valid, Valuation, frame_valid, holds_everywhere,
    is_transitive, model_check, parse_frame, parse_valuation, points_where,
    points_within, random_frame, random_valuation, serialize_frame,
    serialize_valuation, transitive_closure, truth_mask,
)
from helpers import random_formula

REL = Modality.REL
ALPHA = parse("<>true & []<>true")


def single_point_frame(reflexive):
    r = frozenset({("x", "x")}) if reflexive else frozenset()
    return Frame(("x",), r)


def brute_force_frame_valid(frame, phi):
    """Oracle: enumerate every valuation of phi's variables and every point."""
    var_indices = sorted(variables(phi))
    pts = list(frame.points)
    for subset_choice in itertools.product([False, True], repeat=len(var_indices) * len(pts)):
        var_map = {}
        bit = 0
        for v in var_indices:
            chosen = set()
            for p in pts:
                if subset_choice[bit]:
                    chosen.add(p)
                bit += 1
            var_map[v] = frozenset(chosen)
        model = Model(frame, Valuation(var_map, {}))
        for p in pts:
            if not model_check(model, p, phi):
                return False
    return True


def test_vacuous_box_on_isolated_point():
    model = Model(single_point_frame(False), Valuation())
    assert model_check(model, "x", Box(REL, BOT))
    assert not model_check(model, "x", Diamond(REL, TOP))


def test_alpha_on_reflexive_point():
    model = Model(single_point_frame(True), Valuation())
    assert model_check(model, "x", ALPHA)
    assert not model_check(model, "x", parse("[]false"))


def test_model_check_errors():
    model = Model(single_point_frame(True), Valuation())
    with pytest.raises(UnknownPoint):
        model_check(model, "y", TOP)
    with pytest.raises(UnboundSymbol):
        model_check(model, "x", Var(1))
    with pytest.raises(LanguageMismatch):
        model_check(model, "x", Box(Modality.HYB, TOP))
    hybrid = Model(Frame(("x",), frozenset(), frozenset()), Valuation())
    with pytest.raises(LanguageMismatch):
        model_check(hybrid, "x", Box(Modality.UNIV, TOP))


def test_universal_clauses():
    frame = Frame(("x", "y"), frozenset({("x", "y")}))
    model = Model(frame, Valuation({1: frozenset({"y"})}, {}))
    assert model_check(model, "x", Diamond(Modality.UNIV, Var(1)))
    assert not model_check(model, "x", Box(Modality.UNIV, Var(1)))
    assert points_where(model, Var(1)) == {"y"}


def test_hybrid_clauses():
    frame = Frame(("x", "y"), frozenset({("x", "y")}), frozenset({("y", "x")}))
    model = Model(frame, Valuation({1: frozenset({"y"})}, {1: "x"}))
    assert model_check(model, "y", Diamond(Modality.HYB, Nominal(1)))
    assert not model_check(model, "x", Diamond(Modality.HYB, Nominal(1)))
    assert model_check(model, "x", Nominal(1))
    assert model_check(model, "x", Box(Modality.HYB, BOT))


def test_frame_valid_tautology():
    for seed in range(5):
        frame = random_frame(seed, 4)
        assert isinstance(frame_valid(frame, parse("p1 | ~p1")), Valid)


def test_frame_valid_countermodel_two_point_chain():
    frame = Frame(("x", "y"), frozenset({("x", "y")}))
    phi = parse("p1 -> <>p1")
    result = frame_valid(frame, phi)
    assert isinstance(result, CounterModel)
    model = Model(frame, result.model.valuation)
    assert not model_check(model, result.point, phi)
    # brute force agrees that the formula is not valid here
    assert not brute_force_frame_valid(frame, phi)


def test_frame_valid_agrees_with_brute_force_on_small_frames():
    rng = random.Random(1234)
    formulas = [
        parse("p1 -> <>p1"),
        parse("[]p1 -> p1"),
        parse("[u]p1 -> []p1"),
        parse("<>(p1 & p2) -> <>p1 & <>p2"),
        parse("[](p1 -> p2) -> ([]p1 -> []p2)"),
    ]
    for _ in range(40):
        formulas.append(random_formula(rng, depth=3, num_vars=2, language=L))
    checked = 0
    for n in (1, 2, 3):
        pts = tuple("xyz"[:n])
        all_edges = [(a, b) for a in pts for b in pts]
        for bits in range(1 << len(all_edges)):
            if n == 3 and bits % 23 != 0:
                continue  # sample the 512 three-point frames
            frame = Frame(pts, frozenset(e for i, e in enumerate(all_edges) if bits >> i & 1))
            phi = formulas[checked % len(formulas)]
            expected = brute_force_frame_valid(frame, phi)
            got = frame_valid(frame, phi)
            assert isinstance(got, Valid) == expected
            if isinstance(got, CounterModel):
                model = Model(frame, got.model.valuation)
                assert not model_check(model, got.point, phi)
            checked += 1
    assert checked > 35


def test_frame_valid_with_nominals():
    frame = Frame(("x", "y"), frozenset(), frozenset({("x", "y"), ("y", "x")}))
    # a nominal holds at exactly one point, so it cannot hold at both ends
    # of a symmetric S pair at once
    phi = parse("n1 -> ~<h>n1", H2)
    result = frame_valid(frame, phi)
    assert isinstance(result, Valid)
    sat_phi = parse("n1 & <h>~n1", H2)
    result = frame_valid(frame, Not(sat_phi))
    assert isinstance(result, CounterModel)
    assert result.model.valuation.nom_map[1] in ("x", "y")


def test_transitive_closure():
    assert transitive_closure(set()) == frozenset()
    got = transitive_closure({("a", "b"), ("b", "c")})
    assert got == frozenset({("a", "b"), ("b", "c"), ("a", "c")})
    assert is_transitive(got)


def test_random_frame_deterministic_and_transitive():
    for seed in (0, 1, 7):
        assert random_frame(seed, 6) == random_frame(seed, 6)
    assert len(random_frame(0, 1).points) == 1
    for seed in range(60):
        frame = random_frame(seed, 5, transitive=True)
        assert is_transitive(frame.r)
    hybrid = random_frame(3, 4, kind=H2, s_universal=True)
    assert hybrid.s == frozenset((a, b) for a in hybrid.points for b in hybrid.points)


def test_semantic_substitution_lemma():
    rng = random.Random(77)
    for trial in range(150):
        frame = random_frame(trial, 6)
        phi = random_formula(rng, depth=3, num_vars=2, language=L)
        sigma = Substitution({
            1: random_formula(rng, depth=2, num_vars=2, language=L),
            2: random_formula(rng, depth=2, num_vars=2, language=L),
        })
        base = Model(frame, random_valuation(trial + 1, frame, var_indices=(1, 2)))
        reinterpreted = Model(frame, Valuation({
            v: frozenset(points_where(base, sigma.get(v))) for v in (1, 2)
        }, {}))
        assert truth_mask(base, apply_subst(sigma, phi)) == truth_mask(reinterpreted, phi)


def test_variable_free_formulas_are_valuation_independent():
    rng = random.Random(5)
    for trial in range(50):
        frame = random_frame(trial, 5)
        phi = random_formula(rng, depth=4, num_vars=0, language=L)
        m1 = Model(frame, random_valuation(trial, frame, var_indices=(1,)))
        m2 = Model(frame, random_valuation(trial + 999, frame, var_indices=(1,)))
        assert truth_mask(m1, phi) == truth_mask(m2, phi)


def test_points_within():
    frame = Frame(("a", "b", "c", "d"), frozenset({("a", "b"), ("b", "c")}),
                  frozenset({("c", "d")}))
    assert points_within(frame, "a", 0) == {"a"}
    assert points_within(frame, "a", 1) == {"a", "b"}
    assert points_within(frame, "a", 3) == {"a", "b", "c", "d"}


def test_frame_text_roundtrip():
    frame = random_frame(11, 5, kind=H2)
    assert parse_frame(serialize_frame(frame)) == frame
    plain = random_frame(12, 5)
    assert parse_frame(serialize_frame(plain)) == plain
    empty_s = Frame(("x",), frozenset(), frozenset())
    assert parse_frame(serialize_frame(empty_s)) == empty_s


def test_valuation_text_roundtrip():
    val = Valuation({1: frozenset({"a", "c"}), 2: frozenset()}, {1: "b"})
    text = serialize_valuation(val)
    assert "p1 = {a, c}" in text
    assert "n1 = b" in text
    assert parse_valuation(text) == val


def test_holds_everywhere():
    frame = single_point_frame(True)
    model = Model(frame, Valuation())
    assert holds_everywhere(model, ALPHA)
    assert not holds_everywhere(model, parse("[]false"))
