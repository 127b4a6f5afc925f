import hashlib
import itertools
import random

import pytest

from mlunif import propsat
from mlunif.encoding import ax_program, canonical_frame
from mlunif.errors import (
    InternalCheckFailed, LanguageMismatch, ParseError, UnboundSymbol, UnknownPoint,
)
from mlunif.formula import (
    BOT, H2, L, TOP, And, Box, Diamond, Iff, Implies, Modality, Nominal, Not, Or,
    Substitution, Var, apply_subst, conj, nominals, parse, variables,
)
from mlunif.minsky import Config, parse_program
from mlunif.kripke import (
    CounterModel, DisjointUnion, Frame, Model, Valid, _cover, frame_valid, model_check,
    parse_frame, parse_valuation, serialize_frame, serialize_generators, serialize_valuation,
    transitive_closure, transitive_reduction, truth_mask,
)
from helpers import (
    bit_rows, closure_by_search, holds_everywhere, is_transitive, offset_masks_by_pairs,
    point_mask, points_where, points_within, random_formula, random_frame, random_valuation,
    truth_set, union_of,
)

REL = Modality.REL
ALPHA = parse("<>true & []<>true")


def single_point_frame(reflexive):
    return Frame(("x",), (int(reflexive),))


def brute_force_frame_valid(frame, phi):
    """Oracle: enumerate every valuation of phi's variables, every owner
    point of each of its nominals, and every point."""
    var_nodes = [Var(v) for v in sorted(variables(phi))]
    nom_nodes = [Nominal(m) for m in sorted(nominals(phi))]
    n = len(frame.points)
    for masks in itertools.product(range(1 << n), repeat=len(var_nodes)):
        for owners in itertools.product(range(n), repeat=len(nom_nodes)):
            valuation = dict(zip(var_nodes, masks))
            valuation.update((m, 1 << i) for m, i in zip(nom_nodes, owners))
            model = Model(frame, valuation)
            for p in frame.points:
                if not model_check(model, p, phi):
                    return False
    return True


def test_vacuous_box_on_isolated_point():
    model = Model(single_point_frame(False), {})
    assert model_check(model, "x", Box(REL, BOT))
    assert not model_check(model, "x", Diamond(REL, TOP))


def test_alpha_on_reflexive_point():
    model = Model(single_point_frame(True), {})
    assert model_check(model, "x", ALPHA)
    assert not model_check(model, "x", parse("[]false"))


def test_model_check_errors():
    model = Model(single_point_frame(True), {})
    with pytest.raises(UnknownPoint):
        model_check(model, "y", TOP)
    with pytest.raises(UnboundSymbol):
        model_check(model, "x", Var(1))
    with pytest.raises(LanguageMismatch):
        model_check(model, "x", Box(Modality.HYB, TOP))
    hybrid = Model(Frame(("x",), (0,), (0,)), {})
    with pytest.raises(LanguageMismatch):
        model_check(hybrid, "x", Box(Modality.UNIV, TOP))


def test_universal_clauses():
    frame = parse_frame("points: x y\nR: x y\n")
    model = Model(frame, {Var(1): point_mask(frame, "y")})
    assert model_check(model, "x", Diamond(Modality.UNIV, Var(1)))
    assert not model_check(model, "x", Box(Modality.UNIV, Var(1)))
    assert points_where(model, Var(1)) == {"y"}


def test_hybrid_clauses():
    frame = parse_frame("points: x y\nR: x y\nS: y x\n")
    model = Model(frame, {Var(1): point_mask(frame, "y"), Nominal(1): point_mask(frame, "x")})
    assert model_check(model, "y", Diamond(Modality.HYB, Nominal(1)))
    assert not model_check(model, "x", Diamond(Modality.HYB, Nominal(1)))
    assert model_check(model, "x", Nominal(1))
    assert model_check(model, "x", Box(Modality.HYB, BOT))


def test_frame_valid_tautology():
    for seed in range(5):
        frame = random_frame(seed, 4)
        assert isinstance(frame_valid(frame, parse("p1 | ~p1")), Valid)


def test_frame_valid_countermodel_two_point_chain():
    frame = parse_frame("points: x y\nR: x y\n")
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
        for bits in range(1 << n * n):
            if n == 3 and bits % 23 != 0:
                continue  # sample the 512 three-point frames
            frame = Frame(pts, bit_rows(bits, n))
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
    frame = parse_frame("points: x y\nS: x y\nS: y x\n")
    # a nominal holds at exactly one point, so it cannot hold at both ends
    # of a symmetric S pair at once
    phi = parse("n1 -> ~<h>n1", H2)
    result = frame_valid(frame, phi)
    assert isinstance(result, Valid)
    sat_phi = parse("n1 & <h>~n1", H2)
    result = frame_valid(frame, Not(sat_phi))
    assert isinstance(result, CounterModel)
    assert result.model.valuation[Nominal(1)] in (0b01, 0b10)


def test_frame_valid_rejects_a_nominal_at_two_points(monkeypatch):
    # the exactly-one clauses keep each nominal at one point; a model that
    # broke them is an internal fault, not a counter-model
    frame = parse_frame("points: a b\nS: a b\n")
    monkeypatch.setattr(propsat, "solve",
                        lambda cnf: propsat.Sat([False] + [True] * cnf.num_atoms))
    with pytest.raises(InternalCheckFailed, match="nominal n1 placed at 2 points"):
        frame_valid(frame, parse("n1 -> p1", H2))


def test_frame_valid_agrees_with_brute_force_on_hybrid_frames():
    # [h], <h>, the nominals' exactly-one constraints and the derived
    # connectives of the encoding, against the oracle
    rng = random.Random(4321)
    fixed = [
        parse("n1 & p1 -> [h](n1 -> p1)", H2),  # at most one owner
        parse("<h>n1", H2),                     # at least one: valid iff S is total
        parse("<h>(n1 & p1) -> [h](n1 -> p1)", H2),
        parse("[h]p1 <-> ~<h>~p1", H2),
    ]
    verdicts = set()
    for n in (1, 2, 3):
        pts = tuple("xyz"[:n])
        m = n * n
        for bits in range(1 << 2 * m):
            if n == 3 and bits % 4099 != 0:
                continue  # sample 64 of the 262144 three-point frames
            frame = Frame(pts, bit_rows(bits, n), bit_rows(bits >> m, n))
            phi = random_formula(rng, depth=3, num_vars=2, language=H2, num_noms=1)
            for f in fixed + [phi]:
                expected = brute_force_frame_valid(frame, f)
                got = frame_valid(frame, f)
                assert isinstance(got, Valid) == expected, (serialize_frame(frame), f)
                if isinstance(got, CounterModel):
                    assert not model_check(got.model, got.point, f)
                verdicts.add((f in fixed, expected))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def all_frames(kind, sample_three):
    """Every frame of the kind with at most 2 points, and the 3-point ones
    whose edge bits are a multiple of `sample_three`."""
    for n in (1, 2, 3):
        pts = tuple("xyz"[:n])
        m = n * n
        for bits in range(1 << (2 * m if kind == H2 else m)):
            if n == 3 and bits % sample_three != 0:
                continue
            if kind == L:
                yield Frame(pts, bit_rows(bits, n))
            else:
                yield Frame(pts, bit_rows(bits, n), bit_rows(bits >> m, n))


def check_against_oracle(frame, phi):
    """frame_valid's verdict on phi, after checking it against the oracle
    and checking that a counter-model binds every symbol of phi and
    falsifies phi at its point."""
    got = frame_valid(frame, phi)
    assert isinstance(got, Valid) == brute_force_frame_valid(frame, phi), (
        serialize_frame(frame), phi)
    if isinstance(got, CounterModel):
        assert set(got.model.valuation) == ({Var(v) for v in variables(phi)}
                                            | {Nominal(m) for m in nominals(phi)})
        assert not model_check(got.model, got.point, phi)
    return isinstance(got, Valid)


def test_frame_valid_on_nominal_conjuncts_agrees_with_brute_force():
    # conjuncts without variables and with at most one nominal, alone and
    # mixed with a conjunct that has variables
    rng = random.Random(97)
    # conjuncts with variables that are valid on every frame, or on some
    valid_b = [parse("n1 & p1 -> [h](n1 -> p1)", H2), parse("[h]p1 <-> ~<h>~p1", H2),
               parse("<h>(n1 & p1) -> [h](n1 -> p1)", H2)]
    verdicts = set()
    for k, frame in enumerate(all_frames(H2, 4099)):
        a = random_formula(rng, depth=3, num_vars=0, language=H2, num_noms=1)
        b = valid_b[k % 4] if k % 4 < 3 else Var(1)
        while not variables(b):
            b = random_formula(rng, depth=2, num_vars=2, language=H2, num_noms=1)
        for phi, kind in ((a, "nominal"), (And(a, b), "mixed"), (And(b, a), "mixed")):
            verdicts.add((kind, check_against_oracle(frame, phi)))
    assert verdicts == {(kind, v) for kind in ("nominal", "mixed") for v in (True, False)}
    # an L formula with no symbol at all has one valuation
    verdicts.clear()
    for frame in all_frames(L, 23):
        phi = random_formula(rng, depth=3, num_vars=0, language=L)
        verdicts.add(check_against_oracle(frame, And(phi, ALPHA)))
    assert verdicts == {True, False}


def test_frame_valid_search_on_hybrid_canonical_frame(monkeypatch):
    # the program axioms of a hybrid certificate: the solver's search is
    # pinned, and it depends on the variable and nominal atoms coming first;
    # the CNF holds the instruction axioms and the nominal-agreement
    # conjuncts alike
    program = parse_program("1 -> 2,+1,0\n2 -> 1,-1,0 | 1,0,0")
    frame = canonical_frame(program, Config(1, 0, 0), 100, H2).frame
    phi = ax_program(program, H2)
    cnfs = []
    solve = propsat.solve
    monkeypatch.setattr(propsat, "solve", lambda cnf: cnfs.append(cnf) or solve(cnf))
    assert isinstance(frame_valid(frame, phi), Valid)
    [cnf] = cnfs
    solver = propsat.Solver(cnf)
    assert isinstance(solver.solve(), propsat.Unsat)
    assert (solver.decisions, solver.conflicts) == (38, 8)
    # the variables come first, with atoms only at the points where the
    # axioms read them (16 of the 2 * 22 pairs), then the nominal's atoms
    # at every point: its at-least-one clause comes first
    n = len(frame.points)
    assert n == 22 and nominals(phi) == {1} and variables(phi) == {1, 2}
    assert cnf.clauses[0] == list(range(17, 17 + n))
    # each defined atom gets only the directions its polarity needs: full
    # equivalences take 506 clauses over the same atoms
    assert (cnf.num_atoms, len(cnf.clauses)) == (107, 503)


def test_frame_valid_agrees_with_brute_force_where_polarities_collide():
    # every point sees x and y, so `<>~p1` and `[]p1` share one box atom:
    # the diamond asks for it first, in one direction, and the box then
    # needs the other
    frame = Frame(("x", "y", "z"), (0b011,) * 3)
    phi = parse("(<>~p1 & p2) | ([u]p1 -> []p1)")
    assert isinstance(frame_valid(frame, phi), Valid)
    # one shared subformula under ~, ->, <-> and a diamond, so its atoms
    # are asked for in both directions, in different orders
    rng = random.Random(2024)
    checked = verdicts = 0
    for language, num_noms, modality in ((L, 0, REL), (H2, 1, Modality.HYB)):
        for trial in range(300):
            shared = random_formula(rng, depth=2, num_vars=2, language=language,
                                    num_noms=num_noms)
            others = [random_formula(rng, depth=2, num_vars=2, language=language,
                                     num_noms=num_noms) for _ in range(3)]
            uses = [Not(shared), Implies(shared, others[0]), Iff(others[1], shared),
                    Diamond(modality, shared),
                    Box(REL, Or(shared, others[2]))]
            # an `<->` anywhere above gives both polarities, so most draws
            # combine a few uses with the one-polarity connectives
            uses = rng.sample(uses, rng.randint(2, 4))
            phi = uses[0]
            for use in uses[1:]:
                phi = rng.choice((And, Or, Implies, Implies, Iff))(phi, use)
            frame = random_frame(trial, 3, kind=language)
            expected = brute_force_frame_valid(frame, phi)
            got = frame_valid(frame, phi)
            assert isinstance(got, Valid) == expected, (serialize_frame(frame), phi)
            if isinstance(got, CounterModel):
                assert not model_check(got.model, got.point, phi)
            checked += 1
            verdicts += expected
    assert checked == 600 and 0 < verdicts < checked


def test_pruned_encoding_agrees_with_brute_force():
    # several top-level conjuncts over p1, p2 (and n1 in H2) whose leaves
    # hold variable-free subformulas, so the bounds fix part of each
    # conjunct and the relevance pass drops what no root reads; on frames
    # of at most four points every valuation is enumerated
    rng = random.Random(20)

    def folded(language, num_noms):
        # a random formula with a variable-free subformula in place of p3
        g = random_formula(rng, depth=3, num_vars=3, language=language, num_noms=num_noms)
        fixed = random_formula(rng, depth=2, num_vars=0, language=language)
        return apply_subst(Substitution({3: fixed}), g)

    verdicts = set()
    for language, num_noms in ((L, 0), (H2, 1)):
        for trial in range(200):
            parts = []
            for _ in range(rng.randint(2, 4)):
                f, g = folded(language, num_noms), folded(language, num_noms)
                # f -> f is valid, but the bounds alone do not decide it
                parts.append(rng.choice((f, Implies(f, f), Or(Not(f), g))))
            phi = conj(parts)
            frame = random_frame(1000 * trial + len(parts), 4, kind=language)
            verdicts.add((language, check_against_oracle(frame, phi)))
    assert verdicts == {(language, v) for language in (L, H2) for v in (True, False)}


def every_valuation(frame, num_vars, num_noms=0):
    """The `DisjointUnion` of `frame` under every valuation of p1 ... p<num_vars>
    and every placement of n1 ... n<num_noms>, one block each: a formula over
    these symbols is frame-valid exactly when it holds at every bit."""
    n = len(frame.points)
    var_nodes = [Var(v) for v in range(1, num_vars + 1)]
    nom_nodes = [Nominal(m) for m in range(1, num_noms + 1)]
    return DisjointUnion(
        (frame.r, frame.s, list(zip(var_nodes, masks)) + list(zip(nom_nodes, owners)))
        for masks in itertools.product(range(1 << n), repeat=num_vars)
        for owners in itertools.product([1 << i for i in range(n)], repeat=num_noms))


def upward_closure_rows(rng, n):
    """A transitive relation: the closure of random rows that only point
    up, with a loop at some points."""
    rows = transitive_closure(sum(1 << j for j in range(i + 1, n) if rng.random() < 0.4)
                              for i in range(n))
    return tuple(row | (rng.random() < 0.3) << i for i, row in enumerate(rows))


def partly_nested_rows(rng, n):
    """A relation that is not transitive, in which some row holds a point,
    that point's row and more: a row with a `_cover` and bits outside it
    and its rows."""
    while True:
        rows = [sum(1 << j for j in range(n) if rng.random() < 0.3) for _ in range(n)]
        for i in range(n):
            y = rng.randrange(n)
            if y != i and rng.random() < 0.6:
                rows[i] |= rows[y] | 1 << y | 1 << rng.randrange(n)
        rest = []
        for row in rows:
            cover, covered = _cover(rows, row), 0
            for y in range(n):
                if cover >> y & 1:
                    covered |= rows[y] | 1 << y
            rest.append(cover and row & ~covered)
        if any(rest) and not is_transitive(rows):
            return tuple(rows)


@pytest.mark.parametrize("relation", [upward_closure_rows, partly_nested_rows])
def test_shared_sub_row_literals_agree_with_brute_force(relation):
    # a box's conjunction over a row is built from those over the rows of
    # its cover; every valuation of p1, p2 (and n1 in H2) is enumerated as
    # one block of a disjoint union, so the verdict is one truth-mask pass
    rng = random.Random(26)
    verdicts = set()
    for language, num_noms, frames in ((L, 0, 8), (H2, 1, 4)):
        for trial in range(frames):
            n = rng.randint(5, 6)
            s = relation(rng, n) if language == H2 else None
            frame = Frame(tuple("w%d" % i for i in range(n)), relation(rng, n), s)
            union = every_valuation(frame, 2, num_noms)
            everywhere = (1 << union.width) - 1
            for _ in range(6):
                f, g = (random_formula(rng, depth=d, num_vars=2, language=language,
                                       num_noms=num_noms) for d in (3, 2))
                m = rng.choice((REL, Modality.HYB) if language == H2 else (REL,))
                for phi in (f, Or(Not(f), g), Implies(Box(m, f), Box(m, Or(f, g))),
                            Implies(Box(m, f), Box(m, Box(m, f))),
                            Implies(Diamond(m, Diamond(m, f)), Diamond(m, f))):
                    expected = truth_mask(union, phi) == everywhere
                    got = frame_valid(frame, phi)
                    assert isinstance(got, Valid) == expected, (serialize_frame(frame), phi)
                    if isinstance(got, CounterModel):
                        assert not model_check(got.model, got.point, phi)
                    verdicts.add((language, expected))
    assert verdicts == {(language, v) for language in (L, H2) for v in (True, False)}


def test_constant_and_literal_arguments_get_different_literals():
    # p1 takes atom 1 at a; `<>true | p1` is that atom at a and the constant
    # true at b, so the `&` above it has the argument pairs (1, L) at a and
    # (True, L) at b, which must not share one literal although True == 1
    frame = parse_frame("points: a b\nR: b a\n")
    phi = parse("~(((<>true | p1) & <u>p2) & [u]~p1)")
    assert not brute_force_frame_valid(frame, phi)
    got = frame_valid(frame, phi)
    assert isinstance(got, CounterModel)
    assert not model_check(got.model, got.point, phi)


def test_transitive_closure():
    assert transitive_closure(()) == ()
    # a -> b -> c gains a -> c
    assert transitive_closure((0b010, 0b100, 0)) == (0b110, 0b100, 0)
    rng = random.Random(3)
    for trial in range(300):
        n = rng.randint(1, 9)
        density = rng.random()
        rows = tuple(sum(1 << j for j in range(n) if rng.random() < density / 3)
                     for _ in range(n))
        got = transitive_closure(rows)
        assert got == closure_by_search(rows), rows
        assert is_transitive(got)


def test_transitive_reduction():
    # a -> b -> c with a -> c: the edge a -> c is implied
    assert transitive_reduction((0b110, 0b100, 0)) == (0b010, 0b100, 0)
    # a loop stays, since no other edge gives it back
    assert transitive_reduction((0b011, 0)) == (0b011, 0)
    # on a cycle through three points the reduction loses edges
    cycle = transitive_closure((0b010, 0b100, 0b001))
    assert transitive_closure(transitive_reduction(cycle)) != cycle
    rng = random.Random(4)
    for trial in range(300):
        n = rng.randint(1, 9)
        density = rng.random()
        # no cycle through two or more points: every edge goes up or is a loop
        rows = tuple(sum(1 << j for j in range(i, n) if rng.random() < density / 2)
                     for i in range(n))
        reduced = transitive_reduction(rows)
        closure = closure_by_search(rows)
        assert closure_by_search(reduced) == closure, rows
        # the fewest edges: a generating set holds every one, and each is needed
        assert all(kept & ~given == 0 for kept, given in zip(reduced, rows)), rows
        for i, row in enumerate(reduced):
            for j in range(n):
                if row >> j & 1:
                    fewer = list(reduced)
                    fewer[i] ^= 1 << j
                    assert closure_by_search(fewer) != closure, (rows, i, j)


def test_random_frame_deterministic_and_transitive():
    for seed in (0, 1, 7):
        assert random_frame(seed, 6) == random_frame(seed, 6)
    assert len(random_frame(0, 1).points) == 1
    for seed in range(60):
        frame = random_frame(seed, 5)
        assert is_transitive(transitive_closure(frame.r))


# pinned serialize_frame text of random frames: a change in how a seed
# draws its frame changes the models the random-model suite checks
_RANDOM_FRAME_TEXT = {
    (L, 0): "points: w0 w1 w2 w3\nR: w0 w0\nR: w0 w1\nR: w0 w3\nR: w1 w1\nR: w2 w2\n"
            "R: w3 w1\n",
    (L, 2): "points: w0\n",
    (L, 7): "points: w0 w1 w2\nR: w0 w0\nR: w0 w1\nR: w1 w0\nR: w2 w0\nR: w2 w1\n"
            "R: w2 w2\n",
    (H2, 0): "points: w0 w1 w2 w3\nR: w0 w0\nR: w0 w1\nR: w0 w3\nR: w1 w1\nR: w2 w2\n"
             "R: w3 w1\nS: w0 w1\nS: w1 w2\nS: w1 w3\nS: w3 w1\n",
    (H2, 2): "points: w0\nS:\n",
    (H2, 7): "points: w0 w1 w2\nR: w0 w0\nR: w0 w1\nR: w1 w0\nR: w2 w0\nR: w2 w1\n"
             "R: w2 w2\nS: w0 w1\nS: w2 w0\nS: w2 w2\n",
}
_RANDOM_FRAME_DIGEST = {
    L: "211e4af58ff34795de231c971bda226a09b30d80050cca557f115298b4e9653c",
    H2: "0a3463b09aea0ccfc4ef4fdf521f824349ea1300a434dcd241eabf31cc40ea55",
}


def test_random_frame_draws_the_recorded_frames():
    for (kind, seed), text in _RANDOM_FRAME_TEXT.items():
        assert serialize_frame(random_frame(seed, 4, kind=kind)) == text
    for kind, digest in _RANDOM_FRAME_DIGEST.items():
        text = "".join(serialize_frame(random_frame(seed, 8, kind=kind)) for seed in range(200))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        reinterpreted = Model(frame, {Var(v): truth_mask(base, sigma.get(v)) for v in (1, 2)})
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
    frame = parse_frame("points: a b c d\nR: a b\nR: b c\nS: c d\n")
    assert points_within(frame, "a", 0) == {"a"}
    assert points_within(frame, "a", 1) == {"a", "b"}
    assert points_within(frame, "a", 3) == {"a", "b", "c", "d"}


def test_frame_text_roundtrip():
    frame = random_frame(11, 5, kind=H2)
    assert parse_frame(serialize_frame(frame)) == frame
    plain = random_frame(12, 5)
    assert parse_frame(serialize_frame(plain)) == plain
    empty_s = Frame(("x",), (0,), (0,))
    assert serialize_frame(empty_s) == "points: x\nS:\n"
    assert parse_frame(serialize_frame(empty_s)) == empty_s
    # R is the closure of the `R*` edges joined with the `R:` edges, not the
    # closure of both; `S: all` makes S total
    assert parse_frame("points: x y z\nR*: x y\nR*: y z\nR: z x\nS: all\n") == Frame(
        ("x", "y", "z"), (0b110, 0b100, 0b001), (0b111,) * 3)
    # a point named `all`: `S: all` alone is a total S, `S: all x` an edge
    for s in ((0b10, 0), (0b11, 0b11), (0, 0b01)):
        named_all = Frame(("all", "x"), (0b10, 0), s)
        for write in (serialize_frame, serialize_generators):
            assert parse_frame(write(named_all)) == named_all, write(named_all)
    assert serialize_generators(Frame(("all", "x"), (0b10, 0), (0b10, 0))).endswith(
        "S: all x\n")


def test_frame_row_and_text_errors():
    with pytest.raises(ValueError):
        Frame(("x", "y"), (0,))
    with pytest.raises(ValueError):
        Frame(("x",), (0,), (0, 0))
    with pytest.raises(UnknownPoint):
        Frame(("x", "y"), (0b100, 0))
    with pytest.raises(UnknownPoint):
        Frame(("x",), (0,), (-1,))
    for text, message in (("points: x y\nR: x z\n", "R edge (x, z) on line 2 leaves the frame"),
                          ("R: z x\npoints: x\n", "R edge (z, x) on line 1 leaves the frame"),
                          ("points: x\nS:\nS: x z\n",
                           "S edge (x, z) on line 3 leaves the frame"),
                          # `all` after `S:` is a point when an edge follows
                          ("points: x y\nS: all x\n",
                           "S edge (all, x) on line 2 leaves the frame"),
                          ("points: x y\nS: all all\n",
                           "S edge (all, all) on line 2 leaves the frame")):
        with pytest.raises(UnknownPoint) as info:
            parse_frame(text)
        assert str(info.value) == message
    for text in ("R: x y\n", "points:\n", "points: x x\n", "points: x\nR: x\n",
                 "points: x\nS: x x x\n", "points: x\nT: x x\n"):
        with pytest.raises(ParseError):
            parse_frame(text)
    # the generator forms, too: the error names the line
    with pytest.raises(UnknownPoint) as info:
        parse_frame("points: x y\nR*: x y\nR*: y z\n")
    assert str(info.value) == "R* edge (y, z) on line 3 leaves the frame"
    for text in ("points: x y\nR*: x\n", "points: x y\nR*: x y x\n", "points: x y\nR*:\n",
                 "points: x y\nS: all x y\n"):
        with pytest.raises(ParseError) as info:
            parse_frame(text)
        assert "on line 2" in str(info.value), text
    # a second `points:` line is an error, not a silent overwrite
    with pytest.raises(ParseError) as info:
        parse_frame("points: a b\npoints: a b c\nR: a c\n")
    assert str(info.value).endswith("expected one 'points:' line, not a second on line 2")


def test_valuation_text_roundtrip():
    frame = Frame(("a", "b", "c"), (0, 0, 0), (0, 0, 0))
    model = Model(frame, {Var(1): 0b101, Var(2): 0, Nominal(1): 0b010})
    text = serialize_valuation(model)
    assert text == "p1 = {a, c}\np2 = {}\nn1 = b\n"
    assert parse_valuation(text, frame.points) == model.valuation


@pytest.mark.parametrize("text, line, lineno", [
    ("p1 = {a}\np1 = {b}\n", "p1 = {b}", 2),
    ("n1 = a\n# b owns n1\nn1 = b\n", "n1 = b", 3),
])
def test_valuation_text_gives_each_symbol_once(text, line, lineno):
    # a repeated symbol is an error, not a silent overwrite
    with pytest.raises(ParseError) as info:
        parse_valuation(text, ("a", "b"))
    assert str(info.value) == ("parse error at 0 near %r: expected a symbol that no "
                               "earlier line gives, on line %d" % (line, lineno))
    assert parse_valuation("p1 = {a}\nn1 = a\n", ("a", "b")) == {Var(1): 1, Nominal(1): 1}


def test_valuation_text_errors_name_their_line():
    # a point outside the frame, in a set or as a nominal's owner
    for text, message in (("p1 = {a}\np2 = {b, z}\n", "point z of p2 on line 2"),
                          ("# n1 at z\n\nn1 = z\n", "point z of n1 on line 3")):
        with pytest.raises(UnknownPoint) as info:
            parse_valuation(text, ("a", "b"))
        assert str(info.value) == message + " is not in the frame"
    # a nominal names one point, not a set of them
    with pytest.raises(ParseError) as info:
        parse_valuation("p1 = {a}\nn1 = a b\n", ("a", "b"))
    assert str(info.value).endswith("expected one point name on line 2")


def test_holds_everywhere():
    frame = single_point_frame(True)
    model = Model(frame, {})
    assert holds_everywhere(model, ALPHA)
    assert not holds_everywhere(model, parse("[]false"))


def test_universal_box_stays_inside_its_block():
    everywhere = Model(parse_frame("points: a b c\nR: a b\n"), {Var(1): 0b111})
    nowhere = Model(parse_frame("points: d e\nR: e e\n"), {Var(1): 0})
    union = union_of([everywhere, nowhere])
    assert union.offsets == [0, 3] and union.width == 5
    assert truth_mask(union, parse("[u]p1")) == 0b00111
    assert truth_mask(union, parse("<u>~p1")) == 0b11000
    for text in ("[u]p1", "<u>p1", "[u]~p1", "<u>(p1 & []p1)", "[]p1 | <>~p1", "[u]<u>p1"):
        phi = parse(text)
        assert truth_mask(union, phi) == (truth_mask(everywhere, phi)
                                          | truth_mask(nowhere, phi) << 3), text


def test_disjoint_union_masks_are_per_model_masks_side_by_side():
    rng = random.Random(11)
    for language, noms in ((L, ()), (H2, (1,))):
        models = []
        for seed in range(6):
            frame = random_frame(seed, 5, kind=language)
            models.append(Model(frame, random_valuation(seed, frame, (1, 2), noms)))
        union = union_of(models)
        for _ in range(60):
            phi = random_formula(rng, 4, 2, language, num_noms=len(noms))
            expected = 0
            for model, offset in zip(models, union.offsets):
                mask = truth_mask(model, phi)
                assert mask == sum(1 << model.frame.points.index(p)
                                   for p in truth_set(model, phi))
                expected |= mask << offset
            assert truth_mask(union, phi) == expected


def test_disjoint_union_offset_masks_match_pairs_reference():
    for language in (L, H2):
        models = [Model(random_frame(seed, 6, kind=language), {})
                  for seed in range(40)]
        for k in (1, 7, 40):
            assert union_of(models[:k]).edges == offset_masks_by_pairs(models[:k])


def test_disjoint_union_errors():
    bound = Model(Frame(("a",), (0,)), {Var(1): 1})
    unbound = Model(Frame(("b",), (0,)), {})
    with pytest.raises(UnboundSymbol):
        truth_mask(union_of([bound, unbound]), parse("p1"))
    hybrid = Model(Frame(("c",), (0,), (0,)), {})
    with pytest.raises(ValueError):
        union_of([bound, hybrid])
    with pytest.raises(LanguageMismatch):
        truth_mask(union_of([hybrid, hybrid]), parse("[u]true"))
