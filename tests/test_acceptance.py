"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import random
import time

from mlunif import decision, propsat
from mlunif.formula import (
    H2, L, And, Diamond, Implies, Modality, Nominal, Not, Var, apply_subst, conj,
    ground_substitutions, parse, pretty,
)
from mlunif.kripke import (
    Frame, Model, Valid, frame_valid, model_check, transitive_closure, truth_mask,
)
from mlunif.minsky import Config, Yes, parse_program, reaches, run_trace
from mlunif.encoding import (
    ax_program, canonical_frame, marker, nom_formula,
    parse_labeled_frame, psi, serialize_labeled_frame, surrogate_exists, tower,
    PI1, PI2, TAU1, TAU2, pi_tau,
)
from mlunif.eqtheory import parse_term, print_term, theory_implications
from mlunif.witness import (
    defect_formulas, no_defect_lemma, shifted_counter_index, shifted_counter_marker,
    step_lemmas, witness_from_trace,
)
from mlunif.workbench import (
    NotUnifiable, certificate_checks, check_on_random_models,
    check_unifiable_via_reduction,
)
from helpers import (
    bit_rows, point_mask, points_where, points_within, prefix_defect_model, random_formula,
    random_frame, random_term, with_total_s,
)
from test_propsat import random_cnf, sat_by_truth_table
from test_kripke import brute_force_frame_valid

REL = Modality.REL
HYB = Modality.HYB

SAMPLE_PROGRAMS = [
    ("1 -> 2,+1,0", Config(1, 0, 0)),
    ("1 -> 2,0,+1\n2 -> 3,0,-1 | 4,0,0", Config(1, 0, 0)),
    ("1 -> 2,-1,0 | 3,0,0", Config(1, 0, 0)),  # zero branch taken
]

REACHABLE_SHORT = [
    ("", "1,0,0", "1,0,0"),
    ("1 -> 2,+1,0", "1,0,0", "2,1,0"),
    ("1 -> 2,0,+1", "1,0,0", "2,0,1"),
    ("1 -> 2,-1,0 | 3,0,0", "1,1,0", "2,0,0"),
    ("1 -> 2,-1,0 | 3,0,0", "1,0,0", "3,0,0"),
    ("1 -> 2,0,-1 | 3,0,0", "1,0,1", "2,0,0"),
    ("1 -> 2,+1,0\n2 -> 3,-1,0 | 4,0,0", "1,0,0", "3,0,0"),
]

REACHABLE_LONG = [
    ("1 -> 2,+1,0", "1,0,0", "2,1,0"),
    ("1 -> 2,+1,0\n2 -> 3,-1,0 | 4,0,0", "1,0,0", "3,0,0"),
    ("1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,+1,0", "1,0,0", "4,2,1"),
    ("1 -> 2,0,+1\n2 -> 3,0,+1\n3 -> 4,0,-1 | 9,0,0\n4 -> 5,+1,0", "1,0,0", "5,1,1"),
    ("1 -> 2,+1,0\n2 -> 3,+1,0\n3 -> 4,0,+1\n4 -> 5,-1,0 | 9,0,0\n5 -> 6,0,-1 | 9,0,0",
     "1,0,0", "6,1,0"),
]

UNREACHABLE = [
    ("", "1,0,0", "2,0,0"),
    ("1 -> 2,+1,0", "1,0,0", "3,0,0"),
    ("1 -> 2,-1,0 | 3,0,0", "1,0,0", "2,0,0"),
    ("1 -> 2,-1,0 | 1,0,0", "1,0,0", "2,0,0"),
    ("1 -> 2,+1,0\n2 -> 1,-1,0 | 1,0,0", "1,0,0", "3,0,0"),
]


def _case(text, a, b):
    return (parse_program(text),
            Config(*map(int, a.split(","))),
            Config(*map(int, b.split(","))))


def report(number, name, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("ACCEPTANCE %02d %s: PASS%s" % (number, name, suffix))


def test_c01_characteristic_exactness():
    worst = 0.0
    for text, start in SAMPLE_PROGRAMS:
        program = parse_program(text)
        lf = canonical_frame(program, start, 50, L)
        t0 = time.time()
        model = Model(lf.frame, {})
        for point in lf.frame.points:
            where = points_where(model, marker(lf.labels[point]))
            assert where == {point}, (text, point, where)
        worst = max(worst, time.time() - t0)
    assert worst < 5.0
    report(1, "characteristic exactness", "3 frames, worst %.2fs" % worst)


def test_c02_tower_schemata_valid_on_random_frames():
    t0 = time.time()
    instances = []
    for i in range(3):
        for j in range(4):
            instances.append(Implies(tower(i, j), Not(Diamond(REL, tower(i, j)))))
            parts = [Diamond(REL, tower(i, 0))]
            parts += [Not(Diamond(REL, tower(k, 0))) for k in range(3) if k != i]
            instances.append(Implies(tower(i, j + 1), conj(parts)))
    checked = 0
    for seed in range(200):
        frame = random_frame(seed, 6)
        if seed % 2 == 0:
            frame = Frame(frame.points, transitive_closure(frame.r))
        for phi in instances:
            assert isinstance(frame_valid(frame, phi), Valid), (seed, pretty(phi))
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, "level schemata valid on random frames",
           "%d checks, %.1fs" % (checked, elapsed))


def test_c03_program_axioms_valid_on_canonical_frame():
    t0 = time.time()
    for text, start in SAMPLE_PROGRAMS:
        program = parse_program(text)
        for language in (L, H2):
            lf = canonical_frame(program, start, 50, language)
            verdict = frame_valid(lf.frame, ax_program(program, language))
            assert isinstance(verdict, Valid), (text, language)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, "program axioms frame-valid", "3 programs x 2 modes, %.1fs" % elapsed)


def test_c04_reachable_direction_tableau():
    t0 = time.time()
    lengths = []
    for text, a, b in REACHABLE_SHORT:
        program, start, target = _case(text, a, b)
        outcome = reaches(program, start, target, 50)
        assert isinstance(outcome, Yes)
        assert len(outcome.trace) <= 2
        lengths.append(len(outcome.trace))
        sigma = witness_from_trace(outcome.trace, L)
        bound_formula = apply_subst(sigma, psi(program, start, target, L))
        verdict = decision.valid(bound_formula, label_budget=5_000_000)
        assert isinstance(verdict, decision.Valid), (text, a, b)
        # the conjunction of the step lemmas and the no-defect lemma, which
        # the pipeline proves in one call in place of the whole formula,
        # holds as well
        lemmas = conj(step_lemmas(outcome.trace) + [no_defect_lemma(outcome.trace)])
        verdict = decision.valid(lemmas, label_budget=5_000_000)
        assert isinstance(verdict, decision.Valid), (text, a, b)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    assert len(lengths) >= 5
    report(4, "tableau proves the substituted reduction formula",
           "%d instances, lengths %s, %.0fs" % (len(lengths), sorted(set(lengths)), elapsed))


def test_c05_reachable_direction_stochastic():
    t0 = time.time()
    models_checked = 0
    for text, a, b in REACHABLE_LONG:
        program, start, target = _case(text, a, b)
        outcome = reaches(program, start, target, 50)
        assert isinstance(outcome, Yes) and len(outcome.trace) <= 5
        for language in (L, H2):
            sigma = witness_from_trace(outcome.trace, language)
            bound_formula = apply_subst(sigma, psi(program, start, target, language))
            checked, failure = check_on_random_models(
                bound_formula, language, 1000 + len(outcome.trace), 1000, 8)
            assert failure is None, (text, language, failure)
            assert checked == 1000
            models_checked += checked
    report(5, "substituted reduction formula on random models",
           "%d models, %.0fs" % (models_checked, time.time() - t0))


def test_c06_unreachable_direction_certificates(tmp_path):
    for index, (text, a, b) in enumerate(UNREACHABLE):
        program, start, target = _case(text, a, b)
        verdict = check_unifiable_via_reduction(program, start, target, 50, L)
        assert isinstance(verdict, NotUnifiable), (text, a, b)
        path = tmp_path / ("cert%d.frame" % index)
        path.write_text(serialize_labeled_frame(verdict.certificate))
        reloaded = parse_labeled_frame(path.read_text())
        checks = certificate_checks(reloaded, program, start, target, L)
        assert all(checks.values()), (text, checks)
        # every substitution of constants for the two counter variables is
        # refuted on the frame
        reduction = psi(program, start, target, L)
        model = Model(reloaded.frame, {})
        ground_count = 0
        for sigma in ground_substitutions({1, 2}):
            instance = apply_subst(sigma, reduction)
            assert truth_mask(model, instance) == 0, (text, sigma)
            ground_count += 1
        assert ground_count == 4
    report(6, "non-unifiability certificates re-verified from disk",
           "%d instances" % len(UNREACHABLE))


CLAIMS_PROGRAM = "1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,-1,0 | 5,0,0"


def _claim_stream(limit, seed_base):
    program = parse_program(CLAIMS_PROGRAM)
    trace = run_trace(program, Config(1, 1, 1), 50)
    sigma = witness_from_trace(trace, L)
    produced = 0
    seed = seed_base
    while produced < limit:
        seed += 1
        i = seed % len(trace)
        model = prefix_defect_model(seed, program, trace, i, L,
                                    defect_formulas(trace, L)[i])
        if model is None:
            continue
        produced += 1
        yield trace, sigma, i, model


def test_c07_claims_property_suite():
    t0 = time.time()
    for trace, sigma, i, model in _claim_stream(500, 10_000):
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(PI1)))
        assert lhs == truth_mask(model, shifted_counter_marker(trace, i, 1))
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(TAU1)))
        assert lhs == truth_mask(model, shifted_counter_marker(trace, i, 2))
    for trace, sigma, i, model in _claim_stream(500, 20_000):
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(PI2)))
        assert lhs == truth_mask(model, tower(1, shifted_counter_index(trace, i, 1) + 1))
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(TAU2)))
        assert lhs == truth_mask(model, tower(2, shifted_counter_index(trace, i, 2) + 1))
    report(7, "counter-pattern equivalences on filtered models",
           "2 x 500 models, %.0fs" % (time.time() - t0))


def test_c08_defect_exclusivity():
    t0 = time.time()
    program = parse_program("1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,+1,0")
    trace = run_trace(program, Config(1, 0, 0), 50)
    assert len(trace) == 3
    defects = defect_formulas(trace, L)
    pairs = 0
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            both = And(defects[i], defects[j])
            assert isinstance(decision.satisfiable(both), decision.Unsat), (i, j)
            pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, "defect formulas pairwise exclusive", "%d pairs, %.1fs" % (pairs, elapsed))


def _nom_models(limit, seed_base):
    """Random hybrid models whose first point satisfies the agreement
    formula; drawn from mixed shapes and verified before use."""
    nom = nom_formula()
    produced = 0
    seed = seed_base
    while produced < limit:
        seed += 1
        rng = random.Random(seed)
        style = seed % 3
        if style == 0:
            frame = with_total_s(random_frame(seed, 6))
        elif style == 1:
            frame = random_frame(seed, 6, kind="H2")
        else:
            base = random_frame(seed, 5, kind="L")
            # an island frame: the nominal's point is S-unreachable
            n = len(base.points)
            s = tuple(sum(1 << j for j in range(n) if rng.random() < 0.4) for _ in range(n))
            frame = Frame(base.points + ("island",), base.r + (0,), s + (0,))
        owner = "island" if style == 2 else rng.choice(frame.points)
        model = Model(frame, {Nominal(1): point_mask(frame, owner)})
        if not model_check(model, frame.points[0], nom):
            continue
        produced += 1
        yield model


def test_c09_nom_count_and_locality():
    conjuncts = []
    stack = [nom_formula()]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend((f.left, f.right))
        else:
            conjuncts.append(f)
    assert len(conjuncts) == 252
    sees_nominal = Diamond(HYB, Nominal(1))
    checked = 0
    for model in _nom_models(300, 30_000):
        root = model.frame.points[0]
        mask = truth_mask(model, sees_nominal)
        root_value = bool(mask >> model.frame.points.index(root) & 1)
        for point in points_within(model.frame, root, 6):
            value = bool(mask >> model.frame.points.index(point) & 1)
            assert value == root_value, (model.frame, point)
        checked += 1
    report(9, "agreement formula size and locality", "252 conjuncts, %d models" % checked)


def test_c10_surrogate_matches_global_diamond():
    rng = random.Random(99)
    frames = 0
    for seed in range(200):
        frame = with_total_s(random_frame(seed, 6))
        n = len(frame.points)
        owner = rng.randrange(n)
        model = Model(frame, {Var(1): sum(1 << i for i in range(n) if rng.random() < 0.5),
                              Nominal(1): 1 << owner})
        full = (1 << n) - 1
        for _ in range(50):
            phi = random_formula(rng, depth=3, num_vars=1, language="H2")
            somewhere = truth_mask(model, phi) != 0
            surrogate = truth_mask(model, surrogate_exists(phi))
            assert surrogate == (full if somewhere else 0), (seed, pretty(phi))
        frames += 1
    report(10, "surrogate diamond equals global reach under total S",
           "%d frames x 50 formulas" % frames)


def test_c11_algebra_bridge():
    rng = random.Random(4242)
    for _ in range(500):
        t = random_term(rng, 4)
        assert parse_term(print_term(t)) is t
    for phi in theory_implications():
        assert isinstance(decision.valid(phi), decision.Valid), pretty(phi)
    report(11, "algebra-term bridge", "500 round-trips, 4 axiom implications")


def test_c12_cross_validation():
    # solver vs truth tables
    rng = random.Random(987654)
    for _ in range(500):
        n = rng.randint(1, 20)
        cnf = random_cnf(rng, n, rng.randint(1, int(4.5 * n)))
        expected = sat_by_truth_table(cnf)
        got = propsat.solve(cnf)
        if expected is None:
            assert isinstance(got, propsat.Unsat)
        else:
            assert isinstance(got, propsat.Sat)
            assert propsat.check_assignment(cnf, got.assignment)
    # tableau models verified by the model checker
    sat_models = 0
    for _ in range(150):
        phi = random_formula(rng, depth=3, num_vars=2, language="L")
        result = decision.satisfiable(phi)
        if isinstance(result, decision.Sat):
            assert model_check(result.model, result.point, phi)
            sat_models += 1
    assert sat_models > 50
    # frame validity vs brute-force valuation enumeration on all tiny frames
    formulas = [
        parse("p1 -> <>p1"),
        parse("[]p1 -> p1"),
        parse("[u]p1 -> []p1"),
        parse("<>(p1 & p2) -> <>p1"),
        parse("[u](p1 -> p2) -> ([]p1 -> [u]p2)"),
        parse("<u>p1 -> <>p1"),
    ]
    frames_checked = 0
    for n in (1, 2, 3):
        pts = tuple("xyz"[:n])
        for bits in range(1 << n * n):
            frame = Frame(pts, bit_rows(bits, n))
            phi = formulas[frames_checked % len(formulas)]
            expected = brute_force_frame_valid(frame, phi)
            assert isinstance(frame_valid(frame, phi), Valid) == expected, (bits, pretty(phi))
            frames_checked += 1
    assert frames_checked == 2 + 16 + 512
    report(12, "solver, tableau and frame validity cross-validated",
           "500 CNFs, %d tableau models, %d frames" % (sat_models, frames_checked))
