import os
import random
import subprocess
import sys

import pytest

import mlunif

from mlunif import decision, propsat
from mlunif.errors import LanguageError, ResourceLimit
from mlunif.formula import (
    H2, L, And, Box, Diamond, Implies, Modality, Nominal, Not, Var, apply_subst,
    conj, parse, variables,
)
from mlunif.kripke import Frame, Model, model_check, truth_mask
from mlunif.decision import CounterModel, Sat, Unsat, Valid, satisfiable, valid
from mlunif.encoding import psi, tower
from mlunif.minsky import Config, parse_program, reaches
from mlunif.witness import witness_from_trace
from helpers import (
    bit_rows, holds_everywhere, random_formula, random_frame, random_valuation, union_of,
)

REL = Modality.REL
UNIV = Modality.UNIV
HYB = Modality.HYB


def test_one_unsat_result_type():
    assert Unsat is propsat.Unsat


def test_universal_conflict_unsat():
    assert isinstance(satisfiable(parse("[u]p1 & ~p1")), Unsat)


def test_diamond_top_sat():
    result = satisfiable(parse("<>true"))
    assert isinstance(result, Sat)
    assert model_check(result.model, result.point, parse("<>true"))


def test_alpha_and_beta_unsat():
    # a point with a successor cannot be an endpoint at the same time
    assert isinstance(satisfiable(parse("(<>true & []<>true) & []false")), Unsat)


def test_universal_box_implies_rel_box_valid():
    assert isinstance(valid(parse("[u]p1 -> []p1")), Valid_type := type(valid(parse("true"))))


def test_valid_standard_axioms():
    assert isinstance(valid(parse("[u]p1 -> []p1")), Valid)
    assert isinstance(valid(parse("[u]p1 -> p1")), Valid)
    assert isinstance(valid(parse("[u]p1 -> [u][u]p1")), Valid)
    assert isinstance(valid(parse("p1 -> [u]<u>p1")), Valid)
    assert isinstance(valid(parse("[](p1 -> p2) -> ([]p1 -> []p2)")), Valid)


def test_countermodel_for_non_theorem():
    result = valid(parse("p1 -> []p1"))
    assert isinstance(result, CounterModel)
    assert not model_check(result.model, result.point, parse("p1 -> []p1"))


def test_eq_one_tower_instance_valid():
    phi = Implies(tower(1, 1),
                  conj([Diamond(REL, tower(1, 0)),
                        Not(Diamond(REL, tower(0, 0))),
                        Not(Diamond(REL, tower(2, 0)))]))
    assert isinstance(valid(phi), Valid)


def test_tower_formulas_satisfiable():
    for i in range(3):
        result = satisfiable(tower(i, 1))
        assert isinstance(result, Sat)


def test_language_picks_the_engine():
    # only the hybrid tableau builds frames with the second relation S
    assert valid(parse("<h>p1 -> p1", H2)).model.frame.kind == H2
    assert valid(parse("n1 -> p1", H2)).model.frame.kind == H2
    assert valid(parse("[u]p1 -> p1 & p2")).model.frame.kind == L
    assert valid(parse("[]p1 -> p1")).model.frame.kind == L
    with pytest.raises(LanguageError):
        satisfiable(And(Box(UNIV, Var(1)), Nominal(1)))


def test_nested_global_operators():
    # truth of a global statement is itself global
    assert isinstance(valid(parse("<u>p1 -> [u]<u>p1")), Valid)
    assert isinstance(valid(parse("[]<u>p1 | []~<u>p1")), Valid)
    result = satisfiable(parse("<u>(p1 & <u>~p1)"))
    assert isinstance(result, Sat)


def test_kh2_simple_sat():
    phi = parse("<h>(n1 & <h>[]false)", H2)
    result = satisfiable(phi)
    assert isinstance(result, Sat)
    assert model_check(result.model, result.point, phi)


def test_kh2_nominal_merge_unsat():
    phi = parse("<h>(n1 & p1) & <h>(n1 & ~p1)", H2)
    assert isinstance(satisfiable(phi), Unsat)


def test_kh2_nominal_merge_sat_when_consistent():
    phi = parse("<h>(n1 & p1) & <h>(n1 & p2)", H2)
    result = satisfiable(phi)
    assert isinstance(result, Sat)
    valuation = result.model.valuation
    owner = valuation[Nominal(1)]
    assert owner & valuation[Var(1)] and owner & valuation[Var(2)]


def test_kh2_two_relations_are_independent():
    # an R-successor obligation does not discharge an S-box constraint
    phi = parse("<>p1 & [h]~p1 & ~p1", H2)
    result = satisfiable(phi)
    assert isinstance(result, Sat)
    assert isinstance(valid(parse("[h]false -> ~<h>true", H2)), Valid)


def test_kh2_negative_nominal_only():
    result = satisfiable(parse("~n1 & <>~n1", H2))
    assert isinstance(result, Sat)
    assert Nominal(1) in result.model.valuation


def test_kh2_disjunction_with_a_conjunction_arm():
    # a label holds the conjunction node itself, not only its conjuncts, so
    # the disjunction counts as satisfied once that arm is chosen
    for text in ("(p1 & p2) | n1", "(n1 & p1) | <h>p2", "(p1 & <h>p2) | <h>true"):
        phi = parse(text, H2)
        result = satisfiable(phi, label_budget=1000)
        assert isinstance(result, Sat), text
        assert model_check(result.model, result.point, phi)


def test_ku_and_kh2_engines_agree_on_k_formulas():
    # K formulas mean the same in both logics, so the two tableaux, which
    # share no search code, must give the same answers
    rng = random.Random(7)
    for _ in range(300):
        phi = random_formula(rng, depth=5, num_vars=3, language=None)
        for f in (phi, Not(phi)):
            b = decision.NfBuilder()
            root = b.from_formula(f)
            ku = decision._ku_satisfiable(b, root, decision.DEFAULT_LABEL_BUDGET)[0]
            kh2 = decision._kh2_satisfiable(b, root, decision.DEFAULT_LABEL_BUDGET)[0]
            assert ku == kh2, f


def test_resource_limit():
    # two universal atoms per level blow up the outer search budget quickly
    deep = parse("<>" * 12 + "p1")
    with pytest.raises(ResourceLimit) as info:
        satisfiable(deep, label_budget=3)
    assert str(info.value) == "tableau budget exceeded: 4 node expansions, limit 3"


def test_superset_index_holds_only_unconditional_sat_results(monkeypatch):
    # sigma(psi) of a length-1 run leans on blocks for many Sat verdicts;
    # such a verdict holds only while its blocking ancestor stays on the
    # path, so answering a subset from it would be unsound
    engines = []
    init = decision._KEngine.__init__

    def recording(self, *args):
        init(self, *args)
        engines.append(self)

    monkeypatch.setattr(decision._KEngine, "__init__", recording)
    program = parse_program("1 -> 2,0,-1 | 3,0,0")
    outcome = reaches(program, Config(1, 0, 1), Config(2, 0, 0), 10)
    sigma = witness_from_trace(outcome.trace, L)
    phi = apply_subst(sigma, psi(program, Config(1, 0, 1), Config(2, 0, 0), L))
    assert isinstance(valid(phi), Valid)
    (engine,) = engines
    assert engine.cond
    indexed = 0
    for axioms_key, index in engine.supersets.items():
        for uid, postings in index.items():
            for ckey, world in postings:
                assert uid in ckey - axioms_key
                assert engine.cache.get((ckey, axioms_key)) == (True, world)
                indexed += 1
    assert indexed


def test_sat_side_agrees_with_small_model_search():
    """Satisfiable verdicts double-checked by exhaustive search over all
    small models, held side by side in one disjoint union: the L models of
    at most 3 points over p1, p2, and the H2 models of at most 2 points
    over p1, p2, n1, n2.  A formula that holds somewhere in the union must
    get Sat, with a model that re-checks.  Unsat verdicts are spot-checked
    on random models (neither logic has a small-model property this
    small)."""
    rng = random.Random(2024)
    cases = [
        (L, 3, 2 * 4 + 16 * 16 + 512 * 64,
         [random_formula(rng, depth=2, num_vars=2, language=L) for _ in range(120)]),
        (H2, 2, 2 * 2 * 4 + 16 * 16 * 16 * 4,
         [random_formula(rng, depth=4, num_vars=2, language=H2, num_noms=2)
          for _ in range(300)]),
    ]

    def small_models(size, language):
        for n in range(1, size + 1):
            pts = ("x", "y", "z")[:n]
            subsets = range(1 << n)
            relations = [bit_rows(bits, n) for bits in range(1 << n * n)]
            if language == L:
                frames = [Frame(pts, r) for r in relations]
                nominal_maps = [{}]
            else:
                frames = [Frame(pts, r, s) for r in relations for s in relations]
                nominal_maps = [{Nominal(1): 1 << a, Nominal(2): 1 << b}
                                for a in range(n) for b in range(n)]
            for frame in frames:
                for v1 in subsets:
                    for v2 in subsets:
                        for noms in nominal_maps:
                            yield Model(frame, {Var(1): v1, Var(2): v2, **noms})

    for language, size, count, formulas in cases:
        union = union_of(small_models(size, language))
        assert len(union.offsets) == count
        for phi in formulas:
            got = satisfiable(phi)
            if isinstance(got, Sat):
                assert model_check(got.model, got.point, phi), phi
            else:
                assert truth_mask(union, phi) == 0, phi


def test_unsat_side_spot_checked_on_random_models():
    rng = random.Random(31337)
    checked = 0
    for _ in range(150):
        phi = random_formula(rng, depth=2, num_vars=2, language=L)
        verdict = valid(phi)
        if not isinstance(verdict, Valid):
            continue
        checked += 1
        for seed in range(40):
            frame = random_frame(seed, 6)
            model = Model(frame, random_valuation(seed, frame, var_indices=sorted(variables(phi) | {1})))
            assert holds_everywhere(model, phi), phi
    assert checked >= 3


def test_valid_formulas_true_on_random_models_kh2():
    phi = parse("[h](p1 & p2) -> [h]p1", H2)
    assert isinstance(valid(phi), Valid)
    phi2 = parse("<h>n1 -> <h>true", H2)
    assert isinstance(valid(phi2), Valid)


# Allocates a seeded ballast before importing mlunif, which shifts the heap
# addresses of every tableau node, then prints how many times one KU
# validity call ran the incremental solver, and the decisions and conflicts
# of those runs.
_COUNT_SOLVES = """
import random, sys
rng = random.Random(int(sys.argv[1]))
ballast = [[None] * rng.randrange(1, 16) for _ in range(rng.randrange(1, 4096))]
from mlunif import decision, propsat
from mlunif.encoding import config_exists
from mlunif.formula import L, Implies, Not
from mlunif.minsky import Config
calls = decisions = conflicts = 0
solve = propsat.Solver.solve
def counted(self, *args):
    global calls, decisions, conflicts
    calls += 1
    d, c = self.decisions, self.conflicts
    result = solve(self, *args)
    decisions += self.decisions - d
    conflicts += self.conflicts - c
    return result
propsat.Solver.solve = counted
decision.valid(Implies(config_exists(Config(1, 0, 0), L),
                       Not(config_exists(Config(2, 0, 1), L))))
print(calls, decisions, conflicts)
"""


def test_ku_search_does_not_depend_on_heap_layout():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlunif.__file__)))
    env = {"PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    traces = set()
    for ballast in range(4):
        out = subprocess.run([sys.executable, "-S", "-c", _COUNT_SOLVES, str(ballast)],
                             env=env, capture_output=True, text=True, timeout=120,
                             check=True)
        traces.add(tuple(int(x) for x in out.stdout.split()))
    # 274 calls is the count under the engine's pre-order atom numbering and
    # its subset-matching Sat cache, whose hits skip the solves of every
    # content that an earlier satisfied content contains; a change of
    # numbering or of caching that keeps every verdict can still cost orders
    # of magnitude more solver work, so the count itself is pinned.  The
    # decisions and conflicts pin the solver's search: a change that only
    # makes propsat faster must leave all three as they are.  Deciding each
    # node's cone alone took the decisions from 6,022 to 2,052.
    assert traces == {(274, 2052, 8)}, traces
