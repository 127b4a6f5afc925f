import os
import random
import subprocess
import sys

import pytest

import mlunif

from mlunif import propsat
from mlunif.errors import LanguageMismatch, ResourceLimit
from mlunif.formula import (
    H2, L, Diamond, Implies, Modality, Not, conj, parse, variables,
)
from mlunif.kripke import Frame, Model, Valuation, model_check, random_frame, truth_mask
from mlunif.decision import KH2, KU, CounterModel, Sat, Unsat, satisfiable, valid
from mlunif.encoding import tower
from helpers import holds_everywhere, random_formula, random_valuation

REL = Modality.REL
UNIV = Modality.UNIV
HYB = Modality.HYB


def test_one_unsat_result_type():
    assert Unsat is propsat.Unsat


def test_universal_conflict_unsat():
    assert isinstance(satisfiable(parse("[u]p1 & ~p1"), KU), Unsat)


def test_diamond_top_sat():
    result = satisfiable(parse("<>true"), KU)
    assert isinstance(result, Sat)
    assert model_check(result.model, result.point, parse("<>true"))


def test_alpha_and_beta_unsat():
    # a point with a successor cannot be an endpoint at the same time
    assert isinstance(satisfiable(parse("(<>true & []<>true) & []false"), KU), Unsat)


def test_universal_box_implies_rel_box_valid():
    assert isinstance(valid(parse("[u]p1 -> []p1"), KU), Valid_type := type(valid(parse("true"), KU)))


def test_valid_standard_axioms():
    from mlunif.decision import Valid
    assert isinstance(valid(parse("[u]p1 -> []p1"), KU), Valid)
    assert isinstance(valid(parse("[u]p1 -> p1"), KU), Valid)
    assert isinstance(valid(parse("[u]p1 -> [u][u]p1"), KU), Valid)
    assert isinstance(valid(parse("p1 -> [u]<u>p1"), KU), Valid)
    assert isinstance(valid(parse("[](p1 -> p2) -> ([]p1 -> []p2)"), KU), Valid)


def test_countermodel_for_non_theorem():
    result = valid(parse("p1 -> []p1"), KU)
    assert isinstance(result, CounterModel)
    assert not model_check(result.model, result.point, parse("p1 -> []p1"))


def test_eq_one_tower_instance_valid():
    from mlunif.decision import Valid
    phi = Implies(tower(1, 1),
                  conj([Diamond(REL, tower(1, 0)),
                        Not(Diamond(REL, tower(0, 0))),
                        Not(Diamond(REL, tower(2, 0)))]))
    assert isinstance(valid(phi, KU), Valid)


def test_tower_formulas_satisfiable():
    for i in range(3):
        result = satisfiable(tower(i, 1), KU)
        assert isinstance(result, Sat)


def test_language_mismatch():
    with pytest.raises(LanguageMismatch):
        satisfiable(parse("n1", H2), KU)
    with pytest.raises(LanguageMismatch):
        satisfiable(parse("[u]p1"), KH2)


def test_nested_global_operators():
    from mlunif.decision import Valid
    # truth of a global statement is itself global
    assert isinstance(valid(parse("<u>p1 -> [u]<u>p1"), KU), Valid)
    assert isinstance(valid(parse("[]<u>p1 | []~<u>p1"), KU), Valid)
    result = satisfiable(parse("<u>(p1 & <u>~p1)"), KU)
    assert isinstance(result, Sat)


def test_kh2_simple_sat():
    phi = parse("<h>(n1 & <h>[]false)", H2)
    result = satisfiable(phi, KH2)
    assert isinstance(result, Sat)
    assert model_check(result.model, result.point, phi)


def test_kh2_nominal_merge_unsat():
    phi = parse("<h>(n1 & p1) & <h>(n1 & ~p1)", H2)
    assert isinstance(satisfiable(phi, KH2), Unsat)


def test_kh2_nominal_merge_sat_when_consistent():
    phi = parse("<h>(n1 & p1) & <h>(n1 & p2)", H2)
    result = satisfiable(phi, KH2)
    assert isinstance(result, Sat)
    owner = result.model.valuation.nom_map[1]
    assert owner in result.model.valuation.var_map[1]
    assert owner in result.model.valuation.var_map[2]


def test_kh2_two_relations_are_independent():
    # an R-successor obligation does not discharge an S-box constraint
    phi = parse("<>p1 & [h]~p1 & ~p1", H2)
    result = satisfiable(phi, KH2)
    assert isinstance(result, Sat)
    from mlunif.decision import Valid
    assert isinstance(valid(parse("[h]false -> ~<h>true", H2), KH2), Valid)


def test_kh2_negative_nominal_only():
    result = satisfiable(parse("~n1 & <>~n1", H2), KH2)
    assert isinstance(result, Sat)
    assert 1 in result.model.valuation.nom_map


def test_resource_limit():
    # two universal atoms per level blow up the outer search budget quickly
    deep = parse("<>" * 12 + "p1")
    with pytest.raises(ResourceLimit):
        satisfiable(deep, KU, label_budget=3)


def test_sat_side_agrees_with_small_model_search():
    """Satisfiable verdicts double-checked by exhaustive search over all
    models with at most 3 points; Unsat verdicts spot-checked on random
    models (the logic has no 3-point small-model property)."""
    rng = random.Random(2024)
    formulas = [random_formula(rng, depth=2, num_vars=2, language=L)
                for _ in range(120)]
    pts_pool = ["x", "y", "z"]
    for phi in formulas:
        got = satisfiable(phi, KU)
        found = None
        for n in (1, 2, 3):
            pts = tuple(pts_pool[:n])
            pairs = [(a, b) for a in pts for b in pts]
            for rbits in range(1 << len(pairs)):
                frame = Frame(pts, frozenset(p for i, p in enumerate(pairs) if rbits >> i & 1))
                for v1 in range(1 << n):
                    for v2 in range(1 << n):
                        val = Valuation({
                            1: frozenset(p for i, p in enumerate(pts) if v1 >> i & 1),
                            2: frozenset(p for i, p in enumerate(pts) if v2 >> i & 1),
                        }, {})
                        model = Model(frame, val)
                        if truth_mask(model, phi):
                            found = model
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found is not None:
            assert isinstance(got, Sat), phi
        if isinstance(got, Unsat):
            assert found is None, phi


def test_unsat_side_spot_checked_on_random_models():
    from mlunif.decision import Valid
    rng = random.Random(31337)
    checked = 0
    for _ in range(150):
        phi = random_formula(rng, depth=2, num_vars=2, language=L)
        verdict = valid(phi, KU)
        if not isinstance(verdict, Valid):
            continue
        checked += 1
        for seed in range(40):
            frame = random_frame(seed, 6)
            model = Model(frame, random_valuation(seed, frame, var_indices=sorted(variables(phi) | {1})))
            assert holds_everywhere(model, phi), phi
    assert checked >= 3


def test_valid_formulas_true_on_random_models_kh2():
    from mlunif.decision import Valid
    phi = parse("[h](p1 & p2) -> [h]p1", H2)
    assert isinstance(valid(phi, KH2), Valid)
    phi2 = parse("<h>n1 -> <h>true", H2)
    assert isinstance(valid(phi2, KH2), Valid)


# Allocates a seeded ballast before importing mlunif, which shifts the heap
# addresses of every tableau node, then prints how many times one KU
# validity call ran the incremental solver, and the decisions and conflicts
# of those runs.
_COUNT_SOLVES = """
import random, sys
rng = random.Random(int(sys.argv[1]))
ballast = [[None] * rng.randrange(1, 16) for _ in range(rng.randrange(1, 4096))]
from mlunif import decision, propsat
from mlunif.encoding import UNIVERSAL, config_exists
from mlunif.formula import Implies, Not
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
decision.valid(Implies(config_exists(Config(1, 0, 0), UNIVERSAL),
                       Not(config_exists(Config(2, 0, 1), UNIVERSAL))), decision.KU)
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
    # 405 calls is the count under the engine's pre-order atom numbering; a
    # change of numbering that keeps every verdict can still cost orders of
    # magnitude more solver work, so the count itself is pinned.  The
    # decisions and conflicts pin the solver's search: a change that only
    # makes propsat faster must leave all three as they are.
    assert traces == {(405, 9004, 20)}, traces
