import os
import random
import subprocess
import sys

import pytest

import mlunif

from mlunif import decision, witness
from mlunif.formula import (
    BOT, H2, L, And, Nominal, Not, Substitution, apply_subst, language_of, nominals,
    parse, pretty, size, variables,
)
from mlunif.kripke import Frame, Model, transitive_closure, truth_mask
from mlunif.minsky import Config, parse_config, parse_program, reaches, run_trace
from mlunif.encoding import (
    PI1, PI2, TAU1, TAU2, config_exists, config_formula, pi_tau, psi, tower,
)
from mlunif.witness import (
    defect_formulas, no_defect_lemma, shifted_counter_index, shifted_counter_marker,
    step_lemmas, witness_from_trace,
)
from helpers import (
    holds_everywhere, point_mask, prefix_defect_model, random_frame, union_of,
)


def trace_of(program_text, start, bound=50):
    return run_trace(parse_program(program_text), start, bound)


def test_defect_shape():
    trace = trace_of("1 -> 2,+1,0\n2 -> 3,0,+1", Config(1, 0, 0))
    d0, d1 = defect_formulas(trace, L)
    assert d0 == And(config_exists(Config(1, 0, 0), L),
                     Not(config_exists(Config(2, 1, 0), L)))
    assert variables(d1) == set()
    assert nominals(defect_formulas(trace, H2)[1]) == {1}
    with pytest.raises(IndexError):
        defect_formulas(trace, L)[2]


def test_witness_zero_step_run():
    trace = trace_of("", Config(1, 0, 0), bound=0)
    sigma = witness_from_trace(trace, L)
    assert sigma == Substitution({1: BOT, 2: BOT})


def test_witness_inc_case_no_shift():
    prog = parse_program("1 -> 2,+1,0")
    result = reaches(prog, Config(1, 0, 0), Config(2, 1, 0), 10)
    sigma = witness_from_trace(result.trace, L)
    # single disjunct, counter value 0, no decrement ahead: marker index 0
    d0, = defect_formulas(result.trace, L)
    assert sigma.get(1) == And(d0, tower(1, 0))
    assert sigma.get(2) == And(d0, tower(2, 0))


def test_witness_dec_case_shifts_marker():
    prog = parse_program("1 -> 2,-1,0 | 9,0,0")
    result = reaches(prog, Config(1, 1, 0), Config(2, 0, 0), 10)
    trace = result.trace
    # counter one holds 1 and the step ahead decrements it: index 1 - 1 = 0
    assert shifted_counter_index(trace, 0, 1) == 0
    assert shifted_counter_marker(trace, 0, 1) == tower(1, 0)
    sigma = witness_from_trace(trace, L)
    assert sigma.get(1) == And(defect_formulas(trace, L)[0], tower(1, 0))


def test_witness_dec_zero_branch_no_shift():
    prog = parse_program("1 -> 2,-1,0 | 9,0,0")
    result = reaches(prog, Config(1, 0, 0), Config(9, 0, 0), 10)
    # zero branch taken: value is 0, first case applies
    assert shifted_counter_index(result.trace, 0, 1) == 0


def test_substituted_psi_holds_on_random_models_universal():
    prog = parse_program("1 -> 2,+1,0\n2 -> 3,0,+1")
    a, b = Config(1, 0, 0), Config(3, 1, 1)
    sigma = witness_from_trace(reaches(prog, a, b, 10).trace, L)
    bound_formula = apply_subst(sigma, psi(prog, a, b, L))
    assert variables(bound_formula) == set()
    for seed in range(60):
        frame = random_frame(seed, 6)
        assert holds_everywhere(Model(frame, {}), bound_formula), seed


def test_substituted_psi_holds_on_random_models_hybrid():
    prog = parse_program("1 -> 2,+1,0")
    a, b = Config(1, 0, 0), Config(2, 1, 0)
    sigma = witness_from_trace(reaches(prog, a, b, 10).trace, H2)
    bound_formula = apply_subst(sigma, psi(prog, a, b, H2))
    rng = random.Random(5)
    for seed in range(40):
        frame = random_frame(seed, 5, kind="H2")
        valuation = {Nominal(1): point_mask(frame, rng.choice(frame.points))}
        assert holds_everywhere(Model(frame, valuation), bound_formula), seed


def _claim_models(program_text, start, language, limit):
    """Yield (trace, i, model) triples where defect_i holds everywhere."""
    prog = parse_program(program_text)
    trace = run_trace(prog, start, 50)
    found = 0
    seed = 0
    while found < limit:
        seed += 1
        i = seed % len(trace)
        model = prefix_defect_model(seed, prog, trace, i, language,
                                    defect_formulas(trace, language)[i])
        if model is None:
            continue
        found += 1
        yield trace, i, model


def test_claim_one_equivalences():
    checked = 0
    for trace, i, model in _claim_models("1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,-1,0 | 5,0,0",
                                         Config(1, 1, 1), L, 25):
        sigma = witness_from_trace(trace, L)
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(PI1)))
        rhs = truth_mask(model, shifted_counter_marker(trace, i, 1))
        assert lhs == rhs
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(TAU1)))
        rhs = truth_mask(model, shifted_counter_marker(trace, i, 2))
        assert lhs == rhs
        checked += 1
    assert checked == 25


def test_claim_two_equivalences():
    checked = 0
    for trace, i, model in _claim_models("1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,-1,0 | 5,0,0",
                                         Config(1, 1, 1), L, 25):
        sigma = witness_from_trace(trace, L)
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(PI2)))
        rhs = truth_mask(model, tower(1, shifted_counter_index(trace, i, 1) + 1))
        assert lhs == rhs
        lhs = truth_mask(model, apply_subst(sigma, pi_tau(TAU2)))
        rhs = truth_mask(model, tower(2, shifted_counter_index(trace, i, 2) + 1))
        assert lhs == rhs
        checked += 1
    assert checked == 25


def test_defect_formulas_list():
    trace = trace_of("1 -> 2,+1,0\n2 -> 3,0,+1", Config(1, 0, 0))
    formulas = defect_formulas(trace, L)
    assert len(formulas) == len(trace) == 2


# the runs of the benchmark's tableau instances T1-T3 and suite instances
# S1 and S2, and a decrement that takes its zero branch
LEMMA_RUNS = {
    "T1": ("1 -> 2,0,-1 | 3,0,0", "1,0,1", "2,0,0"),
    "T2": ("1 -> 2,0,+1", "1,0,0", "2,0,1"),
    "T3": ("1 -> 2,-1,0 | 3,0,0", "1,1,0", "2,0,0"),
    "S1": ("1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,+1,0", "1,0,0", "4,2,1"),
    "S2": ("1 -> 2,+1,0\n2 -> 3,+1,0\n3 -> 4,0,+1\n4 -> 5,-1,0 | 9,0,0\n"
           "5 -> 6,0,-1 | 9,0,0", "1,0,0", "6,1,0"),
    "zero": ("1 -> 2,-1,0 | 3,0,0", "1,0,0", "3,0,0"),
}


def lemma_run(name):
    text, start, target = LEMMA_RUNS[name]
    program = parse_program(text)
    start, target = parse_config(start), parse_config(target)
    return program, start, target, reaches(program, start, target, 50).trace


def test_step_lemmas_shape():
    _, _, _, trace = lemma_run("S1")
    lemmas = step_lemmas(trace)
    assert len(lemmas) == 2 * len(trace) == 6
    for lemma in lemmas + [no_defect_lemma(trace)]:
        assert language_of(lemma) is None  # plain K: no [u], [h] or nominal
    # step 0 increments counter 1 from 1,0,0: its configuration formula is
    # the first lemma's antecedent, the next configuration's the second's
    # consequent
    assert lemmas[0].left is config_formula(Config(1, 0, 0))
    assert lemmas[1].right is config_formula(Config(2, 1, 0))
    assert no_defect_lemma(trace) is parse(
        "~(p1 & ~p2 | p1 & p2 & ~p3 | p1 & p2 & p3 & ~p4) & p1 -> p4")
    # a zero-step run has no step lemma, and q_0 -> q_0 is its no-defect lemma
    empty = run_trace(parse_program(""), Config(1, 0, 0), 0)
    assert step_lemmas(empty) == []
    assert no_defect_lemma(empty) is parse("~false & p1 -> p1")


def with_shifted_marker(monkeypatch, i, counter, delta, build):
    """build() while counter's marker index at step i is shifted by delta."""
    unshifted = witness.shifted_counter_index

    def shifted(t, j, c):
        return unshifted(t, j, c) + (delta if (j, c) == (i, counter) else 0)

    with monkeypatch.context() as patch:
        patch.setattr(witness, "shifted_counter_index", shifted)
        return build()


def shifted_step_lemmas(monkeypatch, trace, i, counter, delta):
    """The lemmas of step i with counter's marker index shifted by delta."""
    return with_shifted_marker(monkeypatch, i, counter, delta,
                               lambda: step_lemmas(trace)[2 * i:2 * i + 2])


@pytest.mark.parametrize("name", ["S1", "S2", "T1", "T2", "T3"])
def test_every_marker_shift_fails_a_step_lemma(monkeypatch, name):
    # shifting one counter's marker index at one step by +1, or by -1 where
    # the index stays >= 0, must give a counter-model to a lemma of that step
    _, _, _, trace = lemma_run(name)
    mutants = 0
    for i in range(len(trace)):
        for counter in (1, 2):
            for delta in (1, -1):
                if shifted_counter_index(trace, i, counter) + delta < 0:
                    continue
                step = shifted_step_lemmas(monkeypatch, trace, i, counter, delta)
                assert any(isinstance(decision.valid(lemma), decision.CounterModel)
                           for lemma in step), (name, i, counter, delta)
                mutants += 1
    assert mutants >= 2 * len(trace)


def test_zero_branch_lemmas_leave_the_decremented_marker_free(monkeypatch):
    # the zero branch of a counter-1 decrement does not mention p1, so the
    # lemmas, and the argument, hold for any marker of counter 1 at that step
    _, _, _, trace = lemma_run("zero")
    assert shifted_step_lemmas(monkeypatch, trace, 0, 1, 1) == step_lemmas(trace)
    step = shifted_step_lemmas(monkeypatch, trace, 0, 2, 1)
    assert any(isinstance(decision.valid(lemma), decision.CounterModel) for lemma in step)


def test_valid_lemmas_give_valid_substituted_psi():
    # the glue of the step-lemma argument, checked on models: on prefix
    # frames where defect_i holds everywhere, and on random frames where
    # mostly no defect holds, sigma(psi) holds at every point
    for name in sorted(LEMMA_RUNS):
        program, start, target, trace = lemma_run(name)
        for lemma in step_lemmas(trace) + [no_defect_lemma(trace)]:
            assert isinstance(decision.valid(lemma), decision.Valid), (name, pretty(lemma))
        bound_formula = apply_subst(witness_from_trace(trace, L),
                                    psi(program, start, target, L))
        defects = defect_formulas(trace, L)
        covered = set()
        for seed in range(40):
            i = seed % len(trace)
            model = prefix_defect_model(seed, program, trace, i, L, defects[i])
            if model is not None:
                covered.add(i)
                assert holds_everywhere(model, bound_formula), (name, seed, i)
        assert covered == set(range(len(trace))), name
        for seed in range(40):
            frame = random_frame(seed, 6)
            if seed % 2:
                frame = Frame(frame.points, transitive_closure(frame.r))
            assert holds_everywhere(Model(frame, {}), bound_formula), (name, seed)


def test_valid_lemmas_give_valid_substituted_hybrid_psi(monkeypatch):
    # the hybrid glue of the step-lemma argument, checked on models: on H2
    # prefix frames, where defect_i holds everywhere, sigma(psi) holds at
    # every point, and shifting a marker that its step's lemmas read by one
    # index gives a sigma(psi) that fails on a prefix frame of that step
    for name in sorted(LEMMA_RUNS):
        program, start, target, trace = lemma_run(name)
        reduction = psi(program, start, target, H2)
        defects = defect_formulas(trace, H2)
        prefix_models = {}
        for seed in range(40):
            i = seed % len(trace)
            model = prefix_defect_model(seed, program, trace, i, H2, defects[i])
            if model is not None:
                prefix_models.setdefault(i, []).append(model)
        assert set(prefix_models) == set(range(len(trace))), name
        bound_formula = apply_subst(witness_from_trace(trace, H2), reduction)
        for i, models in prefix_models.items():
            assert all(holds_everywhere(m, bound_formula) for m in models), (name, i)
        mutants = 0
        for i, models in prefix_models.items():
            union = union_of(models)
            for counter in (1, 2):
                for delta in (1, -1):
                    if (shifted_counter_index(trace, i, counter) + delta < 0
                            or shifted_step_lemmas(monkeypatch, trace, i, counter, delta)
                            == step_lemmas(trace)[2 * i:2 * i + 2]):
                        continue
                    sigma = with_shifted_marker(monkeypatch, i, counter, delta,
                                                lambda: witness_from_trace(trace, H2))
                    mask = truth_mask(union, apply_subst(sigma, reduction))
                    assert mask != (1 << union.width) - 1, (name, i, counter, delta)
                    mutants += 1
        assert mutants >= len(trace), name


@pytest.mark.parametrize("steps, nodes", [(50, 2122), (100, 4122)])
def test_substituted_psi_dag_grows_linearly(steps, nodes):
    # an n-step increment run gives 40n + 122 distinct subterms
    program = parse_program("".join("%d -> %d,+1,0\n" % (k, k + 1)
                                    for k in range(1, steps + 1)))
    start, target = Config(1, 0, 0), Config(steps + 1, steps, 0)
    sigma = witness_from_trace(run_trace(program, start, steps), L)
    got = size(apply_subst(sigma, psi(program, start, target, L)))
    assert got == nodes


_DEEP_INPUTS = r"""
import sys
limit = sys.getrecursionlimit()
import mlunif.cli
assert sys.getrecursionlimit() == limit, "importing mlunif changed the recursion limit"
from mlunif.encoding import psi, tower
from mlunif.formula import (
    L, Var, apply_subst, parse, parse_substitution, pretty, size)
from mlunif.kripke import Frame, Model, Valid, frame_valid, truth_mask
from mlunif.minsky import Config, parse_program, run_trace
from mlunif.witness import witness_from_trace

steps = 800
program = parse_program("".join("%d -> %d,+1,0\n" % (k, k + 1) for k in range(1, steps + 1)))
start, target = Config(1, 0, 0), Config(steps + 1, steps, 0)
reduction = psi(program, start, target, L)
sigma = witness_from_trace(run_trace(program, start, steps), L)
bound = apply_subst(sigma, reduction)
assert size(bound) == 40 * steps + 122
frame = Frame(("a", "b"), (0b10, 0b10))
assert isinstance(frame_valid(frame, bound), Valid)
model = Model(frame, {Var(1): 0b01, Var(2): 0b10})
truth_mask(model, bound)
assert parse(pretty(bound)) is bound
assert parse_substitution(sigma.serialize()) == sigma
tower(0, 2000)
assert parse("(" * 10000 + "p1" + ")" * 10000) is parse("p1")
assert size(parse("~" * 10000 + "p1")) == 10001
print("ok")
"""


def test_deep_inputs_at_default_recursion_limit():
    # a fresh interpreter without site hooks keeps the default limit (1000),
    # which the 800-step run's DAG and the nested inputs all exceed in depth
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlunif.__file__)))
    out = subprocess.run([sys.executable, "-S", "-c", _DEEP_INPUTS],
                         env={"PYTHONPATH": src}, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "ok"
