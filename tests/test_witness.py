import random

import pytest

from mlunif.errors import NotReachable
from mlunif.formula import (
    BOT, And, Not, Substitution, apply_subst, nominals, size, variables,
)
from mlunif.kripke import (
    Model, Valuation, holds_everywhere, random_frame, random_valuation,
    truth_mask,
)
from mlunif.minsky import Config, Trace, Yes, parse_program, reaches, run_trace
from mlunif.encoding import (
    HYBRID, PI1, PI2, TAU1, TAU2, UNIVERSAL, config_exists, pi_tau, psi, tower,
)
from mlunif.witness import (
    defect, defect_formulas, shifted_counter_index, shifted_counter_marker,
    witness_from_trace, witness_substitution,
)
from helpers import prefix_defect_model


def trace_of(program_text, start, bound=50):
    return run_trace(parse_program(program_text), start, bound)


def test_defect_shape():
    trace = trace_of("1 -> 2,+1,0\n2 -> 3,0,+1", Config(1, 0, 0))
    d0 = defect(0, trace, UNIVERSAL)
    assert d0 == And(config_exists(Config(1, 0, 0), UNIVERSAL),
                     Not(config_exists(Config(2, 1, 0), UNIVERSAL)))
    d1 = defect(1, trace, UNIVERSAL)
    assert variables(d1) == set()
    assert nominals(defect(1, trace, HYBRID)) == {1}
    with pytest.raises(IndexError):
        defect(2, trace, UNIVERSAL)
    with pytest.raises(IndexError):
        defect(-1, trace, UNIVERSAL)


def test_witness_zero_step_run():
    trace = trace_of("", Config(1, 0, 0), bound=0)
    sigma = witness_from_trace(trace, UNIVERSAL)
    assert sigma == Substitution({1: BOT, 2: BOT})


def test_witness_inc_case_no_shift():
    prog = parse_program("1 -> 2,+1,0")
    result = reaches(prog, Config(1, 0, 0), Config(2, 1, 0), 10)
    sigma = witness_from_trace(result.trace, UNIVERSAL)
    # single disjunct, counter value 0, no decrement ahead: marker index 0
    assert sigma.get(1) == And(defect(0, result.trace, UNIVERSAL), tower(1, 0))
    assert sigma.get(2) == And(defect(0, result.trace, UNIVERSAL), tower(2, 0))


def test_witness_dec_case_shifts_marker():
    prog = parse_program("1 -> 2,-1,0 | 9,0,0")
    result = reaches(prog, Config(1, 1, 0), Config(2, 0, 0), 10)
    trace = result.trace
    # counter one holds 1 and the step ahead decrements it: index 1 - 1 = 0
    assert shifted_counter_index(trace, 0, 1) == 0
    assert shifted_counter_marker(trace, 0, 1) == tower(1, 0)
    sigma = witness_from_trace(trace, UNIVERSAL)
    assert sigma.get(1) == And(defect(0, trace, UNIVERSAL), tower(1, 0))


def test_witness_dec_zero_branch_no_shift():
    prog = parse_program("1 -> 2,-1,0 | 9,0,0")
    result = reaches(prog, Config(1, 0, 0), Config(9, 0, 0), 10)
    # zero branch taken: value is 0, first case applies
    assert shifted_counter_index(result.trace, 0, 1) == 0


def test_witness_substitution_raises_when_unreachable():
    prog = parse_program("1 -> 2,+1,0")
    with pytest.raises(NotReachable):
        witness_substitution(prog, Config(1, 0, 0), Config(7, 0, 0), 10, UNIVERSAL)


def test_substituted_psi_holds_on_random_models_universal():
    prog = parse_program("1 -> 2,+1,0\n2 -> 3,0,+1")
    a, b = Config(1, 0, 0), Config(3, 1, 1)
    sigma = witness_substitution(prog, a, b, 10, UNIVERSAL)
    bound_formula = apply_subst(sigma, psi(prog, a, b, UNIVERSAL))
    assert variables(bound_formula) == set()
    for seed in range(60):
        frame = random_frame(seed, 6)
        assert holds_everywhere(Model(frame, Valuation()), bound_formula), seed


def test_substituted_psi_holds_on_random_models_hybrid():
    prog = parse_program("1 -> 2,+1,0")
    a, b = Config(1, 0, 0), Config(2, 1, 0)
    sigma = witness_substitution(prog, a, b, 10, HYBRID)
    bound_formula = apply_subst(sigma, psi(prog, a, b, HYBRID))
    rng = random.Random(5)
    for seed in range(40):
        frame = random_frame(seed, 5, kind="H2")
        valuation = Valuation({}, {1: rng.choice(frame.points)})
        assert holds_everywhere(Model(frame, valuation), bound_formula), seed


def _claim_models(program_text, start, mode, limit):
    """Yield (trace, i, model) triples where defect_i holds everywhere."""
    prog = parse_program(program_text)
    trace = run_trace(prog, start, 50)
    found = 0
    seed = 0
    while found < limit:
        seed += 1
        i = seed % len(trace)
        model = prefix_defect_model(seed, prog, trace, i, mode,
                                    defect(i, trace, mode))
        if model is None:
            continue
        found += 1
        yield trace, i, model


def test_claim_one_equivalences():
    checked = 0
    for trace, i, model in _claim_models("1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,-1,0 | 5,0,0",
                                         Config(1, 1, 1), UNIVERSAL, 25):
        sigma = witness_from_trace(trace, UNIVERSAL)
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
                                         Config(1, 1, 1), UNIVERSAL, 25):
        sigma = witness_from_trace(trace, UNIVERSAL)
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
    formulas = defect_formulas(trace, UNIVERSAL)
    assert len(formulas) == len(trace) == 2


@pytest.mark.parametrize("steps, nodes", [(50, 2122), (100, 4122)])
def test_substituted_psi_dag_grows_linearly(steps, nodes):
    # an n-step increment run gives 40n + 122 distinct subterms
    program = parse_program("".join("%d -> %d,+1,0\n" % (k, k + 1)
                                    for k in range(1, steps + 1)))
    start, target = Config(1, 0, 0), Config(steps + 1, steps, 0)
    sigma = witness_from_trace(run_trace(program, start, steps), UNIVERSAL)
    got = size(apply_subst(sigma, psi(program, start, target, UNIVERSAL)))
    assert got == nodes
