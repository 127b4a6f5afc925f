import pytest

from mlunif import minsky
from mlunif.errors import DeterminismError, ParseError, ResourceLimit
from mlunif.minsky import (
    EXHAUSTED, HALTED, LOOPED, REACHED, Config, Dec, Inc, MinskyProgram, No, Unknown,
    Yes, parse_config, parse_program, reaches, run_trace, step,
)


def test_parse_increment():
    prog = parse_program("1 -> 2,+1,0")
    assert prog.instructions == (Inc(1, 1, 2),)
    prog = parse_program("1 -> 2,0,+1\n")
    assert prog.instructions == (Inc(2, 1, 2),)


def test_parse_decrement_with_zero_branch():
    prog = parse_program("1 -> 2,-1,0 | 3,0,0")
    assert prog.instructions == (Dec(1, 1, 2, 3),)
    prog = parse_program("5 -> 6,0,-1 | 7,0,0")
    assert prog.instructions == (Dec(2, 5, 6, 7),)


def test_parse_comments_and_blank_lines():
    prog = parse_program("# doubling loop\n\n1 -> 2,+1,0  # push\n2 -> 1,0,+1\n")
    assert len(prog.instructions) == 2


def test_determinism_error():
    with pytest.raises(DeterminismError):
        parse_program("1 -> 2,+1,0\n1 -> 3,0,+1")


def test_parse_rejections():
    with pytest.raises(ParseError):
        parse_program("1 -> 2,+1,+1")  # two nonzero deltas
    with pytest.raises(ParseError):
        parse_program("1 -> 2,0,0")  # no nonzero delta
    with pytest.raises(ParseError):
        parse_program("1 -> 2,-1,0")  # decrement without zero branch
    with pytest.raises(ParseError):
        parse_program("1 -> 2,+1,0 | 3,0,0")  # increment with zero branch
    with pytest.raises(ParseError):
        parse_program("nonsense")


def test_step_semantics():
    inc1 = MinskyProgram((Inc(1, 1, 2),))
    assert step(inc1, Config(1, 0, 0)) == Config(2, 1, 0)
    dec2 = MinskyProgram((Dec(2, 1, 2, 3),))
    # zero branch keeps the counters and moves to the alternate state
    assert step(dec2, Config(1, 5, 0)) == Config(3, 5, 0)
    assert step(dec2, Config(1, 5, 2)) == Config(2, 5, 1)
    empty = MinskyProgram(())
    assert step(empty, Config(1, 3, 4)) is None


def test_run_trace_zero_bound():
    prog = MinskyProgram((Inc(1, 1, 1),))
    trace = run_trace(prog, Config(1, 0, 0), 0)
    assert trace.configs == (Config(1, 0, 0),)
    assert trace.instrs == ()


def test_run_trace_grows_counter():
    prog = MinskyProgram((Inc(1, 1, 1),))
    trace = run_trace(prog, Config(1, 0, 0), 3)
    assert [c.c1 for c in trace.configs] == [0, 1, 2, 3]
    assert trace.stopped == EXHAUSTED


def test_run_trace_consecutive_entries_related_by_step():
    prog = parse_program("1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 1,-1,0 | 4,0,0")
    trace = run_trace(prog, Config(1, 0, 0), 20)
    for i, ins in enumerate(trace.instrs):
        assert step(prog, trace.configs[i]) == trace.configs[i + 1]
        assert prog.instruction_for(trace.configs[i].state) == ins


def test_run_trace_halts():
    prog = MinskyProgram((Inc(1, 1, 2),))
    trace = run_trace(prog, Config(1, 0, 0), 10)
    assert trace.stopped == HALTED
    assert trace.configs[-1] == Config(2, 1, 0)


def test_run_trace_detects_loop():
    # zero branch returns to the same state: 1-cycle on <1,0,0>
    prog = parse_program("1 -> 2,-1,0 | 1,0,0")
    trace = run_trace(prog, Config(1, 0, 0), 10)
    assert trace.stopped == LOOPED
    assert trace.configs == (Config(1, 0, 0),)
    assert len(set(trace.configs)) == len(trace.configs)


def test_run_trace_step_budget(monkeypatch):
    monkeypatch.setattr(minsky, "STEP_BUDGET", 5)
    counting = parse_program("1 -> 1,+1,0")
    # up to the budget the run is cut by its bound, one step past it stops
    assert run_trace(counting, Config(1, 0, 0), 5).stopped == EXHAUSTED
    with pytest.raises(ResourceLimit) as info:
        run_trace(counting, Config(1, 0, 0), 6)
    assert str(info.value) == "bounded run budget exceeded: 6 steps, limit 5"
    # runs that halt or loop within the budget are unaffected by the bound
    halting = parse_program("1 -> 2,+1,0\n2 -> 3,+1,0")
    assert run_trace(halting, Config(1, 0, 0), 100).stopped == HALTED
    looping = parse_program("1 -> 2,+1,0\n2 -> 1,-1,0 | 1,0,0")
    assert run_trace(looping, Config(1, 0, 0), 100).stopped == LOOPED


def test_run_trace_stops_at_its_target(monkeypatch):
    monkeypatch.setattr(minsky, "STEP_BUDGET", 10)
    counting = parse_program("1 -> 1,+1,0")
    trace = run_trace(counting, Config(1, 0, 0), 1000, target=Config(1, 3, 0))
    assert trace.configs[-1] == Config(1, 3, 0)
    assert len(trace) == 3
    assert trace.stopped == REACHED
    # a start that is the target takes no step, even under bound 0
    assert run_trace(counting, Config(1, 0, 0), 0, target=Config(1, 0, 0)).stopped == REACHED
    # a target past the budget still stops the run there
    with pytest.raises(ResourceLimit):
        run_trace(counting, Config(1, 0, 0), 1000, target=Config(1, 11, 0))
    assert reaches(counting, Config(1, 0, 0), Config(1, 10, 0), 1000).trace.stopped == REACHED


def test_reaches_zero_steps():
    prog = MinskyProgram(())
    a = Config(1, 2, 3)
    result = reaches(prog, a, a, 0)
    assert isinstance(result, Yes)
    assert result.trace.configs == (a,)


def test_reaches_no_for_halting_machine():
    prog = MinskyProgram(())
    assert isinstance(reaches(prog, Config(1, 0, 0), Config(2, 0, 0), 5), No)


def test_reaches_unknown_when_diverging():
    prog = MinskyProgram((Inc(1, 1, 1),))
    result = reaches(prog, Config(1, 0, 0), Config(2, 0, 0), 10)
    assert isinstance(result, Unknown)


def test_reaches_yes_replays_under_step():
    prog = parse_program("1 -> 2,+1,0\n2 -> 3,0,+1")
    result = reaches(prog, Config(1, 0, 0), Config(3, 1, 1), 10)
    assert isinstance(result, Yes)
    trace = result.trace
    assert trace.configs[0] == Config(1, 0, 0)
    assert trace.configs[-1] == Config(3, 1, 1)
    for i in range(len(trace)):
        assert step(prog, trace.configs[i]) == trace.configs[i + 1]


def test_no_stable_under_increasing_bound():
    prog = parse_program("1 -> 2,-1,0 | 1,0,0")
    for bound in (1, 2, 5, 20, 100):
        assert isinstance(reaches(prog, Config(1, 0, 0), Config(9, 9, 9), bound), No)


def test_parse_config():
    assert parse_config("3, 1, 0") == Config(3, 1, 0)
    with pytest.raises(ParseError):
        parse_config("3,1")
