"""The explicit unifier for reachable targets.

For a run of length l, the i-th defect formula says the first i steps are
represented by configuration points but step i+1 is not.  The unifier maps
each counter variable to a disjunction over i of (defect_i and the tower
marker of the counter's value at step i), where the marker index shifts
down by one exactly when the step ahead decrements that counter from a
nonzero value.
"""

from __future__ import annotations

from typing import List

from .formula import And, Formula, Not, Substitution, disj
from .minsky import Dec, Trace
from .encoding import config_exists, tower


def defect(i: int, trace: Trace, language: str) -> Formula:
    """Run represented faithfully through step i, but not at step i + 1."""
    if not 0 <= i < len(trace):
        raise IndexError("defect index %d out of range for a %d-step trace"
                         % (i, len(trace)))
    return defect_formulas(trace, language)[i]


def defect_formulas(trace: Trace, language: str) -> List[Formula]:
    """defect(i) for every step i; consecutive defects share their
    left-associated prefix conjunction, which is built once."""
    out: List[Formula] = []
    prefix = config_exists(trace.configs[0], language)
    for config in trace.configs[1:]:
        here = config_exists(config, language)
        out.append(And(prefix, Not(here)))
        prefix = And(prefix, here)
    return out


def shifted_counter_index(trace: Trace, i: int, counter: int) -> int:
    """Value of `counter` at step i, minus one when the instruction leaving
    step i decrements that counter from a nonzero value."""
    config = trace.configs[i]
    value = config.c1 if counter == 1 else config.c2
    ins = trace.instrs[i]
    if value != 0 and isinstance(ins, Dec) and ins.counter == counter:
        return value - 1
    return value


def shifted_counter_marker(trace: Trace, i: int, counter: int) -> Formula:
    return tower(counter, shifted_counter_index(trace, i, counter))


def witness_from_trace(trace: Trace, language: str) -> Substitution:
    """Unifier built from a witnessing run; for a zero-step run both
    variables map to false (the empty disjunction)."""
    defects = defect_formulas(trace, language)
    return Substitution({
        counter: disj([And(d, shifted_counter_marker(trace, i, counter))
                       for i, d in enumerate(defects)])
        for counter in (1, 2)
    })

