"""Self-contained CNF representation and a complete SAT solver.

The solver is DPLL with watched-literal unit propagation, first-UIP clause
learning, activity-based branching and Luby restarts: small enough to stay
dependency-free, strong enough for the frame-validity encodings of the
kripke module and the KU tableau's propositional phase.  `CnfBuilder`
writes both encodings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .errors import ResourceLimit


@dataclass
class CNF:
    num_atoms: int
    clauses: List[List[int]] = field(default_factory=list)

    def validate(self) -> None:
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_atoms:
                    raise ValueError("literal %d out of range" % lit)


class SatResult:
    pass


@dataclass
class Sat(SatResult):
    assignment: Dict[int, bool]


@dataclass
class Unsat(SatResult):
    pass


def check_assignment(cnf: CNF, assignment: Dict[int, bool]) -> bool:
    """Independent clause-by-clause check of a model."""
    for clause in cnf.clauses:
        if not any(assignment.get(abs(lit), False) == (lit > 0) for lit in clause):
            return False
    return True


def _luby(x: int) -> int:
    # Luby sequence 1 1 2 1 1 2 4 ... (0-indexed)
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class Solver:
    """CDCL solver usable one-shot or incrementally.

    Incremental use: construct empty, grow with ensure_atoms/add_clause
    between solve calls, and pass per-call assumption literals; learned
    clauses are resolution consequences of the database alone, so they
    stay valid across calls."""

    def __init__(self, cnf: Optional[CNF] = None, conflict_budget: Optional[int] = None):
        self.n = 0
        self.budget = conflict_budget
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.assign: List[int] = [0]   # 0 unknown, 1 true, -1 false
        self.level: List[int] = [0]
        self.reason: List[int] = [-1]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self.phase: List[bool] = [False]
        self.conflicts = 0
        self.trivially_unsat = False
        self._qhead = 0  # trail index of the next literal to propagate
        if cnf is not None:
            cnf.validate()
            self.ensure_atoms(cnf.num_atoms)
            for clause in cnf.clauses:
                self.add_clause(clause)

    def ensure_atoms(self, n: int) -> None:
        while self.n < n:
            self.n += 1
            self.assign.append(0)
            self.level.append(0)
            self.reason.append(-1)
            self.activity.append(0.0)
            self.phase.append(False)

    def add_clause(self, clause: List[int]) -> None:
        """Add a clause at decision level zero (i.e. between solve calls)."""
        if self.trail_lim:
            self._cancel_until(0)
        if not self._add_clause(sorted(set(clause), key=abs)):
            self.trivially_unsat = True

    def _add_clause(self, lits: List[int]) -> bool:
        if not lits:
            return False
        for a in lits:
            if -a in lits:
                return True  # tautological clause, drop
        if len(lits) == 1:
            return self._enqueue(lits[0], -1)
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(idx)
        self.watches.setdefault(lits[1], []).append(idx)
        return True

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: int) -> bool:
        if self._value(lit) == 1:
            return True
        if self._value(lit) == -1:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Returns conflicting clause index or -1."""
        qhead = self._qhead
        while qhead < len(self.trail):
            lit = self.trail[qhead]
            qhead += 1
            false_lit = -lit
            watchlist = self.watches.get(false_lit, [])
            i = 0
            while i < len(watchlist):
                ci = watchlist[i]
                clause = self.clauses[ci]
                # ensure false_lit is at position 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._value(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        watchlist[i] = watchlist[-1]
                        watchlist.pop()
                        moved = True
                        break
                if moved:
                    continue
                # clause is unit or conflicting
                if not self._enqueue(first, ci):
                    self._qhead = len(self.trail)
                    return ci
                i += 1
        self._qhead = qhead
        return -1

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.n + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, confl: int) -> Tuple[List[int], int]:
        learnt = [0]
        seen = [False] * (self.n + 1)
        path_count = 0
        p = None  # literal whose reason clause is being examined
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for q in self.clauses[confl]:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        path_count += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            seen[abs(p)] = False
            index -= 1
            path_count -= 1
            if path_count <= 0:
                break
            confl = self.reason[abs(p)]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        # move one literal of the backjump level into watch position
        for k in range(1, len(learnt)):
            if self.level[abs(learnt[k])] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _cancel_until(self, lvl: int) -> None:
        while len(self.trail_lim) > lvl:
            bound = self.trail_lim.pop()
            while len(self.trail) > bound:
                lit = self.trail.pop()
                var = abs(lit)
                self.phase[var] = lit > 0
                self.assign[var] = 0
                self.reason[var] = -1
        self._qhead = len(self.trail)

    def _decide(self) -> int:
        best = 0
        best_act = -1.0
        for v in range(1, self.n + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        if best == 0:
            return 0
        return best if self.phase[best] else -best

    def solve(self, assumptions: Tuple[int, ...] = ()) -> SatResult:
        if self.trivially_unsat:
            return Unsat()
        if self.trail_lim:
            self._cancel_until(0)
        if self._propagate() != -1:
            return Unsat()
        restart_count = 0
        limit = _luby(restart_count) * 64
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl != -1:
                self.conflicts += 1
                conflicts_here += 1
                if self.budget is not None and conflicts_here > self.budget:
                    raise ResourceLimit("SAT conflict budget exceeded")
                if len(self.trail_lim) == 0:
                    return Unsat()
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        return Unsat()
                else:
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches.setdefault(learnt[0], []).append(idx)
                    self.watches.setdefault(learnt[1], []).append(idx)
                    self._enqueue(learnt[0], idx)
                self.var_inc /= 0.95
                continue
            if conflicts_here >= limit:
                conflicts_here = 0
                restart_count += 1
                limit = _luby(restart_count) * 64
                self._cancel_until(0)
                continue
            if len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                value = self._value(lit)
                if value == -1:
                    return Unsat()
                self.trail_lim.append(len(self.trail))
                if value == 0:
                    self._enqueue(lit, -1)
                continue
            lit = self._decide()
            if lit == 0:
                assignment = {v: self.assign[v] == 1 for v in range(1, self.n + 1)}
                return Sat(assignment)
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, -1)


def solve(cnf: CNF, conflict_budget: Optional[int] = None) -> SatResult:
    """Complete satisfiability check; Sat results are verified before return."""
    result = Solver(cnf, conflict_budget).solve()
    if isinstance(result, Sat):
        if not check_assignment(cnf, result.assignment):
            raise AssertionError("solver returned a non-model")  # pragma: no cover
    return result


# --- Tseitin-style CNF building ----------------------------------------------

Literal = Union[int, bool]


class CnfBuilder:
    """Incremental CNF with fresh-atom definitions: the one encoder under
    both the frame-validity check and the KU tableau.

    Methods accept and return `Literal`s: either a nonzero signed atom index
    or a Python bool, so callers can fold constants without special cases.
    """

    def __init__(self, clause_budget: Optional[int] = None):
        self.num_atoms = 0
        self.clauses: List[List[int]] = []
        self.clause_budget = clause_budget
        self.defined: Dict[Tuple[int, ...], int] = {}

    def new_atom(self) -> int:
        self.num_atoms += 1
        return self.num_atoms

    def add_clause(self, lits: Iterable[Literal]) -> None:
        out = []
        for lit in lits:
            if lit is True:
                return  # clause satisfied
            if lit is False:
                continue
            out.append(lit)
        self.clauses.append(out)
        if self.clause_budget is not None and len(self.clauses) > self.clause_budget:
            raise ResourceLimit("CNF clause budget exceeded")

    def negate(self, lit: Literal) -> Literal:
        if isinstance(lit, bool):
            return not lit
        return -lit

    def define(self, lit: int, lits: List[int]) -> None:
        """Clauses making `lit` equivalent to the conjunction of `lits`."""
        for part in lits:
            self.add_clause([-lit, part])
        self.add_clause([lit] + [-part for part in lits])

    def define_and(self, lits: Iterable[Literal]) -> Literal:
        """Literal equivalent to the conjunction of `lits`: a constant, the
        only non-constant literal, or an atom defined once per sorted tuple
        of non-constant literals."""
        out = []
        for lit in lits:
            if lit is False:
                return False
            if lit is True:
                continue
            out.append(lit)
        if not out:
            return True
        if len(out) == 1:
            return out[0]
        key = tuple(sorted(out))
        a = self.defined.get(key)
        if a is None:
            a = self.new_atom()
            self.define(a, list(key))
            self.defined[key] = a
        return a

    def exactly_one(self, lits: List[int]) -> None:
        """At-least-one clause plus pairwise at-most-one constraints."""
        self.add_clause(list(lits))
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.add_clause([-lits[i], -lits[j]])

    def to_cnf(self) -> CNF:
        return CNF(self.num_atoms, self.clauses)

