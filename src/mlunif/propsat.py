"""Self-contained CNF representation and a complete SAT solver.

The solver is DPLL with watched-literal unit propagation, first-UIP clause
learning, activity-based branching and Luby restarts: small enough to stay
dependency-free, strong enough for the frame-validity encodings of the
kripke module and the KU tableau's propositional phase.  `CnfBuilder`
writes both encodings.

Its hot loops follow MiniSat (Een & Sorensson, SAT 2003).  Literal values
live in one list indexed by the signed literal itself (slot -v is counted
from the end), so the innermost test is `value[lit]`; `_propagate` and the
`solve` loop read and assign values inline, with the solver's lists bound
to locals once per call.  Decisions come from an order heap of
(-activity, atom) entries: the unassigned atom of highest activity, ties
to the lowest index, exactly the atom a linear scan in index order would
pick.  Each `solve` call builds its heap from the unassigned atoms of its
cone (every atom by default); a bump leaves the atom's old entry behind,
stale; undoing the trail pushes each freed cone atom back; rescaling the
activities rebuilds the heap, since scaling can turn distinct activities
into ties.  The heap's least live entry does not depend on how the heap
was built, so a heap per call decides as one kept across calls would.

A speed change to `Solver` must not change its search: the same
decisions, propagations, learned clauses and models.  The KU tableau's
work depends on which model the solver returns, not only on whether one
exists; `decision._KEngine._lit` records an atom numbering that kept every
verdict but made two benchmark instances over 40 times slower.  The tests
pin the search: `tests/test_propsat.py` on recorded random CNFs, and
`tests/test_decision.py` by the calls, decisions and conflicts of one KU
validity check.  The one-shot search, with every atom in the cone, is
unchanged.  The KU search changed once, on purpose, when each node's
solve came to decide only the node's cone (`decision._KEngine`): the KU
validity check of `tests/test_decision.py` went from 274 calls, 6,022
decisions and 8 conflicts to 274, 2,052 and 8, and the benchmark's
tableau instances T1/T2/T3 from 227/224/278 solves to 234/241/271.
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heapify, heappop, heappush

from .errors import ResourceLimit
from .record import Record


class CNF(Record):
    num_atoms: int
    clauses: list[list[int]]


class SatResult(Record):
    pass


class Sat(SatResult):
    assignment: list[bool]  # indexed by atom; slot 0 is unused

    def __init__(self, assignment: list[bool]):
        self.assignment = assignment


class Unsat(SatResult):
    def __init__(self):
        pass


def check_assignment(cnf: CNF, assignment: list[bool]) -> bool:
    """Independent clause-by-clause check of a model."""
    for clause in cnf.clauses:
        if not any(assignment[abs(lit)] == (lit > 0) for lit in clause):
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


def _grow(by_lit: list, n: int, m: int, fill) -> list:
    """A literal-indexed list for n atoms widened to m atoms: slot v holds
    literal v and slot -v (counted from the end) literal -v."""
    return by_lit[:n + 1] + [fill() for _ in range(2 * (m - n))] + by_lit[n + 1:]


class Solver:
    """CDCL solver usable one-shot or incrementally.

    Incremental use: construct empty, grow with ensure_atoms/add_clause
    between solve calls, and pass per-call assumption literals; learned
    clauses are resolution consequences of the database alone, so they
    stay valid across calls."""

    def __init__(self, cnf: CNF | None = None):
        self.n = 0
        self.watches: list[list[list[int]]] = [[]]  # clauses watching each literal
        self.value: list[int] = [0]           # by literal: 0 unknown, 1 true, -1 false
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]  # implying clause
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: list[float] = [0.0]
        self.var_inc = 1.0
        self.phase: list[bool] = [False]
        self.seen: list[bool] = [False]
        # order heap of the current call: (-activity, atom) entries; an entry
        # is live while its atom is marked in_heap and its activity is current
        self.heap: list[tuple[float, int]] = []
        self.in_heap: list[bool] = [False]
        # the atoms of the current call's cone are those marked with its stamp
        self.cone_mark: list[int] = [0]
        self.stamp = 0
        self.conflicts = 0
        self.decisions = 0
        self.unsat = False  # the clauses alone are unsatisfiable
        self._qhead = 0  # trail index of the next literal to propagate
        if cnf is not None:
            self.ensure_atoms(cnf.num_atoms)
            for clause in cnf.clauses:
                self.add_clause(clause)

    def ensure_atoms(self, n: int) -> None:
        if n <= self.n:
            return
        old = self.n
        self.value = _grow(self.value, old, n, int)
        self.watches = _grow(self.watches, old, n, list)
        grown = n - old
        self.level += [0] * grown
        self.reason += [None] * grown
        self.activity += [0.0] * grown
        self.phase += [False] * grown
        self.seen += [False] * grown
        self.in_heap += [False] * grown
        self.cone_mark += [0] * grown
        self.n = n

    def add_clause(self, clause: list[int]) -> None:
        """Add a clause at decision level zero (i.e. between solve calls)."""
        lits = sorted(clause, key=abs)
        # one range check: a 0 sorts first, the largest atom last
        if lits and (lits[0] == 0 or abs(lits[-1]) > self.n):
            raise ValueError("literal %d out of range" % (lits[-1] if lits[0] else 0))
        if self.trail_lim:
            self._cancel_until(0)
        k = len(lits)
        if k == 2 and abs(lits[0]) == abs(lits[1]) or k > 2 and len(set(map(abs, lits))) < k:
            # an atom occurs twice: drop duplicates, and the clause if it
            # holds a literal and its complement
            distinct = set(lits)
            if any(-lit in distinct for lit in distinct):
                return
            lits = sorted(distinct, key=abs)
        value = self.value
        if len(lits) > 1 and value[lits[0]] == -1 and value[lits[1]] == -1:
            # both watches false at level 0, where propagation may never
            # visit them again: watch two literals that are not false, or
            # keep the one literal that is not
            live = [lit for lit in lits if value[lit] != -1]
            lits = live if len(live) < 2 else live + [lit for lit in lits if value[lit] == -1]
        if len(lits) > 1:
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)
        elif lits and value[lits[0]] == 0:
            self._assign(lits[0], None)
        elif not lits or value[lits[0]] == -1:
            self.unsat = True

    def _assign(self, lit: int, reason: list[int] | None) -> None:
        """Make the unassigned `lit` true at the current decision level;
        the hot paths inline this."""
        value = self.value
        value[lit] = 1
        value[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Returns a conflicting clause or None."""
        trail = self.trail
        value = self.value
        watches = self.watches
        level = self.level
        reason = self.reason
        lvl = len(self.trail_lim)
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchlist = watches[false_lit]
            i = 0
            end = len(watchlist)
            while i < end:
                clause = watchlist[i]
                # ensure false_lit is at position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if value[first] == 1:
                    i += 1
                    continue
                for j in range(2, len(clause)):
                    lit = clause[j]
                    if value[lit] != -1:
                        clause[1] = lit
                        clause[j] = false_lit
                        watches[lit].append(clause)
                        end -= 1
                        watchlist[i] = watchlist[end]
                        watchlist.pop()
                        break
                else:
                    # clause is unit or conflicting
                    if value[first] == -1:
                        self._qhead = len(trail)
                        return clause
                    value[first] = 1
                    value[-first] = -1
                    var = abs(first)
                    level[var] = lvl
                    reason[var] = clause
                    trail.append(first)
                    i += 1
        self._qhead = len(trail)
        return None

    def _rescale(self) -> None:
        """Scale every activity down by 1e-100 and rebuild the order heap,
        since scaling can turn distinct activities into ties."""
        self.activity[:] = [a * 1e-100 for a in self.activity]
        self.var_inc *= 1e-100
        act, in_heap = self.activity, self.in_heap
        self.heap[:] = [(-act[v], v) for v in range(1, self.n + 1) if in_heap[v]]
        heapify(self.heap)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        trail, level, reason = self.trail, self.level, self.reason
        seen, act, in_heap = self.seen, self.activity, self.in_heap
        learnt = [0]
        path_count = 0
        p = None  # literal whose reason clause is being examined
        index = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for q in confl:
                if q == p:
                    continue
                var = abs(q)
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    # a bump leaves the atom's heap entry stale; the atom is
                    # assigned, and _cancel_until pushes it back
                    act[var] += self.var_inc
                    in_heap[var] = False
                    if act[var] > 1e100:
                        self._rescale()
                    if level[var] >= cur_level:
                        path_count += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[index])]:
                index -= 1
            p = trail[index]
            seen[abs(p)] = False
            index -= 1
            path_count -= 1
            if path_count <= 0:
                break
            confl = reason[abs(p)]
        learnt[0] = -p
        for q in learnt:
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        back = max(level[abs(q)] for q in learnt[1:])
        # move one literal of the backjump level into watch position
        for k in range(1, len(learnt)):
            if level[abs(learnt[k])] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _cancel_until(self, lvl: int) -> None:
        """Unassign every literal above decision level `lvl` in one pass,
        saving its phase and returning its atom to the order heap if it is
        in the cone."""
        if len(self.trail_lim) > lvl:
            trail, value, phase = self.trail, self.value, self.phase
            heap, act, in_heap = self.heap, self.activity, self.in_heap
            mark, stamp = self.cone_mark, self.stamp
            bound = self.trail_lim[lvl]
            for k in range(bound, len(trail)):
                lit = trail[k]
                value[lit] = 0
                value[-lit] = 0
                var = abs(lit)
                phase[var] = lit > 0
                if not in_heap[var] and mark[var] == stamp:
                    in_heap[var] = True
                    heappush(heap, (-act[var], var))
            del trail[bound:]
            del self.trail_lim[lvl:]
        self._qhead = len(self.trail)

    def solve(self, assumptions: tuple[int, ...] = (),
              cone: Iterable[int] | None = None) -> SatResult:
        """Sat with a model, or Unsat, of the clauses under `assumptions`.

        The search decides only the atoms of `cone` (None: every atom) and
        returns Sat once they are all assigned without conflict; an atom
        outside the cone that propagation left unassigned reads False in the
        model.  Such a partial model extends to a full one only for clause
        sets that allow it, which the caller must know
        (`decision._KEngine` gives the argument for its encoding).  Unsat
        is unconditional."""
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.n:
                raise ValueError("literal %d out of range" % lit)
        if self.unsat:
            return Unsat()
        if self.trail_lim:
            self._cancel_until(0)
        if self._propagate() is not None:
            # a conflict at level 0 is final: the next call would start
            # past it on the trail
            self.unsat = True
            return Unsat()
        trail, trail_lim, value = self.trail, self.trail_lim, self.value
        level, reason, phase = self.level, self.reason, self.phase
        heap, act, in_heap = self.heap, self.activity, self.in_heap
        # this call's order heap: the cone's unassigned atoms
        for entry in heap:
            in_heap[entry[1]] = False
        del heap[:]
        mark = self.cone_mark
        self.stamp += 1
        stamp = self.stamp
        n = self.n
        for var in range(1, n + 1) if cone is None else cone:
            if not 0 < var <= n:
                raise ValueError("cone atom %d out of range" % var)
            mark[var] = stamp
            if value[var] == 0 and not in_heap[var]:
                in_heap[var] = True
                heap.append((-act[var], var))
        heapify(heap)
        restart_count = 0
        limit = _luby(restart_count) * 64
        conflicts_here = 0  # since the last restart
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.unsat = True
                    return Unsat()
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) > 1:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                # learnt[0] was assigned on the conflict level, so it is free now
                self._assign(learnt[0], learnt)
                self.var_inc /= 0.95
                continue
            if conflicts_here >= limit:
                conflicts_here = 0
                restart_count += 1
                limit = _luby(restart_count) * 64
                self._cancel_until(0)
                continue
            depth = len(trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                if value[lit] == -1:
                    return Unsat()
                trail_lim.append(len(trail))
                if value[lit] == 1:
                    continue
            else:
                # the unassigned cone atom of highest activity, ties to
                # the lowest index: the heap's least live entry
                while heap:
                    neg_act, var = heappop(heap)
                    if in_heap[var] and -neg_act == act[var]:
                        in_heap[var] = False
                        if value[var] == 0:
                            break
                else:
                    return Sat([v == 1 for v in value[:n + 1]])
                self.decisions += 1
                lit = var if phase[var] else -var
                trail_lim.append(len(trail))
            value[lit] = 1
            value[-lit] = -1
            var = abs(lit)
            level[var] = depth + 1
            reason[var] = None
            trail.append(lit)


def solve(cnf: CNF) -> SatResult:
    """Complete satisfiability check; Sat results are verified before return."""
    result = Solver(cnf).solve()
    if isinstance(result, Sat):
        if not check_assignment(cnf, result.assignment):
            raise AssertionError("solver returned a non-model")  # pragma: no cover
    return result


# --- CNF building ------------------------------------------------------------

Literal = int | bool

# The two directions of a definition a <-> l1 & ... & lk, as bits of a
# `need` mask: POS is a -> the conjunction (the k binary clauses), NEG is
# the conjunction -> a (the one long clause).
POS, NEG = 1, 2


class CnfBuilder:
    """Incremental CNF with fresh-atom definitions, under both the
    frame-validity check and the KU tableau.

    `define_and` writes the polarity-aware encoding of Plaisted and
    Greenbaum (J. Symbolic Computation 2(3), 1986): a defined atom gets
    only the directions its callers ask for.  The KU tableau reads the
    truth of its defined atoms from the model, so it writes full
    equivalences with `define`.

    Methods accept and return `Literal`s: either a nonzero signed atom index
    or a Python bool, so callers can fold constants without special cases.
    """

    def __init__(self, clause_budget: int | None = None):
        self.num_atoms = 0
        self.clauses: list[list[int]] = []
        self.clause_budget = clause_budget
        # sorted tuple of literals -> its atom and the directions written
        self.defined: dict[tuple[int, ...], tuple[int, int]] = {}

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
            raise ResourceLimit("CNF clause budget exceeded: %d clauses, limit %d"
                                % (len(self.clauses), self.clause_budget))

    def negate(self, lit: Literal) -> Literal:
        if isinstance(lit, bool):
            return not lit
        return -lit

    def define(self, lit: int, lits: list[int], need: int = POS | NEG) -> None:
        """Clauses for the directions `need` of `lit` <-> the conjunction of
        `lits`; by default both, an equivalence."""
        if need & POS:
            for part in lits:
                self.add_clause([-lit, part])
        if need & NEG:
            self.add_clause([lit] + [-part for part in lits])

    def define_and(self, lits: Iterable[Literal], need: int) -> Literal:
        """Literal for the conjunction of `lits` in the directions `need`: a
        constant, the only non-constant literal, or an atom defined once per
        sorted tuple of non-constant literals.  A later request for the same
        tuple writes only the directions not written yet."""
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
        a, done = self.defined.get(key) or (self.new_atom(), 0)
        if need & ~done:
            self.define(a, list(key), need & ~done)
            self.defined[key] = a, done | need
        return a

    def exactly_one(self, lits: list[int]) -> None:
        """At-least-one clause plus pairwise at-most-one constraints."""
        self.add_clause(list(lits))
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.add_clause([-lits[i], -lits[j]])

    def to_cnf(self) -> CNF:
        return CNF(self.num_atoms, self.clauses)

