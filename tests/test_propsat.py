import itertools
import random

import pytest

from mlunif.errors import ResourceLimit
from mlunif.propsat import (
    CNF, NEG, POS, CnfBuilder, Sat, Solver, Unsat, check_assignment, solve,
)


def sat_by_truth_table(cnf: CNF):
    """Independent oracle: truth-table columns packed into big integers.

    Bit b of column(v) is the value of atom v in assignment number b, so a
    clause's column is the bitwise OR of its literal columns and the formula
    is satisfiable iff the AND over clauses is nonzero.
    """
    n = cnf.num_atoms
    rows = 1 << n
    full = (1 << rows) - 1
    # column for atom v has bit i set iff bit v-1 of assignment index i is 1;
    # built by doubling the table one atom at a time
    cols = {}
    for k in range(1, n + 1):
        half = 1 << (k - 1)
        for v in range(1, k):
            cols[v] |= cols[v] << half
        cols[k] = ((1 << half) - 1) << half
    acc = full
    for clause in cnf.clauses:
        c = 0
        for lit in clause:
            c |= cols[abs(lit)] if lit > 0 else (full ^ cols[abs(lit)])
        acc &= c
        if acc == 0:
            return None
    index = (acc & -acc).bit_length() - 1
    return {v: bool((index >> (v - 1)) & 1) for v in range(1, n + 1)}


def random_cnf(rng, num_atoms, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        k = rng.randint(1, width)
        clause = []
        for _ in range(k):
            v = rng.randint(1, num_atoms)
            clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    return CNF(num_atoms, clauses)


def test_trivial_unsat():
    assert isinstance(solve(CNF(1, [[1], [-1]])), Unsat)


def test_empty_cnf_is_sat():
    assert isinstance(solve(CNF(0, [])), Sat)
    assert isinstance(solve(CNF(3, [])), Sat)


def test_simple_sat():
    result = solve(CNF(3, [[1, 2], [-1, 3], [-2, -3]]))
    assert isinstance(result, Sat)
    assert check_assignment(CNF(3, [[1, 2], [-1, 3], [-2, -3]]), result.assignment)


def test_empty_clause_unsat():
    assert isinstance(solve(CNF(2, [[1], []])), Unsat)


def test_agreement_with_truth_tables():
    rng = random.Random(424242)
    disagreements = 0
    for trial in range(500):
        n = rng.randint(1, 20)
        m = rng.randint(1, int(4.5 * n))
        cnf = random_cnf(rng, n, m)
        expected = sat_by_truth_table(cnf)
        got = solve(cnf)
        if expected is None:
            if not isinstance(got, Unsat):
                disagreements += 1
        else:
            if not (isinstance(got, Sat) and check_assignment(cnf, got.assignment)):
                disagreements += 1
    assert disagreements == 0


def test_determinism():
    rng = random.Random(7)
    cnf = random_cnf(rng, 15, 40)
    r1 = solve(CNF(cnf.num_atoms, [list(c) for c in cnf.clauses]))
    r2 = solve(CNF(cnf.num_atoms, [list(c) for c in cnf.clauses]))
    assert type(r1) is type(r2)
    if isinstance(r1, Sat):
        assert r1.assignment == r2.assignment


def pigeonhole(pigeons, holes):
    """Every pigeon in some hole, no two pigeons in one hole."""
    def atom(p, h):
        return p * holes + h + 1
    clauses = [[atom(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-atom(p1, h), -atom(p2, h)])
    return CNF(pigeons * holes, clauses)


def random_3cnf(rng, num_atoms, num_clauses):
    return CNF(num_atoms, [[v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, num_atoms + 1), 3)]
                           for _ in range(num_clauses)])


# (atoms, conflicts, decisions, model) of one-shot solves, as recorded from
# the solver with a linear decision scan; the model has bit v - 1 set when
# atom v is true, and is None for Unsat.  The last instance, pigeonhole
# 8 -> 7, is the one that rescales the activities.
_SEARCH_TRACE = [
    (51, 14, 32, 0x3dab13cc583da),
    (34, 8, 14, 0x22659ecc2),
    (63, 123, 143, None),
    (60, 13, 28, 0xd45d2d0994f1d20),
    (76, 127, 165, 0x285649fb62f29d75c01),
    (118, 1562, 1956, None),
    (21, 5, 7, 0x3f295),
    (44, 17, 25, 0x3cd8019542b),
    (52, 5, 24, 0x5618ade19eb80),
    (48, 20, 32, 0xfd0cd1f8d8ab),
    (34, 6, 14, 0x2c14772e0),
    (102, 336, 386, None),
    (56, 7030, 8597, None),
]


def test_search_matches_recorded_trace():
    # a change that only speeds the solver up must make the same decisions,
    # so it returns the same models after the same number of conflicts
    rng = random.Random(20061)
    cnfs = []
    for _ in range(12):
        n = rng.randint(20, 120)
        cnfs.append(random_3cnf(rng, n, round(4.26 * n)))
    cnfs.append(pigeonhole(8, 7))
    trace = []
    for cnf in cnfs:
        solver = Solver(cnf)
        result = solver.solve()
        model = None
        if isinstance(result, Sat):
            assert check_assignment(cnf, result.assignment)
            model = sum(1 << (v - 1) for v in range(1, cnf.num_atoms + 1)
                        if result.assignment[v])
        trace.append((cnf.num_atoms, solver.conflicts, solver.decisions, model))
    assert trace == _SEARCH_TRACE


def test_incremental_solver_agrees_with_truth_tables():
    # grow one solver by atoms and clauses between calls and solve under
    # random assumptions, against the oracle on the clauses plus one unit
    # clause per assumption
    rng = random.Random(5151)
    outcomes = set()
    for _ in range(60):
        solver = Solver()
        cnf = CNF(0, [])
        for _ in range(5):
            cnf.num_atoms += rng.randint(1 if cnf.num_atoms == 0 else 0, 3)
            solver.ensure_atoms(cnf.num_atoms)
            for clause in random_cnf(rng, cnf.num_atoms, rng.randint(0, 5)).clauses:
                solver.add_clause(clause)
                cnf.clauses.append(clause)
            for _ in range(4):
                atoms = rng.choices(range(1, cnf.num_atoms + 1), k=rng.randint(0, 4))
                assumptions = tuple(v if rng.random() < 0.5 else -v for v in atoms)
                units = CNF(cnf.num_atoms, cnf.clauses + [[a] for a in assumptions])
                got = solver.solve(assumptions)
                if sat_by_truth_table(units) is None:
                    assert isinstance(got, Unsat)
                    outcomes.add("unsat" if sat_by_truth_table(cnf) is None
                                 else "unsat under assumptions")
                else:
                    assert isinstance(got, Sat)
                    assert check_assignment(units, got.assignment)
                    outcomes.add("sat")
    assert outcomes == {"sat", "unsat", "unsat under assumptions"}


def test_clause_added_over_false_level_zero_literals_is_enforced():
    # both watched literals of the new clause are already false at level 0
    solver = Solver()
    solver.ensure_atoms(4)
    solver.add_clause([-1])
    solver.add_clause([-3])
    assert isinstance(solver.solve(), Sat)
    solver.add_clause([3, 1, 4])
    assert solver.solve().assignment[4]
    solver.add_clause([1, -4, 3])
    assert isinstance(solver.solve(), Unsat)


def test_level_zero_conflict_stays_unsat():
    solver = Solver()
    solver.ensure_atoms(2)
    solver.add_clause([1, 2])
    solver.add_clause([-1])
    solver.add_clause([-2])
    assert isinstance(solver.solve(), Unsat)
    assert isinstance(solver.solve(), Unsat)


def test_solver_rejects_literals_out_of_range():
    solver = Solver()
    solver.ensure_atoms(2)
    with pytest.raises(ValueError):
        solver.add_clause([1, 3])
    with pytest.raises(ValueError):
        solver.solve((-3,))
    with pytest.raises(ValueError):
        solver.add_clause([0])
    with pytest.raises(ValueError):
        solve(CNF(1, [[1, -2]]))
    with pytest.raises(ValueError):
        solver.add_clause([2, 0, 1])


def test_add_clause_sorts_by_atom_and_drops_repeats():
    # each clause is watched as its distinct literals in atom order; one
    # with a literal and its complement is dropped; the input is not touched
    solver = Solver()
    solver.ensure_atoms(4)
    clauses = [[3, -1], [4, 2, 4, -1], [2, 1, -2], [-3, -3], [1, 4, 1]]
    copies = [list(c) for c in clauses]
    for clause in clauses:
        solver.add_clause(clause)
    assert clauses == copies
    assert solver.watches[-1] == [[-1, 3], [-1, 2, 4]]
    assert solver.watches[1] == [[1, 4]] and solver.watches[4] == [[1, 4]]
    assert solver.watches[2] == [[-1, 2, 4]] and solver.watches[-2] == []
    assert solver.trail == [-3]


def definition_dag(rng, free, defined):
    """Clauses defining atoms free + 1 .. free + defined each as the
    conjunction or disjunction of two or three literals of lower atoms,
    and each defined atom's arm atoms."""
    clauses, arms = [], {}
    for a in range(free + 1, free + defined + 1):
        parts = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, a), min(a - 1, rng.randint(2, 3)))]
        arms[a] = [abs(p) for p in parts]
        sign = 1 if rng.random() < 0.5 else -1  # -1: a is the disjunction
        clauses += [[-sign * a, sign * p] for p in parts]
        clauses.append([sign * a] + [-sign * p for p in parts])
    return clauses, arms


def modal_clause(rng, default, free):
    """A clause over free atoms of which at most one literal is false
    under `default`, like the tableau's: one negated diamond, negated boxes."""
    atoms = rng.sample(range(1, free + 1), rng.randint(1, min(free, 4)))
    lits = [v if default[v] else -v for v in atoms]
    if rng.random() < 0.7:
        lits[0] = -lits[0]
    return lits


def test_cone_solve_extends_to_a_full_model():
    # a definition DAG over free atoms plus modal clauses, solved under
    # random assumptions with only the cone decided: atoms the assumptions
    # reach through definition arms
    rng = random.Random(3030)
    outcomes = set()
    for _ in range(120):
        free, defined = rng.randint(3, 8), rng.randint(3, 12)
        n = free + defined
        clauses, arms = definition_dag(rng, free, defined)
        default = {v: rng.random() < 0.5 for v in range(1, free + 1)}
        solver = Solver()
        solver.ensure_atoms(n)
        for clause in clauses:
            solver.add_clause(clause)
        for _ in range(6):
            for _ in range(rng.randint(0, 3)):
                clause = modal_clause(rng, default, free)
                solver.add_clause(clause)
                clauses.append(clause)
            atoms = rng.sample(range(1, n + 1), rng.randint(1, 3))
            assumptions = tuple(v if rng.random() < 0.5 else -v for v in atoms)
            cone, stack = set(), list(atoms)
            while stack:
                v = stack.pop()
                if v not in cone:
                    cone.add(v)
                    stack.extend(arms.get(v, ()))
            got = solver.solve(assumptions, sorted(cone))
            if isinstance(got, Sat):
                cone_lits = [v if got.assignment[v] else -v for v in sorted(cone)]
                assert all(got.assignment[abs(a)] == (a > 0) for a in assumptions)
                full = CNF(n, clauses + [[lit] for lit in cone_lits])
                extended = solve(full)
                assert isinstance(extended, Sat), (clauses, cone_lits)
                assert check_assignment(full, extended.assignment)
                outcomes.add("sat" if len(cone) == n else "sat on a proper cone")
            else:
                assert isinstance(got, Unsat)
                units = CNF(n, clauses + [[a] for a in assumptions])
                assert isinstance(Solver(units).solve(), Unsat)
                outcomes.add("unsat")
    assert outcomes == {"sat", "sat on a proper cone", "unsat"}


def test_solver_rejects_cone_atoms_out_of_range():
    solver = Solver()
    solver.ensure_atoms(2)
    for cone in ([3], [0], [-1]):
        with pytest.raises(ValueError):
            solver.solve((), cone)

def test_builder_define_and_or():
    b = CnfBuilder()
    x, y = b.new_atom(), b.new_atom()
    both = b.define_and([x, y], POS | NEG)
    b.add_clause([both])
    cnf = b.to_cnf()
    result = solve(cnf)
    assert isinstance(result, Sat)
    assert result.assignment[x] and result.assignment[y]
    for need in (POS, NEG, POS | NEG):
        assert b.define_and([True, True], need) is True
        assert b.define_and([x, False], need) is False
        assert b.define_and([True, y], need) == y
    # one definition per set of literals, whatever their order
    atoms, clauses = b.num_atoms, len(b.clauses)
    assert b.define_and([y, True, x], POS | NEG) == both
    assert (b.num_atoms, len(b.clauses)) == (atoms, clauses)


def test_builder_define_and_adds_only_missing_directions():
    b = CnfBuilder()
    x, y, z = b.new_atom(), b.new_atom(), b.new_atom()
    a = b.define_and([x, y, z], POS)
    assert b.clauses == [[-a, x], [-a, y], [-a, z]]
    assert b.define_and([z, x, y], NEG) == a
    assert b.clauses[3:] == [[a, -x, -y, -z]]
    for need in (POS, NEG, POS | NEG):
        assert b.define_and([y, z, x], need) == a
    assert (b.num_atoms, len(b.clauses)) == (4, 4)
    # the key is the sorted tuple (-y, x), so its clauses list -y first
    c = b.define_and([x, -y], NEG)
    assert b.clauses[4:] == [[c, y, -x]]
    assert b.define_and([-y, x], POS | NEG) == c
    assert b.clauses[5:] == [[-c, -y], [-c, x]]
    assert (b.num_atoms, len(b.clauses)) == (5, 7)
    # each direction alone is the matching implication
    for need, holds in ((POS, lambda va, vx, vy: not va or (vx and vy)),
                        (NEG, lambda va, vx, vy: va or not (vx and vy))):
        b = CnfBuilder()
        x, y = b.new_atom(), b.new_atom()
        a = b.define_and([x, y], need)
        for values in itertools.product((False, True), repeat=3):
            units = [[lit if v else -lit] for lit, v in zip((a, x, y), values)]
            sat = isinstance(solve(CNF(3, b.clauses + units)), Sat)
            assert sat == holds(*values)


def test_builder_define_writes_both_directions():
    b = CnfBuilder()
    x, y, z = b.new_atom(), b.new_atom(), b.new_atom()
    b.define(-z, [-x, -y])  # z <-> x | y
    for vx, vy in itertools.product((False, True), repeat=2):
        units = [[x if vx else -x], [y if vy else -y]]
        result = solve(CNF(3, b.clauses + units))
        assert isinstance(result, Sat)
        assert result.assignment[z] == (vx or vy)


def test_exactly_one():
    b = CnfBuilder()
    lits = [b.new_atom() for _ in range(4)]
    b.exactly_one(lits)
    result = solve(b.to_cnf())
    assert isinstance(result, Sat)
    assert sum(result.assignment[v] for v in lits) == 1


def test_clause_budget():
    b = CnfBuilder(clause_budget=2)
    x = b.new_atom()
    b.add_clause([x])
    b.add_clause([x, True])  # satisfied clause is dropped before counting
    b.add_clause([x])
    with pytest.raises(ResourceLimit) as info:
        b.add_clause([-x])
    assert str(info.value) == "CNF clause budget exceeded: 3 clauses, limit 2"
