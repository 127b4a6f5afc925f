import itertools
import random

import pytest

from mlunif.errors import ResourceLimit
from mlunif.propsat import CNF, CnfBuilder, Sat, Unsat, check_assignment, solve


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


def test_conflict_budget():
    rng = random.Random(3)
    # pigeonhole-ish hard instance: 6 pigeons, 5 holes
    atoms = {}
    n = 0
    for p in range(6):
        for h in range(5):
            n += 1
            atoms[p, h] = n
    clauses = [[atoms[p, h] for h in range(5)] for p in range(6)]
    for h in range(5):
        for p1 in range(6):
            for p2 in range(p1 + 1, 6):
                clauses.append([-atoms[p1, h], -atoms[p2, h]])
    with pytest.raises(ResourceLimit):
        solve(CNF(n, clauses), conflict_budget=10)
    assert isinstance(solve(CNF(n, clauses)), Unsat)


def test_builder_define_and_or():
    b = CnfBuilder()
    x, y = b.new_atom(), b.new_atom()
    both = b.define_and([x, y])
    b.add_clause([both])
    cnf = b.to_cnf()
    result = solve(cnf)
    assert isinstance(result, Sat)
    assert result.assignment[x] and result.assignment[y]
    assert b.define_and([True, True]) is True
    assert b.define_and([x, False]) is False
    assert b.define_and([True, y]) == y
    # one definition per set of literals, whatever their order
    atoms, clauses = b.num_atoms, len(b.clauses)
    assert b.define_and([y, True, x]) == both
    assert (b.num_atoms, len(b.clauses)) == (atoms, clauses)


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
    with pytest.raises(ResourceLimit):
        b.add_clause([-x])
