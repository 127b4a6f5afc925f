"""Tableau-based satisfiability and validity for the two logics.

Formulas are first rewritten to an interned negation normal form, so
structurally equal subterms are identical objects and complements are one
pointer away; label contents are then plain frozensets of node ids.

For the universal-box logic the procedure is layered.  Subformulas rooted
at the universal modality have point-independent truth, so the search
enumerates truth assignments for them (innermost first), folds each guess
into the rest of the formula, and is left with pure relational-box
obligations under a set of global axioms: each false global diamond
contributes its negated body, which must then hold at every point.  The
inner engine decides those obligations with a DPLL-style expansion where
a created successor whose content equals an ancestor's is blocked (the
cycle closes the model), and completed results are cached when they do not
depend on a block above their own depth.

The hybrid logic has no global operator; its tableau runs two successor
relations and merges labels that share a nominal.  Every satisfiable
answer carries a finite model that is re-checked against the input before
being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from . import propsat
from .errors import InternalCheckFailed, LanguageMismatch, ResourceLimit
from .formula import (
    And as FAnd, Bot as FBot, Box as FBox, Formula, H2, Iff as FIff,
    Implies as FImplies, L, Modality, Nominal as FNominal, Not as FNot,
    Or as FOr, Top as FTop, Var as FVar, language_of, postorder, variables,
)
from .kripke import CounterModel, Frame, Model, Valid, Valuation, model_check
from .propsat import Unsat

KU = "ku"
KH2 = "kh2"

REL = Modality.REL
UNIV = Modality.UNIV
HYB = Modality.HYB


# --- interned negation normal form ---------------------------------------------

class NF:
    __slots__ = ("tag", "mod", "kind", "index", "pos", "args", "uid", "neg")

    def __init__(self, tag, mod, kind, index, pos, args, uid):
        self.tag = tag      # top, bot, lit, and, or, box, dia
        self.mod = mod      # Modality for box/dia
        self.kind = kind    # "p" or "n" for lit
        self.index = index
        self.pos = pos
        self.args = args    # tuple of NF, sorted by uid for and/or
        self.uid = uid
        self.neg = None     # complement, filled by _negate

    def __repr__(self):
        return "NF<%s#%d>" % (self.tag, self.uid)


class NfBuilder:
    """Interning factory.  One instance, `_B`, is shared process-wide: a
    later call reuses the NF nodes, and so the uids, that an earlier call
    built."""

    def __init__(self):
        self.table: Dict[tuple, NF] = {}
        self.counter = itertools.count()
        self.TOP = self._new(("top",), "top", None, None, None, True, ())
        self.BOT = self._new(("bot",), "bot", None, None, None, True, ())
        self.TOP.neg = self.BOT
        self.BOT.neg = self.TOP

    def _new(self, key, tag, mod, kind, index, pos, args):
        nf = NF(tag, mod, kind, index, pos, args, next(self.counter))
        self.table[key] = nf
        return nf

    def _get(self, key, tag, mod=None, kind=None, index=None, pos=True, args=()):
        nf = self.table.get(key)
        if nf is None:
            nf = self._new(key, tag, mod, kind, index, pos, args)
        return nf

    def lit(self, kind: str, index: int, pos: bool) -> NF:
        return self._get(("lit", kind, index, pos), "lit", kind=kind, index=index, pos=pos)

    def conj(self, parts) -> NF:
        seen: Dict[int, NF] = {}
        stack = list(parts)
        while stack:
            p = stack.pop()
            if p.tag == "top":
                continue
            if p.tag == "bot":
                return self.BOT
            if p.tag == "and":
                stack.extend(p.args)
                continue
            seen[p.uid] = p
        for p in seen.values():
            q = self.negate(p)
            if q.uid in seen:
                return self.BOT
        if not seen:
            return self.TOP
        if len(seen) == 1:
            return next(iter(seen.values()))
        args = tuple(sorted(seen.values(), key=lambda q: q.uid))
        return self._get(("and",) + tuple(q.uid for q in args), "and", args=args)

    def disj(self, parts) -> NF:
        seen: Dict[int, NF] = {}
        stack = list(parts)
        while stack:
            p = stack.pop()
            if p.tag == "bot":
                continue
            if p.tag == "top":
                return self.TOP
            if p.tag == "or":
                stack.extend(p.args)
                continue
            seen[p.uid] = p
        for p in seen.values():
            q = self.negate(p)
            if q.uid in seen:
                return self.TOP
        if not seen:
            return self.BOT
        if len(seen) == 1:
            return next(iter(seen.values()))
        args = tuple(sorted(seen.values(), key=lambda q: q.uid))
        return self._get(("or",) + tuple(q.uid for q in args), "or", args=args)

    def box(self, mod: Modality, arg: NF) -> NF:
        if arg.tag == "top":
            return self.TOP
        return self._get(("box", mod, arg.uid), "box", mod=mod, args=(arg,))

    def dia(self, mod: Modality, arg: NF) -> NF:
        if arg.tag == "bot":
            return self.BOT
        return self._get(("dia", mod, arg.uid), "dia", mod=mod, args=(arg,))

    def negate(self, nf: NF) -> NF:
        if nf.neg is not None:
            return nf.neg
        for f in postorder(nf, lambda g: () if g.neg is not None else g.args):
            if f.neg is not None:
                continue
            if f.tag == "lit":
                out = self.lit(f.kind, f.index, not f.pos)
            elif f.tag == "and":
                out = self.disj([a.neg for a in f.args])
            elif f.tag == "or":
                out = self.conj([a.neg for a in f.args])
            elif f.tag == "box":
                out = self.dia(f.mod, f.args[0].neg)
            elif f.tag == "dia":
                out = self.box(f.mod, f.args[0].neg)
            else:  # pragma: no cover
                raise AssertionError(f.tag)
            f.neg = out
            out.neg = f
        return nf.neg

    def from_formula(self, phi: Formula) -> NF:
        """The NF of phi, built over (subformula, polarity) pairs: a pair
        with polarity False stands for the subformula's negation."""
        memo: Dict[Tuple[Formula, bool], NF] = {}
        for key in postorder((phi, True), _polar_children):
            f, pos = key
            if isinstance(f, FVar):
                out = self.lit("p", f.index, pos)
            elif isinstance(f, FNominal):
                out = self.lit("n", f.index, pos)
            elif isinstance(f, FTop):
                out = self.TOP if pos else self.BOT
            elif isinstance(f, FBot):
                out = self.BOT if pos else self.TOP
            elif isinstance(f, FNot):
                out = memo[f.sub, not pos]
            elif isinstance(f, FIff):
                # both or neither; negated, exactly one
                left, right = f.left, f.right
                out = self.disj([self.conj([memo[left, True], memo[right, pos]]),
                                 self.conj([memo[left, False], memo[right, not pos]])])
            elif isinstance(f, (FAnd, FOr, FImplies)):
                parts = [memo[k] for k in _polar_children(key)]
                # a conjunction at heart: And, or the negation of Or / Implies
                out = self.conj(parts) if isinstance(f, FAnd) == pos else self.disj(parts)
            elif isinstance(f, FBox) == pos:  # a box, or a negated diamond
                out = self.box(f.modality, memo[f.sub, pos])
            else:  # a diamond, or a negated box
                out = self.dia(f.modality, memo[f.sub, pos])
            memo[key] = out
        return memo[phi, True]


def _polar_children(key: Tuple[Formula, bool]) -> List[Tuple[Formula, bool]]:
    f, pos = key
    if isinstance(f, FNot):
        return [(f.sub, not pos)]
    if isinstance(f, FImplies):
        return [(f.left, not pos), (f.right, pos)]
    if isinstance(f, FIff):
        return [(f.left, True), (f.right, True), (f.left, False), (f.right, False)]
    return [(a, pos) for a in f.args]


_B = NfBuilder()


# --- results --------------------------------------------------------------------

@dataclass
class Sat:
    model: Model
    point: str


def _run(step, *args):
    """Run the generator step(*args) together with the sub-calls it makes,
    depth-first: a step yields the arguments of a sub-call and is sent its
    result back.  The calls in progress live on an explicit stack, so their
    depth is not bounded by the interpreter's recursion limit."""
    stack = [step(*args)]
    result = None
    while stack:
        try:
            call = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(step(*call))
            result = None
    return result


class _Budget:
    """Limit on the node expansions of one tableau run, in either logic."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimit("tableau budget exceeded")


# --- the relational-box engine with global axioms -------------------------------

class _KEngine:
    """Satisfiability for sets of pure relational-box formulas, all points
    additionally constrained by a set of global axioms baked into every
    content set (the axiom set is part of every cache key: the same content
    expands differently under different axioms).

    The propositional phase of each node runs on the CNF solver over a
    shared structural encoding of the formula DAG, so clause learning
    prunes the joint space of independent disjunction choices.  Each model
    fixes the node's diamonds and boxes; the diamonds' successor contents
    are searched depth-first, one `_run` step per node, with anywhere
    blocking (a successor equal to an in-progress node closes a cycle,
    sound in a logic whose constraints are all one-step conditions).  A
    failed successor is turned into a modal conflict clause - no point
    under these axioms combines that diamond with those boxes - which
    persists across nodes.

    Verdicts that did not lean on a block are cached globally; a verdict
    that leaned on a block against the node at depth b is reusable exactly
    while that depth slot keeps its occupant, which the per-depth epoch
    stamps track."""

    INF = float("inf")

    def __init__(self, budget: _Budget):
        self.budget = budget
        self.cache: Dict[tuple, Tuple[bool, Optional[int]]] = {}
        self.cond: Dict[tuple, Tuple[int, int, int]] = {}
        self.worlds: Dict[int, Tuple[tuple, List[int]]] = {}
        self.world_counter = itertools.count()
        self.epoch: List[int] = []
        self.epoch_counter = itertools.count(1)
        self.axioms: List[NF] = []
        self.axioms_key: FrozenSet[int] = frozenset()
        # shared propositional encoding of the formula DAG; atom 1 is fixed
        # true and stands for TOP, its negation for BOT
        self.cnf = propsat.CnfBuilder()
        self.cnf.add_clause([self.cnf.new_atom()])
        self.lit_of: Dict[int, int] = {_B.TOP.uid: 1, _B.BOT.uid: -1}
        self.encoded: Set[int] = set()
        # one warm incremental solver per axiom set, fed the shared
        # structural clauses on demand
        self.solvers: Dict[FrozenSet[int], Tuple[propsat.Solver, List[int]]] = {}

    def set_axioms(self, axioms: List[NF]) -> None:
        self.axioms = list(axioms)
        self.axioms_key = frozenset(nf.uid for nf in self.axioms)
        for nf in self.axioms:
            self._encode(nf)

    def _lit(self, nf: NF) -> int:
        # Atoms are numbered in the order _encode first meets a node (pre-
        # order, a node before its arms), and the positive sign goes to the
        # lower uid of each complement pair.  The numbering steers the
        # solver: it breaks activity ties by atom index and first tries a
        # fresh atom false.  Numbering each node after its arms instead
        # (post-order, as CnfBuilder.define_and does) keeps every verdict
        # but took the benchmark's length-1 and length-2 tableau instances
        # (T1, T2) from about 5 s and 7 s to over 300 s each on a 2-vCPU
        # x86-64 VM.
        hit = self.lit_of.get(nf.uid)
        if hit is None:
            neg = _B.negate(nf)
            atom = self.cnf.new_atom()
            hit = atom if nf.uid < neg.uid else -atom
            self.lit_of[nf.uid] = hit
            self.lit_of[neg.uid] = -hit
        return hit

    def _encode(self, root: NF) -> None:
        """Define every and/or node in the DAG, once.  Box, diamond and
        literal nodes are free atoms of the encoding; the complement of
        each node reuses the same atom with opposite sign."""
        stack = [root]
        while stack:
            nf = stack.pop()
            if nf.uid in self.encoded:
                continue
            self.encoded.add(nf.uid)
            self.encoded.add(_B.negate(nf).uid)
            lf = self._lit(nf)
            if nf.tag in ("and", "or"):
                arms = [self._lit(a) for a in nf.args]
                if nf.tag == "and":
                    self.cnf.define(lf, arms)
                else:
                    self.cnf.define(-lf, [-a for a in arms])
                stack.extend(nf.args)

    def sat(self, content: FrozenSet[NF]) -> Tuple[bool, Optional[int]]:
        ok, _, world = _run(self._sat, frozenset(content), {}, 0)
        return ok, world

    def _sat(self, content: FrozenSet[NF], path: Dict[FrozenSet[int], Tuple[int, int]],
             depth: int) -> Tuple[bool, float, Optional[int]]:
        ckey = frozenset(nf.uid for nf in content)
        gkey = (ckey, self.axioms_key)
        hit = self.cache.get(gkey)
        if hit is not None:
            return hit[0], self.INF, hit[1]
        entry = self.cond.get(gkey)
        if entry is not None:
            bd, stamp, world = entry
            if bd < depth and bd < len(self.epoch) and self.epoch[bd] == stamp:
                return True, bd, world
        self.budget.charge()
        while len(self.epoch) <= depth:
            self.epoch.append(0)
        self.epoch[depth] = next(self.epoch_counter)
        world = next(self.world_counter)
        path[ckey] = (depth, world)
        try:
            ok, block_depth = yield from self._node_sat(content, path, depth, world)
        finally:
            del path[ckey]
        if not ok:
            self.cache[gkey] = (False, None)
            return False, self.INF, None
        if block_depth >= depth:
            self.cache[gkey] = (True, world)
            return True, self.INF, world
        self.cond[gkey] = (int(block_depth), self.epoch[int(block_depth)], world)
        return True, block_depth, world

    def _solver(self) -> propsat.Solver:
        entry = self.solvers.get(self.axioms_key)
        if entry is None:
            entry = (propsat.Solver(), [0])
            self.solvers[self.axioms_key] = entry
        solver, fed = entry
        solver.ensure_atoms(self.cnf.num_atoms)
        clauses = self.cnf.clauses
        while fed[0] < len(clauses):
            solver.add_clause(clauses[fed[0]])
            fed[0] += 1
        return solver

    def _node_sat(self, content: FrozenSet[NF], path, depth: int,
                  world: int) -> Tuple[bool, float]:
        # uid order, not the address order of the frozenset: atom numbering
        # and with it the solver's search must not depend on the heap layout
        for nf in sorted(content, key=lambda f: f.uid):
            self._encode(nf)
        assumptions = tuple(sorted((self._lit(nf) for nf in content), key=abs))

        def truth(nf: NF) -> bool:
            lit = self.lit_of[nf.uid]
            return model[abs(lit)] == (lit > 0)

        def leans_on(nf) -> tuple:
            """What the truth of nf rests on under the model: the members of
            the content, every conjunct, the first true disjunct."""
            if nf is content:
                return tuple(content)
            if nf.tag == "and":
                return nf.args
            if nf.tag == "or":
                for arm in nf.args:
                    if truth(arm):
                        return (arm,)
                raise InternalCheckFailed(  # pragma: no cover - model satisfies the clauses
                    "model leaves a disjunction unjustified")
            return ()

        while True:
            solver = self._solver()
            result = solver.solve(assumptions)
            if isinstance(result, propsat.Unsat):
                return False, self.INF
            model = result.assignment
            # justification marking: atoms the assumptions do not lean on stay
            # out of successor contents and conflict clauses
            marked = [nf for nf in postorder(content, leans_on) if nf is not content]
            dias = sorted((nf for nf in marked if nf.tag == "dia" and nf.mod is REL),
                          key=lambda f: f.uid)
            boxes = sorted((nf for nf in marked if nf.tag == "box" and nf.mod is REL),
                           key=lambda f: f.uid)
            true_vars = {nf.index for nf in marked
                         if nf.tag == "lit" and nf.kind == "p" and nf.pos}
            box_args = [b.args[0] for b in boxes]
            min_block = self.INF
            edges: List[int] = []
            failed = None
            for d in dias:
                succ = frozenset([d.args[0]] + box_args + self.axioms)
                skey = frozenset(nf.uid for nf in succ)
                if skey in path:
                    pdepth, pworld = path[skey]
                    min_block = min(min_block, pdepth)
                    edges.append(pworld)
                    continue
                ok, bd, w = yield succ, path, depth + 1
                if not ok:
                    failed = d
                    break
                min_block = min(min_block, bd)
                edges.append(w)
            if failed is not None:
                # no point under these axioms can combine the diamond with
                # this box set; the conflict clause persists across nodes
                clause = [-self._lit(failed)] + [-self._lit(b) for b in boxes]
                self._solver().add_clause(clause)
                continue
            self.worlds[world] = (tuple(sorted(true_vars)), edges)
            return True, min_block


def _k_model(engine: _KEngine, root_worlds: List[int]) -> Tuple[Model, Dict[int, str]]:
    """Model over the worlds reachable from the given roots; cycles from
    blocked successors are kept as plain edges."""
    roots = tuple(root_worlds)
    walk = postorder(roots, lambda w: w if w is roots else engine.worlds[w][1])
    reachable = sorted(w for w in walk if w is not roots)
    names = {w: "w%d" % i for i, w in enumerate(reachable)}
    edges = set()
    var_map: Dict[int, Set[str]] = {}
    for w in reachable:
        true_vars, succs = engine.worlds[w]
        for s in succs:
            edges.add((names[w], names[s]))
        for idx in true_vars:
            var_map.setdefault(idx, set()).add(names[w])
    frame = Frame(tuple(names[w] for w in reachable), frozenset(edges))
    valuation = Valuation({k: frozenset(v) for k, v in var_map.items()}, {})
    return Model(frame, valuation), names


def _global_atom(nf: NF) -> Optional[NF]:
    """The universal diamond that nf is, or whose complement nf is."""
    if nf.tag in ("box", "dia") and nf.mod is UNIV:
        return nf if nf.tag == "dia" else _B.negate(nf)
    return None


def _collect_globals(root: NF) -> List[NF]:
    """Canonical global atoms (universal diamonds), innermost first."""
    rank: Dict[int, int] = {}
    atoms: Dict[int, NF] = {}

    def children(nf: NF):
        yield from nf.args
        atom = _global_atom(nf)
        if atom is not None:
            yield atom.args[0]

    for nf in postorder(root, children):
        if nf.uid in rank:  # a universal diamond ranked through its box
            continue
        r = max((rank[a.uid] for a in nf.args), default=0)
        atom = _global_atom(nf)
        if atom is not None:
            r = max(r, rank[atom.args[0].uid]) + 1
            atoms[atom.uid] = atom
            rank[atom.uid] = r
        rank[nf.uid] = r
    return sorted(atoms.values(), key=lambda a: (rank[a.uid], a.uid))


def _reduce(root: NF, values: Dict[int, bool], partial: bool = False) -> NF:
    """root with every assigned global atom replaced by its truth value;
    unassigned ones are an error unless `partial`."""
    def assigned(nf: NF) -> bool:
        atom = _global_atom(nf)
        return atom is not None and atom.uid in values

    memo: Dict[int, NF] = {}
    for nf in postorder(root, lambda g: () if assigned(g) else g.args):
        if assigned(nf):
            truth = values[_global_atom(nf).uid] != (nf.tag == "box")
            out = _B.TOP if truth else _B.BOT
        elif not partial and _global_atom(nf) is not None:  # pragma: no cover
            raise AssertionError("global atom not yet assigned")
        elif nf.tag == "and":
            out = _B.conj([memo[a.uid] for a in nf.args])
        elif nf.tag == "or":
            out = _B.disj([memo[a.uid] for a in nf.args])
        elif nf.tag == "box":
            out = _B.box(nf.mod, memo[nf.args[0].uid])
        elif nf.tag == "dia":
            out = _B.dia(nf.mod, memo[nf.args[0].uid])
        else:
            out = nf
        memo[nf.uid] = out
    return memo[root.uid]


def _ku_satisfiable(root: NF, budget: int) -> Tuple[bool, Optional[Model], Optional[str]]:
    atoms = _collect_globals(root)
    engine = _KEngine(_Budget(budget))
    values: Dict[int, bool] = {}
    axioms: List[NF] = []
    obligations: List[NF] = []

    def consistent(obls: List[NF]) -> bool:
        engine.set_axioms(axioms)
        base = frozenset(axioms)
        return all(engine.sat(base | {o})[0] for o in obls)

    def search(idx: int):
        """Generator for _run: assigns atoms[idx:] depth-first, False first."""
        if idx == len(atoms):
            root_reduced = _reduce(root, values)
            if root_reduced.tag == "bot":
                return None
            engine.set_axioms(axioms)
            base = frozenset(axioms)
            worlds = []
            for o in obligations + [root_reduced]:
                ok, w = engine.sat(base | {o})
                if not ok:
                    return None
                worlds.append(w)
            return worlds
        atom = atoms[idx]
        body = atom.args[0]
        for value in (False, True):
            values[atom.uid] = value
            added_axiom = added_obl = False
            feasible = True
            if value:
                witness = _reduce(body, values)
                if witness.tag == "bot":
                    feasible = False
                else:
                    obligations.append(witness)
                    added_obl = True
                    feasible = consistent([witness])
            else:
                axiom = _reduce(_B.negate(body), values)
                if axiom.tag == "bot":
                    feasible = False
                elif axiom.tag != "top":
                    axioms.append(axiom)
                    added_axiom = True
                    feasible = consistent(obligations)
            if feasible:
                if _reduce(root, values, partial=True).tag == "bot":
                    feasible = False
            if feasible:
                result = yield (idx + 1,)
                if result is not None:
                    return result
            if added_obl:
                obligations.pop()
            if added_axiom:
                axioms.pop()
            del values[atom.uid]
        return None

    roots = _run(search, 0)
    if roots is None:
        return False, None, None
    model, names = _k_model(engine, roots)
    # the last root carries the reduced original formula
    return True, model, names[roots[-1]]


# --- the hybrid tableau -----------------------------------------------------------

class _HState:
    __slots__ = ("content", "edges", "processed", "counter")

    def __init__(self, content, edges, processed, counter):
        self.content: Dict[int, Set[NF]] = content
        self.edges: Set[Tuple[int, Modality, int]] = edges
        self.processed: Set[Tuple[int, int]] = processed
        self.counter = counter

    def copy(self) -> "_HState":
        return _HState({k: set(v) for k, v in self.content.items()},
                       set(self.edges), set(self.processed), self.counter)


def _kh2_satisfiable(root: NF, budget: int) -> Tuple[bool, Optional[Model], Optional[str]]:
    charge = _Budget(budget)
    initial = _HState({0: set()}, set(), set(), 1)
    if not _h_add(initial, 0, root):
        return False, None, None
    stack = [initial]
    while stack:
        state = stack.pop()
        outcome = _h_saturate(state, charge)
        if outcome == "clash":
            continue
        if outcome == "open":
            model, names = _h_model(state, root)
            return True, model, names[0]
        # otherwise a list of branch states
        stack.extend(reversed(outcome))
    return False, None, None


def _h_add(state: _HState, label: int, nf: NF) -> bool:
    """Add a formula, eagerly expanding conjunctions; False on clash."""
    queue = [nf]
    content = state.content[label]
    while queue:
        f = queue.pop()
        if f.tag == "top":
            continue
        if f.tag == "bot":
            return False
        if f in content:
            continue
        if f.neg is not None and f.neg in content:
            return False
        if f.tag == "and":
            queue.extend(f.args)
            continue
        content.add(f)
    return True


def _h_saturate(state: _HState, charge: _Budget):
    """Apply deterministic rules to a fixpoint; returns "clash", "open", or a
    list of two branch states for the chosen disjunction."""
    while True:
        charge.charge()
        changed = False
        # box propagation along existing edges
        for (x, mod, y) in sorted(state.edges, key=lambda e: (e[0], e[1].value, e[2])):
            for f in sorted(state.content[x], key=lambda f: f.uid):
                if f.tag == "box" and f.mod is mod:
                    arg = f.args[0]
                    if arg not in state.content[y]:
                        if not _h_add(state, y, arg):
                            return "clash"
                        changed = True
        # nominal co-reference: merge labels sharing a positive nominal
        owners: Dict[int, int] = {}
        merge_pair = None
        for label in sorted(state.content):
            for f in state.content[label]:
                if f.tag == "lit" and f.kind == "n" and f.pos:
                    if f.index in owners and owners[f.index] != label:
                        merge_pair = (owners[f.index], label)
                        break
                    owners[f.index] = label
            if merge_pair:
                break
        if merge_pair:
            keep, drop = merge_pair
            for f in list(state.content[drop]):
                if not _h_add(state, keep, f):
                    return "clash"
            del state.content[drop]
            state.edges = {
                (keep if x == drop else x, mod, keep if y == drop else y)
                for (x, mod, y) in state.edges
            }
            state.processed = {
                (keep if lbl == drop else lbl, uid) for (lbl, uid) in state.processed
            }
            continue
        # disjunctions: units applied in place, otherwise branch
        branch_candidate = None
        for label in sorted(state.content):
            for f in sorted(state.content[label], key=lambda f: f.uid):
                if f.tag != "or":
                    continue
                content = state.content[label]
                live = []
                satisfied = False
                for arm in f.args:
                    if arm in content:
                        satisfied = True
                        break
                    if _B.negate(arm) in content:
                        continue
                    live.append(arm)
                if satisfied:
                    continue
                if not live:
                    return "clash"
                if len(live) == 1:
                    if not _h_add(state, label, live[0]):
                        return "clash"
                    changed = True
                    continue
                if branch_candidate is None:
                    branch_candidate = (label, f, live)
            if changed:
                break
        if changed:
            continue
        if branch_candidate is not None:
            label, f, live = branch_candidate
            first = state.copy()
            if not _h_add(first, label, live[0]):
                first = None
            second = state.copy()
            ok = _h_add(second, label, _B.negate(live[0]))
            if ok:
                ok = _h_add(second, label, _B.disj(live[1:]))
            if not ok:
                second = None
            branches = [s for s in (first, second) if s is not None]
            if not branches:
                return "clash"
            return branches
        # successor creation for one unprocessed diamond
        created = False
        for label in sorted(state.content):
            for f in sorted(state.content[label], key=lambda f: f.uid):
                if f.tag == "dia" and (label, f.uid) not in state.processed:
                    state.processed.add((label, f.uid))
                    new = state.counter
                    state.counter += 1
                    state.content[new] = set()
                    state.edges.add((label, f.mod, new))
                    if not _h_add(state, new, f.args[0]):
                        return "clash"
                    for g in list(state.content[label]):
                        if g.tag == "box" and g.mod is f.mod:
                            if not _h_add(state, new, g.args[0]):
                                return "clash"
                    created = True
                    break
            if created:
                break
        if created:
            continue
        return "open"


def _h_model(state: _HState, root: NF) -> Tuple[Model, Dict[int, str]]:
    labels = sorted(state.content)
    names = {label: "w%d" % i for i, label in enumerate(labels)}
    points = [names[label] for label in labels]
    var_map: Dict[int, Set[str]] = {}
    nom_map: Dict[int, str] = {}
    for label in labels:
        for f in state.content[label]:
            if f.tag == "lit" and f.pos:
                if f.kind == "p":
                    var_map.setdefault(f.index, set()).add(names[label])
                else:
                    nom_map[f.index] = names[label]
    # nominals mentioned only negatively still need a home: one fresh
    # isolated point each keeps every label's constraints intact
    mentioned = {f.index for f in postorder(root) if f.tag == "lit" and f.kind == "n"}
    fresh = 0
    for idx in sorted(mentioned):
        if idx not in nom_map:
            name = "u%d" % fresh
            fresh += 1
            points.append(name)
            nom_map[idx] = name
    r = frozenset((names[x], names[y]) for (x, mod, y) in state.edges if mod is REL)
    s = frozenset((names[x], names[y]) for (x, mod, y) in state.edges if mod is HYB)
    frame = Frame(tuple(points), r, s)
    valuation = Valuation({k: frozenset(v) for k, v in var_map.items()}, nom_map)
    return Model(frame, valuation), names


# --- public API --------------------------------------------------------------------

def _check_logic_language(phi: Formula, logic: str) -> None:
    if logic not in (KU, KH2):
        raise ValueError("logic must be %r or %r" % (KU, KH2))
    lang = language_of(phi)
    if logic == KU and lang == H2:
        raise LanguageMismatch("hybrid syntax is not part of the universal-box logic")
    if logic == KH2 and lang == L:
        raise LanguageMismatch("the universal box is not part of the hybrid logic")


def _complete_valuation(model: Model, phi: Formula) -> Model:
    """Bind every variable of phi (default: empty set) so verification by
    model_check never trips over a symbol the tableau had no use for."""
    var_map = dict(model.valuation.var_map)
    for v in variables(phi):
        var_map.setdefault(v, frozenset())
    return Model(model.frame, Valuation(var_map, dict(model.valuation.nom_map)))


def satisfiable(phi: Formula, logic: str, label_budget: int = 50_000) -> Union[Sat, Unsat]:
    """Complete satisfiability check; Sat carries a finite model and a point
    that model_check confirms before the result is returned."""
    _check_logic_language(phi, logic)
    root = _B.from_formula(phi)
    if logic == KU:
        ok, model, point = _ku_satisfiable(root, label_budget)
    else:
        ok, model, point = _kh2_satisfiable(root, label_budget)
    if not ok:
        return Unsat()
    model = _complete_valuation(model, phi)
    if not model_check(model, point, phi):
        raise InternalCheckFailed("tableau model fails verification")
    return Sat(model, point)


def valid(phi: Formula, logic: str, label_budget: int = 50_000) -> Union[Valid, CounterModel]:
    """valid(phi) iff not satisfiable(~phi); counter-models are re-verified."""
    result = satisfiable(FNot(phi), logic, label_budget)
    if isinstance(result, Unsat):
        return Valid()
    if model_check(result.model, result.point, phi):  # pragma: no cover
        raise InternalCheckFailed("counter-model satisfies the formula")
    return CounterModel(result.model, result.point)
