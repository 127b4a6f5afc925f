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
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

# the depth-first engines recurse once per modal level and negated
# configuration shapes can chain a few hundred levels deep
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)

from . import propsat
from .errors import InternalCheckFailed, LanguageMismatch, ResourceLimit
from .formula import (
    And as FAnd, Bot as FBot, Box as FBox, Diamond as FDiamond, Formula,
    H2, Iff as FIff, Implies as FImplies, L, Modality, Nominal as FNominal,
    Not as FNot, Or as FOr, Top as FTop, Var as FVar, language_of, variables,
)
from .kripke import CounterModel, Frame, Model, Valid, Valuation, model_check

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
    """Interning factory; one instance is shared process-wide so formula
    caches in other modules keep paying off."""

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
        if nf.tag == "lit":
            out = self.lit(nf.kind, nf.index, not nf.pos)
        elif nf.tag == "and":
            out = self.disj([self.negate(a) for a in nf.args])
        elif nf.tag == "or":
            out = self.conj([self.negate(a) for a in nf.args])
        elif nf.tag == "box":
            out = self.dia(nf.mod, self.negate(nf.args[0]))
        elif nf.tag == "dia":
            out = self.box(nf.mod, self.negate(nf.args[0]))
        else:  # pragma: no cover
            raise AssertionError(nf.tag)
        nf.neg = out
        out.neg = nf
        return out

    def from_formula(self, phi: Formula) -> NF:
        memo: Dict[Tuple[Formula, bool], NF] = {}

        def go(f: Formula, pos: bool) -> NF:
            key = (f, pos)
            out = memo.get(key)
            if out is not None:
                return out
            if isinstance(f, FVar):
                out = self.lit("p", f.index, pos)
            elif isinstance(f, FNominal):
                out = self.lit("n", f.index, pos)
            elif isinstance(f, FTop):
                out = self.TOP if pos else self.BOT
            elif isinstance(f, FBot):
                out = self.BOT if pos else self.TOP
            elif isinstance(f, FNot):
                out = go(f.sub, not pos)
            elif isinstance(f, FAnd):
                parts = [go(f.left, pos), go(f.right, pos)]
                out = self.conj(parts) if pos else self.disj(parts)
            elif isinstance(f, FOr):
                parts = [go(f.left, pos), go(f.right, pos)]
                out = self.disj(parts) if pos else self.conj(parts)
            elif isinstance(f, FImplies):
                if pos:
                    out = self.disj([go(f.left, False), go(f.right, True)])
                else:
                    out = self.conj([go(f.left, True), go(f.right, False)])
            elif isinstance(f, FIff):
                both = self.conj([go(f.left, True), go(f.right, True)])
                neither = self.conj([go(f.left, False), go(f.right, False)])
                one = self.conj([go(f.left, True), go(f.right, False)])
                other = self.conj([go(f.left, False), go(f.right, True)])
                out = self.disj([both, neither]) if pos else self.disj([one, other])
            elif isinstance(f, FBox):
                out = self.box(f.modality, go(f.sub, True)) if pos \
                    else self.dia(f.modality, go(f.sub, False))
            elif isinstance(f, FDiamond):
                out = self.dia(f.modality, go(f.sub, True)) if pos \
                    else self.box(f.modality, go(f.sub, False))
            else:
                raise TypeError("not a formula: %r" % (f,))
            memo[key] = out
            return out

        return go(phi, True)


_B = NfBuilder()


# --- results --------------------------------------------------------------------

@dataclass
class Sat:
    model: Model
    point: str


@dataclass
class Unsat:
    pass


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
    recurse depth-first with anywhere blocking (a successor equal to an
    in-progress node closes a cycle, sound in a logic whose constraints
    are all one-step conditions).  A failed successor is turned into a
    modal conflict clause - no point under these axioms combines that
    diamond with those boxes - which persists across nodes.

    Verdicts that did not lean on a block are cached globally; a verdict
    that leaned on a block against the node at depth b is reusable exactly
    while that depth slot keeps its occupant, which the per-depth epoch
    stamps track."""

    INF = float("inf")

    def __init__(self, budget: int):
        self.budget = budget
        self.expansions = 0
        self.cache: Dict[tuple, Tuple[bool, Optional[int]]] = {}
        self.cond: Dict[tuple, Tuple[int, int, int]] = {}
        self.worlds: Dict[int, Tuple[tuple, List[int]]] = {}
        self.world_counter = itertools.count()
        self.epoch: List[int] = []
        self.epoch_counter = itertools.count(1)
        self.axioms: List[NF] = []
        self.axioms_key: FrozenSet[int] = frozenset()
        # shared propositional encoding of the formula DAG
        self.num_atoms = 1  # atom 1 is fixed true
        self.struct_clauses: List[List[int]] = [[1]]
        self.atom_of: Dict[int, int] = {}
        self.lit_of: Dict[int, int] = {}
        self.encoded: Set[int] = set()
        self.dia_nodes: List[NF] = []
        self.box_nodes: List[NF] = []
        self.var_lits: Dict[int, int] = {}
        # one warm incremental solver per axiom set, fed the shared
        # structural clauses on demand
        self.solvers: Dict[FrozenSet[int], Tuple[propsat.Solver, List[int]]] = {}

    def set_axioms(self, axioms: List[NF]) -> None:
        self.axioms = list(axioms)
        self.axioms_key = frozenset(nf.uid for nf in self.axioms)
        for nf in self.axioms:
            self._encode(nf)

    def _charge(self):
        self.expansions += 1
        if self.expansions > self.budget:
            raise ResourceLimit("tableau budget exceeded")

    def _lit(self, nf: NF) -> int:
        hit = self.lit_of.get(nf.uid)
        if hit is not None:
            return hit
        if nf.tag == "top":
            out = 1
        elif nf.tag == "bot":
            out = -1
        else:
            neg = _B.negate(nf)
            canonical = nf if nf.uid < neg.uid else neg
            atom = self.atom_of.get(canonical.uid)
            if atom is None:
                self.num_atoms += 1
                atom = self.num_atoms
                self.atom_of[canonical.uid] = atom
                self.lit_of[canonical.uid] = atom
                self.lit_of[neg.uid if canonical is nf else nf.uid] = -atom
                # every complement pair contributes one diamond and one box
                if canonical.tag == "dia":
                    self.dia_nodes.append(canonical)
                    self.box_nodes.append(neg if canonical is nf else nf)
                elif canonical.tag == "box":
                    self.box_nodes.append(canonical)
                    self.dia_nodes.append(neg if canonical is nf else nf)
                elif canonical.tag == "lit" and canonical.kind == "p":
                    self.var_lits[canonical.index] = atom if canonical.pos else -atom
            out = atom if canonical is nf else -atom
        self.lit_of[nf.uid] = out
        return out

    def _encode(self, root: NF) -> None:
        """Emit structural clauses for every and/or node in the DAG, once.
        Box, diamond and literal nodes are free atoms of the encoding; the
        complement of each node reuses the same atom with opposite sign."""
        stack = [root]
        while stack:
            nf = stack.pop()
            if nf.uid in self.encoded:
                continue
            self.encoded.add(nf.uid)
            neg = _B.negate(nf)
            self.encoded.add(neg.uid)
            lf = self._lit(nf)
            if nf.tag in ("and", "or"):
                arms = [self._lit(a) for a in nf.args]
                if nf.tag == "and":
                    for la in arms:
                        self.struct_clauses.append([-lf, la])
                    self.struct_clauses.append([lf] + [-la for la in arms])
                else:
                    for la in arms:
                        self.struct_clauses.append([-la, lf])
                    self.struct_clauses.append([-lf] + arms)
                stack.extend(nf.args)

    def sat(self, content: FrozenSet[NF]) -> Tuple[bool, Optional[int]]:
        ok, _, world = self._sat(frozenset(content), {}, 0)
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
        self._charge()
        while len(self.epoch) <= depth:
            self.epoch.append(0)
        self.epoch[depth] = next(self.epoch_counter)
        world = next(self.world_counter)
        path[ckey] = (depth, world)
        try:
            ok, block_depth = self._node_sat(content, path, depth, world)
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
        solver.ensure_atoms(self.num_atoms)
        while fed[0] < len(self.struct_clauses):
            solver.add_clause(self.struct_clauses[fed[0]])
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
            return model.get(abs(lit), False) == (lit > 0)

        while True:
            solver = self._solver()
            result = solver.solve(assumptions)
            if isinstance(result, propsat.Unsat):
                return False, self.INF
            model = result.assignment
            # justification marking: walk the content along the model,
            # keeping one true arm per disjunction; atoms the assumptions do
            # not lean on stay out of successor contents and conflict clauses
            dias: List[NF] = []
            boxes: List[NF] = []
            true_vars: Set[int] = set()
            seen: Set[int] = set()
            stack = list(content)
            while stack:
                nf = stack.pop()
                if nf.uid in seen:
                    continue
                seen.add(nf.uid)
                if nf.tag == "and":
                    stack.extend(nf.args)
                elif nf.tag == "or":
                    for arm in nf.args:
                        if truth(arm):
                            stack.append(arm)
                            break
                    else:  # pragma: no cover - model satisfies the clauses
                        raise InternalCheckFailed("model leaves a disjunction unjustified")
                elif nf.tag == "dia" and nf.mod is REL:
                    dias.append(nf)
                elif nf.tag == "box" and nf.mod is REL:
                    boxes.append(nf)
                elif nf.tag == "lit" and nf.kind == "p" and nf.pos:
                    true_vars.add(nf.index)
            dias.sort(key=lambda f: f.uid)
            boxes.sort(key=lambda f: f.uid)
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
                ok, bd, w = self._sat(succ, path, depth + 1)
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
    reachable: List[int] = []
    seen: Set[int] = set()
    stack = list(root_worlds)
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        reachable.append(w)
        stack.extend(engine.worlds[w][1])
    reachable.sort()
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


def _collect_globals(root: NF) -> List[NF]:
    """Canonical global atoms (universal diamonds), innermost first."""
    rank: Dict[int, int] = {}
    atoms: Dict[int, NF] = {}

    def grank(nf: NF) -> int:
        r = rank.get(nf.uid)
        if r is not None:
            return r
        r = 0
        for a in nf.args:
            r = max(r, grank(a))
        if nf.tag in ("box", "dia") and nf.mod is UNIV:
            canonical = nf if nf.tag == "dia" else _B.negate(nf)
            r = max(r, grank(canonical.args[0])) + 1
            atoms[canonical.uid] = canonical
            rank[canonical.uid] = r
        rank[nf.uid] = r
        return r

    grank(root)
    return sorted(atoms.values(), key=lambda a: (rank[a.uid], a.uid))


def _reduce(nf: NF, values: Dict[int, bool], memo: Dict[int, NF],
            partial: bool = False) -> NF:
    out = memo.get(nf.uid)
    if out is not None:
        return out
    if nf.tag in ("box", "dia") and nf.mod is UNIV:
        canonical = nf if nf.tag == "dia" else _B.negate(nf)
        if canonical.uid in values:
            truth = values[canonical.uid]
            if nf.tag == "box":
                truth = not truth
            out = _B.TOP if truth else _B.BOT
        elif partial:
            inner = _reduce(nf.args[0], values, memo, partial)
            out = _B.box(nf.mod, inner) if nf.tag == "box" else _B.dia(nf.mod, inner)
        else:
            raise AssertionError("global atom not yet assigned")  # pragma: no cover
    elif nf.tag == "and":
        out = _B.conj([_reduce(a, values, memo, partial) for a in nf.args])
    elif nf.tag == "or":
        out = _B.disj([_reduce(a, values, memo, partial) for a in nf.args])
    elif nf.tag == "box":
        out = _B.box(nf.mod, _reduce(nf.args[0], values, memo, partial))
    elif nf.tag == "dia":
        out = _B.dia(nf.mod, _reduce(nf.args[0], values, memo, partial))
    else:
        out = nf
    memo[nf.uid] = out
    return out


def _ku_satisfiable(root: NF, budget: int) -> Tuple[bool, Optional[Model], Optional[str]]:
    atoms = _collect_globals(root)
    engine = _KEngine(budget)
    values: Dict[int, bool] = {}
    axioms: List[NF] = []
    obligations: List[NF] = []

    def consistent(obls: List[NF]) -> bool:
        engine.set_axioms(axioms)
        base = frozenset(axioms)
        return all(engine.sat(base | {o})[0] for o in obls)

    def search(idx: int):
        if idx == len(atoms):
            root_reduced = _reduce(root, values, {})
            if root_reduced.tag == "bot":
                return None
            all_obls = obligations + [root_reduced]
            if not consistent(all_obls):
                return None
            base = frozenset(axioms)
            worlds = []
            for o in all_obls:
                ok, w = engine.sat(base | {o})
                if not ok:  # pragma: no cover - consistent() just passed
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
                witness = _reduce(body, values, {})
                if witness.tag == "bot":
                    feasible = False
                else:
                    obligations.append(witness)
                    added_obl = True
                    feasible = consistent([witness])
            else:
                axiom = _reduce(_B.negate(body), values, {})
                if axiom.tag == "bot":
                    feasible = False
                elif axiom.tag != "top":
                    axioms.append(axiom)
                    added_axiom = True
                    feasible = consistent(obligations)
            if feasible:
                if _reduce(root, values, {}, partial=True).tag == "bot":
                    feasible = False
            if feasible:
                result = search(idx + 1)
                if result is not None:
                    return result
            if added_obl:
                obligations.pop()
            if added_axiom:
                axioms.pop()
            del values[atom.uid]
        return None

    roots = search(0)
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


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ResourceLimit("tableau budget exceeded")


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
    mentioned = set()
    stack = [root]
    seen = set()
    while stack:
        f = stack.pop()
        if f.uid in seen:
            continue
        seen.add(f.uid)
        if f.tag == "lit" and f.kind == "n":
            mentioned.add(f.index)
        stack.extend(f.args)
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
