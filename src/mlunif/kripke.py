"""Finite frames and models, the truth relation, and frame validity.

`model_check` evaluates formulas bottom-up over point-set bitmasks, so bulk
queries (truth at every point) cost one pass over the formula DAG.

`frame_valid` searches for a falsifying valuation and point with a CNF
encoding: one atom per (variable, point) and per (nominal, point), with
exactly-one constraints tying each nominal to a single point, plus defined
atoms mirroring the truth relation for every subformula that mentions a
variable or nominal.  Variable-free subformulas are valuation-independent,
so they are evaluated directly and folded into the encoding as constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from . import propsat
from .errors import (
    InternalCheckFailed, LanguageMismatch, ParseError, UnboundSymbol,
    UnknownPoint,
)
from .formula import (
    SYMBOL, And, Bot, Box, Diamond, Formula, H2, Iff, Implies, L, Modality,
    Nominal, Not, Or, Top, Var, desugar, language_of, nominals, variables,
)

Edge = Tuple[str, str]


def transitive_closure(pairs: Iterable[Edge]) -> FrozenSet[Edge]:
    """Smallest transitive superset of the given relation."""
    succ: Dict[str, Set[str]] = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    out: Set[Edge] = set()
    for x in list(succ):
        # depth-first reachability in one or more steps
        stack = list(succ.get(x, ()))
        seen: Set[str] = set()
        while stack:
            y = stack.pop()
            if y in seen:
                continue
            seen.add(y)
            stack.extend(succ.get(y, ()))
        out.update((x, y) for y in seen)
    return frozenset(out)


@dataclass(frozen=True)
class Frame:
    points: Tuple[str, ...]
    r: FrozenSet[Edge]
    s: Optional[FrozenSet[Edge]] = None  # present exactly for hybrid frames

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point names")
        if not self.points:
            raise ValueError("a frame needs at least one point")
        pts = set(self.points)
        for x, y in self.r:
            if x not in pts or y not in pts:
                raise UnknownPoint("R edge (%s, %s) leaves the frame" % (x, y))
        if self.s is not None:
            for x, y in self.s:
                if x not in pts or y not in pts:
                    raise UnknownPoint("S edge (%s, %s) leaves the frame" % (x, y))

    @property
    def kind(self) -> str:
        return L if self.s is None else H2


@dataclass(frozen=True)
class Valuation:
    var_map: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    nom_map: Dict[int, str] = field(default_factory=dict)

    def check_against(self, frame: Frame) -> None:
        pts = set(frame.points)
        for idx, points in self.var_map.items():
            if not set(points) <= pts:
                raise UnknownPoint("valuation of p%d leaves the frame" % idx)
        for idx, point in self.nom_map.items():
            if point not in pts:
                raise UnknownPoint("valuation of n%d leaves the frame" % idx)


EMPTY_VALUATION = Valuation({}, {})


@dataclass
class Model:
    frame: Frame
    valuation: Valuation

    def __post_init__(self):
        self.valuation.check_against(self.frame)
        self._masks: Dict[Formula, int] = {}


def _succ_masks(points: Tuple[str, ...], edges: Iterable[Edge]) -> List[int]:
    index = {p: i for i, p in enumerate(points)}
    succ = [0] * len(points)
    for x, y in edges:
        succ[index[x]] |= 1 << index[y]
    return succ


def _check_frame_language(phi: Formula, frame: Frame) -> None:
    lang = language_of(phi)
    if lang == H2 and frame.kind == L:
        raise LanguageMismatch("hybrid formula on a frame without S")
    if lang == L and frame.kind == H2:
        raise LanguageMismatch("universal-box formula on a hybrid frame")


class Evaluator:
    """Reusable bottom-up truth-set computation over one model."""

    def __init__(self, model: Model):
        self.model = model
        frame = model.frame
        self.points = frame.points
        self.n = len(self.points)
        self.all_mask = (1 << self.n) - 1
        self.index = {p: i for i, p in enumerate(self.points)}
        self.r_succ = _succ_masks(self.points, frame.r)
        self.s_succ = _succ_masks(self.points, frame.s) if frame.s is not None else None
        self.cache = model._masks

    def mask(self, phi: Formula) -> int:
        m = self.cache.get(phi)
        if m is not None:
            return m
        f = phi
        n, all_mask = self.n, self.all_mask
        if isinstance(f, Var):
            if f.index not in self.model.valuation.var_map:
                raise UnboundSymbol("p%d is not in the valuation" % f.index)
            m = 0
            for p in self.model.valuation.var_map[f.index]:
                m |= 1 << self.index[p]
        elif isinstance(f, Nominal):
            if f.index not in self.model.valuation.nom_map:
                raise UnboundSymbol("n%d is not in the valuation" % f.index)
            m = 1 << self.index[self.model.valuation.nom_map[f.index]]
        elif isinstance(f, Top):
            m = all_mask
        elif isinstance(f, Bot):
            m = 0
        elif isinstance(f, Not):
            m = all_mask ^ self.mask(f.sub)
        elif isinstance(f, And):
            m = self.mask(f.left) & self.mask(f.right)
        elif isinstance(f, Or):
            m = self.mask(f.left) | self.mask(f.right)
        elif isinstance(f, Implies):
            m = (all_mask ^ self.mask(f.left)) | self.mask(f.right)
        elif isinstance(f, Iff):
            m = all_mask ^ (self.mask(f.left) ^ self.mask(f.right))
        elif isinstance(f, Box):
            if f.modality is Modality.UNIV:
                m = all_mask if self.mask(f.sub) == all_mask else 0
            else:
                succ = self.r_succ if f.modality is Modality.REL else self.s_succ
                if succ is None:
                    raise LanguageMismatch("[h] needs a hybrid frame")
                sub = self.mask(f.sub)
                m = 0
                for i in range(n):
                    if succ[i] & ~sub == 0:
                        m |= 1 << i
        elif isinstance(f, Diamond):
            if f.modality is Modality.UNIV:
                m = all_mask if self.mask(f.sub) != 0 else 0
            else:
                succ = self.r_succ if f.modality is Modality.REL else self.s_succ
                if succ is None:
                    raise LanguageMismatch("<h> needs a hybrid frame")
                sub = self.mask(f.sub)
                m = 0
                for i in range(n):
                    if succ[i] & sub:
                        m |= 1 << i
        else:
            raise TypeError("not a formula: %r" % (f,))
        self.cache[f] = m
        return m


def truth_mask(model: Model, phi: Formula) -> int:
    """Bitmask over point indices where phi is true; memoized per model."""
    _check_frame_language(phi, model.frame)
    return Evaluator(model).mask(phi)


def points_where(model: Model, phi: Formula) -> Set[str]:
    mask = truth_mask(model, phi)
    return {p for i, p in enumerate(model.frame.points) if mask >> i & 1}


def model_check(model: Model, point: str, phi: Formula) -> bool:
    if point not in model.frame.points:
        raise UnknownPoint(point)
    mask = truth_mask(model, phi)
    return bool(mask >> model.frame.points.index(point) & 1)


def holds_everywhere(model: Model, phi: Formula) -> bool:
    n = len(model.frame.points)
    return truth_mask(model, phi) == (1 << n) - 1


# --- frame validity -----------------------------------------------------------

@dataclass
class Valid:
    pass


@dataclass
class CounterModel:
    model: Model
    point: str


def frame_valid(frame: Frame, phi: Formula,
                clause_budget: Optional[int] = 2_000_000) -> Union[Valid, CounterModel]:
    """Valid iff no valuation and point falsify phi on the frame.

    Counter-models are concrete and re-checked with model_check before
    being returned, so a non-validity verdict is self-certifying.
    """
    _check_frame_language(phi, frame)
    body = desugar(phi)
    points = frame.points
    n = len(points)
    var_indices = sorted(variables(body))
    nom_indices = sorted(nominals(body))

    evaluator = Evaluator(Model(frame, EMPTY_VALUATION))

    builder = propsat.CnfBuilder(clause_budget=clause_budget)
    var_atoms = {(v, i): builder.new_atom() for v in var_indices for i in range(n)}
    nom_atoms = {(m, i): builder.new_atom() for m in nom_indices for i in range(n)}
    for m in nom_indices:
        builder.exactly_one([nom_atoms[m, i] for i in range(n)])

    r_succ = _succ_masks(points, frame.r)
    s_succ = _succ_masks(points, frame.s) if frame.s is not None else None

    lits: Dict[Tuple[Formula, int], propsat.Literal] = {}
    define_cache: Dict[Tuple, propsat.Literal] = {}

    def define_and(parts: List[propsat.Literal]) -> propsat.Literal:
        if any(p is False for p in parts):
            return False
        ints = sorted(p for p in parts if not isinstance(p, bool))
        key = tuple(ints)
        hit = define_cache.get(key)
        if hit is None:
            hit = builder.define_and(ints)
            define_cache[key] = hit
        return hit

    def lit(f: Formula, i: int) -> propsat.Literal:
        if not f.flags & SYMBOL:
            # symbol-free subformulas have a fixed truth value at each point
            return bool(evaluator.mask(f) >> i & 1)
        key = (f, i)
        hit = lits.get(key)
        if hit is not None:
            return hit
        if isinstance(f, Var):
            out: propsat.Literal = var_atoms[f.index, i]
        elif isinstance(f, Nominal):
            out = nom_atoms[f.index, i]
        elif isinstance(f, Not):
            out = builder.negate(lit(f.sub, i))
        elif isinstance(f, And):
            out = define_and([lit(f.left, i), lit(f.right, i)])
        elif isinstance(f, Box):
            if f.modality is Modality.UNIV:
                succ_bits = (1 << n) - 1
            else:
                succ = r_succ if f.modality is Modality.REL else s_succ
                succ_bits = succ[i]
            parts = [lit(f.sub, j) for j in range(n) if succ_bits >> j & 1]
            out = define_and(parts)
        else:
            raise TypeError("unexpected desugared node: %r" % (f,))
        lits[key] = out
        return out

    falsifiable = [builder.negate(lit(body, i)) for i in range(n)]
    builder.add_clause(falsifiable)
    if all(l is False for l in falsifiable):
        return Valid()

    result = propsat.solve(builder.to_cnf())
    if isinstance(result, propsat.Unsat):
        return Valid()

    assignment = result.assignment
    var_map = {
        v: frozenset(points[i] for i in range(n) if assignment.get(var_atoms[v, i], False))
        for v in var_indices
    }
    nom_map = {}
    for m in nom_indices:
        owners = [points[i] for i in range(n) if assignment.get(nom_atoms[m, i], False)]
        if len(owners) != 1:
            raise InternalCheckFailed("nominal n%d placed at %d points" % (m, len(owners)))
        nom_map[m] = owners[0]
    model = Model(frame, Valuation(var_map, nom_map))
    witness = None
    for i in range(n):
        value = falsifiable[i]
        if value is True or (not isinstance(value, bool)
                             and assignment.get(abs(value), False) == (value > 0)):
            witness = points[i]
            break
    if witness is None or model_check(model, witness, phi):
        raise InternalCheckFailed("frame_valid produced a bogus counter-model")
    return CounterModel(model, witness)


# --- graph helpers ------------------------------------------------------------

def points_within(frame: Frame, start: str, max_dist: int) -> Set[str]:
    """Points reachable from `start` in at most `max_dist` steps along R or S."""
    if start not in frame.points:
        raise UnknownPoint(start)
    succ: Dict[str, Set[str]] = {p: set() for p in frame.points}
    for x, y in frame.r:
        succ[x].add(y)
    if frame.s is not None:
        for x, y in frame.s:
            succ[x].add(y)
    reached = {start}
    frontier = {start}
    for _ in range(max_dist):
        frontier = {y for x in frontier for y in succ[x]} - reached
        if not frontier:
            break
        reached |= frontier
    return reached


def is_transitive(pairs: Iterable[Edge]) -> bool:
    pairs = set(pairs)
    succ: Dict[str, Set[str]] = {}
    for x, y in pairs:
        succ.setdefault(x, set()).add(y)
    return all((x, z) in pairs for x, y in pairs for z in succ.get(y, ()))


# --- random generation ---------------------------------------------------------

def random_frame(seed: int, max_points: int, kind: str = L,
                 transitive: bool = False, s_universal: bool = False) -> Frame:
    """Deterministic in `seed`; edge density is drawn per frame."""
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_points)
    points = tuple("w%d" % i for i in range(n))
    density = rng.uniform(0.1, 0.55)
    r = {(x, y) for x in points for y in points if rng.random() < density}
    if transitive:
        r = transitive_closure(r)
    if kind == L:
        return Frame(points, frozenset(r))
    if s_universal:
        s = {(x, y) for x in points for y in points}
    else:
        s_density = rng.uniform(0.1, 0.55)
        s = {(x, y) for x in points for y in points if rng.random() < s_density}
    return Frame(points, frozenset(r), frozenset(s))


def random_valuation(seed: int, frame: Frame, var_indices: Iterable[int] = (),
                     nominal_indices: Iterable[int] = ()) -> Valuation:
    rng = random.Random(seed)
    var_map = {
        v: frozenset(p for p in frame.points if rng.random() < 0.5)
        for v in sorted(set(var_indices))
    }
    nom_map = {m: rng.choice(frame.points) for m in sorted(set(nominal_indices))}
    return Valuation(var_map, nom_map)


# --- text formats ---------------------------------------------------------------

def serialize_frame(frame: Frame) -> str:
    lines = ["points: " + " ".join(frame.points)]
    for x, y in sorted(frame.r):
        lines.append("R: %s %s" % (x, y))
    if frame.s is not None:
        if not frame.s:
            lines.append("S:")
        for x, y in sorted(frame.s):
            lines.append("S: %s %s" % (x, y))
    return "\n".join(lines) + "\n"


def parse_frame(text: str) -> Frame:
    points: Optional[Tuple[str, ...]] = None
    r: Set[Edge] = set()
    s: Set[Edge] = set()
    saw_s = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("points:"):
            points = tuple(line[len("points:"):].split())
            continue
        if line.startswith("R:"):
            parts = line[2:].split()
            if len(parts) != 2:
                raise ParseError(0, "an edge 'R: x y' on line %d" % lineno, raw)
            r.add((parts[0], parts[1]))
            continue
        if line.startswith("S:"):
            saw_s = True
            parts = line[2:].split()
            if parts:
                if len(parts) != 2:
                    raise ParseError(0, "an edge 'S: x y' on line %d" % lineno, raw)
                s.add((parts[0], parts[1]))
            continue
        raise ParseError(0, "'points:', 'R:' or 'S:' on line %d" % lineno, raw)
    if points is None:
        raise ParseError(0, "a 'points:' line", text)
    return Frame(points, frozenset(r), frozenset(s) if saw_s else None)


def serialize_valuation(valuation: Valuation) -> str:
    lines = []
    for idx in sorted(valuation.var_map):
        inner = ", ".join(sorted(valuation.var_map[idx]))
        lines.append("p%d = {%s}" % (idx, inner))
    for idx in sorted(valuation.nom_map):
        lines.append("n%d = %s" % (idx, valuation.nom_map[idx]))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_valuation(text: str) -> Valuation:
    var_map: Dict[int, FrozenSet[str]] = {}
    nom_map: Dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, rhs = line.partition("=")
        name = name.strip()
        rhs = rhs.strip()
        if not name or not rhs:
            raise ParseError(0, "'p<k> = {...}' or 'n<k> = point' on line %d" % lineno, raw)
        if name.startswith("p"):
            if not (rhs.startswith("{") and rhs.endswith("}")):
                raise ParseError(0, "a point set in braces on line %d" % lineno, raw)
            inner = rhs[1:-1].strip()
            pts = frozenset(p.strip() for p in inner.split(",") if p.strip()) if inner else frozenset()
            var_map[int(name[1:])] = pts
        elif name.startswith("n"):
            nom_map[int(name[1:])] = rhs
        else:
            raise ParseError(0, "a variable or nominal name on line %d" % lineno, raw)
    return Valuation(var_map, nom_map)
