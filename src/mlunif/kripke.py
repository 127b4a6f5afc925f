"""Finite frames and models, the truth relation, and frame validity.

`truth_mask` evaluates a formula bottom-up over point-set bitmasks in one
pass over its DAG, so bulk queries (truth at every point) cost one pass.

`frame_valid` searches for a falsifying valuation and point with a CNF
encoding: one atom per (variable, point) and per (nominal, point), with
exactly-one constraints tying each nominal to a single point, plus defined
atoms mirroring the truth relation for every subformula that mentions a
variable or nominal.  Variable-free subformulas are valuation-independent,
so they are evaluated directly and folded into the encoding as constants.
Both read the derived connectives (or, implication, iff, diamonds) as
written.
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
    SYMBOL, TOP, And, Box, Diamond, Formula, H2, Iff, Implies, L, Modality,
    Nominal, Not, Or, Var, language_of, postorder,
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


def _truth_masks(model: Model, nodes: Iterable[Formula]) -> Dict[Formula, int]:
    """Bitmask over point indices where each formula holds, for `nodes`
    listed children before parents (as `postorder` yields them)."""
    frame, valuation = model.frame, model.valuation
    points = frame.points
    n = len(points)
    all_mask = (1 << n) - 1
    index = {p: i for i, p in enumerate(points)}
    r_succ = _succ_masks(points, frame.r)
    s_succ = _succ_masks(points, frame.s) if frame.s is not None else None
    masks: Dict[Formula, int] = {}
    for f in nodes:
        kind = type(f)  # tested roughly by frequency in the reduction formulas
        if kind is And:
            m = masks[f.left] & masks[f.right]
        elif kind is Not:
            m = all_mask ^ masks[f.sub]
        elif kind is Box or kind is Diamond:
            # a box, or a diamond as the negated box of its negated body
            flip = 0 if kind is Box else all_mask
            sub = masks[f.sub] ^ flip
            if f.modality is Modality.UNIV:
                m = all_mask if sub == all_mask else 0
            else:
                succ = r_succ if f.modality is Modality.REL else s_succ
                if succ is None:
                    raise LanguageMismatch("%s needs a hybrid frame"
                                           % ("<h>" if flip else "[h]"))
                m = 0
                for i in range(n):
                    if succ[i] & ~sub == 0:
                        m |= 1 << i
            m ^= flip
        elif kind is Or:
            m = masks[f.left] | masks[f.right]
        elif kind is Implies:
            m = (all_mask ^ masks[f.left]) | masks[f.right]
        elif kind is Iff:
            m = all_mask ^ (masks[f.left] ^ masks[f.right])
        elif kind is Var:
            if f.index not in valuation.var_map:
                raise UnboundSymbol("p%d is not in the valuation" % f.index)
            m = 0
            for p in valuation.var_map[f.index]:
                m |= 1 << index[p]
        elif kind is Nominal:
            if f.index not in valuation.nom_map:
                raise UnboundSymbol("n%d is not in the valuation" % f.index)
            m = 1 << index[valuation.nom_map[f.index]]
        else:
            m = all_mask if f is TOP else 0
        masks[f] = m
    return masks


def truth_mask(model: Model, phi: Formula) -> int:
    """Bitmask over point indices where phi is true."""
    _check_frame_language(phi, model.frame)
    return _truth_masks(model, postorder(phi))[phi]


def model_check(model: Model, point: str, phi: Formula) -> bool:
    if point not in model.frame.points:
        raise UnknownPoint(point)
    mask = truth_mask(model, phi)
    return bool(mask >> model.frame.points.index(point) & 1)


# --- frame validity -----------------------------------------------------------

@dataclass
class Valid:
    pass


@dataclass
class CounterModel:
    model: Model
    point: str


CLAUSE_BUDGET = 2_000_000  # frame_valid raises ResourceLimit past this many clauses


def frame_valid(frame: Frame, phi: Formula) -> Union[Valid, CounterModel]:
    """Valid iff no valuation and point falsify phi on the frame.

    Counter-models are concrete and re-checked with model_check before
    being returned, so a non-validity verdict is self-certifying.
    """
    _check_frame_language(phi, frame)
    nodes = list(postorder(phi))
    points = frame.points
    n = len(points)
    var_indices = sorted({f.index for f in nodes if isinstance(f, Var)})
    nom_indices = sorted({f.index for f in nodes if isinstance(f, Nominal)})
    # symbol-free subformulas have a fixed truth value at each point
    constants = _truth_masks(Model(frame, EMPTY_VALUATION),
                             [f for f in nodes if not f.flags & SYMBOL])

    builder = propsat.CnfBuilder(clause_budget=CLAUSE_BUDGET)
    negate, define_and = builder.negate, builder.define_and
    var_atoms = {(v, i): builder.new_atom() for v in var_indices for i in range(n)}
    nom_atoms = {(m, i): builder.new_atom() for m in nom_indices for i in range(n)}
    for m in nom_indices:
        builder.exactly_one([nom_atoms[m, i] for i in range(n)])

    # successor points of each point, ascending, per modality
    successors = {Modality.UNIV: [list(range(n))] * n}
    for modality, edges in ((Modality.REL, frame.r), (Modality.HYB, frame.s)):
        if edges is not None:
            successors[modality] = [[j for j in range(n) if bits >> j & 1]
                                    for bits in _succ_masks(points, edges)]

    lits: Dict[Tuple[Formula, int], propsat.Literal] = {}

    def children(key: Tuple[Formula, int]) -> List[Tuple[Formula, int]]:
        f, i = key
        if not f.flags & SYMBOL:
            return []
        if isinstance(f, (Box, Diamond)):
            keys = [(f.sub, j) for j in successors[f.modality][i]]
        else:
            keys = [(a, i) for a in f.args]
        return [k for k in keys if k not in lits]

    def lit(root: Formula, point: int) -> propsat.Literal:
        """The literal of `root` at a point, defining the literals of its
        subformulas on the way.  The derived connectives get the literals
        of their definitions: `a | b` is ~(~a & ~b), `a -> b` is
        ~(a & ~b), `a <-> b` is ~(a & ~b) & ~(b & ~a), and a diamond is
        the negated box of the negated body."""
        for key in postorder((root, point), children):
            f, i = key
            if not f.flags & SYMBOL:
                out: propsat.Literal = bool(constants[f] >> i & 1)
            elif isinstance(f, Var):
                out = var_atoms[f.index, i]
            elif isinstance(f, Nominal):
                out = nom_atoms[f.index, i]
            elif isinstance(f, Not):
                out = negate(lits[f.sub, i])
            elif isinstance(f, Box):
                out = define_and([lits[f.sub, j] for j in successors[f.modality][i]])
            elif isinstance(f, Diamond):
                out = negate(define_and([negate(lits[f.sub, j])
                                         for j in successors[f.modality][i]]))
            else:
                a, b = lits[f.left, i], lits[f.right, i]
                if isinstance(f, And):
                    out = define_and([a, b])
                elif isinstance(f, Or):
                    out = negate(define_and([negate(a), negate(b)]))
                elif isinstance(f, Implies):
                    out = negate(define_and([a, negate(b)]))
                else:
                    out = define_and([negate(define_and([a, negate(b)])),
                                      negate(define_and([b, negate(a)]))])
            lits[key] = out
        return lits[root, point]

    falsifiable = [negate(lit(phi, i)) for i in range(n)]
    builder.add_clause(falsifiable)
    if all(l is False for l in falsifiable):
        return Valid()

    result = propsat.solve(builder.to_cnf())
    if isinstance(result, propsat.Unsat):
        return Valid()

    assignment = result.assignment
    var_map = {
        v: frozenset(points[i] for i in range(n) if assignment[var_atoms[v, i]])
        for v in var_indices
    }
    nom_map = {}
    for m in nom_indices:
        owners = [points[i] for i in range(n) if assignment[nom_atoms[m, i]]]
        if len(owners) != 1:
            raise InternalCheckFailed("nominal n%d placed at %d points" % (m, len(owners)))
        nom_map[m] = owners[0]
    model = Model(frame, Valuation(var_map, nom_map))
    witness = None
    for i in range(n):
        value = falsifiable[i]
        if value is True or (not isinstance(value, bool)
                             and assignment[abs(value)] == (value > 0)):
            witness = points[i]
            break
    if witness is None or model_check(model, witness, phi):
        raise InternalCheckFailed("frame_valid produced a bogus counter-model")
    return CounterModel(model, witness)


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
