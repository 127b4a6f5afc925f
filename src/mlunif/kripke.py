"""Finite frames and models, the truth relation, and frame validity.

A `Frame` holds each relation as successor rows, one int per point with
bit j set when the point sees point j, and a `Model`'s valuation maps each
variable and nominal node to the mask of the points where it holds; only
the frame and valuation texts name points.

`truth_mask` evaluates a formula bottom-up over point-set bitmasks in one
pass over its DAG.  It works on a `DisjointUnion` of models: each model
owns a contiguous block of bits, and each relation is stored as offset
masks E_d, the points i with an edge to i + d.  A box is then
all ^ OR_d(E_d & shift(all ^ body, d)), at most 2 n - 1 big-integer steps
per node for blocks of at most n points, however many blocks there are.
The universal box of L frames uses the same construction over the "same
block" relation, so it never looks across models.  One model is a union of
one block, so a single model and a suite of thousands cost one pass each.
A union is folded from blocks, a frame's successor rows and a valuation's
(symbol, mask) pairs, so a caller that draws its models, as the random
suite does with `draw_rows`, builds no `Frame` or `Model` per block; each
union-wide mask is built once, after the last block.

`frame_valid` first splits phi into its top-level conjuncts, which is
sound because validity distributes over `&`.  The conjuncts are the roots
of one CNF that searches for a falsifying valuation and point, and
encodes only the (node, point) pairs that can matter.  A bounds pass,
bottom-up, gives each node two masks: lo, where it is true under every
valuation, and hi, where it is true under some (Kleene's three-valued
truth, every variable and nominal unknown).  Where they agree the node
is a constant: a variable-free subformula, so a conjunct with no symbol
is decided here, but also `pi1` off the tower-1 points or
`epsilon(t, ...)` off the configuration points of state t.  A relevance
pass, top-down, marks a root relevant everywhere, an argument of a
connective where the connective is relevant and undetermined, and the
body of a box or diamond at the successors of such points.  Only
these live pairs get literals; elsewhere a parent reads its argument's
constant.  A variable has atoms at its live points, a nominal one per
point under an exactly-one constraint.  A connective's literal is defined
once per distinct pair of argument literals, so a node that is constant
over a block of points (under `[u]` or a total S) is defined once.  Every
pass reads the derived connectives (or, implication, iff, diamonds) as
written.

A box literal at a point is the conjunction of its body's literals at the
undetermined successors, defined once per distinct successor row r, and
the rows share their sub-rows.  The cover of r is the set of points y of
r whose own row is a proper subset of r and lies in the row of no other
such point; the conjunction over r is that of the body at each covered
y, of the conjunction already made for y's row, and of the body at the
rest of r, the bits that the cover and its rows miss.  Every part is a
conjunction over a subset of r, defined in the same direction, and the
rest completes the union, so this is sound on any frame.  On a transitive
frame without cycles a cover is the successors one generator edge away
and the rest is empty, so the CNF grows with the generator edges of R,
not with its transitive closure.  A diamond is the dual.

The definitions are polarity-aware (Plaisted and Greenbaum 1986): an atom
gets only the implication its occurrences need, not a full equivalence.
The roots occur negatively, since the CNF only asserts, by one clause,
that one of them is false at some live point; `~` and the left side of
`->` flip the polarity, both sides of `<->` get both, and every other
connective passes it on.  A negative node needs formula -> atom, a
positive one atom -> formula, and a shared node the union over its
occurrences.  In any model of the CNF a false root literal then still
means a false root, so counter-models stay sound.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterable, Iterator

from . import propsat
from .errors import (
    InternalCheckFailed, LanguageMismatch, ParseError, UnboundSymbol,
    UnknownPoint,
)
from .formula import (
    SYMBOL, TOP, And, Box, Diamond, Formula, H2, Iff, Implies, L, Modality,
    Nominal, Not, Or, Var, language_of, postorder, pretty,
)
from .record import FrozenRecord, Record


def transitive_closure(rows: Iterable[int]) -> tuple[int, ...]:
    """Smallest transitive superset of the relation given by successor rows:
    a Warshall pass, in which each point k passes its row on to every row
    that has bit k."""
    rows = list(rows)
    for k in range(len(rows)):
        row, bit = rows[k], 1 << k
        for i, other in enumerate(rows):
            if other & bit:
                rows[i] = other | row
    return tuple(rows)


def transitive_reduction(rows: Iterable[int]) -> tuple[int, ...]:
    """The edges (i, j) of the closure of `rows` with no third point k
    between them (i sees k, k sees j), together with the closure's loops.
    When the closure has no cycle through two or more points, these are the
    fewest edges with the same closure, and the only such set (Aho, Garey
    and Ullman 1972).  On a cycle the reduction loses edges, so its own
    closure is smaller: a caller that needs the closure back compares."""
    closure = transitive_closure(rows)
    reduced = []
    for i, row in enumerate(closure):
        loop = row & 1 << i
        later = 0  # the points two or more edges past i, through a third point
        for k in _bits(row ^ loop):
            later |= closure[k] & ~(1 << k)
        reduced.append((row ^ loop) & ~later | loop)
    return tuple(reduced)


class Frame(FrozenRecord):
    """Named points and their relations, each relation as successor rows:
    bit j of `r[i]` is set when point i sees point j.  `s` is present
    exactly for hybrid frames."""
    points: tuple[str, ...]
    r: tuple[int, ...]
    s: tuple[int, ...] | None

    def __init__(self, points: tuple[str, ...], r: tuple[int, ...],
                 s: tuple[int, ...] | None = None):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        if len(set(points)) != len(points):
            raise ValueError("duplicate point names")
        if not points:
            raise ValueError("a frame needs at least one point")
        n = len(points)
        for name, rows in (("R", r), ("S", s)):
            if rows is not None and len(rows) != n:
                raise ValueError("%s has %d rows for %d points" % (name, len(rows), n))
            if rows is not None and (max(rows) >> n or min(rows) < 0):
                raise UnknownPoint("an %s edge leaves the frame's %d points" % (name, n))

    @property
    def kind(self) -> str:
        return L if self.s is None else H2


class Model(Record):
    """A frame and a valuation: each variable and nominal node, `Var(k)` or
    `Nominal(k)`, mapped to the mask of the points where it holds, in the
    bit order of the frame's points.  A nominal holds at exactly one point."""
    frame: Frame
    valuation: dict[Formula, int]

    def __init__(self, frame: Frame, valuation: dict[Formula, int]):
        self.frame = frame
        self.valuation = valuation
        n = len(frame.points)
        for symbol, mask in valuation.items():
            if mask >> n:  # a negative mask, too, has bits at and above n
                raise UnknownPoint("valuation of %s leaves the frame" % pretty(symbol))
            if type(symbol) is Nominal and (not mask or mask & mask - 1):
                raise ValueError("nominal %s holds at other than one point" % pretty(symbol))


class DisjointUnion:
    """Models of one frame kind side by side, as one model over the disjoint
    union of their frames.

    Model k owns the block of bits `offsets[k]` ... `offsets[k] + n_k - 1`,
    one bit per point in the order of its frame's points.  Each relation is
    kept as offset masks: `edges[modality][d]` holds bit i when point i has
    an edge to point i + d, which lies in the same block.  The universal
    relation of L frames is the "same block" relation, so `[u]` never looks
    across models.  `symbols` maps each variable and nominal node, `Var(k)`
    or `Nominal(k)`, to the points where it holds, one block after another,
    and `bound` counts the blocks that bind it.

    The union is folded from blocks, each a frame's R rows, its S rows (None
    for L frames) and the (symbol, mask) pairs of its valuation, the
    block-local points where each bound symbol holds: a model is the block
    `(frame.r, frame.s, valuation.items())`, and a caller that draws its
    models, as the random suite does, folds the drawn rows and masks with
    no `Frame` or `Model` per block.  The fold records the union bit of
    every edge and symbol point and builds each union-wide mask once, at
    the end, so a block costs the same however many came before it, and a
    generator of blocks is never held in memory.
    """

    def __init__(self, blocks: Iterable[tuple]):
        kind: str | None = None
        offsets: list[int] = []
        width = 0
        bound: dict[Formula, int] = {}
        # the union bits of each edge offset d of R and S, and of each symbol
        r_at: dict[int, list[int]] = {}
        s_at: dict[int, list[int]] = {}
        held_at: dict[Formula, list[int]] = {}
        for r, s, held in blocks:
            block_kind = L if s is None else H2
            if block_kind != kind:
                if offsets:
                    raise ValueError("a disjoint union needs models of one frame kind")
                kind = block_kind
            offsets.append(width)
            for rows, out in ((r, r_at),) if s is None else ((r, r_at), (s, s_at)):
                for i, row in enumerate(rows):
                    at = width + i
                    while row:  # each successor j of i, lowest bit first
                        low = row & -row
                        d = low.bit_length() - 1 - i
                        bits = out.get(d)
                        if bits is None:
                            out[d] = [at]
                        else:
                            bits.append(at)
                        row ^= low
            for symbol, mask in held:
                bound[symbol] = bound.get(symbol, 0) + 1
                bits = held_at.setdefault(symbol, [])
                while mask:
                    low = mask & -mask
                    bits.append(width + low.bit_length() - 1)
                    mask ^= low
            width += len(r)
        self.kind, self.offsets, self.width, self.bound = kind, offsets, width, bound
        self.symbols = {symbol: _mask(bits, width) for symbol, bits in held_at.items()}
        self.edges = {m: {d: _mask(bits, width) for d, bits in out.items()}
                      for m, out in ((Modality.REL, r_at), (Modality.HYB, s_at))}
        self.edges[Modality.UNIV] = _same_block(offsets, width) if kind == L else {}


def _mask(bits: list[int], width: int) -> int:
    """The int with the given bits set, all below `width`, built in one
    step from a string of binary digits."""
    digits = bytearray(b"0") * width
    for i in bits:
        digits[i] = 49  # "1"
    return int(digits[::-1], 2)


def _same_block(offsets: list[int], width: int) -> dict[int, int]:
    """Offset masks of the relation that joins every two points of one
    block: E_d holds i when no block starts in i + 1 ... i + d (the end of
    the union counting as a start), and E_-d is E_d moved up by d."""
    starts = _mask(offsets[1:] + [width], width + 1)
    everything = (1 << width) - 1
    out = {0: everything}
    apart, d = 0, 1
    while True:
        apart |= starts >> d
        e = everything & ~apart
        if not e:
            return out
        out[d], out[-d] = e, e << d
        d += 1


def _check_frame_language(phi: Formula, kind: str | None) -> None:
    lang = language_of(phi)
    if lang == H2 and kind == L:
        raise LanguageMismatch("hybrid formula on a frame without S")
    if lang == L and kind == H2:
        raise LanguageMismatch("universal-box formula on a hybrid frame")


def truth_mask(model: Model | DisjointUnion, phi: Formula) -> int:
    """Bitmask over point indices where phi is true; for a disjoint union,
    over the points of all its models, block after block.  One pass over
    phi's DAG, children before parents; a mask is dropped once its last
    parent has been evaluated, so the live masks stay few however wide the
    union is."""
    if isinstance(model, Model):
        model = DisjointUnion([(model.frame.r, model.frame.s, model.valuation.items())])
    _check_frame_language(phi, model.kind)
    nodes = list(postorder(phi))
    all_mask = (1 << model.width) - 1
    blocks = len(model.offsets)
    symbols, bound, edges = model.symbols, model.bound, model.edges
    masks: dict[Formula, int] = {}
    uses: dict[Formula, int] = {}
    for f in nodes:
        for a in f.args:
            uses[a] = uses.get(a, 0) + 1
    for f in nodes:
        kind = type(f)  # tested roughly by frequency in the reduction formulas
        if kind is And:
            m = masks[f.left] & masks[f.right]
        elif kind is Not:
            m = all_mask ^ masks[f.sub]
        elif kind is Box or kind is Diamond:
            # a diamond holds at i when, for some d, E_d has i and the body
            # holds at i + d; a box is the negated diamond of its negated body
            flip = all_mask if kind is Box else 0
            sub = masks[f.sub] ^ flip
            m = 0
            for d, e in edges[f.modality].items():
                m |= e & (sub >> d if d >= 0 else sub << -d)
            m ^= flip
        elif kind is Or:
            m = masks[f.left] | masks[f.right]
        elif kind is Implies:
            m = (all_mask ^ masks[f.left]) | masks[f.right]
        elif kind is Iff:
            m = all_mask ^ (masks[f.left] ^ masks[f.right])
        elif kind is Var or kind is Nominal:
            if bound.get(f, 0) != blocks:
                raise UnboundSymbol("%s is not in the valuation" % pretty(f))
            m = symbols.get(f, 0)
        else:
            m = all_mask if f is TOP else 0
        masks[f] = m
        for a in f.args:
            uses[a] -= 1
            if not uses[a]:
                del masks[a]
    return masks[phi]


def model_check(model: Model, point: str, phi: Formula) -> bool:
    if point not in model.frame.points:
        raise UnknownPoint("point %s is not in the frame" % point)
    mask = truth_mask(model, phi)
    return bool(mask >> model.frame.points.index(point) & 1)


# --- frame validity -----------------------------------------------------------

class Valid(Record):
    pass


class CounterModel(Record):
    model: Model
    point: str


CLAUSE_BUDGET = 2_000_000  # frame_valid raises ResourceLimit past this many clauses


def _counter_model(frame: Frame, phi: Formula, nodes: list[Formula],
                   valuation: dict[Formula, int], point: int | None) -> CounterModel:
    """The counter-model at point index `point`, with every variable and
    nominal of phi (`nodes`) that `valuation` leaves out bound to no point
    or the first point, after a truth-mask pass confirms that phi is false
    there."""
    for f in nodes:
        if type(f) is Var:
            valuation.setdefault(f, 0)
        elif type(f) is Nominal:
            valuation.setdefault(f, 1)
    model = Model(frame, valuation)
    if point is None or truth_mask(model, phi) >> point & 1:
        raise InternalCheckFailed("frame_valid produced a bogus counter-model")
    return CounterModel(model, frame.points[point])


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_groups(rows_of: dict[Modality, tuple[int, ...]]
                ) -> dict[Modality, list[tuple[int, int]]]:
    """Each modality's distinct successor rows, in order of first point,
    each with the mask of the points that have it."""
    groups = {}
    for modality, rows in rows_of.items():
        held: dict[int, int] = {}
        for i, row in enumerate(rows):
            held[row] = held.get(row, 0) | 1 << i
        groups[modality] = list(held.items())
    return groups


def _cover(rows: tuple[int, ...], row: int) -> int:
    """The points y of `row` whose own row is a proper subset of it and
    that lie in the row of no other such point: on a transitive frame
    without cycles, the successors one generator edge away."""
    candidates = 0
    for y in _bits(row):
        below = rows[y]
        if below | row == row and below != row:
            candidates |= 1 << y
    others = 0
    for y in _bits(candidates):
        others |= rows[y] & ~(1 << y)
    return candidates & ~others


def _modal_mask(group: list[tuple[int, int]], m: int, box: bool) -> int:
    """The points whose successor row, among the distinct rows `group`,
    lies inside `m` (for a box) or meets it (for a diamond)."""
    out = 0
    for row, held in group:
        if (row & m == row) if box else row & m:
            out |= held
    return out


def _bounds(nodes: list[Formula], groups: dict[Modality, list[tuple[int, int]]],
            all_mask: int) -> dict[Formula, tuple[int, int]]:
    """For each node of `nodes` (children before parents), the masks
    (lo, hi) of the points where it is true under every valuation and
    under some valuation: Kleene's three-valued truth on the frame, with
    every variable and nominal unknown at every point."""
    bounds: dict[Formula, tuple[int, int]] = {}
    for f in nodes:
        kind = type(f)
        if kind is Box or kind is Diamond:
            lo, hi = bounds[f.sub]
            group, box = groups[f.modality], kind is Box
            lo = _modal_mask(group, lo, box)
            # a node without symbols has lo = hi
            bound = lo, _modal_mask(group, hi, box) if f.flags & SYMBOL else lo
        elif kind is Not:
            lo, hi = bounds[f.sub]
            bound = all_mask ^ hi, all_mask ^ lo
        elif kind is Var or kind is Nominal:
            bound = 0, all_mask
        elif f.args:
            (lo_a, hi_a), (lo_b, hi_b) = bounds[f.left], bounds[f.right]
            if kind is And:
                bound = lo_a & lo_b, hi_a & hi_b
            elif kind is Or:
                bound = lo_a | lo_b, hi_a | hi_b
            elif kind is Implies:
                bound = (all_mask ^ hi_a) | lo_b, (all_mask ^ lo_a) | hi_b
            else:  # Iff: sides known equal, and sides not known different
                bound = ((lo_a & lo_b) | (all_mask ^ (hi_a | hi_b)),
                         all_mask ^ ((lo_a & ~hi_b) | (lo_b & ~hi_a)))
        else:
            bound = (all_mask, all_mask) if f is TOP else (0, 0)
        bounds[f] = bound
    return bounds


def frame_valid(frame: Frame, phi: Formula) -> Valid | CounterModel:
    """Valid iff no valuation and point falsify phi on the frame.

    Validity distributes over `&`, so phi's top-level conjuncts are the
    roots of the CNF (see the module docstring), which encodes only their
    relevant, undetermined (node, point) pairs; a root that the bounds make
    false at some point needs no CNF, nor does one they make true
    everywhere, such as a conjunct with no symbol.  The `&` spine above the
    roots is never relevant, so it gets no literal.  Counter-models bind
    every symbol of phi and are re-checked with model_check before being
    returned, so a non-validity verdict is self-certifying.
    """
    _check_frame_language(phi, frame.kind)
    nodes = list(postorder(phi))
    n = len(frame.points)
    roots: list[Formula] = []
    stack = [phi]
    while stack:
        f = stack.pop()
        if type(f) is And:
            stack += (f.right, f.left)
        else:
            roots.append(f)

    all_mask = (1 << n) - 1
    # each point's successor row by modality; `[u]` sees every point
    rows_of = {Modality.UNIV: (all_mask,) * n, Modality.REL: frame.r}
    if frame.s is not None:
        rows_of[Modality.HYB] = frame.s
    groups = _row_groups(rows_of)
    bounds = _bounds(nodes, groups, all_mask)
    for f in roots:
        never = all_mask ^ bounds[f][1]
        if never:  # the root is false there under every valuation
            return _counter_model(frame, phi, nodes, {},
                                  (never & -never).bit_length() - 1)

    # one pass, parents before children, gives each node its live points,
    # those where it is relevant and undetermined, and the directions of its
    # definition it needs (propsat.POS: its literal implies its formula,
    # propsat.NEG: the converse).  A root is relevant everywhere, the
    # argument of a connective where the connective is live, and the body
    # of a box or diamond at the successors of its live points.  Where a
    # connective is undetermined, every argument can still take the value
    # that decides it (an `&` sibling can be true, an `|` sibling false,
    # and so on), so no argument is relevant in vain.  A root needs NEG, as
    # its literals are only asserted false, by the falsifying clause.
    POS, NEG = propsat.POS, propsat.NEG
    flip = (0, NEG, POS, POS | NEG)
    live: dict[Formula, int] = {}
    relevant = dict.fromkeys(roots, all_mask)
    need = dict.fromkeys(nodes, 0)
    need.update(dict.fromkeys(roots, NEG))
    for f in reversed(nodes):
        lo, hi = bounds[f]
        here = relevant.get(f, 0) & hi & ~lo
        if not here:
            continue
        live[f] = here
        kind, p = type(f), need[f]
        if kind is Not:
            need[f.sub] |= flip[p]
        elif kind is Implies:
            need[f.left] |= flip[p]
            need[f.right] |= p
        elif kind is Iff:
            need[f.left] = need[f.right] = POS | NEG
        else:
            for a in f.args:
                need[a] |= p
        if kind is Box or kind is Diamond:
            succ = 0
            for row, held in groups[f.modality]:
                if held & here:
                    succ |= row
            here = succ
        for a in f.args:
            relevant[a] = relevant.get(a, 0) | here

    builder = propsat.CnfBuilder(clause_budget=CLAUSE_BUDGET)
    negate, define_and = builder.negate, builder.define_and

    def implies(a: propsat.Literal, b: propsat.Literal, p: int) -> propsat.Literal:
        return negate(define_and([a, negate(b)], flip[p]))

    # the derived connectives get the literals of their definitions: `a | b`
    # is ~(~a & ~b), `a -> b` is ~(a & ~b), `a <-> b` is (a -> b) & (b -> a);
    # a conjunction under a negation needs the flipped directions
    binary = {
        And: lambda a, b, p: define_and([a, b], p),
        Or: lambda a, b, p: negate(define_and([negate(a), negate(b)], flip[p])),
        Implies: implies,
        Iff: lambda a, b, p: define_and([implies(a, b, p), implies(b, a, p)], p),
    }

    # a literal for each live (node, point) pair, keyed by point: the
    # variable atoms at their live points and each nominal's n atoms first,
    # then the rest in one pass, children before parents.  A parent reads
    # an argument's literal where the argument is live and its constant
    # (the bound) elsewhere.  Points whose arguments have the same literals
    # share one (`CnfBuilder.define_and` keeps one atom per tuple of
    # literals), so a node that is constant over a block of points is
    # defined once.
    lits: dict[Formula, dict[int, propsat.Literal]] = {}
    # each distinct row's `_cover`, made once per modality when a box or
    # diamond first needs it
    covers: dict[Modality, dict[int, int]] = {}
    symbols = sorted((f for f in live if type(f) is Var or type(f) is Nominal),
                     key=lambda f: (type(f) is Nominal, f.index))
    for f in symbols:
        if type(f) is Var:
            lits[f] = {i: builder.new_atom() for i in _bits(live[f])}
        else:
            atoms = [builder.new_atom() for _ in range(n)]
            builder.exactly_one(atoms)
            lits[f] = dict(enumerate(atoms))
    for f in nodes:
        if f not in live or f in lits:
            continue
        kind, p, here = type(f), need[f], live[f]
        row: dict[int, propsat.Literal] = {}
        if kind is Not:
            sub = lits[f.sub]
            for i in _bits(here):
                row[i] = negate(sub[i])
        elif kind is Box or kind is Diamond:
            # at a live point, a box literal is the conjunction of the body
            # at the undetermined successors (the others are true), and a
            # diamond the negated conjunction of its negations (the others
            # are false).  The conjunction over a row reuses the one over
            # the row of each point of its cover, a strict subset made
            # first, so the rows are taken by ascending popcount
            sub, q = lits[f.sub], p
            if kind is Diamond:
                sub, q = {j: negate(a) for j, a in sub.items()}, flip[p]
            lo, hi = bounds[f.sub]
            unknown = hi & ~lo
            group, point_rows = groups[f.modality], rows_of[f.modality]
            cover = covers.setdefault(f.modality, {})
            wanted = {succ for succ, held in group if held & here and succ & unknown}
            stack = list(wanted)
            while stack:
                succ = stack.pop()
                if succ not in cover:
                    cover[succ] = _cover(point_rows, succ)
                for y in _bits(cover[succ]):
                    below = point_rows[y]
                    if below & unknown and below not in wanted:
                        wanted.add(below)
                        stack.append(below)
            # the conjunction, by undetermined successors
            made: dict[int, propsat.Literal] = {}
            for succ in sorted(wanted, key=lambda r: (r.bit_count(), r)):
                rest = key = succ & unknown
                if key in made:
                    continue
                terms = []
                for y in _bits(cover[succ]):
                    below = point_rows[y] & unknown
                    if unknown >> y & 1:
                        terms.append(sub[y])
                    if below:
                        terms.append(made[below])
                    rest &= ~(below | 1 << y)
                terms += [sub[j] for j in _bits(rest)]
                # parts may overlap; every live literal is an atom or its
                # negation, never a constant, so dropping repeats is safe
                made[key] = define_and(dict.fromkeys(terms), q)
            for succ, held in group:
                held &= here
                if held:
                    a = made.get(succ & unknown, True)
                    if kind is Diamond:
                        a = negate(a)
                    for i in _bits(held):
                        row[i] = a
        else:
            # one definition per distinct pair of argument literals; the
            # key keeps the constant True apart from atom 1, as True == 1
            left, right = lits.get(f.left, {}), lits.get(f.right, {})
            lo_a, lo_b = bounds[f.left][0], bounds[f.right][0]
            define = binary[kind]
            by_pair = {}
            for i in _bits(here):
                a = left[i] if i in left else bool(lo_a >> i & 1)
                b = right[i] if i in right else bool(lo_b >> i & 1)
                key = a, type(a), b, type(b)
                c = by_pair.get(key)
                if c is None:
                    c = by_pair[key] = define(a, b, p)
                row[i] = c
        lits[f] = row

    # one clause: some root is false at some live point; each literal is
    # kept once, with the first point where it falsifies a root
    falsifying: dict[propsat.Literal, int] = {}
    for f in roots:
        for i, a in lits.get(f, {}).items():
            falsifying.setdefault(negate(a), i)
    if not falsifying:
        return Valid()
    builder.add_clause(falsifying)
    result = propsat.solve(builder.to_cnf())
    if isinstance(result, propsat.Unsat):
        return Valid()

    assignment = result.assignment
    valuation = {}
    for f in symbols:
        held = [i for i, a in lits[f].items() if assignment[a]]
        if type(f) is Nominal and len(held) != 1:
            raise InternalCheckFailed("nominal n%d placed at %d points" % (f.index, len(held)))
        valuation[f] = sum(1 << i for i in held)
    witness = next((i for a, i in falsifying.items() if assignment[abs(a)] == (a > 0)), None)
    return _counter_model(frame, phi, nodes, valuation, witness)


# --- random generation ---------------------------------------------------------

def draw_rows(rng: random.Random, max_points: int,
              kind: str) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """The successor rows of R and, in H2, of S of a random frame, drawn from
    `rng`: the point count n, R's edge density, one `rng.random()` per pair
    of points, row by row, then S's density and pairs the same way.  S is
    None for L frames."""
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    n = rng.randint(1, max_points)
    bits = [1 << j for j in range(n)]
    coin = rng.random
    density = rng.uniform(0.1, 0.55)
    r = tuple([sum([b for b in bits if coin() < density]) for _ in bits])
    if kind == L:
        return r, None
    density = rng.uniform(0.1, 0.55)
    return r, tuple([sum([b for b in bits if coin() < density]) for _ in bits])


# --- text formats ---------------------------------------------------------------

def _edge_lines(name: str, points: tuple[str, ...], rows: Iterable[int]) -> list[str]:
    """One `name: x y` line per edge, sorted by the point names."""
    pairs = sorted((x, points[j]) for x, row in zip(points, rows) for j in _bits(row))
    return ["%s: %s %s" % (name, x, y) for x, y in pairs]


def serialize_frame(frame: Frame) -> str:
    """Every edge on its own line.  A hybrid frame with no S edge gets a
    lone `S:` line, which is what makes it hybrid."""
    lines = ["points: " + " ".join(frame.points)] + _edge_lines("R", frame.points, frame.r)
    if frame.s is not None:
        lines += _edge_lines("S", frame.points, frame.s) or ["S:"]
    return "\n".join(lines) + "\n"


def serialize_generators(frame: Frame) -> str:
    """The frame text with each relation written by what generates it, where
    that gives back the same rows: R as `R*:` lines, the edges of its
    transitive reduction, when their closure is R (not so when R is not
    transitive or has a cycle through two or more points), and a total S as
    the one line `S: all`.  Otherwise as `serialize_frame`."""
    points, lines = frame.points, ["points: " + " ".join(frame.points)]
    reduction = transitive_reduction(frame.r)
    if transitive_closure(reduction) == frame.r:
        lines += _edge_lines("R*", points, reduction)
    else:
        lines += _edge_lines("R", points, frame.r)
    if frame.s is not None:
        full = (1 << len(points)) - 1
        if all(row == full for row in frame.s):
            lines.append("S: all")
        else:
            lines += _edge_lines("S", points, frame.s) or ["S:"]
    return "\n".join(lines) + "\n"


def parse_frame(text: str) -> Frame:
    """Read either text: R is the transitive closure of the `R*:` edges
    joined with the `R:` edges, and `S: all` with nothing after it makes S
    total."""
    points: tuple[str, ...] | None = None
    edges: dict[str, list[tuple[str, str, int]]] = {"R": []}
    total_s = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("points:"):
            if points is not None:
                raise ParseError(0, "one 'points:' line, not a second on line %d" % lineno, raw)
            points = tuple(line[len("points:"):].split())
            if not points or len(set(points)) != len(points):
                raise ParseError(0, "one or more distinct point names on line %d" % lineno, raw)
            continue
        name, colon, rest = line.partition(":")
        if colon and name in ("R", "R*", "S"):
            parts = rest.split()
            pairs = edges.setdefault(name, [])
            if name == "S" and parts == ["all"]:  # `S: all x` is an edge from `all`
                total_s = True
            elif parts or name != "S":  # a lone `S:` makes the frame hybrid
                if len(parts) != 2:
                    raise ParseError(0, "an edge '%s: x y' on line %d" % (name, lineno), raw)
                pairs.append((parts[0], parts[1], lineno))
            continue
        raise ParseError(0, "'points:', 'R:', 'R*:' or 'S:' on line %d" % lineno, raw)
    if points is None:
        raise ParseError(0, "a 'points:' line", text)
    index = {p: i for i, p in enumerate(points)}
    rows = {name: [0] * len(points) for name in edges}
    for name, pairs in edges.items():
        for x, y, lineno in pairs:
            if x not in index or y not in index:
                raise UnknownPoint("%s edge (%s, %s) on line %d leaves the frame"
                                   % (name, x, y, lineno))
            rows[name][index[x]] |= 1 << index[y]
    r = rows["R"]
    if "R*" in rows:
        r = [a | b for a, b in zip(r, transitive_closure(rows["R*"]))]
    s = rows.get("S")
    if total_s:
        s = [(1 << len(points)) - 1] * len(points)
    return Frame(points, tuple(r), None if s is None else tuple(s))


def serialize_valuation(model: Model) -> str:
    """One line per symbol, variables then nominals, each by index: a
    variable's points sorted by name in braces, a nominal's one point."""
    points, lines = model.frame.points, []
    for f in sorted(model.valuation, key=lambda f: (type(f) is Nominal, f.index)):
        held = [points[i] for i in _bits(model.valuation[f])]
        if type(f) is Nominal:
            lines.append("n%d = %s" % (f.index, held[0]))
        else:
            lines.append("p%d = {%s}" % (f.index, ", ".join(sorted(held))))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_valuation(text: str, points: tuple[str, ...]) -> dict[Formula, int]:
    """Read `serialize_valuation` text as a valuation on the given points;
    a point outside them raises UnknownPoint, naming its line."""
    index = {p: i for i, p in enumerate(points)}
    valuation: dict[Formula, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, rhs = line.partition("=")
        name = name.strip()
        rhs = rhs.strip()
        if not name or not rhs:
            raise ParseError(0, "'p<k> = {...}' or 'n<k> = point' on line %d" % lineno, raw)
        symbol = re.fullmatch(r"([pn])(\d+)", name)
        if symbol is None or int(symbol.group(2)) < 1:
            raise ParseError(0, "a name p<k> or n<k> with k >= 1 on line %d" % lineno, raw)
        f = (Var if symbol.group(1) == "p" else Nominal)(int(symbol.group(2)))
        if f in valuation:
            raise ParseError(0, "a symbol that no earlier line gives, on line %d" % lineno,
                             raw)
        if type(f) is Var:
            if not (rhs.startswith("{") and rhs.endswith("}")):
                raise ParseError(0, "a point set in braces on line %d" % lineno, raw)
            held = [p.strip() for p in rhs[1:-1].split(",") if p.strip()]
        else:
            held = rhs.split()
            if len(held) != 1:
                raise ParseError(0, "one point name on line %d" % lineno, raw)
        for p in held:
            if p not in index:
                raise UnknownPoint("point %s of %s on line %d is not in the frame"
                                   % (p, name, lineno))
        valuation[f] = sum(1 << index[p] for p in set(held))
    return valuation
