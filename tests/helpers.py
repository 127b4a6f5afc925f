"""Seeded random generators and small reference functions shared by the
test modules."""

import collections
import random

from mlunif.encoding import frame_for_configs, truncation_level
from mlunif.errors import UnknownPoint
from mlunif.formula import (
    BOT, H2, L, TOP, And, Box, Diamond, Iff, Implies, Modality, Nominal, Not,
    Or, Substitution, Var, postorder, variables,
)
from mlunif.kripke import DisjointUnion, Frame, Model, draw_rows, truth_mask

_L_MODS = [Modality.REL, Modality.UNIV]
_MODS = {L: _L_MODS, H2: [Modality.REL, Modality.HYB], None: [Modality.REL]}


def random_formula(rng: random.Random, depth: int, num_vars: int = 2,
                   language: str = L, num_noms: int = 0):
    """Random formula of the given language with at most `depth` nesting;
    language None gives a K formula, with the relational box only."""
    mods = _MODS[language]
    atoms = [TOP, BOT] + [Var(i) for i in range(1, num_vars + 1)]
    if language == H2:
        atoms += [Nominal(i) for i in range(1, num_noms + 1)]

    def go(d):
        if d <= 0 or rng.random() < 0.25:
            return rng.choice(atoms)
        kind = rng.randrange(7)
        if kind == 0:
            return Not(go(d - 1))
        if kind == 1:
            return And(go(d - 1), go(d - 1))
        if kind == 2:
            return Or(go(d - 1), go(d - 1))
        if kind == 3:
            return Implies(go(d - 1), go(d - 1))
        if kind == 4:
            return Iff(go(d - 1), go(d - 1))
        if kind == 5:
            return Box(rng.choice(mods), go(d - 1))
        return Diamond(rng.choice(mods), go(d - 1))

    return go(depth)


def random_term(rng: random.Random, depth: int):
    """Random term of at most `depth` nesting: a formula over p1..p3, true,
    &, ~, [u] (the first operator) and [] (the second)."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([TOP, Var(rng.randint(1, 3))])
    kind = rng.randrange(4)
    if kind == 0:
        return And(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == 1:
        return Not(random_term(rng, depth - 1))
    return Box(rng.choice(_L_MODS), random_term(rng, depth - 1))


def random_frame(seed, max_points, kind=L):
    """Deterministic in `seed`; edge density is drawn per frame."""
    r, s = draw_rows(random.Random(seed), max_points, kind)
    return Frame(tuple("w%d" % i for i in range(len(r))), r, s)


def point_mask(frame, *names):
    """The mask of the named points of `frame`."""
    return sum(1 << frame.points.index(p) for p in set(names))


def union_of(models):
    """The `DisjointUnion` of `models`, each as its block."""
    return DisjointUnion((m.frame.r, m.frame.s, m.valuation.items()) for m in models)


def prefix_defect_model(seed, program, trace, i, language, check):
    """Random model on which `check` (a ground formula, typically defect_i)
    holds at every point.

    Starts from the skeleton frame holding configuration points only for
    steps 0..i, then adds a few fresh points with edges into it; new points
    get no incoming edges, so the truth of forward-looking formulas at the
    original points is untouched.  The perturbed model is verified against
    `check` and rejected (None) if the fresh points broke it.
    """
    rng = random.Random(seed)
    level = truncation_level(program, trace.configs)
    lf = frame_for_configs(trace.configs[:i + 1], level, language)
    points = list(lf.frame.points)
    r = list(lf.frame.r)
    for k in range(rng.randint(0, 3)):
        r.append(sum(1 << j for j in range(len(points)) if rng.random() < 0.2))
        points.append("x%d" % k)
    s = None
    valuation = {}
    if language == H2:
        s = ((1 << len(points)) - 1,) * len(points)
        valuation = {Nominal(1): 1 << points.index(rng.choice(points))}
    model = Model(Frame(tuple(points), tuple(r), s), valuation)
    if not holds_everywhere(model, check):
        return None
    return model


def points_where(model, phi):
    mask = truth_mask(model, phi)
    return {p for i, p in enumerate(model.frame.points) if mask >> i & 1}


def holds_everywhere(model, phi):
    return truth_mask(model, phi) == (1 << len(model.frame.points)) - 1


def random_valuation(seed, frame, var_indices=(), nominal_indices=()):
    rng = random.Random(seed)
    valuation = {
        Var(v): sum(1 << i for i in range(len(frame.points)) if rng.random() < 0.5)
        for v in sorted(set(var_indices))
    }
    for m in sorted(set(nominal_indices)):
        valuation[Nominal(m)] = point_mask(frame, rng.choice(frame.points))
    return valuation


def points_within(frame, start, max_dist):
    """Points reachable from `start` in at most `max_dist` steps along R or S."""
    if start not in frame.points:
        raise UnknownPoint(start)
    succ = successors(frame.points, [r | s for r, s in zip(frame.r, frame.s or frame.r)])
    reached = {start}
    frontier = {start}
    for _ in range(max_dist):
        frontier = {y for x in frontier for y in succ[x]} - reached
        if not frontier:
            break
        reached |= frontier
    return reached


def bit_rows(bits, n):
    """The n successor rows of n bits each packed in `bits`: edge (x, y) of
    an n-point frame is bit x * n + y."""
    return tuple((bits >> x * n) & ((1 << n) - 1) for x in range(n))


def with_total_s(frame):
    """The hybrid frame with the points and R of `frame` and the total
    relation as S."""
    n = len(frame.points)
    return Frame(frame.points, frame.r, ((1 << n) - 1,) * n)


def successors(points, rows):
    """Each point's set of successor names under the relation given by
    successor rows: the pairs view that the references below work on."""
    return {x: {y for j, y in enumerate(points) if row >> j & 1}
            for x, row in zip(points, rows)}


def is_transitive(rows):
    return all(rows[j] & ~row == 0
               for row in rows for j in range(len(rows)) if row >> j & 1)


def closure_by_search(rows):
    """Transitive closure of successor rows by a breadth-first search from
    each point: the reference for `kripke.transitive_closure`."""
    n = len(rows)
    out = []
    for i in range(n):
        seen = set()
        queue = collections.deque(j for j in range(n) if rows[i] >> j & 1)
        while queue:
            j = queue.popleft()
            if j not in seen:
                seen.add(j)
                queue.extend(k for k in range(n) if rows[j] >> k & 1)
        out.append(sum(1 << j for j in seen))
    return tuple(out)


def offset_masks_by_pairs(models):
    """The offset masks of the `DisjointUnion` of `models`, built edge pair
    by edge pair: (x, y) in a block at offset b sets bit b + i(x) of the
    mask for d = i(y) - i(x).  The universal relation of L frames holds
    every pair of its block.  The reference for `DisjointUnion`."""
    edges = {m: {} for m in Modality}
    base = 0
    for model in models:
        points = model.frame.points
        index = {p: i for i, p in enumerate(points)}
        if model.frame.s is None:
            pairs = {Modality.UNIV: [(x, y) for x in points for y in points]}
        else:
            pairs = {Modality.HYB: [(x, y) for x, ys in
                                    successors(points, model.frame.s).items() for y in ys]}
        pairs[Modality.REL] = [(x, y) for x, ys in
                               successors(points, model.frame.r).items() for y in ys]
        for modality, edge_pairs in pairs.items():
            out = edges[modality]
            for x, y in edge_pairs:
                d = index[y] - index[x]
                out[d] = out.get(d, 0) | 1 << base + index[x]
        base += len(points)
    return edges


def modal_depth(phi, at=None):
    """The most modalities above a node of phi; with `at`, above a node of
    class `at` (None when phi has no such node)."""
    depth = {}
    for f in postorder(phi):
        below = [depth[a] for a in f.args if depth[a] is not None]
        if at is not None and isinstance(f, at):
            depth[f] = 0
        elif below:
            depth[f] = max(below) + isinstance(f, (Box, Diamond))
        else:
            depth[f] = None if at else 0
    return depth[phi]


def compose(outer, inner):
    """The substitution p -> outer.apply(inner(p)): inner first."""
    out = {k: outer.apply(v) for k, v in inner.mapping.items()}
    for k, v in outer.mapping.items():
        out.setdefault(k, v)
    return Substitution(out)


def suite_models(seed, trials, max_points, language, var_indices=()):
    """The seeded models of the random-model suite, drawn one `Model` at a
    time: per trial, `random_frame` of a seed drawn from `rng`, then each
    variable at each point with `rng.random() < 0.5` and, in H2, the
    nominal n1 at `rng.randrange(n)`.  The reference for the blocks that
    `workbench._suite_blocks` draws."""
    rng = random.Random(seed)
    for _ in range(trials):
        frame = random_frame(rng.randrange(1 << 30), max_points, kind=language)
        n = len(frame.points)
        valuation = {Var(v): sum(1 << i for i in range(n) if rng.random() < 0.5)
                     for v in var_indices}
        if language == H2:
            valuation[Nominal(1)] = 1 << rng.randrange(n)
        yield Model(frame, valuation)


def check_each_random_model(phi, language, seed, trials, max_points):
    """The random-model suite one model at a time: the reference for
    `workbench.check_on_random_models`, which checks the same seeded models
    in one pass over their disjoint union."""
    checked = 0
    for model in suite_models(seed, trials, max_points, language, sorted(variables(phi))):
        checked += 1
        mask = truth_mask(model, phi)
        full = (1 << len(model.frame.points)) - 1
        if mask != full:
            for i, point in enumerate(model.frame.points):
                if not mask >> i & 1:
                    return checked, (model, point)
    return checked, None


def truth_set(model, phi):
    """Points where phi holds, from the textbook truth clauses point by
    point: a reference for `kripke.truth_mask`."""
    frame, valuation = model.frame, model.valuation
    succ = {Modality.UNIV: {x: set(frame.points) for x in frame.points}}
    for modality, rows in ((Modality.REL, frame.r), (Modality.HYB, frame.s)):
        if rows is not None:
            succ[modality] = successors(frame.points, rows)
    everywhere = set(frame.points)
    sets = {}
    for f in postorder(phi):
        if isinstance(f, (Var, Nominal)):
            out = {p for i, p in enumerate(frame.points) if valuation[f] >> i & 1}
        elif isinstance(f, Not):
            out = everywhere - sets[f.sub]
        elif isinstance(f, (Box, Diamond)):
            test = all if isinstance(f, Box) else any
            out = {x for x in frame.points
                   if test(y in sets[f.sub] for y in succ[f.modality][x])}
        elif isinstance(f, And):
            out = sets[f.left] & sets[f.right]
        elif isinstance(f, Or):
            out = sets[f.left] | sets[f.right]
        elif isinstance(f, Implies):
            out = (everywhere - sets[f.left]) | sets[f.right]
        elif isinstance(f, Iff):
            out = everywhere - (sets[f.left] ^ sets[f.right])
        else:
            out = set(everywhere) if f is TOP else set()
        sets[f] = out
    return sets[phi]
