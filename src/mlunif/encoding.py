"""Compiler from two-counter machine programs to modal formulas.

Builds the tower of marker formulas that pin down the points of the
canonical frame, the configuration formulas over them, the per-instruction
axioms and their conjunction, the reachability implication that the whole
reduction revolves around, and the finite canonical frame itself.

Every construction takes the language of the formulas it builds: L
renders the global diamond with `<u>`, H2 with the two-step `<h>` pattern
through the nominal n1.  `MODES` gives the two the names users pick them by.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .errors import ParseError, ResourceLimit, TruncationUnsound
from .formula import (
    BOT, H2, TOP, L, And, Box, Diamond, Formula, Implies, Modality, Nominal,
    Not, Or, Var, conj, surrogate_exists,
)
from .kripke import (
    Frame, parse_frame, serialize_frame, serialize_generators, transitive_closure,
)
from .minsky import (
    EXHAUSTED, Config, Dec, Inc, Instruction, MinskyProgram, run_trace,
)
from .record import Record

REL = Modality.REL
UNIV = Modality.UNIV
HYB = Modality.HYB


# the user-facing name of each language, as the command line and
# report.json spell it
MODES = {"universal": L, "hybrid": H2}


def exists(phi: Formula, language: str) -> Formula:
    """The global diamond: `<u>` in L, the surrogate through n1 in H2."""
    if language == L:
        return Diamond(UNIV, phi)
    if language == H2:
        return surrogate_exists(phi)
    raise ValueError("language must be %r or %r" % (L, H2))


# --- marker formulas -----------------------------------------------------------

def _dia(phi: Formula) -> Formula:
    return Diamond(REL, phi)


def _dia2(phi: Formula) -> Formula:
    return Diamond(REL, Diamond(REL, phi))


def _base_formulas() -> dict[str, Formula]:
    """The markers of the eight skeleton points, each built from earlier ones."""
    dia_top = _dia(TOP)
    alpha = And(dia_top, Box(REL, dia_top))
    beta = Box(REL, BOT)
    gamma = conj([_dia(alpha), _dia(beta), Not(_dia2(beta))])
    delta = conj([Not(gamma), _dia(beta), Not(_dia2(beta))])
    # The trailing ~<>gamma mirrors the ~<>delta guard of the gamma chain;
    # without it the formula also holds at the tower base point that sees
    # the delta point in one step, breaking the one-point characterization.
    delta1 = conj([_dia(delta), Not(_dia2(delta)), Not(_dia(gamma))])
    delta2 = conj([_dia(delta1), Not(_dia2(delta1)), Not(_dia(gamma))])
    gamma1 = conj([_dia(gamma), Not(_dia2(gamma)), Not(_dia(delta))])
    gamma2 = conj([_dia(gamma1), Not(_dia2(gamma1)), Not(_dia(delta))])
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "gamma1": gamma1,
            "gamma2": gamma2, "delta": delta, "delta1": delta1, "delta2": delta2}


_BASE_FORMULAS = _base_formulas()


def _chair_pair(k: int) -> Formula:
    """Sees both marker chains of level k in one step; the distinctive shape
    of a level-k tower base."""
    g = _BASE_FORMULAS[("gamma", "gamma1", "gamma2")[k]]
    d = _BASE_FORMULAS[("delta", "delta1", "delta2")[k]]
    return And(_dia(g), _dia(d))


def _tower_base(i: int) -> Formula:
    g = _BASE_FORMULAS[("gamma", "gamma1", "gamma2")[i]]
    d = _BASE_FORMULAS[("delta", "delta1", "delta2")[i]]
    parts = [_dia(g), _dia(d), Not(_dia2(g)), Not(_dia2(d))]
    parts += [Not(_dia(_chair_pair(k))) for k in range(3) if k != i]
    return conj(parts)


# the members of each tower family built so far, from level 0 up; each
# member is defined from the one below, so they are built bottom-up
_TOWERS: tuple[list[Formula], ...] = tuple([_tower_base(i)] for i in range(3))


def tower(i: int, j: int) -> Formula:
    """The j-th member of tower family i; family 0 marks machine states,
    families 1 and 2 mark the two counter values.

    A base member carries, besides its own two-chain shape, one guard per
    other family k: no successor may see both level-k chains at once.
    Without the guards, mutual exclusion of the three bases holds on the
    canonical frame but not in arbitrary frames, and the unifier argument
    needs it everywhere (the recurrence gives it to all higher levels).
    """
    if not (0 <= i <= 2) or j < 0:
        raise ValueError("tower indices out of range")
    levels = _TOWERS[i]
    while len(levels) <= j:
        below = levels[-1]
        parts = [_dia(levels[0]), _dia(below), Not(_dia2(below))]
        parts += [Not(_dia(_TOWERS[k][0])) for k in range(3) if k != i]
        levels.append(conj(parts))
    return levels[j]


def epsilon(t: int, phi: Formula, psi: Formula) -> Formula:
    """Configuration shape: sees the state marker for t but not t+1, and sees
    phi and psi in one step but not two."""
    return conj([
        _dia(tower(0, t)), Not(_dia(tower(0, t + 1))),
        _dia(phi), Not(_dia2(phi)),
        _dia(psi), Not(_dia2(psi)),
    ])


def config_formula(c: Config) -> Formula:
    return epsilon(c.state, tower(1, c.c1), tower(2, c.c2))


def config_exists(c: Config, language: str) -> Formula:
    return exists(config_formula(c), language)


# --- variable-carrying counter patterns ----------------------------------------

PI1 = "pi1"
PI2 = "pi2"
TAU1 = "tau1"
TAU2 = "tau2"


def pi_tau(which: str) -> Formula:
    """Counter patterns over p1 (pi family) and p2 (tau family): the pi1/tau1
    forms pin the variable to a single tower point, the pi2/tau2 forms to its
    immediate predecessor."""
    t00, t10, t20 = tower(0, 0), tower(1, 0), tower(2, 0)
    if which == PI1:
        p = Var(1)
        return conj([Or(_dia(t10), t10), Not(_dia(t00)), Not(_dia(t20)),
                     p, Not(_dia(p))])
    if which == PI2:
        p = Var(1)
        return conj([_dia(t10), Not(_dia(t00)), Not(_dia(t20)),
                     _dia(p), Not(_dia2(p))])
    if which == TAU1:
        p = Var(2)
        return conj([Or(_dia(t20), t20), Not(_dia(t00)), Not(_dia(t10)),
                     p, Not(_dia(p))])
    if which == TAU2:
        p = Var(2)
        return conj([_dia(t20), Not(_dia(t00)), Not(_dia(t10)),
                     _dia(p), Not(_dia2(p))])
    raise ValueError("unknown pattern %r" % which)


# pi1, pi2, tau1 and tau2, built once for all the instruction axioms
_PATTERNS = tuple(pi_tau(which) for which in (PI1, PI2, TAU1, TAU2))


# --- instruction and program axioms --------------------------------------------

def ax_instruction(ins: Instruction, language: str) -> Formula:
    """Axiom stating that the given instruction is simulated correctly."""
    pi1, pi2, tau1, tau2 = _PATTERNS

    def ex(t, phi, psi):
        return exists(epsilon(t, phi, psi), language)

    if isinstance(ins, Inc):
        if ins.counter == 1:
            return Implies(ex(ins.src, pi1, tau1), ex(ins.dst, pi2, tau1))
        return Implies(ex(ins.src, pi1, tau1), ex(ins.dst, pi1, tau2))
    if isinstance(ins, Dec):
        if ins.counter == 1:
            return And(
                Implies(ex(ins.src, pi2, tau1), ex(ins.dst, pi1, tau1)),
                Implies(ex(ins.src, tower(1, 0), tau1),
                        ex(ins.zero_dst, tower(1, 0), tau1)),
            )
        return And(
            Implies(ex(ins.src, pi1, tau2), ex(ins.dst, pi1, tau1)),
            Implies(ex(ins.src, pi1, tower(2, 0)),
                    ex(ins.zero_dst, pi1, tower(2, 0))),
        )
    raise TypeError("not an instruction: %r" % (ins,))


NOM_WORD_LENGTH = 6  # the longest word of `nom_formula`


def nom_formula() -> Formula:
    """Conjunction forcing agreement on S-access to the nominal n1.

    One conjunct per nonempty word over the two boxes (of length at most
    NOM_WORD_LENGTH): <h>n -> M<h>n; and one per nonempty word over the two
    diamonds: M'<h>n -> <h>n.

    The words stop at length 6 because the deepest variable of an
    instruction axiom in H2 lies under 6 modalities, the 2 S-steps of the
    surrogate and then 4 R-steps inside `epsilon`: the hybrid case of the
    step-lemma proof (`witness.step_lemmas`) needs S-access to n1 at every
    point where the axiom reads a variable.
    """
    dh_n = Diamond(HYB, Nominal(1))
    boxes: list[Formula] = []
    diamonds: list[Formula] = []
    # the words of each length in lexicographic order, REL before HYB,
    # each made once from the words one shorter: `M w` is M over the word w
    box_words = dia_words = [dh_n]
    for _ in range(NOM_WORD_LENGTH):
        box_words = [Box(m, w) for m in (REL, HYB) for w in box_words]
        dia_words = [Diamond(m, w) for m in (REL, HYB) for w in dia_words]
        boxes += box_words
        diamonds += dia_words
    return conj([Implies(dh_n, w) for w in boxes] + [Implies(w, dh_n) for w in diamonds])


def ax_program(program: MinskyProgram, language: str) -> Formula:
    """Conjunction of the instruction axioms; in H2 also the
    nominal-agreement formula."""
    parts = [ax_instruction(ins, language) for ins in program.instructions]
    if language == H2:
        parts.append(nom_formula())
    return conj(parts)


def psi(program: MinskyProgram, start: Config, target: Config, language: str) -> Formula:
    """The reduction formula: unifiable exactly when the machine reaches
    `target` from `start`."""
    antecedent = And(ax_program(program, language), config_exists(start, language))
    return Implies(antecedent, config_exists(target, language))


# --- the canonical frame --------------------------------------------------------

# the eight skeleton points and the marker names that label them
_SKELETON = {"a": "alpha", "b": "beta", "g": "gamma", "g1": "gamma1",
             "g2": "gamma2", "d": "delta", "d1": "delta1", "d2": "delta2"}
_TOWER_LABEL_RE = re.compile(r"^a\(([0-2]),(\d+)\)$")
_E_LABEL_RE = re.compile(r"^e\((\d+),(\d+),(\d+)\)$")


def marker(label: str) -> Formula:
    """The marker formula a canonical-frame label names: a skeleton name
    (alpha ... delta2), `a(i,j)` for tower(i, j) or `e(s,m,n)` for the
    configuration formula.  Variable-free and in both languages (it only
    uses the relational box)."""
    if label in _BASE_FORMULAS:
        return _BASE_FORMULAS[label]
    m = _TOWER_LABEL_RE.match(label)
    if m is not None:
        return tower(int(m.group(1)), int(m.group(2)))
    m = _E_LABEL_RE.match(label)
    if m is not None:
        return config_formula(Config(*map(int, m.groups())))
    raise ValueError("not a marker name: %r" % label)


class LabeledFrame(Record):
    """A frame whose labeled points each carry the name of their marker.
    `generators` are the successor rows a canonical frame is built from,
    of which `frame.r` is the transitive closure; a frame read from text
    has none, and no truncation level."""
    frame: Frame
    labels: dict[str, str]
    truncation: int | None
    generators: tuple[int, ...] | None


def _tower_point(i: int, j: int) -> str:
    return "a%d_%d" % (i, j)


def _e_point(c: Config) -> str:
    return "e(%d,%d,%d)" % (c.state, c.c1, c.c2)


def truncation_level(program: MinskyProgram, configs: Iterable[Config]) -> int:
    """One above every state index and counter value the program text or the
    given configurations can mention, so the tower formulas stay exact on the
    truncated frame."""
    indices = [0]
    for ins in program.instructions:
        indices.append(ins.src)
        indices.append(ins.dst)
        if isinstance(ins, Dec):
            indices.append(ins.zero_dst)
    for c in configs:
        indices += [c.state, c.c1, c.c2]
    return 1 + max(indices)


# frame_for_configs raises ResourceLimit past this many points: R is a
# transitive closure, and a frame-validity check evaluates masks of n * n bits
POINT_BUDGET = 2_000


def frame_for_configs(configs: Iterable[Config], level: int,
                      language: str) -> LabeledFrame:
    """Frame with the eight-point skeleton, towers up to `level`, and one
    point per given configuration; only the alpha point is reflexive.  A
    configuration point's name is its own label."""
    configs = list(configs)
    count = len(_SKELETON) + 3 * (level + 1) + len(configs)
    if count > POINT_BUDGET:
        raise ResourceLimit("canonical frame budget exceeded: %d points, limit %d"
                            % (count, POINT_BUDGET))
    points = list(_SKELETON)
    labels = dict(_SKELETON)
    # each point's successor row: the skeleton's in the order of _SKELETON,
    # a tower point's the point below it, a configuration's its three markers
    a, b, g, g1, g2, d, d1, d2 = (1 << k for k in range(len(_SKELETON)))
    rows = [a, 0, a | b, g, g1, b, d, d1]
    for i, bottom in enumerate((g | d, g1 | d1, g2 | d2)):
        for j in range(level + 1):
            name = _tower_point(i, j)
            points.append(name)
            labels[name] = "a(%d,%d)" % (i, j)
            rows.append(1 << (len(rows) - 1) if j else bottom)
    for c in configs:
        if max(c.state, c.c1, c.c2) >= level:
            raise ValueError("configuration %s exceeds tower level %d" % (c, level))
        name = _e_point(c)
        points.append(name)
        labels[name] = name
        rows.append(sum(1 << (len(_SKELETON) + i * (level + 1) + j)
                        for i, j in enumerate((c.state, c.c1, c.c2))))

    s = None
    if language == H2:
        s = ((1 << count) - 1,) * count
    frame = Frame(tuple(points), transitive_closure(rows), s)
    return LabeledFrame(frame, labels, level, tuple(rows))


def canonical_frame(program: MinskyProgram, start: Config, bound: int,
                    language: str) -> LabeledFrame:
    """Finite frame encoding the bounded run of the program from `start`.

    Eight fixed skeleton points, three marker towers truncated one level
    above every index the run or the program text can mention, and one point
    per reached configuration.  The accessibility relation is the transitive
    closure of the skeleton edges; only the point labeled alpha is reflexive.
    In H2 the frame adds the full product as S.

    Refuses to build when the bounded run is inconclusive: a frame missing
    configurations that the machine could still reach would wrongly certify
    non-reachability.
    """
    trace = run_trace(program, start, bound)
    if trace.stopped == EXHAUSTED:
        raise TruncationUnsound(
            "run neither halts nor loops within %d steps" % bound)
    level = truncation_level(program, trace.configs)
    return frame_for_configs(trace.configs, level, language)


# --- labeled frame text format ---------------------------------------------------

def serialize_labeled_frame(lf: LabeledFrame) -> str:
    """A canonical frame as the rows it is built from: R as the skeleton,
    tower and marker edges (`serialize_generators`), whose closure it is.
    A frame read from text has no such rows and is written edge by edge
    (`serialize_frame`).  Then one `label:` line per labeled point."""
    if lf.generators is None:
        out = [serialize_frame(lf.frame)]
    else:
        out = [serialize_generators(lf.frame, lf.generators)]
    out += ["label: %s %s\n" % (point, lf.labels[point])
            for point in lf.frame.points if point in lf.labels]
    return "".join(out)


_LABEL_RE = re.compile(r"^label:\s+(\S+)\s+(\S+)$")


def parse_labeled_frame(text: str) -> LabeledFrame:
    """Read `serialize_labeled_frame` text.  Each label is checked for
    syntax only; `marker` builds its formula when one is wanted, which for
    `a(i,j)` takes j tower levels."""
    frame_lines = []
    labels: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line.startswith("label:"):
            frame_lines.append(raw)
            continue
        # a blank line in its place keeps parse_frame's line numbers
        frame_lines.append("")
        m = _LABEL_RE.match(line)
        if m is None:
            raise ParseError(0, "'label: <point> <name>' on line %d" % lineno, raw)
        point, name = m.groups()
        if not (name in _BASE_FORMULAS or _TOWER_LABEL_RE.match(name)
                or _E_LABEL_RE.match(name)):
            raise ParseError(0, "a marker name or e(s,m,n) on line %d" % lineno, raw)
        labels[point] = name
    frame = parse_frame("\n".join(frame_lines))
    unknown = set(labels) - set(frame.points)
    if unknown:
        raise ParseError(0, "labels only for frame points (%s)" % ", ".join(sorted(unknown)))
    return LabeledFrame(frame, labels, None, None)
