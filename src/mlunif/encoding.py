"""Compiler from two-counter machine programs to modal formulas.

Builds the tower of marker formulas that pin down the points of the
canonical frame, the configuration formulas over them, the per-instruction
axioms and their conjunction, the reachability implication that the whole
reduction revolves around, and the finite canonical frame itself.

Every construction is parametric in a `Mode`: the universal mode renders
the global diamond with `<u>`, the hybrid mode with the two-step `<h>`
pattern through a designated nominal.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

from .errors import ParseError, TruncationUnsound
from .formula import (
    BOT, TOP, And, Box, Diamond, Formula, Implies, Modality, Nominal, Not, Or,
    Var, conj, surrogate_exists,
)
from .kripke import Frame, parse_frame, serialize_frame, transitive_closure
from .minsky import (
    EXHAUSTED, Config, Dec, Inc, Instruction, MinskyProgram, Trace, run_trace,
)

REL = Modality.REL
UNIV = Modality.UNIV
HYB = Modality.HYB


@dataclass(frozen=True)
class Mode:
    kind: str  # "universal" or "hybrid"
    nominal_index: int = 1

    def __post_init__(self):
        if self.kind not in ("universal", "hybrid"):
            raise ValueError("unknown mode %r" % self.kind)


UNIVERSAL = Mode("universal")
HYBRID = Mode("hybrid", 1)


def exists(phi: Formula, mode: Mode) -> Formula:
    """The global diamond: real in universal mode, surrogate in hybrid mode."""
    if mode.kind == "universal":
        return Diamond(UNIV, phi)
    return surrogate_exists(phi, mode.nominal_index)


# --- marker formulas -----------------------------------------------------------

def _dia(phi: Formula) -> Formula:
    return Diamond(REL, phi)


def _dia2(phi: Formula) -> Formula:
    return Diamond(REL, Diamond(REL, phi))


@dataclass(frozen=True)
class CharName:
    """Name of a marker formula / canonical frame point.

    `name` is one of alpha, beta, gamma, gamma1, gamma2, delta, delta1,
    delta2, or "a" for the tower family, in which case i in {0, 1, 2} and
    j >= 0 select the member.
    """
    name: str
    i: int = -1
    j: int = -1

    def __str__(self):
        if self.name == "a":
            return "a(%d,%d)" % (self.i, self.j)
        return self.name


ALPHA = CharName("alpha")
BETA = CharName("beta")
GAMMA = CharName("gamma")
GAMMA1 = CharName("gamma1")
GAMMA2 = CharName("gamma2")
DELTA = CharName("delta")
DELTA1 = CharName("delta1")
DELTA2 = CharName("delta2")

_BASE_NAMES = {
    "alpha": ALPHA, "beta": BETA, "gamma": GAMMA, "gamma1": GAMMA1,
    "gamma2": GAMMA2, "delta": DELTA, "delta1": DELTA1, "delta2": DELTA2,
}


def tower_name(i: int, j: int) -> CharName:
    if not (0 <= i <= 2) or j < 0:
        raise ValueError("tower indices out of range")
    return CharName("a", i, j)


def _base_formula(name: str) -> Formula:
    if name == "alpha":
        dia_top = _dia(TOP)
        return And(dia_top, Box(REL, dia_top))
    if name == "beta":
        return Box(REL, BOT)
    alpha = _base_formula("alpha")
    beta = _base_formula("beta")
    if name == "gamma":
        return conj([_dia(alpha), _dia(beta), Not(_dia2(beta))])
    if name == "delta":
        return conj([Not(_base_formula("gamma")), _dia(beta), Not(_dia2(beta))])
    if name == "delta1":
        # The trailing ~<>gamma mirrors the ~<>delta guard of the gamma chain;
        # without it the formula also holds at the tower base point that sees
        # the delta point in one step, breaking the one-point characterization.
        delta = _base_formula("delta")
        return conj([_dia(delta), Not(_dia2(delta)), Not(_dia(_base_formula("gamma")))])
    if name == "delta2":
        delta1 = _base_formula("delta1")
        return conj([_dia(delta1), Not(_dia2(delta1)), Not(_dia(_base_formula("gamma")))])
    if name == "gamma1":
        gamma = _base_formula("gamma")
        return conj([_dia(gamma), Not(_dia2(gamma)), Not(_dia(_base_formula("delta")))])
    if name == "gamma2":
        gamma1 = _base_formula("gamma1")
        return conj([_dia(gamma1), Not(_dia2(gamma1)), Not(_dia(_base_formula("delta")))])
    raise ValueError("unknown marker %r" % name)


def _chair_pair(k: int) -> Formula:
    """Sees both marker chains of level k in one step; the distinctive shape
    of a level-k tower base."""
    g = _base_formula(("gamma", "gamma1", "gamma2")[k])
    d = _base_formula(("delta", "delta1", "delta2")[k])
    return And(_dia(g), _dia(d))


# cached because each member recurses into the one below: uncached, building
# every marker up to level j would take time quadratic in j
@functools.lru_cache(maxsize=None)
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
    if j == 0:
        g = _base_formula(("gamma", "gamma1", "gamma2")[i])
        d = _base_formula(("delta", "delta1", "delta2")[i])
        parts = [_dia(g), _dia(d), Not(_dia2(g)), Not(_dia2(d))]
        parts += [Not(_dia(_chair_pair(k))) for k in range(3) if k != i]
        return conj(parts)
    below = tower(i, j - 1)
    parts = [_dia(tower(i, 0)), _dia(below), Not(_dia2(below))]
    parts += [Not(_dia(tower(k, 0))) for k in range(3) if k != i]
    return conj(parts)


def char_formula(name: CharName) -> Formula:
    """Marker formula for a named canonical-frame point; variable-free and
    mode-independent (it only uses the relational box)."""
    if name.name == "a":
        return tower(name.i, name.j)
    return _base_formula(name.name)


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


def config_exists(c: Config, mode: Mode) -> Formula:
    return exists(config_formula(c), mode)


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


# --- instruction and program axioms --------------------------------------------

def ax_instruction(ins: Instruction, mode: Mode) -> Formula:
    """Axiom stating that the given instruction is simulated correctly."""
    pi1, pi2, tau1, tau2 = pi_tau(PI1), pi_tau(PI2), pi_tau(TAU1), pi_tau(TAU2)

    def ex(t, phi, psi):
        return exists(epsilon(t, phi, psi), mode)

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


def nom_formula(max_len: int = 6, nominal_index: int = 1) -> Formula:
    """Conjunction forcing agreement on S-access to the nominal.

    One conjunct per nonempty word over the two boxes (length <= max_len):
    <h>n -> M<h>n; and one per nonempty word over the two diamonds:
    M'<h>n -> <h>n.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    dh_n = Diamond(HYB, Nominal(nominal_index))
    conjuncts: List[Formula] = []
    for length in range(1, max_len + 1):
        for word in itertools.product((REL, HYB), repeat=length):
            body = dh_n
            for m in reversed(word):
                body = Box(m, body)
            conjuncts.append(Implies(dh_n, body))
    for length in range(1, max_len + 1):
        for word in itertools.product((REL, HYB), repeat=length):
            body = dh_n
            for m in reversed(word):
                body = Diamond(m, body)
            conjuncts.append(Implies(body, dh_n))
    return conj(conjuncts)


def ax_program(program: MinskyProgram, mode: Mode, nom_len: int = 6) -> Formula:
    """Conjunction of the instruction axioms; hybrid mode also conjoins the
    nominal-agreement formula."""
    parts = [ax_instruction(ins, mode) for ins in program.instructions]
    if mode.kind == "hybrid":
        parts.append(nom_formula(nom_len, mode.nominal_index))
    return conj(parts)


def psi(program: MinskyProgram, start: Config, target: Config, mode: Mode) -> Formula:
    """The reduction formula: unifiable exactly when the machine reaches
    `target` from `start`."""
    antecedent = And(ax_program(program, mode), config_exists(start, mode))
    return Implies(antecedent, config_exists(target, mode))


# --- the canonical frame --------------------------------------------------------

PointLabel = Union[CharName, Config]


@dataclass
class LabeledFrame:
    frame: Frame
    labels: Dict[str, PointLabel]
    truncation: Optional[int] = None
    trace: Optional[Trace] = None

    def label_formula(self, point: str) -> Formula:
        label = self.labels[point]
        if isinstance(label, Config):
            return config_formula(label)
        return char_formula(label)


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


def frame_for_configs(configs: Iterable[Config], level: int,
                      mode: Mode) -> LabeledFrame:
    """Frame with the eight-point skeleton, towers up to `level`, and one
    point per given configuration; only the alpha point is reflexive."""
    configs = list(configs)
    points = ["a", "b", "g", "g1", "g2", "d", "d1", "d2"]
    labels: Dict[str, PointLabel] = {
        "a": ALPHA, "b": BETA, "g": GAMMA, "g1": GAMMA1, "g2": GAMMA2,
        "d": DELTA, "d1": DELTA1, "d2": DELTA2,
    }
    for i in range(3):
        for j in range(level + 1):
            name = _tower_point(i, j)
            points.append(name)
            labels[name] = tower_name(i, j)
    for c in configs:
        name = _e_point(c)
        points.append(name)
        labels[name] = c

    base = {
        ("a", "a"), ("g", "a"), ("g", "b"), ("d", "b"),
        ("g1", "g"), ("g2", "g1"), ("d1", "d"), ("d2", "d1"),
        (_tower_point(0, 0), "g"), (_tower_point(0, 0), "d"),
        (_tower_point(1, 0), "g1"), (_tower_point(1, 0), "d1"),
        (_tower_point(2, 0), "g2"), (_tower_point(2, 0), "d2"),
    }
    for i in range(3):
        for j in range(level):
            base.add((_tower_point(i, j + 1), _tower_point(i, j)))
    for c in configs:
        if max(c.state, c.c1, c.c2) >= level:
            raise ValueError("configuration %s exceeds tower level %d" % (c, level))
        e = _e_point(c)
        base.add((e, _tower_point(0, c.state)))
        base.add((e, _tower_point(1, c.c1)))
        base.add((e, _tower_point(2, c.c2)))

    r = transitive_closure(base)
    s = None
    if mode.kind == "hybrid":
        s = frozenset((x, y) for x in points for y in points)
    frame = Frame(tuple(points), r, s)
    return LabeledFrame(frame, labels, truncation=level)


def canonical_frame(program: MinskyProgram, start: Config, bound: int,
                    mode: Mode) -> LabeledFrame:
    """Finite frame encoding the bounded run of the program from `start`.

    Eight fixed skeleton points, three marker towers truncated one level
    above every index the run or the program text can mention, and one point
    per reached configuration.  The accessibility relation is the transitive
    closure of the skeleton edges; only the point labeled alpha is reflexive.
    Hybrid mode adds the full product as S.

    Refuses to build when the bounded run is inconclusive: a frame missing
    configurations that the machine could still reach would wrongly certify
    non-reachability.
    """
    trace = run_trace(program, start, bound)
    if trace.stopped == EXHAUSTED:
        raise TruncationUnsound(
            "run neither halts nor loops within %d steps" % bound)
    level = truncation_level(program, trace.configs)
    lf = frame_for_configs(trace.configs, level, mode)
    lf.trace = trace
    return lf


# --- labeled frame text format ---------------------------------------------------

def serialize_labeled_frame(lf: LabeledFrame) -> str:
    out = [serialize_frame(lf.frame)]
    for point in lf.frame.points:
        label = lf.labels.get(point)
        if label is None:
            continue
        if isinstance(label, Config):
            out.append("label: %s e(%d,%d,%d)\n" % (point, label.state, label.c1, label.c2))
        else:
            out.append("label: %s %s\n" % (point, label))
    return "".join(out)


_LABEL_RE = re.compile(r"^label:\s+(\S+)\s+(\S+)$")
_TOWER_LABEL_RE = re.compile(r"^a\((\d+),(\d+)\)$")
_E_LABEL_RE = re.compile(r"^e\((\d+),(\d+),(\d+)\)$")


def parse_labeled_frame(text: str) -> LabeledFrame:
    frame_lines = []
    labels: Dict[str, PointLabel] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("label:"):
            m = _LABEL_RE.match(line)
            if m is None:
                raise ParseError(0, "'label: <point> <name>'", raw)
            point, name = m.group(1), m.group(2)
            tm = _TOWER_LABEL_RE.match(name)
            em = _E_LABEL_RE.match(name)
            if tm is not None:
                labels[point] = tower_name(int(tm.group(1)), int(tm.group(2)))
            elif em is not None:
                labels[point] = Config(int(em.group(1)), int(em.group(2)), int(em.group(3)))
            elif name in _BASE_NAMES:
                labels[point] = _BASE_NAMES[name]
            else:
                raise ParseError(0, "a marker name or e(s,m,n)", raw)
        else:
            frame_lines.append(raw)
    frame = parse_frame("\n".join(frame_lines))
    unknown = set(labels) - set(frame.points)
    if unknown:
        raise ParseError(0, "labels only for frame points (%s)" % ", ".join(sorted(unknown)))
    return LabeledFrame(frame, labels)
