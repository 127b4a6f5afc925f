"""Deterministic two-counter machines: program syntax, stepping, bounded runs.

A program is a finite instruction table over configurations <state, c1, c2>.
Each state has at most one instruction, so runs are unique; bounded runs are
cut off at a halt, at the first repeated configuration, or at the step bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .errors import DeterminismError, ParseError


@dataclass(frozen=True)
class Config:
    state: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.state < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError("configuration components must be nonnegative")

    def __str__(self):
        return "%d,%d,%d" % (self.state, self.c1, self.c2)


def parse_config(text: str) -> Config:
    m = re.match(r"^\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*$", text)
    if m is None:
        raise ParseError(0, "a configuration 's,m,n'", text)
    return Config(int(m.group(1)), int(m.group(2)), int(m.group(3)))


@dataclass(frozen=True)
class Inc:
    """src -> <dst, 1, 0> when counter == 1, src -> <dst, 0, 1> when counter == 2."""
    counter: int
    src: int
    dst: int


@dataclass(frozen=True)
class Dec:
    """src -> <dst, -1, 0>(<zero_dst, 0, 0>) and the counter-2 analogue."""
    counter: int
    src: int
    dst: int
    zero_dst: int


Instruction = Union[Inc, Dec]


@dataclass(frozen=True)
class MinskyProgram:
    instructions: Tuple[Instruction, ...]

    def __post_init__(self):
        seen: Dict[int, Instruction] = {}
        for ins in self.instructions:
            if ins.src in seen:
                raise DeterminismError("state %d has two instructions" % ins.src)
            seen[ins.src] = ins
        object.__setattr__(self, "_table", seen)

    def instruction_for(self, state: int) -> Optional[Instruction]:
        return self._table.get(state)

    def states(self) -> List[int]:
        out = set()
        for ins in self.instructions:
            out.add(ins.src)
            out.add(ins.dst)
            if isinstance(ins, Dec):
                out.add(ins.zero_dst)
        return sorted(out)

    def serialize(self) -> str:
        lines = []
        for ins in self.instructions:
            d1, d2 = ("+1", "0") if ins.counter == 1 else ("0", "+1")
            if isinstance(ins, Dec):
                d1, d2 = ("-1", "0") if ins.counter == 1 else ("0", "-1")
                lines.append("%d -> %d,%s,%s | %d,0,0" % (ins.src, ins.dst, d1, d2, ins.zero_dst))
            else:
                lines.append("%d -> %d,%s,%s" % (ins.src, ins.dst, d1, d2))
        return "\n".join(lines) + ("\n" if lines else "")


_LINE_RE = re.compile(
    r"^(\d+)\s*->\s*(\d+)\s*,\s*([+-]?1|0)\s*,\s*([+-]?1|0)"
    r"\s*(?:\|\s*(\d+)\s*,\s*0\s*,\s*0\s*)?$"
)


def parse_program(text: str) -> MinskyProgram:
    """Program file: one instruction per line, '#' comments and blanks ignored.

    Increments look like `1 -> 2,+1,0`; decrements carry the zero branch,
    `1 -> 2,-1,0 | 3,0,0`.  Exactly one of the two deltas is nonzero.
    """
    instructions: List[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ParseError(0, "an instruction on line %d" % lineno, raw)
        src, dst = int(m.group(1)), int(m.group(2))
        d1, d2 = m.group(3), m.group(4)
        zero = m.group(5)
        deltas = [(1, d1), (2, d2)]
        nonzero = [(c, d) for c, d in deltas if d not in ("0",)]
        if len(nonzero) != 1:
            raise ParseError(0, "exactly one nonzero delta on line %d" % lineno, raw)
        counter, delta = nonzero[0]
        if delta in ("1", "+1"):
            if zero is not None:
                raise ParseError(0, "no zero branch after an increment (line %d)" % lineno, raw)
            instructions.append(Inc(counter, src, dst))
        else:
            if zero is None:
                raise ParseError(0, "a zero branch after a decrement (line %d)" % lineno, raw)
            instructions.append(Dec(counter, src, dst, int(zero)))
    return MinskyProgram(tuple(instructions))


def step(program: MinskyProgram, config: Config) -> Optional[Config]:
    """One machine step; None means the machine halts at `config`."""
    ins = program.instruction_for(config.state)
    if ins is None:
        return None
    if isinstance(ins, Inc):
        if ins.counter == 1:
            return Config(ins.dst, config.c1 + 1, config.c2)
        return Config(ins.dst, config.c1, config.c2 + 1)
    value = config.c1 if ins.counter == 1 else config.c2
    if value == 0:
        return Config(ins.zero_dst, config.c1, config.c2)
    if ins.counter == 1:
        return Config(ins.dst, config.c1 - 1, config.c2)
    return Config(ins.dst, config.c1, config.c2 - 1)


HALTED = "halted"
LOOPED = "looped"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Trace:
    """A run prefix: len(configs) == len(instrs) + 1, and instrs[i] is the
    instruction transforming configs[i] into configs[i+1]."""
    configs: Tuple[Config, ...]
    instrs: Tuple[Instruction, ...]
    stopped: str  # HALTED, LOOPED or EXHAUSTED

    def __len__(self):
        return len(self.instrs)

    def prefix_to(self, target: Config) -> "Trace":
        i = self.configs.index(target)
        return Trace(self.configs[:i + 1], self.instrs[:i], self.stopped)


def run_trace(program: MinskyProgram, start: Config, bound: int) -> Trace:
    """The unique run of at most `bound` steps.

    Stops early at a halt or when the next configuration was already
    visited (a deterministic machine then cycles forever); all recorded
    configurations are distinct.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    configs = [start]
    instrs: List[Instruction] = []
    visited = {start}
    current = start
    stopped = EXHAUSTED
    for _ in range(bound):
        nxt = step(program, current)
        if nxt is None:
            stopped = HALTED
            break
        if nxt in visited:
            stopped = LOOPED
            break
        instrs.append(program.instruction_for(current.state))
        configs.append(nxt)
        visited.add(nxt)
        current = nxt
    else:
        # bound reached: still classify a halt or loop sitting right at it
        nxt = step(program, current)
        if nxt is None:
            stopped = HALTED
        elif nxt in visited:
            stopped = LOOPED
    return Trace(tuple(configs), tuple(instrs), stopped)


@dataclass(frozen=True)
class Yes:
    trace: Trace


@dataclass(frozen=True)
class No:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str = ""


Reachability = Union[Yes, No, Unknown]


def reaches(program: MinskyProgram, start: Config, target: Config, bound: int) -> Reachability:
    """Bounded reachability with sound negative answers.

    Yes carries the witnessing trace prefix (possibly of length 0).  No is
    returned only when the run provably halts or loops within the bound
    without visiting the target; otherwise Unknown.
    """
    trace = run_trace(program, start, bound)
    if target in trace.configs:
        return Yes(trace.prefix_to(target))
    if trace.stopped in (HALTED, LOOPED):
        return No()
    return Unknown("no verdict within %d steps" % bound)
