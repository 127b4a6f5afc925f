"""Deterministic two-counter machines: program syntax, stepping, bounded runs.

A program is a finite instruction table over configurations <state, c1, c2>.
Each state has at most one instruction, so runs are unique; bounded runs are
cut off at a halt, at the first repeated configuration, or at the step bound.
"""

from __future__ import annotations

import re

from .errors import DeterminismError, ParseError, ResourceLimit
from .record import FrozenRecord


class Config(FrozenRecord):
    state: int
    c1: int
    c2: int

    def __init__(self, state: int, c1: int, c2: int):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        if state < 0 or c1 < 0 or c2 < 0:
            raise ValueError("configuration components must be nonnegative")

    # a run compares and hashes a configuration per step, so these two read
    # the fields directly rather than through the record base's field tuple
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.state == other.state and self.c1 == other.c1 and self.c2 == other.c2

    def __hash__(self):
        return hash((self.state, self.c1, self.c2))

    def __str__(self):
        return "%d,%d,%d" % (self.state, self.c1, self.c2)


def parse_config(text: str) -> Config:
    m = re.match(r"^\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*$", text)
    if m is None:
        raise ParseError(0, "a configuration 's,m,n'", text)
    return Config(int(m.group(1)), int(m.group(2)), int(m.group(3)))


class Inc(FrozenRecord):
    """src -> <dst, 1, 0> when counter == 1, src -> <dst, 0, 1> when counter == 2."""
    counter: int
    src: int
    dst: int


class Dec(FrozenRecord):
    """src -> <dst, -1, 0>(<zero_dst, 0, 0>) and the counter-2 analogue."""
    counter: int
    src: int
    dst: int
    zero_dst: int


Instruction = Inc | Dec


class MinskyProgram(FrozenRecord):
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        seen: dict[int, Instruction] = {}
        for ins in self.instructions:
            if ins.src in seen:
                raise DeterminismError("state %d has two instructions" % ins.src)
            seen[ins.src] = ins
        object.__setattr__(self, "_table", seen)

    def instruction_for(self, state: int) -> Instruction | None:
        return self._table.get(state)


_LINE_RE = re.compile(
    r"^(\d+)\s*->\s*(\d+)\s*,\s*([+-]?1|0)\s*,\s*([+-]?1|0)"
    r"\s*(?:\|\s*(\d+)\s*,\s*0\s*,\s*0\s*)?$"
)


def parse_program(text: str) -> MinskyProgram:
    """Program file: one instruction per line, '#' comments and blanks ignored.

    Increments look like `1 -> 2,+1,0`; decrements carry the zero branch,
    `1 -> 2,-1,0 | 3,0,0`.  Exactly one of the two deltas is nonzero.
    """
    instructions: list[Instruction] = []
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


def step(program: MinskyProgram, config: Config) -> Config | None:
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
REACHED = "reached"


class Trace(FrozenRecord):
    """A run prefix: len(configs) == len(instrs) + 1, and instrs[i] is the
    instruction transforming configs[i] into configs[i+1].  `stopped` says
    why the run ended: the machine halts or loops right after the last
    configuration, the bound ran out, or (REACHED) the last configuration
    is the target the run was asked for, and what the machine does after
    it is not known."""
    configs: tuple[Config, ...]
    instrs: tuple[Instruction, ...]
    stopped: str  # HALTED, LOOPED, EXHAUSTED or REACHED

    def __len__(self):
        return len(self.instrs)


# run_trace raises ResourceLimit once a run takes more steps than this:
# each step keeps a configuration, so memory grows with the run
STEP_BUDGET = 100_000


def run_trace(program: MinskyProgram, start: Config, bound: int,
              target: Config | None = None) -> Trace:
    """The unique run of at most `bound` steps.

    Stops early at a halt, when the next configuration was already
    visited (a deterministic machine then cycles forever), or once it has
    recorded `target`; all recorded configurations are distinct.  Raises
    ResourceLimit when the run would take step STEP_BUDGET + 1.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    configs = [start]
    instrs: list[Instruction] = []
    visited = {start}
    current = start
    stopped = None
    for _ in range(bound):
        if current == target:
            break
        nxt = step(program, current)
        if nxt is None:
            stopped = HALTED
            break
        visited.add(nxt)  # one hash per step: adding a repeat keeps the size
        if len(visited) == len(configs):
            stopped = LOOPED
            break
        if len(instrs) == STEP_BUDGET:
            raise ResourceLimit("bounded run budget exceeded: %d steps, limit %d"
                                % (STEP_BUDGET + 1, STEP_BUDGET))
        instrs.append(program.instruction_for(current.state))
        configs.append(nxt)
        current = nxt
    if stopped is None:
        if current == target:
            stopped = REACHED
        else:
            # bound reached: still classify a halt or loop sitting right at it
            nxt = step(program, current)
            stopped = (HALTED if nxt is None else LOOPED if nxt in visited
                       else EXHAUSTED)
    return Trace(tuple(configs), tuple(instrs), stopped)


class Yes(FrozenRecord):
    trace: Trace


class No(FrozenRecord):
    pass


class Unknown(FrozenRecord):
    reason: str


Reachability = Yes | No | Unknown


def reaches(program: MinskyProgram, start: Config, target: Config, bound: int) -> Reachability:
    """Bounded reachability with sound negative answers.

    Yes carries the run up to the target (possibly of length 0); the run
    stops there, so a large bound costs nothing once the target is found.
    No is returned only when the run provably halts or loops within the bound
    without visiting the target; otherwise Unknown.
    """
    trace = run_trace(program, start, bound, target)
    if trace.stopped == REACHED:
        return Yes(trace)
    if trace.stopped in (HALTED, LOOPED):
        return No()
    return Unknown("no verdict within %d steps" % bound)
