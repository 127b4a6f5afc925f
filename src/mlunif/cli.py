"""Command-line interface.

Exit codes: 0 verdict produced, 1 usage or input error, 2 resource limit
exceeded, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decision, workbench
from .errors import InternalCheckFailed, MlunifError, ResourceLimit
from .formula import parse, pretty
from .kripke import (
    Model, Valid, model_check, parse_valuation, serialize_frame, serialize_valuation,
)
from .minsky import Yes, parse_config, parse_program, reaches
from .encoding import (
    MODES, ax_program, canonical_frame, parse_labeled_frame, psi,
    serialize_labeled_frame,
)
from .witness import witness_from_trace


def _columns() -> int:
    """The terminal width by the rule of `shutil.get_terminal_size`: COLUMNS
    if it is a positive integer, else the columns of the terminal on
    stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, sized without importing `shutil`: argparse
    makes a formatter for every `add_argument`, and its own asks
    `shutil.get_terminal_size`, whose import pulls in bz2, lzma, zlib and
    fnmatch on every run."""

    def __init__(self, prog):
        # argparse's rule: two columns short of the terminal
        super().__init__(prog, width=_columns() - 2)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # add_subparsers makes the subcommands' parsers with this class too
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):
        sys.stderr.write("%s: error: %s (see --help)\n" % (self.prog, message))
        raise SystemExit(1)


def _at_least(low: int):
    """An argparse type for integers >= `low`."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    convert.__name__ = "integer"  # argparse names the type in its messages
    return convert


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_reduce(args) -> int:
    program = parse_program(_read(args.program))
    start = parse_config(args.start)
    target = parse_config(args.target)
    language = MODES[args.mode]
    reduction = psi(program, start, target, language)
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "psi.txt"), pretty(reduction) + "\n")
    _write(os.path.join(args.out, "axp.txt"), pretty(ax_program(program, language)) + "\n")
    wrote = ["psi.txt", "axp.txt"]
    reach = reaches(program, start, target, args.bound)
    if isinstance(reach, Yes):
        sigma = witness_from_trace(reach.trace, language)
        _write(os.path.join(args.out, "sigma.txt"), sigma.serialize())
        wrote.append("sigma.txt")
    print("wrote %s to %s" % (", ".join(wrote), args.out))
    return 0


def cmd_frame(args) -> int:
    program = parse_program(_read(args.program))
    start = parse_config(args.start)
    lf = canonical_frame(program, start, args.bound, MODES[args.mode])
    text = serialize_labeled_frame(lf)
    if args.out:
        _write(args.out, text)
        print("wrote %d-point frame to %s" % (len(lf.frame.points), args.out))
    else:
        sys.stdout.write(text)
    return 0


def cmd_modelcheck(args) -> int:
    frame = parse_labeled_frame(_read(args.frame)).frame
    valuation = parse_valuation(_read(args.valuation), frame.points) if args.valuation else {}
    phi = parse(args.formula, frame.kind)
    result = model_check(Model(frame, valuation), args.point, phi)
    print("true" if result else "false")
    return 0


def _print_pointed_model(heading: str, result) -> None:
    """A `CounterModel` or `decision.Sat`: the heading with its point, then
    the frame text and the valuation text."""
    print("%s at point %s:" % (heading, result.point))
    sys.stdout.write(serialize_frame(result.model.frame))
    sys.stdout.write(serialize_valuation(result.model))


def cmd_valid(args) -> int:
    phi = parse(args.formula, None)
    result = decision.valid(phi, label_budget=args.budget)
    if isinstance(result, Valid):
        print("valid")
    else:
        _print_pointed_model("not valid; counter-model", result)
    return 0


def cmd_sat(args) -> int:
    phi = parse(args.formula, None)
    result = decision.satisfiable(phi, label_budget=args.budget)
    if isinstance(result, decision.Unsat):
        print("unsatisfiable")
    else:
        _print_pointed_model("satisfiable", result)
    return 0


def cmd_verify(args) -> int:
    program = parse_program(_read(args.program))
    start = parse_config(args.start)
    target = parse_config(args.target)
    language = MODES[args.mode]
    verdict = workbench.check_unifiable_via_reduction(
        program, start, target, args.bound, language,
        seed=args.seed, tableau_budget=args.budget)
    report = workbench.verdict_report(verdict, program, start, target, args.bound, language)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "report.json"), text + "\n")
        if isinstance(verdict, workbench.Unifiable):
            _write(os.path.join(args.out, "sigma.txt"), verdict.substitution.serialize())
        if isinstance(verdict, workbench.NotUnifiable):
            _write(os.path.join(args.out, "certificate.frame"),
                   serialize_labeled_frame(verdict.certificate))
    print(text)
    return 0


def cmd_ground_unify(args) -> int:
    phi = parse(args.formula, None)
    sigma = workbench.ground_unifiable(phi, label_budget=args.budget)
    if sigma is None:
        print("not ground-unifiable")
    else:
        sys.stdout.write(sigma.serialize() or "identity substitution\n")
    return 0


def _reduce_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--program", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=list(MODES), default="universal")
    p.add_argument("--bound", type=_at_least(0), default=1000)
    p.add_argument("--out", required=True)


def _frame_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--program", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--bound", type=_at_least(0), default=1000)
    p.add_argument("--mode", choices=list(MODES), default="universal")
    p.add_argument("--out")


def _modelcheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frame", required=True)
    p.add_argument("--valuation")
    p.add_argument("--point", required=True)
    p.add_argument("--formula", required=True)


def _formula_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", required=True)
    p.add_argument("--budget", type=_at_least(1), default=decision.DEFAULT_LABEL_BUDGET)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--program", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--bound", type=_at_least(0), default=1000)
    p.add_argument("--mode", choices=list(MODES), default="universal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_at_least(1), default=workbench.DEFAULT_TABLEAU_BUDGET)
    p.add_argument("--out")


# each command's help line, the function it runs, and what adds its options
_COMMANDS = {
    "reduce": ("compile a machine into formulas", cmd_reduce, _reduce_args),
    "frame": ("build the canonical frame", cmd_frame, _frame_args),
    "modelcheck": ("evaluate a formula at a point", cmd_modelcheck, _modelcheck_args),
    "valid": ("decide valid; the formula's language picks the logic", cmd_valid,
              _formula_args),
    "sat": ("decide sat; the formula's language picks the logic", cmd_sat, _formula_args),
    "verify": ("run the full pipeline", cmd_verify, _verify_args),
    "ground-unify": ("search substitutions into constants", cmd_ground_unify,
                     _formula_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or only of `command` when it names one:
    a call parses one command, and argparse builds a parser and a formatter
    per option, so the others would be built for nothing.  The top-level
    help and its error for an unknown command need every command."""
    parser = _Parser(prog="mlunif",
                     description="workbench for unification in modal logics "
                                 "with a universal box or nominals")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, func, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else argv
    parser = build_parser(words[0] if words else None)
    try:
        args = parser.parse_args(words)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ResourceLimit as exc:
        sys.stderr.write("resource limit: %s\n" % exc)
        return 2
    except InternalCheckFailed as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 3
    except (MlunifError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
