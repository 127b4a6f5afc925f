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
from .formula import H2, L, parse, pretty
from .kripke import (
    Model, Valid, Valuation, model_check, parse_valuation, serialize_frame,
    serialize_valuation,
)
from .minsky import parse_config, parse_program
from .encoding import (
    HYBRID, UNIVERSAL, ax_program, canonical_frame, parse_labeled_frame, psi,
    serialize_labeled_frame,
)
from .witness import witness_from_trace
from .minsky import Yes, reaches


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _mode(name: str):
    return UNIVERSAL if name == "universal" else HYBRID


def _logic_language(logic: str) -> str:
    return L if logic == "ku" else H2


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
    mode = _mode(args.mode)
    reduction = psi(program, start, target, mode)
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "psi.txt"), pretty(reduction) + "\n")
    _write(os.path.join(args.out, "axp.txt"), pretty(ax_program(program, mode)) + "\n")
    wrote = ["psi.txt", "axp.txt"]
    reach = reaches(program, start, target, args.bound)
    if isinstance(reach, Yes):
        sigma = witness_from_trace(reach.trace, mode)
        _write(os.path.join(args.out, "sigma.txt"), sigma.serialize())
        wrote.append("sigma.txt")
    print("wrote %s to %s" % (", ".join(wrote), args.out))
    return 0


def cmd_frame(args) -> int:
    program = parse_program(_read(args.program))
    start = parse_config(args.start)
    lf = canonical_frame(program, start, args.bound, _mode(args.mode))
    text = serialize_labeled_frame(lf)
    if args.out:
        _write(args.out, text)
        print("wrote %d-point frame to %s" % (len(lf.frame.points), args.out))
    else:
        sys.stdout.write(text)
    return 0


def cmd_modelcheck(args) -> int:
    frame = parse_labeled_frame(_read(args.frame)).frame
    if args.valuation:
        valuation = parse_valuation(_read(args.valuation))
    else:
        valuation = Valuation()
    language = H2 if frame.kind == H2 else L
    phi = parse(args.formula, language)
    result = model_check(Model(frame, valuation), args.point, phi)
    print("true" if result else "false")
    return 0


def cmd_valid(args) -> int:
    phi = parse(args.formula, _logic_language(args.logic))
    result = decision.valid(phi, args.logic, label_budget=args.budget)
    if isinstance(result, Valid):
        print("valid")
    else:
        print("not valid; counter-model at point %s:" % result.point)
        sys.stdout.write(serialize_frame(result.model.frame))
        sys.stdout.write(serialize_valuation(result.model.valuation))
    return 0


def cmd_sat(args) -> int:
    phi = parse(args.formula, _logic_language(args.logic))
    result = decision.satisfiable(phi, args.logic, label_budget=args.budget)
    if isinstance(result, decision.Unsat):
        print("unsatisfiable")
    else:
        print("satisfiable at point %s:" % result.point)
        sys.stdout.write(serialize_frame(result.model.frame))
        sys.stdout.write(serialize_valuation(result.model.valuation))
    return 0


def cmd_verify(args) -> int:
    program = parse_program(_read(args.program))
    start = parse_config(args.start)
    target = parse_config(args.target)
    mode = _mode(args.mode)
    verdict = workbench.check_unifiable_via_reduction(
        program, start, target, args.bound, mode,
        seed=args.seed, trials=args.trials, max_points=args.max_points,
        tableau_budget=args.budget)
    report = workbench.verdict_report(verdict, program, start, target, args.bound, mode)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "report.json"),
               json.dumps(report, indent=2, sort_keys=True) + "\n")
        if isinstance(verdict, workbench.Unifiable):
            _write(os.path.join(args.out, "sigma.txt"), verdict.substitution.serialize())
        if isinstance(verdict, workbench.NotUnifiable):
            _write(os.path.join(args.out, "certificate.frame"),
                   serialize_labeled_frame(verdict.certificate))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_ground_unify(args) -> int:
    phi = parse(args.formula, _logic_language(args.logic))
    sigma = workbench.ground_unifiable(phi, args.logic, label_budget=args.budget)
    if sigma is None:
        print("not ground-unifiable")
    else:
        sys.stdout.write(sigma.serialize() or "identity substitution\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlunif",
                     description="workbench for unification in modal logics "
                                 "with a universal box or nominals")
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="compile a machine into formulas")
    reduce_p.add_argument("--program", required=True)
    reduce_p.add_argument("--start", required=True)
    reduce_p.add_argument("--target", required=True)
    reduce_p.add_argument("--mode", choices=("universal", "hybrid"), default="universal")
    reduce_p.add_argument("--bound", type=int, default=1000)
    reduce_p.add_argument("--out", required=True)
    reduce_p.set_defaults(func=cmd_reduce)

    frame_p = sub.add_parser("frame", help="build the canonical frame")
    frame_p.add_argument("--program", required=True)
    frame_p.add_argument("--start", required=True)
    frame_p.add_argument("--bound", type=int, default=1000)
    frame_p.add_argument("--mode", choices=("universal", "hybrid"), default="universal")
    frame_p.add_argument("--out")
    frame_p.set_defaults(func=cmd_frame)

    mc_p = sub.add_parser("modelcheck", help="evaluate a formula at a point")
    mc_p.add_argument("--frame", required=True)
    mc_p.add_argument("--valuation")
    mc_p.add_argument("--point", required=True)
    mc_p.add_argument("--formula", required=True)
    mc_p.set_defaults(func=cmd_modelcheck)

    for name, func in (("valid", cmd_valid), ("sat", cmd_sat)):
        p = sub.add_parser(name, help="decide %s in a logic" % name)
        p.add_argument("--logic", choices=("ku", "kh2"), required=True)
        p.add_argument("--formula", required=True)
        p.add_argument("--budget", type=int, default=50_000)
        p.set_defaults(func=func)

    verify_p = sub.add_parser("verify", help="run the full pipeline")
    verify_p.add_argument("--program", required=True)
    verify_p.add_argument("--start", required=True)
    verify_p.add_argument("--target", required=True)
    verify_p.add_argument("--bound", type=int, default=1000)
    verify_p.add_argument("--mode", choices=("universal", "hybrid"), default="universal")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--trials", type=int, default=workbench.DEFAULT_TRIALS)
    verify_p.add_argument("--max-points", type=int, default=workbench.DEFAULT_MAX_POINTS)
    verify_p.add_argument("--budget", type=int, default=workbench.DEFAULT_TABLEAU_BUDGET)
    verify_p.add_argument("--out")
    verify_p.set_defaults(func=cmd_verify)

    gu_p = sub.add_parser("ground-unify", help="search substitutions into constants")
    gu_p.add_argument("--logic", choices=("ku", "kh2"), required=True)
    gu_p.add_argument("--formula", required=True)
    gu_p.add_argument("--budget", type=int, default=50_000)
    gu_p.set_defaults(func=cmd_ground_unify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
