"""End-to-end pipeline: compile, decide reachability, and certify.

For a reachable target the pipeline builds the explicit unifier and
verifies the substituted reduction formula, by tableau within a step
budget and otherwise against a seeded random-model suite.  For a provably
unreachable target it builds the truncated canonical frame and certifies
non-unifiability: the program axioms are frame-valid, the start
configuration's marker is globally true, and the target's marker is
globally false, which refutes every substitution instance at once because
frame validity is closed under substitution and the target marker carries
no variables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

from . import decision
from .errors import InternalCheckFailed, ResourceLimit
from .formula import (
    Formula, Not, Substitution, apply_subst, ground_substitutions, size,
    variables,
)
from .kripke import Model, Valid, Valuation, frame_valid, random_frame, truth_mask
from .minsky import Config, MinskyProgram, No, Unknown, Yes, reaches
from .encoding import (
    LabeledFrame, Mode, ax_program, canonical_frame, config_exists, psi,
)
from .witness import witness_from_trace

DEFAULT_TRIALS = 1000
DEFAULT_MAX_POINTS = 8
DEFAULT_TABLEAU_BUDGET = 2_000_000
DEFAULT_TABLEAU_MAX_STEPS = 2


@dataclass
class ValidityEvidence:
    method: str            # "tableau" or "random_models"
    trials: int = 0
    seed: int = 0
    max_points: int = 0

    def as_dict(self) -> dict:
        out = {"method": self.method}
        if self.method == "random_models":
            out.update(trials=self.trials, seed=self.seed, max_points=self.max_points)
        return out


@dataclass
class Unifiable:
    substitution: Substitution
    evidence: ValidityEvidence
    trace_length: int


@dataclass
class NotUnifiable:
    certificate: LabeledFrame


PipelineVerdict = Union[Unifiable, NotUnifiable, Unknown]


def _suite_models(seed: int, trials: int, max_points: int, mode: Mode,
                  var_indices=(), nominal_index: int = 1) -> Iterator[Model]:
    rng = random.Random(seed)
    for _ in range(trials):
        frame_seed = rng.randrange(1 << 30)
        if mode.kind == "universal":
            frame = random_frame(frame_seed, max_points)
        else:
            frame = random_frame(frame_seed, max_points, kind="H2")
        var_map = {
            v: frozenset(p for p in frame.points if rng.random() < 0.5)
            for v in var_indices
        }
        nom_map = {}
        if mode.kind == "hybrid":
            nom_map[nominal_index] = frame.points[rng.randrange(len(frame.points))]
        yield Model(frame, Valuation(var_map, nom_map))


def check_on_random_models(phi: Formula, mode: Mode, seed: int, trials: int,
                           max_points: int) -> Tuple[int, Optional[Tuple[Model, str]]]:
    """Evaluate phi at every point of `trials` seeded models (variables get
    random point sets, the designated nominal a random owner); returns the
    number of models checked and the first failure, if any."""
    checked = 0
    for model in _suite_models(seed, trials, max_points, mode,
                               sorted(variables(phi)), mode.nominal_index):
        checked += 1
        mask = truth_mask(model, phi)
        full = (1 << len(model.frame.points)) - 1
        if mask != full:
            for i, point in enumerate(model.frame.points):
                if not mask >> i & 1:
                    return checked, (model, point)
    return checked, None


def verify_unifier(bound_formula: Formula, mode: Mode, trace_length: int,
                   seed: int = 0, trials: int = DEFAULT_TRIALS,
                   max_points: int = DEFAULT_MAX_POINTS,
                   tableau_budget: int = DEFAULT_TABLEAU_BUDGET,
                   tableau_max_steps: int = DEFAULT_TABLEAU_MAX_STEPS) -> ValidityEvidence:
    """Certify that the substituted reduction formula holds everywhere.

    The tableau is complete but only attempted within a step budget on
    short traces (hybrid instances beyond the trivial length go straight
    to the suite: the nominal-agreement conjunction makes their closure
    large); the random-model suite is the fallback.  A counter-model from
    either route is an internal-invariant violation, not a verdict.
    """
    attempt_tableau = (mode.kind == "universal" and trace_length <= tableau_max_steps) \
        or (mode.kind == "hybrid" and trace_length == 0)
    if attempt_tableau:
        logic = decision.KU if mode.kind == "universal" else decision.KH2
        try:
            verdict = decision.valid(bound_formula, logic, label_budget=tableau_budget)
        except ResourceLimit:
            verdict = None
        if verdict is not None:
            if not isinstance(verdict, Valid):
                raise InternalCheckFailed(
                    "unifier verification found a counter-model at point %r"
                    % verdict.point)
            return ValidityEvidence("tableau")
    checked, failure = check_on_random_models(bound_formula, mode, seed, trials, max_points)
    if failure is not None:
        raise InternalCheckFailed(
            "unifier verification failed on a random model at point %r" % failure[1])
    return ValidityEvidence("random_models", trials=checked, seed=seed,
                            max_points=max_points)


def certificate_checks(lf: LabeledFrame, program: MinskyProgram, start: Config,
                       target: Config, mode: Mode) -> Dict[str, bool]:
    """The three facts making a canonical frame a non-unifiability
    certificate: the program axioms are frame-valid, the start marker is
    globally true, and the target marker is globally false (under every
    valuation, so every substitution instance of the reduction formula is
    refuted)."""
    axp_valid = isinstance(frame_valid(lf.frame, ax_program(program, mode)), Valid)
    antecedent = isinstance(frame_valid(lf.frame, config_exists(start, mode)), Valid)
    consequent = isinstance(frame_valid(lf.frame, Not(config_exists(target, mode))), Valid)
    return {
        "program_axioms_valid": axp_valid,
        "start_marker_globally_true": antecedent,
        "target_marker_globally_false": consequent,
    }


def check_unifiable_via_reduction(program: MinskyProgram, start: Config,
                                  target: Config, bound: int, mode: Mode,
                                  seed: int = 0, trials: int = DEFAULT_TRIALS,
                                  max_points: int = DEFAULT_MAX_POINTS,
                                  tableau_budget: int = DEFAULT_TABLEAU_BUDGET,
                                  tableau_max_steps: int = DEFAULT_TABLEAU_MAX_STEPS) -> PipelineVerdict:
    reach = reaches(program, start, target, bound)
    if isinstance(reach, Yes):
        sigma = witness_from_trace(reach.trace, mode)
        bound_formula = apply_subst(sigma, psi(program, start, target, mode))
        evidence = verify_unifier(bound_formula, mode, len(reach.trace),
                                  seed=seed, trials=trials, max_points=max_points,
                                  tableau_budget=tableau_budget,
                                  tableau_max_steps=tableau_max_steps)
        return Unifiable(sigma, evidence, len(reach.trace))
    if isinstance(reach, No):
        lf = canonical_frame(program, start, bound, mode)
        checks = certificate_checks(lf, program, start, target, mode)
        if not all(checks.values()):
            failed = sorted(k for k, v in checks.items() if not v)
            raise InternalCheckFailed("certificate checks failed: %s" % ", ".join(failed))
        return NotUnifiable(lf)
    return reach


def ground_unifiable(phi: Formula, logic: str,
                     label_budget: int = 50_000) -> Optional[Substitution]:
    """First substitution into {false, true} that makes phi valid, if any.

    Sound but incomplete for these logics: a formula can be unifiable
    without being ground-unifiable, since variable-free formulas here are
    not all equivalent to one of the two constants.
    """
    for sigma in ground_substitutions(variables(phi)):
        if isinstance(decision.valid(apply_subst(sigma, phi), logic,
                                     label_budget=label_budget), Valid):
            return sigma
    return None


def verdict_report(verdict: PipelineVerdict, program: MinskyProgram, start: Config,
                   target: Config, bound: int, mode: Mode) -> dict:
    """JSON-ready summary of a pipeline run."""
    report = {
        "mode": mode.kind,
        "start": str(start),
        "target": str(target),
        "bound": bound,
        "instructions": len(program.instructions),
    }
    if isinstance(verdict, Unifiable):
        reduction = psi(program, start, target, mode)
        report.update(
            verdict="unifiable",
            trace_length=verdict.trace_length,
            evidence=verdict.evidence.as_dict(),
            formula_sizes={
                "psi": size(reduction),
                "sigma_p1": size(verdict.substitution.get(1)),
                "sigma_p2": size(verdict.substitution.get(2)),
            },
        )
    elif isinstance(verdict, NotUnifiable):
        report.update(
            verdict="not_unifiable",
            certificate_points=len(verdict.certificate.frame.points),
            truncation=verdict.certificate.truncation,
        )
    else:
        report.update(verdict="unknown", reason=verdict.reason)
    return report
