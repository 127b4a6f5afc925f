"""End-to-end pipeline: compile, decide reachability, and certify.

For a reachable target the pipeline builds the explicit unifier sigma and
certifies sigma(psi) by the first of three routes that applies
(`verify_unifier`): a tableau proof of the paper's step lemmas on runs of
at most two steps; else sigma(psi) on the run's l + 1 canonical prefix
frames while they fit `encoding.POINT_BUDGET` (frame i has points for
exactly c_0 .. c_i, so defect_i holds everywhere on it, and frame l holds
no defect: one frame per case of the paper's argument); else a seeded
suite of small random models.

For a provably unreachable target it builds the truncated canonical frame
and certifies non-unifiability: the program axioms are frame-valid, the
start configuration's marker is globally true, and the target's marker is
globally false, which refutes every substitution instance at once because
frame validity is closed under substitution and the target marker carries
no variables.  A hybrid certificate's S is total, and there the three
facts are checked as their L forms on R alone (`certificate_checks`).
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections.abc import Iterator

from . import decision
from .errors import InternalCheckFailed, LanguageMismatch, ResourceLimit
from .formula import (
    H2, L, Formula, Nominal, Not, Substitution, Var, apply_subst, conj,
    ground_substitutions, size, variables,
)
from .kripke import (
    DisjointUnion, Frame, Model, Valid, draw_rows, frame_valid, truth_mask,
)
from .minsky import Config, MinskyProgram, No, Trace, Unknown, Yes, reaches
from .encoding import (
    MODES, POINT_BUDGET, LabeledFrame, ax_program, canonical_frame, config_exists,
    frame_for_configs, psi, truncation_level,
)
from .record import Record
from .witness import no_defect_lemma, step_lemmas, witness_from_trace

SUITE_TRIALS = 1000
SUITE_MAX_POINTS = 8
DEFAULT_TABLEAU_BUDGET = 2_000_000
DEFAULT_TABLEAU_MAX_STEPS = 2


class Unifiable(Record):
    substitution: Substitution
    evidence: dict         # the report's "evidence" object, written as it is
    trace_length: int
    psi_size: int          # DAG size of the reduction formula the unifier unifies


class NotUnifiable(Record):
    certificate: LabeledFrame


PipelineVerdict = Unifiable | NotUnifiable | Unknown


def _suite_blocks(seed: int, trials: int, max_points: int, language: str,
                  var_indices) -> Iterator[tuple]:
    """The suite's seeded models as `DisjointUnion` blocks.  Per trial, a
    frame's rows come from a stream seeded by `rng.randrange(1 << 30)`, then
    its valuation from `rng` itself: each variable holds at a point when
    `rng.random() < 0.5`, point by point, and in H2 the nominal n1 sits at
    `rng.randrange(n)`."""
    symbols = [Var(v) for v in var_indices]
    n1 = Nominal(1) if language == H2 else None
    rng, frame_rng = random.Random(seed), random.Random(0)
    coin = rng.random
    for _ in range(trials):
        frame_rng.seed(rng.randrange(1 << 30))
        r, s = draw_rows(frame_rng, max_points, language)
        n = len(r)
        held = [(v, sum([1 << i for i in range(n) if coin() < 0.5])) for v in symbols]
        if n1 is not None:
            held.append((n1, 1 << rng.randrange(n)))
        yield r, s, held


def _first_failure(union: DisjointUnion, phi: Formula) -> tuple[int, int] | None:
    """The block of `union` holding the lowest point where phi fails, and
    that point's index in its block; None when phi holds everywhere."""
    failing = ((1 << union.width) - 1) ^ truth_mask(union, phi)
    if not failing:
        return None
    bit = (failing & -failing).bit_length() - 1
    k = bisect.bisect_right(union.offsets, bit) - 1
    return k, bit - union.offsets[k]


def check_on_random_models(phi: Formula, language: str, seed: int, trials: int,
                           max_points: int) -> tuple[int, tuple[Model, str] | None]:
    """Evaluate phi at every point of `trials` seeded models (variables get
    random point sets, in H2 the nominal n1 a random owner); returns the
    number of models checked and the first failure, if any.

    The models are drawn straight into the blocks of one disjoint union, as
    successor rows and symbol masks with no `Model` per trial, and checked
    by a single `truth_mask` pass.  The lowest failing bit names the first
    failing model and point; that model's block alone is drawn again, by
    replaying the seeded stream, and made a `Model` on points w0, w1, ...
    As in a model-by-model check, the count stops at the first failing
    model.  Raises ValueError for fewer than one trial, which would check
    nothing, or fewer than one point.
    """
    if trials < 1:
        raise ValueError("the random-model suite needs at least one trial, got %d" % trials)
    draw = (seed, trials, max_points, language, sorted(variables(phi)))
    union = DisjointUnion(_suite_blocks(*draw))
    failure = _first_failure(union, phi)
    if failure is None:
        return len(union.offsets), None
    k, j = failure
    r, s, held = next(itertools.islice(_suite_blocks(*draw), k, None))
    frame = Frame(tuple("w%d" % i for i in range(len(r))), r, s)
    return k + 1, (Model(frame, dict(held)), frame.points[j])


def prefix_frames(program: MinskyProgram, trace: Trace,
                  language: str) -> list[Frame] | None:
    """The run's l + 1 canonical prefix frames, or None when together they
    would have more than POINT_BUDGET points.

    Frame i is `frame_for_configs(trace.configs[:i + 1], level, language)`
    at the run's truncation level: it has configuration points for exactly
    c_0 .. c_i.  No point has an edge into a configuration point, so frame
    i is the first `base + i + 1` points and rows of the frame for the
    whole run, which is built once; `base` counts its skeleton and tower
    points.  In H2 each frame has the total S.
    """
    configs = trace.configs
    count = len(configs)
    level = truncation_level(program, configs)
    # the three towers alone give a lower bound on the points, so a run
    # whose frames cannot fit builds nothing
    if count * 3 * (level + 1) + count * (count + 1) // 2 > POINT_BUDGET:
        return None
    try:
        whole = frame_for_configs(configs, level, language).frame
    except ResourceLimit:  # the whole frame is the last prefix frame
        return None
    base = len(whole.points) - count
    if count * base + count * (count + 1) // 2 > POINT_BUDGET:
        return None
    frames = []
    for n in range(base + 1, base + count + 1):
        s = ((1 << n) - 1,) * n if language == H2 else None
        frames.append(Frame(whole.points[:n], whole.r[:n], s))
    return frames


def verify_unifier(sigma: Substitution, reduction: Formula, language: str,
                   program: MinskyProgram, trace: Trace, seed: int = 0,
                   tableau_budget: int = DEFAULT_TABLEAU_BUDGET) -> dict:
    """Certify that sigma(reduction), the unifier `sigma` of `trace` applied
    to psi, holds everywhere; returns the report's evidence dict.

    The first route that applies gives the evidence:
    - `tableau`: on runs of at most DEFAULT_TABLEAU_MAX_STEPS steps, in
      either language, one tableau call within `tableau_budget` proves the
      conjunction of the run's step lemmas and its no-defect lemma, which
      implies the formula (`witness.step_lemmas`);
    - `canonical_prefix`: sigma(reduction) holds at every point of the
      run's l + 1 `prefix_frames`, checked as the blocks of one disjoint
      union by one `truth_mask` call, with n1 on the first point of each
      block in H2 (on a total S its place changes no truth; see
      `certificate_checks`).  Frame i has points for exactly c_0 .. c_i, so
      defect_i holds everywhere on it, and frame l, with the whole run,
      holds no defect: one frame per case of the step-lemma argument, with
      sigma(p_c) equal to step i's tower marker on frame i;
    - `random_models`: when the prefix frames pass POINT_BUDGET points,
      the suite of SUITE_TRIALS models of at most SUITE_MAX_POINTS points
      drawn from `seed`.
    A counter-model is an internal-invariant violation, not a verdict.
    """
    if len(trace) <= DEFAULT_TABLEAU_MAX_STEPS:
        lemmas = conj(step_lemmas(trace) + [no_defect_lemma(trace)])
        try:
            verdict = decision.valid(lemmas, label_budget=tableau_budget)
        except ResourceLimit:
            pass
        else:
            if not isinstance(verdict, Valid):
                raise InternalCheckFailed(
                    "unifier verification found a counter-model at point %r" % verdict.point)
            return {"method": "tableau"}
    phi = apply_subst(sigma, reduction)
    frames = prefix_frames(program, trace, language)
    if frames is not None:
        held = [(Nominal(1), 1)] if language == H2 else []
        failure = _first_failure(DisjointUnion((f.r, f.s, held) for f in frames), phi)
        if failure is not None:
            k, j = failure
            raise InternalCheckFailed(
                "unifier verification failed on canonical prefix frame %d at point %r"
                % (k, frames[k].points[j]))
        return {"method": "canonical_prefix", "frames": len(frames)}
    checked, failure = check_on_random_models(phi, language, seed, SUITE_TRIALS,
                                              SUITE_MAX_POINTS)
    if failure is not None:
        raise InternalCheckFailed(
            "unifier verification failed on a random model at point %r" % failure[1])
    return {"method": "random_models", "trials": checked, "seed": seed,
            "max_points": SUITE_MAX_POINTS}


def certificate_checks(lf: LabeledFrame, program: MinskyProgram, start: Config,
                       target: Config, language: str) -> dict[str, bool]:
    """The three facts making a canonical frame a non-unifiability
    certificate: the program axioms are frame-valid, the start marker is
    globally true, and the target marker is globally false (under every
    valuation, so every substitution instance of the reduction formula is
    refuted).

    In H2 a fourth fact comes first: the frame's S is total.  If it is not,
    that fact fails and nothing else is checked.  If it is, the three facts
    are checked as their L forms on (W, R), which is equivalent.  Proof:
    each H2 formula here is its L form with every `<u>chi` written as the
    surrogate `<h>(n1 & <h>chi)`, and Ax_P has `nom_formula` as one more
    conjunct.  Take any valuation of (W, R, W x W).  n1 holds at exactly
    one point, so the surrogate holds at a point iff chi holds somewhere,
    which is `<u>chi`; by induction, every H2 formula but `nom_formula` has
    the truth of its L form at every point.  `nom_formula` holds
    everywhere: `<h>n1` does, so each of its conjuncts, an implication
    from `<h>n1` to a box word over it or from a diamond word over it to
    `<h>n1`, is true.  The L forms do not read n1, and every frame has a
    point to put it at, so each H2 formula is frame-valid on (W, R, W x W)
    exactly when its L form is frame-valid on (W, R).  A frame without S
    raises LanguageMismatch, as `frame_valid` does for a hybrid formula.
    """
    frame, checks = lf.frame, {}
    if language == H2:
        if frame.s is None:
            raise LanguageMismatch("hybrid formula on a frame without S")
        full = (1 << len(frame.points)) - 1
        checks["s_total"] = all(row == full for row in frame.s)
        if not checks["s_total"]:
            return checks
        frame, language = Frame(frame.points, frame.r), L
    for fact, phi in (("program_axioms_valid", ax_program(program, language)),
                      ("start_marker_globally_true", config_exists(start, language)),
                      ("target_marker_globally_false", Not(config_exists(target, language)))):
        checks[fact] = isinstance(frame_valid(frame, phi), Valid)
    return checks


def check_unifiable_via_reduction(program: MinskyProgram, start: Config,
                                  target: Config, bound: int, language: str,
                                  seed: int = 0,
                                  tableau_budget: int = DEFAULT_TABLEAU_BUDGET) -> PipelineVerdict:
    reach = reaches(program, start, target, bound)
    if isinstance(reach, Yes):
        sigma = witness_from_trace(reach.trace, language)
        reduction = psi(program, start, target, language)
        evidence = verify_unifier(sigma, reduction, language, program, reach.trace,
                                  seed=seed, tableau_budget=tableau_budget)
        return Unifiable(sigma, evidence, len(reach.trace), size(reduction))
    if isinstance(reach, No):
        lf = canonical_frame(program, start, bound, language)
        checks = certificate_checks(lf, program, start, target, language)
        if not all(checks.values()):
            failed = sorted(k for k, v in checks.items() if not v)
            raise InternalCheckFailed("certificate checks failed: %s" % ", ".join(failed))
        return NotUnifiable(lf)
    return reach


def ground_unifiable(phi: Formula,
                     label_budget: int = decision.DEFAULT_LABEL_BUDGET) -> Substitution | None:
    """First substitution into {false, true} that makes phi valid, if any.

    Sound but incomplete for these logics: a formula can be unifiable
    without being ground-unifiable, since variable-free formulas here are
    not all equivalent to one of the two constants.
    """
    for sigma in ground_substitutions(variables(phi)):
        if isinstance(decision.valid(apply_subst(sigma, phi), label_budget=label_budget),
                      Valid):
            return sigma
    return None


def verdict_report(verdict: PipelineVerdict, program: MinskyProgram, start: Config,
                   target: Config, bound: int, language: str) -> dict:
    """JSON-ready summary of a pipeline run."""
    report = {
        "mode": next(name for name, lang in MODES.items() if lang == language),
        "start": str(start),
        "target": str(target),
        "bound": bound,
        "instructions": len(program.instructions),
    }
    if isinstance(verdict, Unifiable):
        report.update(
            verdict="unifiable",
            trace_length=verdict.trace_length,
            evidence=verdict.evidence,
            formula_sizes={
                "psi": verdict.psi_size,
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
