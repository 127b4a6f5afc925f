import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from mlunif.errors import LanguageMismatch, UnboundSymbol
from mlunif.formula import (
    BOT, H2, L, And, Not, Substitution, TOP, conj, disj, language_of, parse,
)
from mlunif.kripke import (
    CounterModel, DisjointUnion, Frame, Valid, frame_valid, model_check, serialize_frame,
    serialize_valuation, transitive_reduction,
)
from mlunif.minsky import (
    Config, MinskyProgram, parse_config, parse_program, reaches, run_trace,
)
from mlunif.encoding import (
    LabeledFrame, ax_program, canonical_frame, config_exists, frame_for_configs,
    parse_labeled_frame, psi, serialize_labeled_frame, tower, truncation_level,
)
from mlunif.witness import (
    defect_formulas, no_defect_lemma, shifted_counter_index, step_lemmas,
    witness_from_trace,
)
from mlunif.formula import apply_subst, variables
from mlunif.workbench import (
    SUITE_TRIALS, NotUnifiable, Unifiable, Unknown, _suite_blocks, certificate_checks,
    check_on_random_models, check_unifiable_via_reduction, ground_unifiable,
    verdict_report,
)
import mlunif
from mlunif import cli, decision, encoding, propsat
from helpers import (
    check_each_random_model, offset_masks_by_pairs, random_formula, suite_models, union_of,
)


def test_zero_step_reachability_gives_trivial_unifier():
    prog = MinskyProgram(())
    verdict = check_unifiable_via_reduction(prog, Config(1, 0, 0), Config(1, 0, 0),
                                            10, L)
    assert isinstance(verdict, Unifiable)
    assert verdict.substitution == Substitution({1: BOT, 2: BOT})
    assert verdict.evidence["method"] == "tableau"
    assert verdict.trace_length == 0


def test_one_step_unifiable_with_tableau_evidence():
    prog = parse_program("1 -> 2,+1,0")
    verdict = check_unifiable_via_reduction(prog, Config(1, 0, 0), Config(2, 1, 0),
                                            10, L)
    assert isinstance(verdict, Unifiable)
    assert verdict.evidence["method"] == "tableau"


def test_unreachable_gives_certificate():
    prog = MinskyProgram(())
    verdict = check_unifiable_via_reduction(prog, Config(1, 0, 0), Config(2, 0, 0),
                                            10, L)
    assert isinstance(verdict, NotUnifiable)
    assert len(verdict.certificate.frame.points) == 18
    checks = certificate_checks(verdict.certificate, prog, Config(1, 0, 0),
                                Config(2, 0, 0), L)
    assert all(checks.values())


def test_certificate_survives_serialization():
    prog = parse_program("1 -> 2,-1,0 | 1,0,0")
    a, b = Config(1, 0, 0), Config(2, 0, 0)
    verdict = check_unifiable_via_reduction(prog, a, b, 10, L)
    assert isinstance(verdict, NotUnifiable)
    text = serialize_labeled_frame(verdict.certificate)
    reloaded = parse_labeled_frame(text)
    checks = certificate_checks(reloaded, prog, a, b, L)
    assert all(checks.values())


def counter_chain(steps):
    return "\n".join("%d -> %d,+1,0" % (k, k + 1) for k in range(1, steps + 1))


# the certificate instances C1-C4 of the benchmark (bench/workloads.json):
# program, start, target, mode, and (atoms, clauses) of each CNF that
# frame_valid hands to the solver: the instruction axioms, in hybrid mode
# as their L forms on R; the other checks have no variable and are decided
# by truth masks
CERTIFICATE_CNFS = [
    (counter_chain(20), "1,0,0", "99,0,0", L, [(300, 611)]),
    (counter_chain(40), "1,0,0", "99,0,0", L, [(580, 1191)]),
    ("1 -> 2,+1,0\n2 -> 1,-1,0 | 1,0,0", "1,0,0", "3,0,0", H2, [(37, 68)]),
    ("1 -> 2,+1,0\n2 -> 3,+1,0\n3 -> 4,0,+1\n4 -> 5,-1,0 | 9,0,0\n5 -> 6,0,-1 | 9,0,0",
     "1,0,0", "7,0,0", H2, [(73, 151)]),
]


@pytest.mark.parametrize("program, start, target, language, sizes", CERTIFICATE_CNFS,
                         ids=["C1", "C2", "C3", "C4"])
def test_certificate_cnf_sizes(monkeypatch, program, start, target, language, sizes):
    # a machine-independent pin of the frame-validity encoding: a change to
    # it shows here as a change of size
    prog, a, b = parse_program(program), parse_config(start), parse_config(target)
    lf = canonical_frame(prog, a, 100, language)
    cnfs = []
    solve = propsat.solve
    monkeypatch.setattr(propsat, "solve", lambda cnf: cnfs.append(cnf) or solve(cnf))
    assert all(certificate_checks(lf, prog, a, b, language).values())
    assert [(cnf.num_atoms, len(cnf.clauses)) for cnf in cnfs] == sizes


@pytest.mark.parametrize("program, start, target, language, sizes", CERTIFICATE_CNFS,
                         ids=["C1", "C2", "C3", "C4"])
def test_certificate_text_is_its_generators(program, start, target, language, sizes):
    # R is written as its transitive reduction and a hybrid frame's total S
    # as one line, and the text reads back as the same rows and labels
    lf = canonical_frame(parse_program(program), parse_config(start), 100, language)
    text = serialize_labeled_frame(lf)
    back = parse_labeled_frame(text)
    assert (back.frame, back.labels) == (lf.frame, lf.labels)
    lines = text.splitlines()
    generators = sum(bin(row).count("1") for row in transitive_reduction(lf.frame.r))
    assert sum(line.startswith("R*: ") for line in lines) == generators
    assert not any(line.startswith("R:") for line in lines)
    assert [line for line in lines if line.startswith("S:")] == ["S: all"] * (language == H2)


def test_every_generator_line_of_a_certificate_is_needed():
    # C1's certificate without any one of its `R*:` lines reads back as
    # another R: no generator line is redundant
    lf = canonical_frame(parse_program(CERTIFICATE_CNFS[0][0]), parse_config("1,0,0"), 100, L)
    lines = serialize_labeled_frame(lf).splitlines(keepends=True)
    generators = [k for k, line in enumerate(lines) if line.startswith("R*:")]
    assert len(generators) == 143
    for k in generators:
        back = parse_labeled_frame("".join(lines[:k] + lines[k + 1:]))
        assert back.frame.r != lf.frame.r, lines[k]


def test_a_certificate_without_its_total_s_fails():
    # without `S: all`, C3's certificate is no hybrid frame at all; with a
    # lone `S:` in its place it is one with an empty S, and a check fails
    program, start, target, language, _ = CERTIFICATE_CNFS[2]
    prog, a, b = parse_program(program), parse_config(start), parse_config(target)
    text = serialize_labeled_frame(canonical_frame(prog, a, 100, language))
    assert text.count("S: all\n") == 1
    with pytest.raises(LanguageMismatch):
        certificate_checks(parse_labeled_frame(text.replace("S: all\n", "")),
                           prog, a, b, language)
    checks = certificate_checks(parse_labeled_frame(text.replace("S: all\n", "S:\n")),
                                prog, a, b, language)
    assert not all(checks.values())


@pytest.mark.parametrize("mutant", [False, True], ids=["certificate", "mutant"])
@pytest.mark.parametrize("instance", [2, 3], ids=["C3", "C4"])
def test_hybrid_certificate_checks_are_the_h2_checks(instance, mutant):
    # on a total S the three facts are checked as L formulas on R alone;
    # they must be the verdicts of frame_valid on the H2 formulas over
    # (W, R, S), on the certificate and on it without its last configuration
    program, start, target, language, _ = CERTIFICATE_CNFS[instance]
    prog, a, b = parse_program(program), parse_config(start), parse_config(target)
    trace = run_trace(prog, a, 100)
    configs = trace.configs[:-1] if mutant else trace.configs
    lf = frame_for_configs(configs, truncation_level(prog, trace.configs), language)
    if not mutant:
        assert lf.frame == canonical_frame(prog, a, 100, language).frame
    checks = certificate_checks(lf, prog, a, b, language)
    assert checks.pop("s_total") is True
    assert checks == {
        fact: isinstance(frame_valid(lf.frame, phi), Valid) for fact, phi in (
            ("program_axioms_valid", ax_program(prog, language)),
            ("start_marker_globally_true", config_exists(a, language)),
            ("target_marker_globally_false", Not(config_exists(b, language))))}
    assert all(checks.values()) is not mutant


def test_hybrid_certificate_needs_a_total_s():
    # S total but for one edge, or empty as a lone `S:` reads, fails as
    # the named fact; no other fact is checked
    program, start, target, language, _ = CERTIFICATE_CNFS[2]
    prog, a, b = parse_program(program), parse_config(start), parse_config(target)
    lf = canonical_frame(prog, a, 100, language)
    s = list(lf.frame.s)
    s[-1] ^= 1
    one_short = LabeledFrame(Frame(lf.frame.points, lf.frame.r, tuple(s)), lf.labels,
                             lf.truncation)
    lone = parse_labeled_frame(serialize_labeled_frame(lf).replace("S: all\n", "S:\n"))
    for frame in (one_short, lone):
        assert certificate_checks(frame, prog, a, b, language) == {"s_total": False}


def test_frame_valid_decides_the_nominal_agreement_alone(monkeypatch):
    # `nom_formula()` has one nominal and no variable; on C3's frame one CNF
    # finds it valid with S total, and falsified with S one edge short
    program, start, _, language, _ = CERTIFICATE_CNFS[2]
    frame = canonical_frame(parse_program(program), parse_config(start), 100, language).frame
    nom = encoding.nom_formula()
    cnfs = []
    solve = propsat.solve
    monkeypatch.setattr(propsat, "solve", lambda cnf: cnfs.append(cnf) or solve(cnf))
    assert isinstance(frame_valid(frame, nom), Valid)
    s = list(frame.s)
    s[-1] ^= 1
    got = frame_valid(Frame(frame.points, frame.r, tuple(s)), nom)
    assert isinstance(got, CounterModel)
    assert not model_check(got.model, got.point, nom)
    assert len(cnfs) == 2


def test_certificate_cnf_grows_with_the_generator_edges(monkeypatch):
    # the program axioms' CNF on an L certificate has at most 20 literals
    # per generator edge of R (its transitive reduction), however long
    # the towers: the closure's edges grow with the square of their height
    prog = parse_program("1 -> 2,-1,0 | 3,0,0")
    cnfs = []
    solve = propsat.solve
    monkeypatch.setattr(propsat, "solve", lambda cnf: cnfs.append(cnf) or solve(cnf))
    for start, points in (("1,50,0", 166), ("1,100,0", 316), ("1,200,0", 616)):
        frame = canonical_frame(prog, parse_config(start), 1000, L).frame
        assert len(frame.points) == points
        assert isinstance(frame_valid(frame, ax_program(prog, L)), Valid)
        generators = sum(bin(row).count("1") for row in transitive_reduction(frame.r))
        cnf = cnfs.pop()
        assert sum(len(clause) for clause in cnf.clauses) <= 20 * generators


@pytest.mark.parametrize("language", [L, H2])
def test_certificate_without_the_last_configuration_fails(language):
    # a certificate must be able to fail: on C1's canonical frame without
    # its last configuration point, the last instruction's antecedent can
    # hold while its consequent holds nowhere, and the pruned encoding must
    # keep the pairs that carry that refutation
    prog, start = parse_program(counter_chain(20)), parse_config("1,0,0")
    trace = run_trace(prog, start, 100)
    lf = frame_for_configs(trace.configs[:-1], truncation_level(prog, trace.configs),
                           language)
    checks = certificate_checks(lf, prog, start, parse_config("99,0,0"), language)
    assert checks["program_axioms_valid"] is False
    axioms = ax_program(prog, language)
    got = frame_valid(lf.frame, axioms)
    assert isinstance(got, CounterModel)
    assert not model_check(got.model, got.point, axioms)


def test_unknown_when_bound_exhausted():
    prog = parse_program("1 -> 1,+1,0")
    verdict = check_unifiable_via_reduction(prog, Config(1, 0, 0), Config(2, 0, 0),
                                            10, L)
    assert isinstance(verdict, Unknown)


def test_mode_agreement_on_verdict_kind():
    cases = [
        ("", "1,0,0", "1,0,0"),
        ("1 -> 2,+1,0", "1,0,0", "2,1,0"),
        ("", "1,0,0", "2,0,0"),
        ("1 -> 2,-1,0 | 1,0,0", "1,0,0", "3,0,0"),
    ]
    for text, a, b in cases:
        prog = parse_program(text)
        start = Config(*map(int, a.split(",")))
        target = Config(*map(int, b.split(",")))
        uni = check_unifiable_via_reduction(prog, start, target, 10, L)
        hyb = check_unifiable_via_reduction(prog, start, target, 10, H2)
        assert type(uni) is type(hyb), (text, a, b)


# the suite benchmark's 3-step run, one step past the tableau's limit
S3_PROGRAM = "1 -> 2,+1,0\n2 -> 3,0,+1\n3 -> 4,+1,0"


def test_hybrid_unifiable_uses_random_suite_beyond_trivial_traces():
    # a hybrid run goes to the suite by its length alone, as a universal one
    prog = parse_program("1 -> 2,+1,0")
    verdict = check_unifiable_via_reduction(prog, Config(1, 0, 0), Config(2, 1, 0),
                                            10, H2)
    assert isinstance(verdict, Unifiable)
    assert verdict.evidence["method"] == "tableau"
    verdict = check_unifiable_via_reduction(parse_program(S3_PROGRAM), Config(1, 0, 0),
                                            Config(4, 2, 1), 10, H2)
    assert isinstance(verdict, Unifiable)
    assert verdict.trace_length == 3
    assert verdict.evidence["method"] == "random_models"
    assert verdict.evidence["trials"] == SUITE_TRIALS


def test_random_suite_reports_failures():
    # a diamond of truth fails wherever a random frame has a dead end
    phi = parse("<>true")
    checked, failure = check_on_random_models(phi, L, seed=5, trials=400,
                                              max_points=6)
    assert failure is not None
    model, point = failure
    assert not model_check(model, point, phi)
    checked, failure = check_on_random_models(parse("p1 | ~p1"), L,
                                              seed=5, trials=50, max_points=6)
    assert failure is None and checked == 50


def marker_mutant(trace, language, step, counter):
    """The unifier of `trace` with the marker index of one counter at one
    step shifted up by one."""
    defects = defect_formulas(trace, language)
    return Substitution({
        c: disj([And(d, tower(c, shifted_counter_index(trace, i, c)
                              + (i == step and c == counter)))
                 for i, d in enumerate(defects)])
        for c in (1, 2)
    })


def test_one_pass_suite_matches_model_by_model_reference():
    rng = random.Random(3)
    cases = []
    for language in (L, H2):
        cases += [(random_formula(rng, 4, 2, language, num_noms=1), language, 40)
                  for _ in range(60)]
    # the length-3 runs of the suite benchmark, whose mutants the suite misses
    program = parse_program(S3_PROGRAM)
    start, target = Config(1, 0, 0), Config(4, 2, 1)
    trace = reaches(program, start, target, 10).trace
    for language in (L, H2):
        reduction = psi(program, start, target, language)
        sigmas = [witness_from_trace(trace, language)]
        sigmas += [marker_mutant(trace, language, i, c)
                   for i in range(len(trace)) for c in (1, 2)]
        formulas = [apply_subst(sigma, reduction) for sigma in sigmas]
        assert len(set(formulas)) == 7
        cases += [(phi, language, 100) for phi in formulas]
    failed = 0
    for index, (phi, language, trials) in enumerate(cases):
        args = (phi, language, index, trials, 6)
        checked, failure = check_on_random_models(*args)
        assert (checked, failure) == check_each_random_model(*args), (index, phi)
        failed += failure is not None
    assert len(cases) // 2 <= failed < len(cases)


# sha256 of the serialize_frame + serialize_valuation text of
# `suite_models(1, 200, 8, language, [1, 2])`, recorded before the suite drew
# its models straight into a disjoint union: a change in how the suite draws
# changes the models it checks
_SUITE_DIGEST = {
    L: "f35d3f0cff5e7d75ecc1790afcf9508d8d9900e4ff367248414db0c7c2a1e031",
    H2: "587288c051f321dfedb09b16481a3a29eb754a7ee0a1d09d62c276bd1f0a2dd6",
}


def test_suite_draws_the_recorded_models():
    for language, digest in _SUITE_DIGEST.items():
        text = "".join(serialize_frame(model.frame) + serialize_valuation(model)
                       for model in suite_models(1, 200, 8, language, [1, 2]))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_suite_union_matches_the_fold_of_its_models():
    def nonzero(edges):
        return {m: {d: e for d, e in masks.items() if e} for m, masks in edges.items()}

    for language in (L, H2):
        for var_indices in ((), (1,), (1, 2, 3)):
            for trials in (1, 97):
                for max_points in (1, 8):
                    draw = (trials + max_points, trials, max_points, language, var_indices)
                    union = DisjointUnion(_suite_blocks(*draw))
                    models = list(suite_models(*draw))
                    folded = union_of(models)
                    assert union.kind == folded.kind == language
                    assert union.offsets == folded.offsets
                    assert union.width == folded.width == sum(len(m.frame.points)
                                                               for m in models)
                    assert nonzero(union.edges) == nonzero(folded.edges)
                    assert nonzero(union.edges) == nonzero(offset_masks_by_pairs(models))
                    assert union.symbols == folded.symbols
                    assert union.bound == folded.bound
                    # the symbols point by point, block after block
                    symbols = {}
                    for model, offset in zip(models, union.offsets):
                        for symbol, mask in model.valuation.items():
                            symbols[symbol] = symbols.get(symbol, 0) | mask << offset
                    assert union.symbols == symbols
                    assert union.bound == dict.fromkeys(symbols, trials)
    for trials, max_points in ((0, 8), (5, 0)):
        with pytest.raises(ValueError):
            check_on_random_models(parse("p1"), L, 0, trials, max_points)


def test_one_pass_suite_raises_as_model_by_model_reference():
    for phi, language, error in ((parse("n2 | p1", H2), H2, UnboundSymbol),
                                 (parse("[u]p1"), H2, LanguageMismatch),
                                 (parse("[h]p1", H2), L, LanguageMismatch)):
        for check in (check_on_random_models, check_each_random_model):
            with pytest.raises(error):
                check(phi, language, 0, 5, 4)


def test_ground_unifiable_examples():
    sigma = ground_unifiable(parse("[u]p1"))
    assert sigma == Substitution({1: TOP})
    assert ground_unifiable(parse("p1 & ~p1")) is None
    # ground substitutions come false-first
    sigma = ground_unifiable(parse("p1 | ~p1"))
    assert sigma == Substitution({1: BOT})
    sigma = ground_unifiable(parse("<h>n1 -> <h>n1", "H2"))
    assert sigma == Substitution({})


def test_pipeline_unifier_is_ground_closed():
    prog = parse_program("1 -> 2,0,+1")
    a, b = Config(1, 0, 0), Config(2, 0, 1)
    verdict = check_unifiable_via_reduction(prog, a, b, 10, L)
    bound_formula = apply_subst(verdict.substitution, psi(prog, a, b, L))
    assert variables(bound_formula) == set()


def test_verdict_report_fields():
    prog = parse_program("1 -> 2,+1,0")
    a, b = Config(1, 0, 0), Config(2, 1, 0)
    verdict = check_unifiable_via_reduction(prog, a, b, 10, L)
    report = verdict_report(verdict, prog, a, b, 10, L)
    assert report["verdict"] == "unifiable"
    assert report["mode"] == "universal"
    assert report["trace_length"] == 1
    assert report["evidence"]["method"] == "tableau"
    assert report["formula_sizes"]["psi"] > 0
    json.dumps(report)


# --- command line ----------------------------------------------------------------

def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_reduce_and_verify(tmp_path, capsys):
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 2,+1,0\n")
    out = tmp_path / "out"
    code = run_cli("reduce", "--program", str(program), "--start", "1,0,0",
                   "--target", "2,1,0", "--mode", "universal",
                   "--out", str(out))
    assert code == 0
    assert (out / "psi.txt").exists()
    assert (out / "sigma.txt").exists()

    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "2,1,0", "--bound", "10", "--out", str(out / "verify"))
    assert code == 0
    report = json.loads((out / "verify" / "report.json").read_text())
    assert report["verdict"] == "unifiable"


def test_cli_verify_sigma_text_is_linear(tmp_path, capsys):
    # the unifier of a 200-step run written as a tree is many MB
    steps = 200
    program = tmp_path / "prog.txt"
    program.write_text("".join("%d -> %d,+1,0\n" % (k, k + 1) for k in range(1, steps + 1)))
    out = tmp_path / "out"
    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "%d,%d,0" % (steps + 1, steps), "--out", str(out))
    assert code == 0
    assert (out / "sigma.txt").stat().st_size < 50_000


def test_cli_verify_not_unifiable_writes_certificate(tmp_path, capsys):
    program = tmp_path / "prog.txt"
    program.write_text("")
    out = tmp_path / "out"
    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "2,0,0", "--bound", "10", "--out", str(out))
    assert code == 0
    cert = (out / "certificate.frame").read_text()
    assert "label:" in cert
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "not_unifiable"


def test_cli_frame_modelcheck_roundtrip(tmp_path, capsys):
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 2,+1,0\n")
    frame_file = tmp_path / "frame.txt"
    code = run_cli("frame", "--program", str(program), "--start", "1,0,0",
                   "--bound", "10", "--out", str(frame_file))
    assert code == 0
    capsys.readouterr()
    code = run_cli("modelcheck", "--frame", str(frame_file), "--point", "b",
                   "--formula", "[]false")
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


@pytest.mark.parametrize("mode, language", [("universal", L), ("hybrid", H2)])
def test_cli_frame_text_reads_back(tmp_path, capsys, mode, language):
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 2,-1,0 | 3,0,0\n")
    code = run_cli("frame", "--program", str(program), "--start", "1,4,0", "--mode", mode)
    assert code == 0
    back = parse_labeled_frame(capsys.readouterr().out)
    lf = canonical_frame(parse_program("1 -> 2,-1,0 | 3,0,0"), Config(1, 4, 0), 100, language)
    assert (back.frame, back.labels) == (lf.frame, lf.labels)


def test_cli_modelcheck_names_a_point_outside_the_frame(tmp_path, capsys):
    frame_file = tmp_path / "frame.txt"
    frame_file.write_text("points: a b\nR: a b\n")
    code = run_cli("modelcheck", "--frame", str(frame_file), "--point", "z",
                   "--formula", "true")
    assert code == 1
    assert capsys.readouterr() == ("", "error: point z is not in the frame\n")


def test_cli_valid_and_sat(capsys):
    assert run_cli("valid", "--formula", "[u]p1 -> []p1") == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert run_cli("sat", "--formula", "<h>(n1 & p1)") == 0
    assert "satisfiable" in capsys.readouterr().out
    assert run_cli("sat", "--formula", "(p1 & p2) | n1") == 0
    assert capsys.readouterr().out.startswith("satisfiable")
    assert run_cli("valid", "--formula", "p1 -> []p1") == 0
    assert "counter-model" in capsys.readouterr().out


def test_cli_ground_unify(capsys):
    assert run_cli("ground-unify", "--formula", "[u]p1") == 0
    assert "p1 := true" in capsys.readouterr().out
    assert run_cli("ground-unify", "--formula", "p1 & ~p1") == 0
    assert "not ground-unifiable" in capsys.readouterr().out


def test_cli_usage_error_exit_code(tmp_path, capsys):
    assert run_cli("reduce", "--program", "/nonexistent") == 1
    assert run_cli("nonsense") == 1
    assert run_cli("valid", "--formula", "p1 &") == 1
    # malformed input that the parsers see: one error line, no traceback
    frame = tmp_path / "frame.txt"
    frame.write_text("points: a b\nR: a b\n")
    bad = tmp_path / "bad.txt"

    def modelcheck(*files, formula="p1"):
        return ("modelcheck", "--point", "a", "--formula", formula) + files

    bad_frame = modelcheck("--frame", str(bad))
    bad_valuation = modelcheck("--frame", str(frame), "--valuation", str(bad))
    cases = [
        (None, ("valid", "--formula", "p0")),
        (None, ("sat", "--formula", "[u]p1 & n1")),
        (None, modelcheck("--frame", str(frame), formula="n0")),
        ("points:\n", bad_frame),
        ("points: a a\n", bad_frame),
        ("points: a b\npoints: a b c\n", bad_frame),
        ("points: a\nlabel: a a(3,0)\n", bad_frame),
        ("px = {a}\n", bad_valuation),
        ("p0 = {a}\n", bad_valuation),
        ("n0 = a\n", bad_valuation),
        ("p1 = {a, z}\n", bad_valuation),
        ("n1 = a b\n", bad_valuation),
        # malformed generator lines, each named by its line
        ("points: a b\nlabel: a alpha\nR*: a\n", bad_frame),
        ("points: a b\nlabel: a alpha\nR*: a z\n", bad_frame),
        ("points: a b\nlabel: a alpha\nS: all a\n", bad_frame),
        # the bad edge stands on line 4, after two label lines
        ("points: a b\nlabel: a alpha\nlabel: b beta\nR: a\n", bad_frame),
    ]
    capsys.readouterr()
    for text, argv in cases:
        if text is not None:
            bad.write_text(text)
        assert run_cli(*argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        if argv is bad_frame:  # each bad frame text goes wrong on its last line
            assert "on line %d" % text.count("\n") in lines[0], lines


@pytest.mark.parametrize("flag, value", [("--bound", "-1"), ("--budget", "0")])
def test_cli_verify_rejects_out_of_range_counts(tmp_path, capsys, flag, value):
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 2,+1,0\n")
    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "2,1,0", flag, value)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["mlunif verify: error: argument %s: must be at least %d, "
                                "got %s (see --help)" % (flag, flag != "--bound", value)]


@pytest.mark.parametrize("command", ["valid", "sat", "ground-unify"])
def test_cli_rejects_budget_below_one(capsys, command):
    code = run_cli(command, "--formula", "p1", "--budget", "-3")
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["mlunif %s: error: argument --budget: must be at least 1, "
                                "got -3 (see --help)" % command]


def test_cli_exit_code_resource_limit(capsys):
    code = run_cli("sat", "--formula",
                   "<>" * 12 + "p1", "--budget", "3")
    assert code == 2
    assert capsys.readouterr().err == (
        "resource limit: tableau budget exceeded: 4 node expansions, limit 3\n")


def test_cli_verify_stops_at_the_step_budget(tmp_path, capsys):
    # the counter grows without end, so the run takes every step --bound allows
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 1,+1,0\n")
    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "2,0,0", "--bound", "200000")
    assert code == 2
    assert capsys.readouterr() == (
        "", "resource limit: bounded run budget exceeded: 100001 steps, limit 100000\n")


def test_cli_verify_stops_the_run_at_the_target(tmp_path, capsys):
    # the target comes at step 5, so a bound past the step budget is harmless
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 1,+1,0\n")
    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "1,5,0", "--bound", "200000")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "unifiable"
    assert report["trace_length"] == 5


def test_cli_verify_falls_back_to_the_suite_when_a_lemma_runs_out(tmp_path, capsys):
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 2,0,+1\n")
    out = tmp_path / "out"
    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "2,0,1", "--budget", "3", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "unifiable"
    assert report["evidence"]["method"] == "random_models"


def test_cli_verify_writes_the_whole_suite_evidence(tmp_path, capsys):
    # the suite's one configuration, and the seed it was drawn from
    program = tmp_path / "prog.txt"
    program.write_text(S3_PROGRAM + "\n")
    out = tmp_path / "out"
    code = run_cli("verify", "--program", str(program), "--start", "1,0,0",
                   "--target", "4,2,1", "--mode", "hybrid", "--seed", "7", "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["trace_length"] == 3
    assert report["evidence"] == {"max_points": 8, "method": "random_models", "seed": 7,
                                  "trials": 1000}


# The tableau instances of the benchmark, with the Solver.solve calls of
# their one validity call (227/224/278 before each node's solve decided
# only the node's cone)
TABLEAU_INSTANCES = {
    "T1": ("1 -> 2,0,-1 | 3,0,0", "1,0,1", "2,0,0", 234),
    "T2": ("1 -> 2,0,+1", "1,0,0", "2,0,1", 241),
    "T3": ("1 -> 2,-1,0 | 3,0,0", "1,1,0", "2,0,0", 271),
}


def counted_verify(monkeypatch, program, start, target):
    """The evidence method of one universal-mode run of the pipeline, its
    number of Solver.solve calls and the formulas it asked decision.valid
    about."""
    solves, goals = [0], []
    solve, valid = propsat.Solver.solve, decision.valid

    def counted_solve(self, *args):
        solves[0] += 1
        return solve(self, *args)

    def recorded_valid(phi, *args, **kwargs):
        goals.append(phi)
        return valid(phi, *args, **kwargs)

    monkeypatch.setattr(propsat.Solver, "solve", counted_solve)
    monkeypatch.setattr(decision, "valid", recorded_valid)
    verdict = check_unifiable_via_reduction(
        parse_program(program), parse_config(start), parse_config(target), 100, L)
    monkeypatch.undo()
    return verdict.evidence["method"], solves[0], goals


@pytest.mark.parametrize("program, start, target",
                         [case[:3] for case in TABLEAU_INSTANCES.values()])
def test_universal_tableau_evidence_proves_lemmas_not_the_whole_formula(
        monkeypatch, program, start, target):
    method, solves, goals = counted_verify(monkeypatch, program, start, target)
    assert method == "tableau"
    prog, a, b = parse_program(program), parse_config(start), parse_config(target)
    trace = reaches(prog, a, b, 100).trace
    bound = apply_subst(witness_from_trace(trace, L), psi(prog, a, b, L))
    # one call, on the lemma conjunction, never on the whole formula
    assert goals == [conj(step_lemmas(trace) + [no_defect_lemma(trace)])]
    assert goals[0] is not bound
    # the whole formula took 2,241-2,585 solves on these instances
    assert 0 < solves <= 400


def test_tableau_solve_counts_do_not_depend_on_run_order(monkeypatch):
    # each validity call numbers its formula's normal form afresh, so what
    # ran before in the process cannot change the search
    pinned = {name: case[3] for name, case in TABLEAU_INSTANCES.items()}
    for order in (list(TABLEAU_INSTANCES), list(reversed(TABLEAU_INSTANCES))):
        counts = {name: counted_verify(monkeypatch, *TABLEAU_INSTANCES[name][:3])[1]
                  for name in order}
        assert counts == pinned, order


def test_ku_solves_decide_only_the_node_cone(monkeypatch):
    # the 12-step counting run's lemma conjunction, past the tableau's step
    # limit: each node's solve decides only the atoms its content reaches,
    # 10.9 decisions per solve (69.4 when every solve decided all 196 atoms)
    trace = reaches(parse_program("1 -> 1,+1,0"), Config(1, 0, 0), Config(1, 12, 0), 100).trace
    goal = conj(step_lemmas(trace) + [no_defect_lemma(trace)])
    solves, decisions = [0], [0]
    solve = propsat.Solver.solve

    def counted_solve(self, *args):
        before = self.decisions
        result = solve(self, *args)
        solves[0] += 1
        decisions[0] += self.decisions - before
        return result

    monkeypatch.setattr(propsat.Solver, "solve", counted_solve)
    assert isinstance(decision.valid(goal), Valid)
    assert solves[0] > 0
    assert decisions[0] <= 20 * solves[0], (decisions[0], solves[0])


@pytest.mark.parametrize("program, start, target, steps", [
    ("1 -> 2,+1,0", "1,0,0", "1,0,0", 0),
    TABLEAU_INSTANCES["T1"][:3] + (1,),
    TABLEAU_INSTANCES["T2"][:3] + (1,),
    TABLEAU_INSTANCES["T3"][:3] + (1,),
    ("1 -> 2,+1,0\n2 -> 3,-1,0 | 4,0,0", "1,0,0", "3,0,0", 2),
], ids=["0-steps", "1-step-T1", "1-step-T2", "1-step-T3", "2-steps"])
def test_cli_verify_proves_a_short_hybrid_run_by_its_k_lemmas(
        tmp_path, capsys, monkeypatch, program, start, target, steps):
    # the lemmas are K formulas, so the hybrid proof never asks the hybrid
    # tableau about the whole formula
    languages = []
    valid = decision.valid

    def recorded_valid(phi, *args, **kwargs):
        languages.append(language_of(phi))
        return valid(phi, *args, **kwargs)

    monkeypatch.setattr(decision, "valid", recorded_valid)
    path = tmp_path / "prog.txt"
    path.write_text(program + "\n")
    code = run_cli("verify", "--program", str(path), "--start", start,
                   "--target", target, "--mode", "hybrid")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trace_length"] == steps
    assert report["evidence"] == {"method": "tableau"}
    assert languages and H2 not in languages


def test_cli_frame_stops_at_the_point_budget(tmp_path, capsys, monkeypatch):
    # from 1,700,0 the run has two configurations and the towers reach level
    # 701, so the frame would have 8 + 3 * 702 + 2 points; the check comes
    # before R's transitive closure
    program = tmp_path / "prog.txt"
    program.write_text("1 -> 2,-1,0 | 3,0,0\n")
    monkeypatch.setattr(encoding, "transitive_closure", None)
    code = run_cli("frame", "--program", str(program), "--start", "1,700,0")
    assert code == 2
    assert capsys.readouterr() == (
        "", "resource limit: canonical frame budget exceeded: 2116 points, limit 2000\n")


# Installs the benchmark's tracer, which wraps functions of every layer by
# module attribute, runs `verify` on certificate instance C3 (frame
# validity) and on a reachable target in hybrid mode past the tableau's step
# limit (random models), and prints the per-layer metrics.
_TRACED_VERIFY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from mlunif import cli
tracer = tracing.Tracer()
tracer.install()
main = tracer.wrap(cli, "main", "cli.main")
assert main(["verify", "--program", sys.argv[2], "--start", "1,0,0",
             "--target", "3,0,0", "--mode", "hybrid", "--bound", "100",
             "--out", sys.argv[4] + "/a"]) == 0
assert main(["verify", "--program", sys.argv[3], "--start", "1,0,0",
             "--target", "4,2,1", "--mode", "hybrid", "--out", sys.argv[4] + "/b"]) == 0
print(json.dumps(tracer.layer_metrics()))
"""


def test_bench_tracer_wraps_current_names(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlunif.__file__)))
    bench = os.path.join(os.path.dirname(src), "bench")
    certificate, suite = tmp_path / "c3.txt", tmp_path / "s3.txt"
    c3, _, _, _, [c3_cnf] = CERTIFICATE_CNFS[2]
    certificate.write_text(c3 + "\n")
    suite.write_text(S3_PROGRAM + "\n")
    out = subprocess.run(
        [sys.executable, "-S", "-c", _TRACED_VERIFY, bench, str(certificate), str(suite),
         str(tmp_path)],
        env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])
    # the one CNF of the run, counted through the propsat.solve wrapper: a
    # CNF solved past the wrapper would leave these short of the pin
    assert (metrics["kripke.cnf_atoms"], metrics["kripke.cnf_clauses"]) == c3_cnf
    assert metrics["kripke.truth_mask_calls"] > 0
    assert metrics["formula.language_of_calls"] > 0
    assert metrics["formula.text_bytes"] > 0
    assert metrics["encoding.frame_points"] > 0
