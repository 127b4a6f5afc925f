import hashlib
import itertools
import random
import time

import pytest

from mlunif.errors import ParseError, TruncationUnsound
from mlunif.formula import (
    H2, L, TOP, And, Box, Diamond, Implies, Modality, Nominal, Not, Or, Var,
    language_of, nominals, parse, postorder, variables,
)
from mlunif.kripke import Frame, Model, model_check, transitive_closure
from mlunif.minsky import Config, Dec, Inc, MinskyProgram, parse_program
from mlunif.encoding import (
    LabeledFrame, ax_instruction, ax_program, canonical_frame, config_formula,
    epsilon, exists, marker, nom_formula, parse_labeled_frame, pi_tau, psi,
    serialize_labeled_frame, tower, PI1, PI2, TAU1, TAU2,
)
from helpers import modal_depth, points_where, random_frame, successors

REL = Modality.REL


def conjuncts(phi):
    """Flatten a left-associated conjunction."""
    out = []
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.append(f.right)
            stack.append(f.left)
        else:
            out.append(f)
    return out


def test_alpha_beta_definitions():
    assert marker("alpha") == parse("<>true & []<>true")
    assert marker("beta") == parse("[]false")


def test_gamma_delta_shapes():
    alpha, beta = marker("alpha"), marker("beta")
    assert conjuncts(marker("gamma")) == [
        Diamond(REL, alpha), Diamond(REL, beta),
        Not(Diamond(REL, Diamond(REL, beta))),
    ]


def test_tower_level_one_expansion():
    # one unfolding of the recurrence: exactly the three negated conjuncts
    t10 = tower(1, 0)
    expected = [
        Diamond(REL, t10), Diamond(REL, t10),
        Not(Diamond(REL, Diamond(REL, t10))),
        Not(Diamond(REL, tower(0, 0))),
        Not(Diamond(REL, tower(2, 0))),
    ]
    assert conjuncts(tower(1, 1)) == expected


def test_towers_are_variable_free_l_formulas():
    for i in range(3):
        for j in range(4):
            t = tower(i, j)
            assert variables(t) == set()
            assert nominals(t) == set()
            assert language_of(t) is None  # usable in both languages


def test_epsilon_shape_and_depth():
    t10, t20 = tower(1, 0), tower(2, 0)
    eps = epsilon(0, t10, t20)
    expected = max(modal_depth(tower(0, 1)) + 1, modal_depth(tower(0, 0)) + 1,
                   modal_depth(t10) + 2, modal_depth(t20) + 2)
    assert modal_depth(eps) == expected
    parts = conjuncts(eps)
    assert parts[0] == Diamond(REL, tower(0, 0))
    assert parts[1] == Not(Diamond(REL, tower(0, 1)))
    assert parts[2:] == [
        Diamond(REL, t10), Not(Diamond(REL, Diamond(REL, t10))),
        Diamond(REL, t20), Not(Diamond(REL, Diamond(REL, t20))),
    ]
    assert variables(epsilon(1, pi_tau(PI1), pi_tau(TAU1))) == {1, 2}


def test_pi_tau_definitions():
    t00, t10, t20 = tower(0, 0), tower(1, 0), tower(2, 0)
    p1 = Var(1)
    assert conjuncts(pi_tau(PI1)) == [
        Or(Diamond(REL, t10), t10), Not(Diamond(REL, t00)),
        Not(Diamond(REL, t20)), p1, Not(Diamond(REL, p1)),
    ]
    assert variables(pi_tau(PI2)) == {1}
    assert variables(pi_tau(TAU1)) == {2}
    assert variables(pi_tau(TAU2)) == {2}
    assert conjuncts(pi_tau(TAU2))[3] == Diamond(REL, Var(2))


def test_ax_instruction_inc1():
    got = ax_instruction(Inc(1, 3, 4), L)
    expected = Implies(
        exists(epsilon(3, pi_tau(PI1), pi_tau(TAU1)), L),
        exists(epsilon(4, pi_tau(PI2), pi_tau(TAU1)), L),
    )
    assert got == expected


def test_ax_instruction_inc2():
    got = ax_instruction(Inc(2, 1, 2), L)
    assert got.left == exists(epsilon(1, pi_tau(PI1), pi_tau(TAU1)), L)
    assert got.right == exists(epsilon(2, pi_tau(PI1), pi_tau(TAU2)), L)


def test_ax_instruction_dec1_zero_branch_conjunct():
    got = ax_instruction(Dec(1, 3, 4, 9), L)
    assert isinstance(got, And)
    assert got.left.left == exists(epsilon(3, pi_tau(PI2), pi_tau(TAU1)), L)
    assert got.left.right == exists(epsilon(4, pi_tau(PI1), pi_tau(TAU1)), L)
    assert got.right.left == exists(epsilon(3, tower(1, 0), pi_tau(TAU1)), L)
    assert got.right.right == exists(epsilon(9, tower(1, 0), pi_tau(TAU1)), L)


def test_ax_instruction_dec2_uses_counter_two_marker():
    got = ax_instruction(Dec(2, 1, 2, 3), L)
    assert got.right.left == exists(epsilon(1, pi_tau(PI1), tower(2, 0)), L)
    assert got.right.right == exists(epsilon(3, pi_tau(PI1), tower(2, 0)), L)


def test_hybrid_mode_uses_surrogate_everywhere():
    got = ax_instruction(Inc(1, 1, 2), H2)
    seen = [f for f in postorder(got)
            if isinstance(f, Diamond) and f.modality is Modality.HYB]
    assert seen, "surrogate diamonds expected"
    assert nominals(got) == {1}
    assert language_of(got) == "H2"
    # universal mode output has no nominal and no [h]
    uni = ax_instruction(Inc(1, 1, 2), L)
    assert nominals(uni) == set()
    assert language_of(uni) == "L"
    # the user-facing mode names are not languages
    with pytest.raises(ValueError):
        ax_instruction(Inc(1, 1, 2), "universal")


def test_nom_formula_counts():
    # one conjunct per nonempty word of length at most 6 over the two boxes
    # and one per such word over the two diamonds: 2 x 126 distinct words
    nom = nom_formula()
    assert len(conjuncts(nom)) == 252
    dh_n = Diamond(Modality.HYB, Nominal(1))
    words = set()
    for part in conjuncts(nom):
        assert part.left == dh_n or part.right == dh_n
        f, kinds, word = part.right if part.left == dh_n else part.left, set(), ()
        while f != dh_n:
            kinds.add(type(f))
            f, word = f.sub, word + (f.modality,)
        [kind] = kinds
        words.add((kind, word))
    every = [word for length in range(1, 7)
             for word in itertools.product((Modality.REL, Modality.HYB), repeat=length)]
    assert len(every) == 126
    assert words == {(kind, word) for kind in (Box, Diamond) for word in every}


def test_nominal_agreement_reaches_every_variable_of_a_hybrid_axiom():
    # the one numeric condition of the hybrid step-lemma proof: the words of
    # nom_formula() reach every point where an instruction axiom reads a
    # variable, so S-access to n1 holds there
    longest_word = modal_depth(nom_formula(), Nominal) - 1  # under the word, <h>n1
    assert longest_word == 6
    for ins in (Inc(1, 1, 2), Inc(2, 1, 2), Dec(1, 1, 2, 3), Dec(2, 1, 2, 3)):
        assert modal_depth(ax_instruction(ins, H2), Var) <= longest_word, ins


def test_ax_program_universal_counts():
    prog = parse_program("1 -> 2,+1,0\n2 -> 3,0,+1")
    axp = ax_program(prog, L)
    assert len(conjuncts(axp)) == 2
    assert ax_program(MinskyProgram(()), L) == TOP
    assert ax_program(MinskyProgram(()), H2) == nom_formula()


def test_psi_shape():
    prog = parse_program("1 -> 2,+1,0")
    a, b = Config(1, 0, 0), Config(2, 1, 0)
    phi = psi(prog, a, b, L)
    assert variables(phi) <= {1, 2}
    assert phi.right == exists(config_formula(b), L)
    assert variables(phi.right) == set()
    assert phi.left.right == exists(config_formula(a), L)


def test_canonical_frame_point_count_empty_program():
    lf = canonical_frame(MinskyProgram(()), Config(1, 0, 0), 10, L)
    # skeleton 8, towers 3 * (N + 1) with N = 2, one reached configuration
    assert lf.truncation == 2
    assert len(lf.frame.points) == 8 + 3 * 3 + 1
    assert lf.labels["e(1,0,0)"] == "e(1,0,0)"


def test_canonical_frame_only_reflexive_point_is_a():
    lf = canonical_frame(parse_program("1 -> 2,+1,0"), Config(1, 0, 0), 10, L)
    loops = [x for x, ys in successors(lf.frame.points, lf.frame.r).items() if x in ys]
    assert loops == ["a"]


def test_canonical_frame_e_point_successors():
    lf = canonical_frame(MinskyProgram(()), Config(1, 0, 0), 10, L)
    succ = successors(lf.frame.points, lf.frame.r)["e(1,0,0)"]
    assert succ == {"a0_1", "a0_0", "a1_0", "a2_0", "g", "d", "g1", "d1",
                    "g2", "d2", "a", "b"}


def test_canonical_frame_refuses_inconclusive_runs():
    diverging = parse_program("1 -> 1,+1,0")
    with pytest.raises(TruncationUnsound):
        canonical_frame(diverging, Config(1, 0, 0), 10, L)


def test_canonical_frame_hybrid_s_is_full_product():
    lf = canonical_frame(MinskyProgram(()), Config(1, 0, 0), 10, H2)
    n = len(lf.frame.points)
    assert lf.frame.s == ((1 << n) - 1,) * n


def test_characteristic_exactness_small():
    prog = parse_program("1 -> 2,+1,0")
    lf = canonical_frame(prog, Config(1, 0, 0), 10, L)
    model = Model(lf.frame, {})
    for point in lf.frame.points:
        formula = marker(lf.labels[point])
        assert points_where(model, formula) == {point}, point


def test_labeled_frame_roundtrip():
    lf = canonical_frame(parse_program("1 -> 2,0,+1"), Config(1, 0, 0), 10, H2)
    text = serialize_labeled_frame(lf)
    back = parse_labeled_frame(text)
    assert back.frame == lf.frame
    assert back.labels == lf.labels


def test_labeled_frame_text_is_pinned():
    # R is written as its 23 generators (`R*:` lines): the skeleton's edges,
    # alpha's loop, each tower point's edge down and the configuration
    # point's three markers; the digest pins the whole text
    lf = canonical_frame(MinskyProgram(()), Config(1, 0, 0), 10, L)
    text = serialize_labeled_frame(lf)
    assert text == (
        "points: a b g g1 g2 d d1 d2 a0_0 a0_1 a0_2 a1_0 a1_1 a1_2 a2_0 a2_1 a2_2 e(1,0,0)\n"
        "R*: a a\nR*: a0_0 d\nR*: a0_0 g\nR*: a0_1 a0_0\nR*: a0_2 a0_1\n"
        "R*: a1_0 d1\nR*: a1_0 g1\nR*: a1_1 a1_0\nR*: a1_2 a1_1\n"
        "R*: a2_0 d2\nR*: a2_0 g2\nR*: a2_1 a2_0\nR*: a2_2 a2_1\n"
        "R*: d b\nR*: d1 d\nR*: d2 d1\n"
        "R*: e(1,0,0) a0_1\nR*: e(1,0,0) a1_0\nR*: e(1,0,0) a2_0\n"
        "R*: g a\nR*: g b\nR*: g1 g\nR*: g2 g1\n"
        "label: a alpha\nlabel: b beta\nlabel: g gamma\nlabel: g1 gamma1\n"
        "label: g2 gamma2\nlabel: d delta\nlabel: d1 delta1\nlabel: d2 delta2\n"
        "label: a0_0 a(0,0)\nlabel: a0_1 a(0,1)\nlabel: a0_2 a(0,2)\n"
        "label: a1_0 a(1,0)\nlabel: a1_1 a(1,1)\nlabel: a1_2 a(1,2)\n"
        "label: a2_0 a(2,0)\nlabel: a2_1 a(2,1)\nlabel: a2_2 a(2,2)\n"
        "label: e(1,0,0) e(1,0,0)\n")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "69f3f20e54474c86059d79026317a8b4e3740282e802f214b9c7846eae98d449")


def test_labeled_frame_text_falls_back_to_explicit_edges():
    # only a relation its generators give back is written by them
    points = ("x", "y", "z")

    def text(r, s=None):
        lf = LabeledFrame(Frame(points, r, s), {"x": "alpha"}, None)
        written = serialize_labeled_frame(lf)
        back = parse_labeled_frame(written)
        assert (back.frame, back.labels) == (lf.frame, lf.labels)
        return written

    # a cycle through three points: its reduction has only the loops
    everything = transitive_closure((0b010, 0b100, 0b001))
    assert text(everything) == "points: x y z\n" + "".join(
        "R: %s %s\n" % (a, b) for a in points for b in points) + "label: x alpha\n"
    # not transitive: the closure of x -> y -> z would add x -> z
    assert text((0b010, 0b100, 0)) == "points: x y z\nR: x y\nR: y z\nlabel: x alpha\n"
    # a partial S keeps its edges, next to R's generators
    assert text((0b110, 0b100, 0), (0b011, 0b111, 0b100)) == (
        "points: x y z\nR*: x y\nR*: y z\nS: x x\nS: x y\nS: y x\nS: y y\nS: y z\n"
        "S: z z\nlabel: x alpha\n")
    # an empty S is still the lone line that makes the frame hybrid
    assert text((0, 0, 0), (0, 0, 0)) == "points: x y z\nS:\nlabel: x alpha\n"
    assert text((0, 0, 0), (0b111,) * 3) == "points: x y z\nS: all\nlabel: x alpha\n"


def test_labeled_frame_text_reads_back_on_random_frames():
    # relations of each shape the writer tells apart: R transitive or not,
    # with or without a cycle; S absent, empty, total or partial
    rng = random.Random(21)
    names = ["alpha", "delta2", "a(0,3)", "a(2,0)", "e(1,0,0)", "e(4,2,7)"]
    forms = set()
    for seed in range(200):
        frame = random_frame(seed, 8, kind=(L, H2)[seed % 2])
        n = len(frame.points)
        r = frame.r
        if seed % 3 == 1:
            r = transitive_closure(r)
        elif seed % 3 == 2:  # no cycle through two points: keep edges up and loops
            r = transitive_closure(row >> i << i for i, row in enumerate(r))
        s = frame.s
        if s is not None and seed // 2 % 3:  # S as drawn, or empty, or total
            s = (((1 << n) - 1) * (seed // 2 % 3 - 1),) * n
        labels = {p: rng.choice(names) for p in frame.points if rng.random() < 0.5}
        lf = LabeledFrame(Frame(frame.points, r, s), labels, None)
        text = serialize_labeled_frame(lf)
        back = parse_labeled_frame(text)
        assert (back.frame, back.labels) == (lf.frame, lf.labels), text
        forms.update(line if len(line.split()) < 3 else line.split()[0] + " x y"
                     for line in text.splitlines() if line.startswith(("R", "S")))
    assert forms == {"R: x y", "R*: x y", "S: x y", "S:", "S: all"}


def test_marker_rejects_other_names():
    assert marker("e(1,0,0)") == config_formula(Config(1, 0, 0))
    assert marker("a(2,3)") == tower(2, 3)
    for name in ("epsilon", "a(3,0)", "a(0,-1)", "e(1,0)", "Alpha"):
        with pytest.raises(ValueError):
            marker(name)


def test_parse_labeled_frame_checks_label_syntax_only():
    # a tower label names j levels; parsing must not build them
    t0 = time.perf_counter()
    lf = parse_labeled_frame("points: a\nlabel: a a(0,200000)\n")
    assert time.perf_counter() - t0 < 1.0
    assert lf.labels == {"a": "a(0,200000)"}
    for name in ("a(3,0)", "e(1,0)", "epsilon"):
        with pytest.raises(ParseError):
            parse_labeled_frame("points: a\nlabel: a %s\n" % name)


def test_frame_satisfies_marker_expectations():
    lf = canonical_frame(MinskyProgram(()), Config(1, 0, 0), 5, L)
    model = Model(lf.frame, {})
    assert model_check(model, "b", marker("beta"))
    assert not model_check(model, "a", marker("beta"))
    assert model_check(model, "a", marker("alpha"))
