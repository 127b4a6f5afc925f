import hashlib
import itertools
import random
import time

import pytest

from mlunif import encoding, kripke
from mlunif.errors import ParseError, TruncationUnsound
from mlunif.formula import (
    H2, L, TOP, And, Box, Diamond, Implies, Modality, Nominal, Not, Or, Var,
    language_of, nominals, parse, postorder, pretty, size, variables,
)
from mlunif.kripke import Frame, Model, model_check, transitive_closure
from mlunif.minsky import Config, Dec, Inc, MinskyProgram, parse_config, parse_program
from mlunif.encoding import (
    LabeledFrame, ax_instruction, ax_program, canonical_frame, config_formula,
    epsilon, exists, marker, nom_formula, parse_labeled_frame, pi_tau, psi,
    serialize_labeled_frame, tower, PI1, PI2, TAU1, TAU2,
)
from helpers import (
    closure_by_search, constructor_calls, modal_depth, points_where, random_frame,
    successors, transitive_reduction,
)

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


@pytest.mark.parametrize("instructions, language, calls, nodes",
                         [(20, L, 719, 536), (40, L, 1439, 956), (40, H2, 2437, 1874)],
                         ids=["C1-L", "C2-L", "C2-H2"])
def test_ax_program_builds_the_counter_patterns_once(instructions, language, calls, nodes):
    # the four counter patterns are made once, not once per instruction
    # (C1 in L took 1,799 calls that way); the first call builds the
    # towers, so the second is counted
    program = parse_program("\n".join("%d -> %d,+1,0" % (k, k + 1)
                                       for k in range(1, instructions + 1)))
    first = ax_program(program, language)
    phi, counted = constructor_calls(ax_program, program, language)
    assert phi is first
    assert (counted, len(set(postorder(phi)))) == (calls, nodes)


def test_nom_formula_builds_each_node_once():
    # each word is made from the words one shorter, so no constructor call
    # finds its node already made; the digest pins the text
    nom, calls = constructor_calls(nom_formula)
    assert calls == size(nom) == 757
    assert hashlib.sha256(pretty(nom).encode()).hexdigest() == (
        "00b99f9dd90b0223675f8f3309291a70adf0391eb435dcc1ad4d3db5976fa0df")


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
    # a frame with no generator rows, as one read from text, is written edge
    # by edge; with them, R is written as the rows and a total S as one line
    points = ("x", "y", "z")

    def text(r, s=None, generators=None):
        if generators is not None:
            r = transitive_closure(generators)
        lf = LabeledFrame(Frame(points, r, s), {"x": "alpha"}, None, generators)
        written = serialize_labeled_frame(lf)
        back = parse_labeled_frame(written)
        assert (back.frame, back.labels) == (lf.frame, lf.labels)
        return written

    # a cycle through three points keeps all nine closure edges
    everything = transitive_closure((0b010, 0b100, 0b001))
    assert text(everything) == "points: x y z\n" + "".join(
        "R: %s %s\n" % (a, b) for a in points for b in points) + "label: x alpha\n"
    # and its three generators give the same rows back
    assert text(None, None, (0b010, 0b100, 0b001)) == (
        "points: x y z\nR*: x y\nR*: y z\nR*: z x\nlabel: x alpha\n")
    # a transitive R is written edge by edge too, when no rows come with it
    assert text((0b110, 0b100, 0)) == "points: x y z\nR: x y\nR: x z\nR: y z\nlabel: x alpha\n"
    # a partial S keeps its edges, next to R's generators
    assert text(None, (0b011, 0b111, 0b100), (0b010, 0b100, 0)) == (
        "points: x y z\nR*: x y\nR*: y z\nS: x x\nS: x y\nS: y x\nS: y y\nS: y z\n"
        "S: z z\nlabel: x alpha\n")
    # an empty S is still the lone line that makes the frame hybrid
    for generators in (None, (0, 0, 0)):
        assert text((0, 0, 0), (0, 0, 0), generators) == "points: x y z\nS:\nlabel: x alpha\n"
    assert text(None, (0b111,) * 3, (0, 0, 0)) == "points: x y z\nS: all\nlabel: x alpha\n"
    assert text((0, 0, 0), (0b111,) * 3) == "points: x y z\n" + "".join(
        "S: %s %s\n" % (a, b) for a in points for b in points) + "label: x alpha\n"


def test_labeled_frame_text_reads_back_on_random_frames():
    # frames with and without generator rows; S absent, empty, total or
    # partial
    rng = random.Random(21)
    names = ["alpha", "delta2", "a(0,3)", "a(2,0)", "e(1,0,0)", "e(4,2,7)"]
    forms = set()
    for seed in range(200):
        frame = random_frame(seed, 8, kind=(L, H2)[seed % 2])
        n = len(frame.points)
        r, generators = frame.r, None
        if seed % 3:  # the drawn rows as generators, with or without a cycle
            generators = r if seed % 3 == 1 else tuple(row >> i << i for i, row in enumerate(r))
            r = transitive_closure(generators)
        s = frame.s
        if s is not None and seed // 2 % 3:  # S as drawn, or empty, or total
            s = (((1 << n) - 1) * (seed // 2 % 3 - 1),) * n
        labels = {p: rng.choice(names) for p in frame.points if rng.random() < 0.5}
        lf = LabeledFrame(Frame(frame.points, r, s), labels, None, generators)
        text = serialize_labeled_frame(lf)
        back = parse_labeled_frame(text)
        assert (back.frame, back.labels) == (lf.frame, lf.labels), text
        forms.update(line if len(line.split()) < 3 else line.split()[0] + " x y"
                     for line in text.splitlines() if line.startswith(("R", "S")))
    assert forms == {"R: x y", "R*: x y", "S: x y", "S:", "S: all"}


# sha256 of the text of the 616-point canonical frames of
# `1 -> 2,-1,0 | 3,0,0` from 1,200,0, as a writer that found R's
# generators again from R wrote it
FRAME_616_SHA256 = {
    L: "350e864e9a701026f0f0263237ce52e36be0e1f3fef1da49115c5186a940dbac",
    H2: "a526ba9ad4a874d8d60c62093c50b5390fc5915249b8bfeccee36de083b73dd6",
}


@pytest.mark.parametrize("language", [L, H2])
def test_canonical_frame_keeps_the_transitive_reduction_of_r(language):
    # the rows a canonical frame is built from are exactly its R's
    # generators: nothing is left out, and no row gives a redundant edge
    chain = "\n".join("%d -> %d,+1,0" % (k, k + 1) for k in range(1, 21))
    cases = [(chain, "1,0,0"),
             ("1 -> 2,+1,0\n2 -> 1,-1,0 | 1,0,0", "1,0,0"),
             ("1 -> 2,+1,0\n2 -> 3,+1,0\n3 -> 4,0,+1\n4 -> 5,-1,0 | 9,0,0\n"
              "5 -> 6,0,-1 | 9,0,0", "1,0,0"),
             ("1 -> 2,-1,0 | 3,0,0", "1,200,0")]
    for program, start in cases:
        lf = canonical_frame(parse_program(program), parse_config(start), 1000, language)
        assert lf.generators == transitive_reduction(lf.frame.r), program
        assert transitive_closure(lf.generators) == lf.frame.r, program
    assert len(lf.frame.points) == 616


@pytest.mark.parametrize("language", [L, H2])
def test_canonical_frame_text_is_written_without_a_closure(monkeypatch, language):
    # the text keeps its digest, and writing it makes no closure
    lf = canonical_frame(parse_program("1 -> 2,-1,0 | 3,0,0"), Config(1, 200, 0), 1000, language)

    def no_closure(rows):
        raise AssertionError("transitive_closure called")

    monkeypatch.setattr(encoding, "transitive_closure", no_closure)
    monkeypatch.setattr(kripke, "transitive_closure", no_closure)
    text = serialize_labeled_frame(lf)
    assert hashlib.sha256(text.encode()).hexdigest() == FRAME_616_SHA256[language]


def test_transitive_reduction():
    # a -> b -> c with a -> c: the edge a -> c is implied
    assert transitive_reduction((0b110, 0b100, 0)) == (0b010, 0b100, 0)
    # a loop stays, since no other edge gives it back
    assert transitive_reduction((0b011, 0)) == (0b011, 0)
    # on a cycle through three points the reduction loses edges
    cycle = transitive_closure((0b010, 0b100, 0b001))
    assert transitive_closure(transitive_reduction(cycle)) != cycle
    rng = random.Random(4)
    for trial in range(300):
        n = rng.randint(1, 9)
        density = rng.random()
        # no cycle through two or more points: every edge goes up or is a loop
        rows = tuple(sum(1 << j for j in range(i, n) if rng.random() < density / 2)
                     for i in range(n))
        reduced = transitive_reduction(rows)
        closure = closure_by_search(rows)
        assert closure_by_search(reduced) == closure, rows
        # the fewest edges: a generating set holds every one, and each is needed
        assert all(kept & ~given == 0 for kept, given in zip(reduced, rows)), rows
        for i, row in enumerate(reduced):
            for j in range(n):
                if row >> j & 1:
                    fewer = list(reduced)
                    fewer[i] ^= 1 << j
                    assert closure_by_search(fewer) != closure, (rows, i, j)


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
