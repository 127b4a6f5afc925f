"""The explicit unifier for reachable targets.

For a run of length l, the i-th defect formula says the first i steps are
represented by configuration points but step i+1 is not.  The unifier maps
each counter variable to a disjunction over i of (defect_i and the tower
marker of the counter's value at step i), where the marker index shifts
down by one exactly when the step ahead decrements that counter from a
nonzero value.

`step_lemmas` and `no_defect_lemma` reduce the validity of the substituted
reduction formula, in either language, to 2l + 1 small K formulas.
"""

from __future__ import annotations

from .formula import (
    L, And, Formula, Implies, Not, Substitution, Var, apply_subst, disj,
)
from .minsky import Dec, Trace
from .encoding import ax_instruction, config_exists, config_formula, tower


def _defects(exists: list[Formula]) -> list[Formula]:
    """exists[0] & ... & exists[i] & ~exists[i + 1] for every i < l; the
    left-associated prefix conjunctions are built once and shared."""
    out: list[Formula] = []
    prefix = exists[0]
    for here in exists[1:]:
        out.append(And(prefix, Not(here)))
        prefix = And(prefix, here)
    return out


def defect_formulas(trace: Trace, language: str) -> list[Formula]:
    """defect_i for every step i: the run is represented faithfully through
    step i, but not at step i + 1."""
    return _defects([config_exists(c, language) for c in trace.configs])


def shifted_counter_index(trace: Trace, i: int, counter: int) -> int:
    """Value of `counter` at step i, minus one when the instruction leaving
    step i decrements that counter from a nonzero value."""
    config = trace.configs[i]
    value = config.c1 if counter == 1 else config.c2
    ins = trace.instrs[i]
    if value != 0 and isinstance(ins, Dec) and ins.counter == counter:
        return value - 1
    return value


def shifted_counter_marker(trace: Trace, i: int, counter: int) -> Formula:
    return tower(counter, shifted_counter_index(trace, i, counter))


def witness_from_trace(trace: Trace, language: str) -> Substitution:
    """Unifier built from a witnessing run; for a zero-step run both
    variables map to false (the empty disjunction)."""
    defects = defect_formulas(trace, language)
    return Substitution({
        counter: disj([And(d, shifted_counter_marker(trace, i, counter))
                       for i, d in enumerate(defects)])
        for counter in (1, 2)
    })


def step_lemmas(trace: Trace) -> list[Formula]:
    """Two K formulas per step i of the run, in step order:

        config_formula(c_i) -> A_i[m_i/p]   and   B_i[m_i/p] -> config_formula(c_{i+1})

    where <u>A_i -> <u>B_i is the implication of instruction i's axiom
    (`ax_instruction` in L) that step i takes: the one implication of an
    increment, the non-zero or zero implication of a decrement.  m_i maps
    each counter variable p_c to `shifted_counter_marker(trace, i, c)`.

    If these lemmas and `no_defect_lemma(trace)` are valid, the substituted
    reduction formula sigma(psi) = sigma(Ax_P) & Ec_0 -> Ec_l, sigma =
    `witness_from_trace(trace, language)`, holds at every point of every
    model, in either language; E is the language's global diamond.  Proof,
    universal language (E is `<u>`).  Each defect_i is a boolean
    combination of `<u>` formulas, so it holds at every point of a model or
    at none, and the defects are pairwise exclusive (defect_i denies
    <u>c_{i+1}, which defect_k asserts for k > i).
    - If no defect holds, substitute <u>config_formula(c_j) for q_j in the
      valid `no_defect_lemma`: <u>c_0 -> <u>c_l holds everywhere, and so
      does sigma(psi).
    - If defect_i holds, then at every point sigma(p_c) holds exactly where
      m_{i,c} does, since every other disjunct of sigma(p_c) is false; by
      induction on formulas, sigma(chi) and chi[m_i/p] have the same truth
      set for every chi.  defect_i gives a point satisfying
      config_formula(c_i); by the first lemma it satisfies A_i[m_i/p], so
      sigma(<u>A_i) holds.  defect_i also denies every point
      config_formula(c_{i+1}); by the second lemma no point satisfies
      B_i[m_i/p], so sigma(<u>B_i) fails.  The implication
      <u>A_i -> <u>B_i is a conjunct of Ax_P, so sigma(Ax_P) fails at
      every point and sigma(psi) holds.
    Hybrid language (E is the surrogate <h>(n1 & <h>phi)).  Let v be the
    point of n1 and G(phi) say that v S-sees a phi-point; G does not depend
    on the point of evaluation.  At a point x, Ephi is Sv(x) & G(phi), so
    defect_i is Sv & D_i, where D_i is defect_i with G in place of E: the
    D_i are global and pairwise exclusive, as the defects of L are.  Let
    sigma(Ax_P) & Ec_0 hold at w; then Sv(w).
    - The variable-free conjunct `nom_formula()` of Ax_P turns Sv(w) into
      Sv at every point that a word over R and S of length <= 6 reaches
      from w.  Every variable of `ax_instruction(ins, H2)` lies at modal
      depth at most 6 (the two S-steps of the surrogate, then at most four
      R-steps inside `epsilon`), so sigma(Ax_P) reads every sigma(p_c) at
      a point with Sv, where it equals m_{i,c} if D_i holds and false if
      no D_i does.
    - If D_i holds, then, as in L with G for <u>, sigma(Ax_P) at w is
      Ax_P[m_i/p] at w, whose conjunct G(A_i[m_i/p]) -> G(B_i[m_i/p])
      fails by the two lemmas, since G(c_i) and not G(c_{i+1}).  So no D_i
      holds at w, and the no-defect lemma with G(c_j) for q_j gives
      G(c_l), hence Ec_l at w.
    The lemmas hold no `[u]`, no `[h]` and no nominal, so they are K
    formulas and the same in both languages; reading the branch off
    `ax_instruction` keeps them in step with Ax_P.  A zero-step run has no
    step lemma and no defect, so only the no-defect case arises, with q_0
    standing for Ec_0.
    """
    out: list[Formula] = []
    for i, ins in enumerate(trace.instrs):
        branch = ax_instruction(ins, L)
        if isinstance(ins, Dec):
            config = trace.configs[i]
            value = config.c1 if ins.counter == 1 else config.c2
            branch = branch.left if value != 0 else branch.right
        markers = Substitution({c: shifted_counter_marker(trace, i, c) for c in (1, 2)})
        # strip the <u> of either side
        before = apply_subst(markers, branch.left.sub)
        after = apply_subst(markers, branch.right.sub)
        out.append(Implies(config_formula(trace.configs[i]), before))
        out.append(Implies(after, config_formula(trace.configs[i + 1])))
    return out


def no_defect_lemma(trace: Trace) -> Formula:
    """The propositional skeleton of the case in which no defect holds:
    ~(d_0 | ... | d_{l-1}) & q_0 -> q_l, where q_j = p_{j+1} stands for
    <u>config_formula(c_j) and d_i is defect_i over the q_j
    (see `step_lemmas`)."""
    qs = [Var(j + 1) for j in range(len(trace.configs))]
    return Implies(And(Not(disj(_defects(qs))), qs[0]), qs[-1])
