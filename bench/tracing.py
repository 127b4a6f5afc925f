"""Spans around the public functions of each mlunif layer, installed from outside.

Each wrapper replaces a function at the name its caller looks it up under
(`workbench` imports `frame_valid`, `random_frame` and `psi` by name,
`kripke` imports `language_of` by name, ...) and records (name, start, end,
parent) in memory.  When the run is over, `layer_metrics` folds the spans
into per-layer times and counts.  A layer's self time is its span minus its
child spans.
"""

import time
from collections import defaultdict

from mlunif import decision, formula, kripke, propsat, workbench
from mlunif.formula import size

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.values = []      # what the span's `after` hook returned, or None
        self.open = [-1]      # stack of open span indices; -1 is the root
        self.formulas = []    # results sized after the run, outside any span

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a spanned wrapper and return the wrapper.

        before(args) runs outside the span; after(args, result, before's
        value) runs after the span has ended, and what it returns is kept."""
        fn = getattr(owner, attr)
        names, starts, ends, parents, values, open_ = (
            self.names, self.starts, self.ends, self.parents, self.values, self.open)

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            idx = len(names)
            names.append(name)
            parents.append(open_[-1])
            values.append(None)
            ends.append(0.0)
            open_.append(idx)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                open_.pop()
            if after is not None:
                values[idx] = after(args, result, pre)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        return wrapper

    def install(self):
        wrap = self.wrap
        # one span per call, so the conflicts of a call are a delta
        wrap(propsat.Solver, "solve", "propsat.Solver.solve",
             before=lambda args: args[0].conflicts,
             after=lambda args, result, pre: args[0].conflicts - pre)
        # kripke.frame_valid calls propsat.solve through the module
        wrap(propsat, "solve", "propsat.solve",
             before=lambda args: (args[0].num_atoms, len(args[0].clauses)),
             after=lambda args, result, pre: pre)
        wrap(decision, "valid", "decision.valid")
        for owner in (kripke, workbench):
            wrap(owner, "truth_mask", "kripke.truth_mask")
        wrap(workbench, "frame_valid", "kripke.frame_valid")
        for owner in (formula, kripke, decision):
            wrap(owner, "language_of", "formula.language_of")
        wrap(formula.Substitution, "serialize", "formula.serialize",
             after=lambda args, result, pre: len(result.encode()))
        wrap(workbench, "apply_subst", "formula.apply_subst",
             after=lambda args, result, pre: self.formulas.append(result))
        wrap(workbench, "psi", "encoding.psi")
        wrap(workbench, "canonical_frame", "encoding.canonical_frame",
             after=lambda args, result, pre: len(result.frame.points))
        wrap(workbench, "witness_from_trace", "witness.witness_from_trace")
        wrap(workbench, "reaches", "minsky.reaches")
        for attr in ("verify_unifier", "check_on_random_models",
                     "certificate_checks", "verdict_report"):
            wrap(workbench, attr, "workbench." + attr)

    def layer_metrics(self):
        """Per-layer totals over every span recorded so far."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        noted = defaultdict(list)
        for i, name in enumerate(names):
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            if self.values[i] is not None:
                noted[name].append(self.values[i])
        incremental_s = 0.0
        incremental_calls = 0
        for i, name in enumerate(names):
            p = parents[i]
            if name == "propsat.Solver.solve" and (p < 0 or names[p] != "propsat.solve"):
                incremental_s += dur[i]
                incremental_calls += 1
        cnf = noted["propsat.solve"]
        return {
            "propsat.incremental_s": incremental_s,
            "propsat.incremental_calls": incremental_calls,
            "propsat.conflicts": sum(noted["propsat.Solver.solve"]),
            "propsat.oneshot_s": total["propsat.solve"],
            "decision.valid_self_s": self_s["decision.valid"],
            "kripke.truth_mask_s": total["kripke.truth_mask"],
            "kripke.truth_mask_calls": calls["kripke.truth_mask"],
            "kripke.frame_valid_self_s": self_s["kripke.frame_valid"],
            "kripke.cnf_atoms": sum(atoms for atoms, _ in cnf),
            "kripke.cnf_clauses": sum(clauses for _, clauses in cnf),
            "formula.language_of_s": total["formula.language_of"],
            "formula.language_of_calls": calls["formula.language_of"],
            "formula.serialize_s": total["formula.serialize"],
            "formula.text_bytes": sum(noted["formula.serialize"]),
            "formula.apply_subst_s": total["formula.apply_subst"],
            "formula.dag_nodes": sum(size(f) for f in self.formulas),
            "encoding.psi_s": total["encoding.psi"],
            "encoding.canonical_frame_s": total["encoding.canonical_frame"],
            "encoding.frame_points": sum(noted["encoding.canonical_frame"]),
            "witness.witness_from_trace_s": total["witness.witness_from_trace"],
            "minsky.reaches_s": total["minsky.reaches"],
            "workbench.verify_unifier_s": total["workbench.verify_unifier"],
            "workbench.check_on_random_models_s": total["workbench.check_on_random_models"],
            "workbench.certificate_checks_s": total["workbench.certificate_checks"],
            "workbench.verdict_report_s": total["workbench.verdict_report"],
            "cli.main_s": total["cli.main"],
            "trace.spans": len(names),
            "trace.overhead_s": len(names) * span_cost(),
        }


def span_cost(calls=20000):
    """Seconds one wrapper adds to a call, measured on a no-op."""

    class Box:
        @staticmethod
        def noop():
            return None

    plain = Box.noop
    start = _clock()
    for _ in range(calls):
        plain()
    bare = _clock() - start
    wrapped = Tracer().wrap(Box, "noop", "noop")
    start = _clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (_clock() - start - bare) / calls)
