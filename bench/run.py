"""Cold-process benchmark of `mlunif verify`.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the instances of one workload of bench/workloads.json, each in its own
fresh interpreter (bench/child.py calling mlunif.cli.main with `--out`),
strictly one after another: a closed loop with one client.  Fresh children
are the point: every CLI call starts with cold caches and an empty formula
interner, so an in-process repeat would measure a program no user runs.

Each instance runs under the workload's heap layouts 0, 1, ...: layout k is
a ballast, seeded with k, that the child allocates before importing mlunif.
The tableau's work depends on the layout by up to 10x, so the layouts are
the same for every seed, or the spread between seeds would be the layouts'.
The first pass runs every instance under every layout; later passes repeat
them while their last time still fits in S seconds.  The seed orders each
pass and is the `--seed` of the random-model suite.  A (instance, layout)
cell counts the median of its repeats, an instance the median over layouts.

Every answer is checked against workloads.json, and each instance's output
must have the same size on every run.  With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer ones from wrapped calls.
It prints one line per child, one line per metric, and as the last line a
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "bench-work")
CAP_S = 60.0     # a child running longer is killed and counted as failed
LIMIT_S = 150.0  # no child runs past this point of a run, so a run ends in time

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_s.gmean": "s",
    "instance_s.max": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "B",
    "verdicts_ok": "share",
    "completed_share": "share",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_spread"):
        return "ratio"
    return "count"


# A fixed environment, so that the caller's environment does not shift the
# child's heap; string hashing is fixed so the ballast is the layout input.
CHILD_ENV = {"PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}


def build():
    """Byte-compile the package, as an install would, so no child compiles."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "mlunif")], check=True,
                   stdout=subprocess.DEVNULL)


def verify_argv(instance, program_path, seed, out):
    argv = ["verify", "--program", program_path,
            "--start", instance["start"], "--target", instance["target"],
            "--mode", instance["mode"], "--seed", str(seed), "--out", out]
    if "bound" in instance:
        argv += ["--bound", str(instance["bound"])]
    return argv


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_child(instance, program_path, seed, layout, trace, cap_s):
    """One cold `verify` call; returns what was measured and checked."""
    out = os.path.join(WORK, "out")
    spec_path = os.path.join(WORK, "spec.json")
    result_path = os.path.join(WORK, "result.json")
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"layout": layout, "trace": trace, "result": result_path,
                   "argv": verify_argv(instance, program_path, seed, out)}, handle)
    sample = {"instance": instance["name"], "layout": layout, "ok": False,
              "verdict_ok": False}
    with open(os.path.join(WORK, "stderr.txt"), "w+", encoding="utf-8") as err:
        spawned = time.perf_counter()
        # -S: no site hooks of the host, so set-up is the interpreter and mlunif
        proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(BENCH, "child.py"), spec_path,
             repr(spawned)],
            env=CHILD_ENV, cwd=WORK, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=cap_s)
        except subprocess.TimeoutExpired:
            sample["error"] = "killed after %.0f s" % cap_s
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        sample["elapsed_s"] = time.perf_counter() - spawned
        err.seek(0)
        last_line = err.read().strip().splitlines()[-1:]
    if "error" not in sample and proc.returncode != 0:
        sample["error"] = "exit %d: %s" % (proc.returncode, last_line)
    if "error" not in sample and not os.path.exists(result_path):
        sample["error"] = "no result: %s" % last_line
    if "error" in sample:
        return sample
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    sample.update(
        ok=True,
        setup_s=result["setup_s"],
        main_s=result["main_s"],
        rss_mb=result["maxrss_kb"] / 1024.0,
        artifact_bytes=tree_bytes(out),
        verdict_ok=all(report.get(k) == v for k, v in instance["expect"].items()),
        method=report.get("evidence", {}).get("method"),
        layers=result.get("layers"),
    )
    return sample


def run_workload(workload, seed, seconds, trace):
    """Passes over the (instance, layout) cells until `seconds` are used."""
    programs = {}
    for instance in workload["instances"]:
        path = os.path.join(WORK, "%s.prog" % instance["name"])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(instance["program"].replace(" / ", "\n") + "\n")
        programs[instance["name"]] = path
    cells = [(i, layout) for layout in range(workload["layouts"])
             for i in range(len(workload["instances"]))]
    order = random.Random(seed)
    samples = []
    last_s = {}
    start = time.perf_counter()
    first_pass = True
    while True:
        order.shuffle(cells)
        ran = False
        for cell in cells:
            instance = workload["instances"][cell[0]]
            now = time.perf_counter()
            if not first_pass and now + last_s[cell] > start + seconds:
                continue
            cap_s = min(CAP_S, start + LIMIT_S - now)
            if cap_s <= 0:
                sample = {"instance": instance["name"], "layout": cell[1], "ok": False,
                          "verdict_ok": False, "elapsed_s": 0.0,
                          "error": "not run: the run's %.0f s are used up" % LIMIT_S}
            else:
                sample = run_child(instance, programs[instance["name"]], seed,
                                   cell[1], trace, cap_s)
            last_s[cell] = sample["elapsed_s"]
            samples.append(sample)
            ran = True
            print(describe(sample), flush=True)
        if not ran:
            return samples
        first_pass = False


def describe(sample):
    if not sample["ok"]:
        return "%s layout=%d FAILED %s" % (sample["instance"], sample["layout"],
                                           sample["error"])
    line = ("%s layout=%d setup=%.3fs main=%.3fs rss=%.1fMB bytes=%d "
            "verdict=%s evidence=%s" % (
                sample["instance"], sample["layout"], sample["setup_s"],
                sample["main_s"], sample["rss_mb"], sample["artifact_bytes"],
                "ok" if sample["verdict_ok"] else "WRONG", sample["method"]))
    if sample["layers"]:
        layers = sample["layers"]
        line += " | " + " ".join(
            "%s=%s" % (k, _fmt(layers[k])) for k in (
                "cli.main_s", "propsat.incremental_calls", "propsat.conflicts",
                "kripke.truth_mask_calls", "kripke.cnf_clauses", "trace.overhead_s"))
    return line


def _fmt(value):
    return "%.4g" % value if isinstance(value, float) else str(value)


def cell_medians(samples, workload, key, missing):
    """{instance: [median of `key` over the cell's good runs, per layout]};
    a cell without one good run counts as `missing`."""
    values = {}
    for s in samples:
        if s["ok"]:
            values.setdefault((s["instance"], s["layout"]), []).append(key(s))
    return {i["name"]: [statistics.median(values.get((i["name"], layout), [missing]))
                        for layout in range(workload["layouts"])]
            for i in workload["instances"]}


def per_instance(samples, workload, key, missing):
    return {name: statistics.median(cells) for name, cells in
            cell_medians(samples, workload, key, missing).items()}


def layout_spreads(samples, workload, key):
    """max/min over layouts of each instance's cell medians."""
    return {name: max(cells) / min(cells) for name, cells in
            cell_medians(samples, workload, key, CAP_S).items()}


def end_to_end(samples, workload):
    ok = [s for s in samples if s["ok"]]
    cells = cell_medians(samples, workload, lambda s: s["main_s"], CAP_S)
    times = [statistics.median(c) for c in cells.values()]
    artifacts = {}
    for s in ok:
        artifacts.setdefault(s["instance"], s["artifact_bytes"])
    return {
        "setup_s": statistics.median(s["setup_s"] for s in ok) if ok else CAP_S,
        "wall_s": sum(times),
        "instance_s.gmean": math.exp(statistics.fmean(math.log(t) for t in times)),
        "instance_s.max": max(max(c) for c in cells.values()),
        "peak_rss_mb": max((s["rss_mb"] for s in ok), default=0.0),
        "artifact_bytes": sum(artifacts.values()),
        "verdicts_ok": sum(s["verdict_ok"] for s in samples) / len(samples),
        "completed_share": len(ok) / len(samples),
    }


def per_layer(samples, workload):
    ok = [s for s in samples if s["ok"]]
    layers = {}
    for name in (ok[0]["layers"] if ok else ()):
        layers[name] = sum(per_instance(samples, workload,
                                        lambda s: s["layers"][name], 0).values())
    spreads = layout_spreads(samples, workload, lambda s: s["layers"]["cli.main_s"])
    layers["decision.layout_spread"] = max(spreads.values())
    layers["workbench.tableau_share"] = tableau_share(samples, workload)
    return layers


def tableau_share(samples, workload):
    """Share of good runs of reachable instances whose evidence is a tableau."""
    reachable = {i["name"] for i in workload["instances"]
                 if i["expect"]["verdict"] == "unifiable"}
    evidence = [s["method"] for s in samples if s["ok"] and s["instance"] in reachable]
    return evidence.count("tableau") / len(evidence) if evidence else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as handle:
        workloads = json.load(handle)["workloads"]
    if args.workload not in workloads:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(sorted(workloads))))
    if not os.path.isfile(os.path.join(SRC, "mlunif", "cli.py")):
        sys.stderr.write("no mlunif sources under %s\n" % SRC)
        return 2
    workload = workloads[args.workload]
    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        samples = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    sizes = {}
    for s in samples:
        if s["ok"]:
            sizes.setdefault(s["instance"], set()).add(s["artifact_bytes"])
    repeats = all(len(v) == 1 for v in sizes.values())
    if not repeats:
        print("artifact sizes differ between runs: %s" % sizes)
    answered = len(sizes) == len(workload["instances"])
    correct = answered and repeats and all(s["verdict_ok"] for s in samples if s["ok"])
    main_key = (lambda s: s["layers"]["cli.main_s"]) if args.trace else (lambda s: s["main_s"])
    for name, spread in layout_spreads(samples, workload, main_key).items():
        print("%s layout_spread %.3f over %d layouts" % (name, spread, workload["layouts"]))
    failed = sum(not s["ok"] for s in samples)
    print("failed_share %.4f share" % (failed / len(samples)))
    print("tableau_share %.4f share" % tableau_share(samples, workload))
    if args.trace:
        values, unit = per_layer(samples, workload), layer_unit
    else:
        values, unit = end_to_end(samples, workload), END_TO_END_UNITS.get
    for name, value in values.items():
        print("%-36s %14s %s" % (name, _fmt(value), unit(name)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
