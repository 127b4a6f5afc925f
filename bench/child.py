"""One cold `mlunif verify` call, run by bench/run.py in a fresh interpreter.

Usage: python3 -S bench/child.py SPEC.json SPAWNED

SPAWNED is the parent's time.perf_counter() just before it started this
process; on Linux that clock is system-wide, so the child's set-up time can
be taken against it.  SPEC holds `layout` (seed of the heap ballast),
`trace` (wrap the layers' public functions), `argv` (arguments for
mlunif.cli.main) and `result` (where to write the measurements).  The exit
code is the one cli.main returned.
"""

import json
import random
import resource
import sys
import time

# Objects allocated before the program is imported and kept alive, so that
# they shift the addresses of everything the program allocates afterwards.
_ballast = []


def perturb_heap(seed):
    """Allocate a seeded number of small lists of seeded sizes.

    The tableau iterates over sets of objects hashed by address, so the heap
    layout it starts from changes how much work it does; a seeded ballast
    turns that layout into an input the benchmark names."""
    rng = random.Random(seed)
    for _ in range(rng.randrange(1, 4096)):
        _ballast.append([None] * rng.randrange(1, 16))


def main(spec_path, spawned):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    perturb_heap(spec["layout"])
    from mlunif import cli
    setup_s = time.perf_counter() - spawned
    tracer = None
    run = cli.main
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(cli, "main", "cli.main")
    start = time.perf_counter()
    code = run(spec["argv"])
    main_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "main_s": main_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
