"""One workload run in a fresh interpreter.

    python3 bench/child.py '<json spec>'

The spec names the source tree, the CLI arguments and, for a traced run,
where to write the spans.  The child times `import lorasync.cli` plus
`load_scenario` as set-up, runs the real CLI entry point, and prints one
JSON line after the CLI's own output:

    {"rc", "setup_s", "work_s", "frames", "peak_rss_mb", ...}

`work_s` runs from the return of `load_scenario` to the return of
`cli.main`.  `frames` lists `frames_total` of each simulator run the
command made.  With "setup_only" the child loads the config and exits
without running the command.
"""

import sys
import time


def main() -> int:
    import json
    import os
    import resource

    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import lorasync.cli as cli

    import_s = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    out = {}
    tracer = None
    if spec.get("spans"):
        out["wrapper_ns_per_call"] = spans.calibrate()
        tracer = spans.Tracer()
        tracer.install()

    marks = {}
    frames = []
    load_scenario, run = cli.load_scenario, cli.run

    def timed_load(path):
        t = time.perf_counter()
        sc = load_scenario(path)
        marks["loaded"] = time.perf_counter()
        marks["load_s"] = marks["loaded"] - t
        return sc

    def counted_run(scenario):
        metrics, rows = run(scenario)
        frames.append(metrics.frames_total)
        return metrics, rows

    cli.load_scenario, cli.run = timed_load, counted_run
    try:
        if spec.get("setup_only"):
            timed_load(spec["argv"][1])
            rc = 0
        else:
            rc = cli.main(spec["argv"])
        t_end = time.perf_counter()
    finally:
        cli.load_scenario, cli.run = load_scenario, run
        if tracer is not None:
            tracer.uninstall()

    sys.stdout.flush()
    out.update(
        rc=rc,
        setup_s=import_s + marks["load_s"],
        work_s=t_end - marks["loaded"],
        frames=frames,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["wrappers_left"] = spans.wrappers_left()
        tracer.write(spec["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
