"""lorasync benchmark: simulated frames per host second on seeded workloads.

    python3 bench/run.py --workload fleet-1k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding `src/`).
The workload's scenario file is generated from --seed (see workloads.py)
and written under .bench_out/.  Workload runs then execute one after
another, each in a fresh single-threaded interpreter with its own
PYTHONHASHSEED, until --seconds have passed (at least three runs).  Every
run's output is checked (check.py), every run of the same input must
produce byte-identical output, and at the default seed the output must
match the digests pinned in pinned.json.

--trace 0 reports the end-to-end metrics, medians over the runs:
  frames_per_s  frames of all simulator runs / host seconds after set-up
  peak_rss_mb   peak resident memory of the run's process
  setup_s       `import lorasync.cli` (compiled from source, no bytecode
                cache) plus `load_scenario`, also sampled by extra
                set-up-only processes

--trace 1 first makes one traced run (spans.py) and reports the per-layer
metrics from its spans, then fills the time with untraced runs, against
which the tracing overhead is given.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it show each metric and a manifest; the full
result with every sample is written to .bench_out/<run>/result.json.
Exit status is 0 when a result is printed; 2 when the source tree is
missing or does not import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


class SourceError(Exception):
    """The checkout has no importable lorasync package."""


def _child(root: str, spec: dict, hash_seed: int):
    """Run child.py once; returns (its JSON result or None, the CLI's stdout, stderr)."""
    # no cached bytecode: set-up always includes compiling the package,
    # whatever the caller's environment, and nothing is written under src/
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2**32), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"killed after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return result, "\n".join(lines[:-1]) + "\n", proc.stderr


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "lorasync")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Run:
    """One benchmark invocation: generated inputs, workload runs, checks."""

    def __init__(self, root: str, workload: str, seed: int, trace: bool):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "lorasync", "__init__.py")):
            raise SourceError(f"no lorasync package under {self.src}")
        self.w = workloads.WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        rel = os.path.join(".bench_out", f"{workload}-seed{seed}-trace{int(trace)}")
        self.out = os.path.join(root, rel)
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.config_text = workloads.generate(workload, seed)
        self.config = os.path.join(self.out, "scenario.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.config_text)
        self.csv = os.path.join(self.out, "trace.csv")
        # children run in the checkout root, so the command line stays relative
        self.argv = workloads.cli_argv(
            workload, os.path.join(rel, "scenario.ini"), os.path.join(rel, "trace.csv")
        )
        self.expected = None
        if seed == workloads.DEFAULT_SEED:
            with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
                self.expected = json.load(fh).get(workload)
        self.checked: dict[tuple, list[str]] = {}
        self.runs: list[dict] = []
        self.setup_samples: list[float] = []
        self.n_children = 0

    def _spec(self, **extra):
        return {"src": self.src, "argv": self.argv, **extra}

    def _launch(self, spec):
        self.n_children += 1
        return _child(self.root, spec, hash_seed=self.seed * 1009 + self.n_children)

    def warm_up(self):
        """Import the package and load the config once; raises SourceError."""
        result, _, err = self._launch(self._spec(setup_only=True))
        if result is None:
            raise SourceError(f"lorasync does not load the generated config:\n{err}")

    def probe_setup(self):
        for _ in range(SETUP_PROBES):
            result, _, _ = self._launch(self._spec(setup_only=True))
            if result is not None:
                self.setup_samples.append(result["setup_s"])

    def workload_run(self, traced: bool = False) -> dict:
        if os.path.exists(self.csv):
            os.remove(self.csv)
        prefix = os.path.join(self.out, "spans") if traced else None
        t0 = time.perf_counter()
        result, stdout, err = self._launch(self._spec(spans=prefix))
        rec = {"traced": traced, "wall_s": time.perf_counter() - t0, "result": result}
        rec["problems"] = self._check(result, stdout, err)
        if prefix and not rec["problems"]:
            meta, cols = spans.read_spans(prefix)
            rec["spans"] = meta["spans"]
            rec["layers"] = spans.aggregate(meta, cols)
            rec["counts"] = meta["counts"]
        self.runs.append(rec)
        return rec

    def _check(self, result, stdout, err) -> list[str]:
        if result is None:
            return [f"run crashed: {err.strip()[-500:]}"]
        if result["rc"] != 0:
            return [f"exit code {result['rc']}: {err.strip()[-500:]}"]
        if result.get("wrappers_left"):
            return [f"wrappers left after tracing: {result['wrappers_left']}"]
        header = "summary" if self.argv[0] == "simulate" else "compare"
        try:
            text, pairs = check.block(stdout, header)
        except ValueError:
            return [f"no [{header}] block in the output"]
        digests = {"block": check.sha256(text.encode())}
        csv_bytes = b""
        if header == "summary":
            try:
                with open(self.csv, "rb") as fh:
                    csv_bytes = fh.read()
            except OSError as exc:
                return [f"no trace: {exc}"]
            digests["trace"] = check.sha256(csv_bytes)
        # every run of one input must give the same bytes; at the default
        # seed they must also be the pinned ones
        if self.expected is None:
            self.expected = digests
        problems = [
            f"{k} sha256 {v[:12]} differs from {self.expected.get(k, '')[:12]}"
            for k, v in digests.items()
            if v != self.expected.get(k)
        ]
        key = tuple(sorted(digests.items()))
        if key not in self.checked:
            try:
                if header == "summary":
                    found = check.check_trace(csv_bytes, pairs, self.config_text)
                    if result["frames"] != [int(pairs["frames_total"])]:
                        found.append(f"frames {result['frames']} vs {pairs['frames_total']}")
                else:
                    rounds = [int(r) for r in self.argv[self.argv.index("--rounds") + 1].split(",")]
                    found = check.check_compare(pairs, rounds, self.w.devices, self.w.duration_s)
                    if len(result["frames"]) != 1 + len(rounds):
                        found.append(f"{len(result['frames'])} simulator runs")
            except (KeyError, ValueError) as exc:
                found = [f"malformed output: {exc!r}"]
            self.checked[key] = found
        return problems + self.checked[key]

    def measure(self, seconds: float):
        t0 = time.perf_counter()
        traced = None
        if self.trace:
            traced = self.workload_run(traced=True)
        walls = []
        while True:
            rec = self.workload_run()
            walls.append(rec["wall_s"])
            elapsed = time.perf_counter() - t0
            if len(walls) >= MIN_RUNS and elapsed + _median(walls) > seconds:
                break
        return traced

    def manifest(self, seconds: float) -> dict:
        first = next((r["result"] for r in self.runs if r["result"]), {})
        return {
            "workload": self.w.name,
            "why": self.w.why,
            "seed": self.seed,
            "seconds": seconds,
            "trace": self.trace,
            "commit": commit(self.root),
            "source_sha256": source_digest(self.src),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "argv": ["lorasync", *self.argv],
            "config_sha256": check.sha256(self.config_text.encode()),
            "config_bytes": len(self.config_text.encode()),
            "devices": self.w.devices,
            "duration_s": self.w.duration_s,
            "simulator_runs": len(first.get("frames", [])),
            "frames": sum(first.get("frames", [])),
            "digests": self.expected,
        }


def end_to_end(run: Run) -> dict:
    ok = [r["result"] for r in run.runs if not r["traced"] and not r["problems"]]
    fps = [sum(r["frames"]) / r["work_s"] for r in ok]
    rss = [r["peak_rss_mb"] for r in ok]
    setup = run.setup_samples + [r["setup_s"] for r in ok]
    samples = {"frames_per_s": (fps, "1/s"), "peak_rss_mb": (rss, "MB"), "setup_s": (setup, "s")}
    return {
        name: {"value": _median(xs), "unit": unit, "n": len(xs), "quartiles": _quartiles(xs)}
        for name, (xs, unit) in samples.items()
        if xs
    }


def per_layer(run: Run, traced: dict) -> dict:
    res, layers, counts = traced["result"], traced["layers"], traced["counts"]
    frames = sum(res["frames"])
    untraced = [r["result"]["work_s"] for r in run.runs if not r["traced"] and not r["problems"]]

    def calls(prefix):
        return sum(v["calls"] for k, v in layers.items() if k.startswith(prefix))

    def self_s(prefix):
        return sum(v["self_ns"] for k, v in layers.items() if k.startswith(prefix)) / 1e9

    def total_s(name):
        return layers.get(name, {"total_ns": 0})["total_ns"] / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    events = counts.get("sim.heappop", 0)
    tta = "clock.true_time_at_local"
    rows = counts.get("cli.trace_rows", 0)
    m = {
        "sim.events": (events, "count"),
        "sim.self_s": (self_s("sim.run"), "s"),
        "sim.self_ns_per_event": (ratio(self_s("sim.run") * 1e9, events), "ns"),
        "clock.local_time.calls": (calls("clock.local_time"), "count"),
        "clock.local_time.self_s": (self_s("clock.local_time"), "s"),
        f"{tta}.calls": (calls(tta), "count"),
        f"{tta}.self_s": (self_s(tta), "s"),
        f"{tta}.ns_per_call": (ratio(self_s(tta) * 1e9, calls(tta)), "ns"),
        f"{tta}.share": (ratio(self_s(tta), res["work_s"]), "fraction"),
        "slot.calls": (calls("slot."), "count"),
        "slot.self_s": (self_s("slot."), "s"),
        "slot.judgements_per_frame": (ratio(calls("slot.uplink_end_in_sync"), frames), "1/frame"),
        "slot.t_slot_ns.reads": (counts.get("slot.t_slot_ns.reads", 0), "count"),
        "frame.calls": (calls("frame."), "count"),
        "frame.self_s": (self_s("frame."), "s"),
        "frame.uplink_codec_per_frame": (
            ratio(calls("frame.encode_uplink") + calls("frame.decode_uplink"), frames),
            "1/frame",
        ),
        "protocol.calls": (calls("protocol."), "count"),
        "protocol.self_s": (self_s("protocol."), "s"),
        "protocol.resync_acks": (counts.get("protocol.resync_acks", 0), "count"),
        "cli.trace_rows": (rows, "count"),
        "cli.trace_csv_s": (total_s("cli.write_trace_csv"), "s"),
        "cli.trace_rows_per_s": (ratio(rows, total_s("cli.write_trace_csv")), "1/s"),
        "config.load_s": (total_s("config.load_scenario"), "s"),
        "airtime.calls": (calls("airtime."), "count"),
        "trace.spans": (traced["spans"], "count"),
        "trace.overhead_ratio": (ratio(res["work_s"], _median(untraced)), "ratio"),
        "trace.wrapper_ns_per_call": (res["wrapper_ns_per_call"], "ns"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        run = Run(os.getcwd(), args.workload, args.seed, bool(args.trace))
        run.warm_up()
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        run.probe_setup()
    traced = run.measure(args.seconds)

    failed = sum(1 for r in run.runs if r["problems"])
    for i, r in enumerate(run.runs):
        for p in r["problems"]:
            print(f"run {i}: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(run, traced) if not traced["problems"] else {}
    else:
        metrics = end_to_end(run)
    if not metrics:
        print("error: no run passed its checks", file=sys.stderr)
        return 1

    manifest = run.manifest(args.seconds)
    with open(os.path.join(run.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest, "metrics": metrics, "runs": run.runs}, fh, indent=1)
    for name, m in metrics.items():
        extra = ""
        if "n" in m:
            extra = f"  (n={m['n']}, quartiles " + ", ".join(f"{q:.6g}" for q in m["quartiles"]) + ")"
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}{extra}")
    print("manifest " + json.dumps(manifest))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(run.runs),
                "failed": failed,
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
