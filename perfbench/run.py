#!/usr/bin/env python3
"""facespectra benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload glf-hires --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the program from ``src/``.
The run sets up its inputs from the seed several times (the median is
``setup_s``) and, after one untimed warm-up, repeats the workload's timed
``facespectra`` commands between and after the set-ups until the
repetitions add up to ``--seconds``; every repetition's outputs are
checked against the recorded references.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` alternates plain and traced
repetitions and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# One BLAS thread per process, set before numpy is first imported; pool
# workers inherit it.  Two workers each running a multi-threaded BLAS on two
# cores measure the scheduler, not the program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set up at least this many times and for at least this long; report the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the test suite's 4x12 patch on 3 subjects (self-test)")
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (MiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(wl, args, variant: int, reference, out_dir: Path) -> dict:
    from tracing import Tracer, instrumented

    setup_s = []

    def set_up() -> dict:
        shutil.rmtree(out_dir / "setup", ignore_errors=True)
        start = perf_counter()
        fresh = wl.setup(out_dir / "setup", variant)
        setup_s.append(perf_counter() - start)
        return fresh

    def setups_due() -> bool:
        return len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS

    def repeat(traced: bool):
        if not traced:
            return wl.check(inputs, wl.execute(inputs, out, jobs), out, reference), None
        tracer = Tracer()
        with instrumented(tracer):
            stages = wl.execute(inputs, out, jobs)
        return wl.check(inputs, stages, out, reference), tracer

    out = out_dir / "out"
    # Pool workers do not report spans: a traced run uses one process.
    jobs = 1 if args.trace else wl.jobs
    inputs = set_up()
    inputs.update(wl.describe(inputs))
    # The first repetition pays for first-call costs inside this process;
    # it is checked but not timed.
    warmup, _ = repeat(False)
    # Set-ups alternate with the timed repetitions, so that these spread
    # over the whole run, until both are done.
    plain, traced, tracers = [], [], []

    def timed_due() -> bool:
        return sum(r.wall_s for r in plain + traced) < args.seconds

    while setups_due() or timed_due():
        if setups_due():
            inputs.update(set_up())
        if timed_due():
            plain.append(repeat(False)[0])
            if args.trace:
                rep, tracer = repeat(True)
                traced.append(rep)
                tracers.append(tracer)
    reps = [warmup] + plain + traced
    if len({r.digest for r in reps}) > 1:
        for r in reps:
            r.problems.append("outputs differ between repetitions")
            r.failed = r.attempted
    return {"jobs": jobs, "inputs": inputs, "setup_s": setup_s, "reps": reps,
            "plain": plain, "traced": traced, "tracers": tracers,
            "peak_rss_mb": peak_rss_mb()}


def report(args, bench: dict, run: dict) -> dict:
    """Print the human-readable summary; return the metrics of the last line."""
    plain, traced = run["plain"], run["traced"]
    attempted = sum(r.attempted for r in run["reps"])
    failed = sum(r.failed for r in run["reps"])
    wall = statistics.median(r.wall_s for r in plain)
    info = {k: v for k, v in run["inputs"].items()
            if k not in ("manifest", "coords", "norms", "landmarks")}
    info["landmarks"] = len(run["inputs"]["landmarks"])
    print(f"inputs: {json.dumps(info, default=str)}")
    print(f"set-up: {len(run['setup_s'])} times, "
          + " ".join(f"{s:.3f}" for s in run["setup_s"]) + " s")
    for kind, group in (("warm-up", run["reps"][:1]), ("plain", plain), ("traced", traced)):
        for i, r in enumerate(group):
            stages = ", ".join(f"{s.name} {s.seconds:.3f} s" for s in r.stages)
            status = "ok" if not r.problems else "; ".join(r.problems)
            print(f"{kind} rep {i + 1}: wall {r.wall_s:.3f} s ({stages}); "
                  f"{r.failed} of {r.attempted} failed; check {status}")
    missing = plain[0].missing
    if missing:
        print("missing patches per repetition, by landmark:")
        for key, count in sorted(missing.items()):
            print(f"  {count} x {key}")

    if not args.trace:
        values = {"setup_s": statistics.median(run["setup_s"]), "wall_s": wall,
                  "peak_rss_mb": run["peak_rss_mb"]}
        shown = dict(values)
        if any(s.name == "features" for s in plain[0].stages):
            shown["scans_per_s"] = run["inputs"]["scans"] / statistics.median(
                r.stage_s("features") for r in plain)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        units["scans_per_s"] = "scans/s"
        for name, value in shown.items():
            print(f"{name:<14} {value:>14.6f} {units[name]}")
        print(f"{'failed_frac':<14} {failed / attempted:>14.6f} ratio "
              f"({failed} failed of {attempted} attempted)")
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in bench["end_to_end"]}

    untraced = wall
    traced_wall = statistics.median(r.wall_s for r in traced)
    print(f"traced run: {run['jobs']} worker process(es); wrappers see only the "
          "parent process")
    print(f"tracing overhead: {traced_wall - untraced:.4f} s "
          f"(traced wall {traced_wall:.4f} s, untraced {untraced:.4f} s)")
    names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_s"]
    per_rep = [tracer.metrics(names) for tracer in run["tracers"]]
    metrics = {}
    for m in bench["per_layer"]:
        if m["name"] == "trace.overhead_s":
            value = traced_wall - untraced
        else:
            value = statistics.median(rep[m["name"]] for rep in per_rep)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:>16.6f} {m['unit']}")
    return metrics


def write_spans(path: Path, tracers) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rep, tracer in enumerate(tracers):
            for i, (name, trace, parent, start, end) in enumerate(tracer.spans):
                fh.write(json.dumps({"rep": rep, "id": i, "trace": trace, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "facespectra" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"perfbench: needs {SRC / 'facespectra'} and {bench_file}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import facespectra

    if not Path(facespectra.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported facespectra from {facespectra.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import N_VARIANTS, WORKLOADS, reference_stem

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload][args.scale]
    variant = args.seed % N_VARIANTS
    reference = wl.load_reference(reference_stem(args.workload, args.scale, variant))
    env = environment()
    print(f"facespectra benchmark: workload={args.workload} scale={args.scale} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {json.dumps(env)}")

    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    out_dir = WORK / f"{tag}-{os.getpid()}"
    try:
        run = measure(wl, args, variant, reference, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    metrics = report(args, bench, run)
    reps = run["reps"]
    result = {
        "correct": not any(r.problems for r in reps),
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "seed": args.seed, "variant": variant,
         "setup_s": run["setup_s"], "inputs": run["inputs"],
         "wall_s": [r.wall_s for r in run["plain"]],
         "traced_wall_s": [r.wall_s for r in run["traced"]], **result},
        indent=1, default=str), encoding="utf-8")
    if run["tracers"]:
        write_spans(results / f"{tag}.spans.jsonl", run["tracers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
