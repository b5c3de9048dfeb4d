#!/usr/bin/env python3
"""Self-test of the benchmark harness, on the tiny scale.

    python3 perfbench/selftest.py

For every workload at the test suite's 4x12 patch on 3 subjects it checks
that every metric of BENCHMARK.json, plus ``scans_per_s`` and
``failed_frac``, is printed with its unit and passes the output check;
that after a traced run every wrapped attribute is the original object
again; and that traced and untraced repetitions write identical outputs.
It also checks that a patch made to fail is counted and named, and that
the benchmark refuses to run, without printing a result, when the
program source is absent.  Exit code 0 means all passed.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
from workloads import WORKLOADS, Featurize  # noqa: E402


def printed_metrics(name: str, trace: int, bench: dict) -> list:
    """Run one tiny benchmark in-process; return what is wrong with its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "tiny"])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if not trace:
        expected["failed_frac"] = "ratio"
        if isinstance(WORKLOADS[name]["tiny"], Featurize):
            expected["scans_per_s"] = "scans/s"
    problems = []
    if code != 0 or not result["correct"] or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        problems.append(f"exit {code}, result {lines[-1][:200]}")
    for metric, unit in expected.items():
        in_json = result["metrics"].get(metric, {}).get("unit") == unit
        in_text = any(line.split()[:1] == [metric] and f" {unit}" in line
                      for line in lines[:-1])
        if not in_text or not (in_json or metric in ("failed_frac", "scans_per_s")):
            problems.append(f"metric {metric} [{unit}] not printed")
    return problems


def traced_digest_problems(name: str) -> list:
    wl = WORKLOADS[name]["tiny"]
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = wl.setup(work / "setup", 0)
        inputs.update(wl.describe(inputs))
        plain = wl.check(inputs, wl.execute(inputs, work / "out", 1),
                         work / "out", None)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            stages = wl.execute(inputs, work / "out", 1)
        traced = wl.check(inputs, stages, work / "out", None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = plain.problems + traced.problems
    if not tracer.spans:
        problems.append("the traced repetition recorded no spans")
    if plain.digest != traced.digest:
        problems.append("traced and untraced outputs differ")
    return problems


def missing_patch_problems() -> list:
    """Move one landmark off the mesh: the run must count exactly that
    patch as failed, name its landmark, and still pass its output check."""
    wl = WORKLOADS["glf-hires"]["tiny"]
    work = run.WORK / "selftest-missing"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = wl.setup(work / "setup", 0)
        inputs.update(wl.describe(inputs))
        lmk = sorted((work / "setup" / "corpus" / "landmarks").glob("*.csv"))[0]
        lines = lmk.read_text(encoding="utf-8").splitlines()
        label = lines[1].split(",")[0]
        lines[1] = f"{label},1000.0,1000.0,1000.0"
        lmk.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rep = wl.check(inputs, wl.execute(inputs, work / "out", wl.jobs), work / "out", None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    named = [key for key in rep.missing if key.startswith(f"{label}: ")]
    if rep.problems or rep.failed != 1 or len(named) != 1:
        return [f"an off-mesh landmark gave failed={rep.failed}, missing={dict(rep.missing)}, "
                f"problems={rep.problems}"]
    return []


def refuses_without_source() -> list:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "glf-hires", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"ran without the program source (exit {done.returncode})"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    originals = tracing.probe_targets()
    failures = []
    for name in WORKLOADS:
        for trace in (0, 1):
            failures += [f"{name} trace={trace}: {p}"
                         for p in printed_metrics(name, trace, bench)]
        failures += [f"{name}: {p}" for p in traced_digest_problems(name)]
        failures += [f"{name}: {owner.__name__}.{leaf} was not restored"
                     for owner, leaf, original in originals
                     if vars(owner)[leaf] is not original]
    failures += missing_patch_problems()
    failures += refuses_without_source()
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
