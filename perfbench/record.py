#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py [--workload NAME] [--scale full|tiny]

Run it from the repository root, at the commit whose outputs become the
references.  For every workload, scale and input variant it sets up the
inputs once, runs the timed commands once and stores what the output
check compares under ``perfbench/references/``.
"""

import argparse
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

from workloads import N_VARIANTS, WORKLOADS, reference_stem  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    p.add_argument("--scale", choices=("full", "tiny"), action="append")
    args = p.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        for scale in args.scale or ("full", "tiny"):
            wl = WORKLOADS[name][scale]
            for variant in range(N_VARIANTS):
                work = run.WORK / f"record-{name}-{scale}-v{variant}"
                shutil.rmtree(work, ignore_errors=True)
                try:
                    inputs = wl.setup(work / "setup", variant)
                    inputs.update(wl.describe(inputs))
                    stages = wl.execute(inputs, work / "out", wl.jobs)
                    rep = wl.check(inputs, stages, work / "out", None)
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                if rep.problems:
                    print(f"{name} {scale} v{variant}: " + "; ".join(rep.problems),
                          file=sys.stderr)
                    return 1
                stem = reference_stem(name, scale, variant)
                stem.parent.mkdir(parents=True, exist_ok=True)
                wl.save_reference(stem, rep.outputs)
                print(f"{name} {scale} v{variant}: {rep.failed} of {rep.attempted} "
                      f"failed, wall {rep.wall_s:.2f} s -> {stem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
