#!/usr/bin/env python3
"""Time patch extraction per scan and per landmark on synthetic scans.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/patch_cost.py \\
        --resolutions 160,320 --repeats 5

For each resolution it builds the acceptance-style synthetic scans of one
subject (expressions HA and SU, level 2), traces the 68 landmarks of each
scan with ``extract_patches`` and a 15x20 patch at lambda_max = 20 mm, and
prints the faces per scan, the faces near each landmark (range and
median), and the best-of-``--repeats`` time per scan and per landmark.
"""

import argparse
import time

import numpy as np

from facespectra.patches import PatchConfig, extract_patches
from facespectra.synth import SynthConfig, generate_scan

ACCEPTANCE = {"amplitude": 1.2, "subject_amplitude": 3.5, "jitter": 0.4}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--resolutions", default="160,320")
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    cfg = PatchConfig(5.0, 20.0, 15, 20)
    print("| resolution | faces per scan | faces per landmark (median) "
          "| time per scan | time per landmark |")
    print("|---|---|---|---|---|")
    for res in (int(r) for r in args.resolutions.split(",")):
        synth = SynthConfig(subjects=1, seed=1, resolution=res, **ACCEPTANCE)
        scans = [generate_scan(synth, 0, e, 2)[:2] for e in ("HA", "SU")]
        near = [mesh.faces_within(p, cfg.lambda_max).size
                for mesh, lmk in scans for p in lmk.positions]
        best = np.inf
        for _ in range(args.repeats):
            start = time.perf_counter()
            for mesh, lmk in scans:
                extract_patches(mesh, lmk, cfg)
            best = min(best, (time.perf_counter() - start) / len(scans))
        per_landmark = best / len(scans[0][1])
        print(f"| {res} | {scans[0][0].n_faces:,} | {min(near):,}–{max(near):,} "
              f"({int(np.median(near)):,}) | {1e3 * best:.0f} ms | {1e3 * per_landmark:.2f} ms |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
