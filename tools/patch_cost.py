#!/usr/bin/env python3
"""Time mesh loading and patch extraction per scan on synthetic scans.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/patch_cost.py \\
        --resolutions 160,320 --repeats 5

For each resolution it builds the acceptance-style synthetic scans of one
subject (expressions HA and SU, level 2), writes each with ``save_obj`` to
a temporary directory, once as written and once with a ``vn`` line before
each ``v`` line, and loads both back with ``load_mesh``, traces the 68
landmarks of each scan with ``extract_patches`` and a 15x20 patch at
lambda_max = 20 mm, and prints the faces per scan, the faces near each
landmark (range and median), and the best-of-``--repeats`` load times per
scan and trace time per scan and per landmark.  Each trace repeat runs on
fresh copies of the meshes, so it includes building the neighbourhood
index that ``TriangleMesh.faces_within`` keeps, as every featurized scan
does.
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from facespectra.mesh import (TriangleMesh, load_mesh, obj_face_records, obj_vertex_records,
                              save_obj)
from facespectra.patches import PatchConfig, extract_patches
from facespectra.synth import SynthConfig, generate_scan

ACCEPTANCE = {"amplitude": 1.2, "subject_amplitude": 3.5, "jitter": 0.4}


def best_per_scan(repeats: int, run, prepare=lambda: None) -> float:
    """Best of ``repeats`` wall times of ``run(prepare())``, per item it
    returns; ``prepare`` runs before each repeat, outside the timing."""
    best = np.inf
    for _ in range(repeats):
        arg = prepare()
        start = time.perf_counter()
        n = len(run(arg))
        best = min(best, (time.perf_counter() - start) / n)
    return best


def save_obj_with_normals(path, mesh) -> None:
    """:func:`save_obj`'s records with a ``vn`` line before each ``v`` line."""
    vn = "vn 0.000000 0.000000 1.000000\n"
    records = obj_vertex_records(mesh.vertices).splitlines(keepends=True)
    Path(path).write_text("".join(vn + v for v in records) + obj_face_records(mesh.faces))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--resolutions", default="160,320")
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    cfg = PatchConfig(5.0, 20.0, 15, 20)
    print("| resolution | faces per scan | faces per landmark (median) "
          "| load per scan | load with vn per scan | trace per scan | trace per landmark |")
    print("|---|---|---|---|---|---|---|")
    for res in (int(r) for r in args.resolutions.split(",")):
        synth = SynthConfig(subjects=1, seed=1, resolution=res, **ACCEPTANCE)
        scans = [generate_scan(synth, 0, e, 2)[:2] for e in ("HA", "SU")]
        near = [mesh.faces_within(p, cfg.lambda_max).size
                for mesh, lmk in scans for p in lmk.positions]
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"scan{i}.obj" for i in range(len(scans))]
            vn_paths = [Path(tmp) / f"scan{i}_vn.obj" for i in range(len(scans))]
            for path, vn_path, (mesh, _) in zip(paths, vn_paths, scans):
                save_obj(path, mesh)
                save_obj_with_normals(vn_path, mesh)
            load = best_per_scan(args.repeats, lambda _: [load_mesh(path) for path in paths])
            load_vn = best_per_scan(args.repeats,
                                    lambda _: [load_mesh(path) for path in vn_paths])
        # fresh meshes: the faces_within calls above left an index on each
        trace = best_per_scan(
            args.repeats,
            lambda fresh: [extract_patches(mesh, lmk, cfg) for mesh, lmk in fresh],
            lambda: [(TriangleMesh(mesh.vertices, mesh.faces), lmk) for mesh, lmk in scans])
        print(f"| {res} | {scans[0][0].n_faces:,} | {min(near):,}–{max(near):,} "
              f"({int(np.median(near)):,}) | {1e3 * load:.0f} ms | {1e3 * load_vn:.0f} ms "
              f"| {1e3 * trace:.0f} ms "
              f"| {1e3 * trace / len(scans[0][1]):.2f} ms |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
