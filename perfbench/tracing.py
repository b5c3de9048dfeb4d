"""Spans and counts for the traced benchmark run, recorded from outside.

The program is not edited: each probe rebinds one module (or class)
attribute at the place where the caller looks the function up, and
``instrumented`` restores every original object when the run ends.
Spans stay in memory; the benchmark writes them out after the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count_vertices(counts, args, result):
    counts["mesh.vertices_loaded"] += result.n_vertices


def _count_missing(counts, args, result):
    counts["patches.missing"] += int(result[1].sum())


def _count_skipped(counts, args, result):
    counts["pipeline.scans_skipped"] += sum(
        1 for e in result[1] if "missing_patches" not in e)


def _count_saved_bytes(counts, args, result):
    counts["features.table_bytes"] += args[1].X.nbytes


def _count_loaded_bytes(counts, args, result):
    counts["features.table_bytes"] += result.X.nbytes


def _count_smo(counts, args, result):
    counts["classify.smo_iters"] += result.n_iter
    counts["classify.support_vectors"] += result.support_vectors.shape[0]


# (span name, module where the caller looks the name up, attribute path,
#  starts a new trace id, count hook).  One name may be bound in several
# modules; each binding is wrapped, and the spans share the name.
PROBES = (
    ("cli.main", "facespectra.cli", "main", True, None),
    ("data.load_manifest", "facespectra.cli", "load_manifest", False, None),
    ("spectral.compute_basis", "facespectra.cli", "compute_basis", False, None),
    ("features.save_feature_table", "facespectra.cli", "save_feature_table", False,
     _count_saved_bytes),
    ("features.load_feature_table", "facespectra.cli", "load_feature_table", False,
     _count_loaded_bytes),
    ("pipeline.compute_feature_tables", "facespectra.pipeline", "compute_feature_tables",
     False, _count_skipped),
    # one trace id per scan
    ("pipeline.featurize_scan", "facespectra.pipeline", "_featurize_record", True, None),
    ("mesh.load_mesh", "facespectra.pipeline", "load_mesh", False, _count_vertices),
    ("patches.extract_patches", "facespectra.pipeline", "extract_patches", False,
     _count_missing),
    ("features.glf_project", "facespectra.pipeline", "glf_project", False, None),
    ("spectral.shape_dna", "facespectra.pipeline", "shape_dna", False, None),
    ("patches.build_patch", "facespectra.patches", "build_patch", False, None),
    ("mesh.distance_field", "facespectra.patches", "distance_field", False, None),
    ("patches.apex_normal", "facespectra.patches", "apex_normal", False, None),
    ("patches.resample_uniform", "facespectra.patches", "resample_uniform", False, None),
    ("spectral.cotan_stiffness", "facespectra.spectral", "cotan_stiffness", False, None),
    ("spectral.voronoi_mass", "facespectra.spectral", "voronoi_mass", False, None),
    ("spectral.symmetrize", "facespectra.spectral", "symmetrize", False, None),
    ("spectral.connected_components", "facespectra.spectral", "connected_components",
     False, None),
    ("experiments.eigen_sweep", "facespectra.cli", "eigen_sweep", False, None),
    ("experiments.evaluate_expressions", "facespectra.cli", "evaluate_expressions",
     False, None),
    ("experiments.evaluate_expressions", "facespectra.experiments",
     "evaluate_expressions", False, None),
    ("experiments.evaluate_aus", "facespectra.cli", "evaluate_aus", False, None),
    ("experiments.validate_report", "facespectra.experiments", "validate_report",
     False, None),
    ("classify.standardize", "facespectra.experiments", "standardize_fit", False, None),
    ("classify.standardize", "facespectra.experiments", "standardize_apply", False, None),
    ("classify.svm_train_binary", "facespectra.classify", "svm_train_binary", False,
     _count_smo),
    ("classify.kernel_matrix", "facespectra.classify", "kernel_matrix", False, None),
    ("classify.BinarySVM.decision", "facespectra.classify", "BinarySVM.decision",
     False, None),
    ("classify.svm_predict", "facespectra.classify", "svm_predict", False, None),
    ("classify.flda_train", "facespectra.classify", "flda_train", False, None),
    ("classify.flda_predict", "facespectra.classify", "flda_predict", False, None),
)


SPAN_NAMES = frozenset(p[0] for p in PROBES)
SPAN_FIELDS = ("s", "self_s", "calls")
COUNTS = ("mesh.vertices_loaded", "patches.missing", "pipeline.scans_skipped",
          "features.table_bytes", "classify.smo_iters", "classify.support_vectors",
          "trace.spans")


def probe_targets():
    """``[(owner, attribute, original object)]`` for every probe."""
    targets = []
    for _, module, path, _, _ in PROBES:
        owner = importlib.import_module(module)
        *outer, leaf = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        # vars() gives the plain function for a method, not a bound one
        targets.append((owner, leaf, vars(owner)[leaf]))
    return targets


class Tracer:
    """Records one span per wrapped call: name, trace id, parent span,
    start and end (``perf_counter`` seconds)."""

    def __init__(self):
        self.spans = []      # [name, trace, parent, start, end]
        self.counts = defaultdict(int)
        self._stack = []
        self._traces = 0

    def wrap(self, name, fn, root, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if root or parent < 0:
                self._traces += 1
                trace = self._traces
            else:
                trace = spans[parent][1]
            record = [name, trace, parent, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: total seconds ``s``, self seconds ``self_s``
        (duration minus the time its child spans cover) and ``calls``."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, _, _, start, end) in enumerate(self.spans):
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["calls"] += 1
        return dict(out)

    def metrics(self, names) -> dict:
        """Per-layer metrics named ``<span name>.<s|self_s|calls>`` or by a
        count; a span or count never reached reads 0."""
        summary = self.summary()
        counts = dict.fromkeys(COUNTS, 0)
        counts.update(self.counts, **{"trace.spans": len(self.spans)})
        out = {}
        for name in names:
            span, _, field = name.rpartition(".")
            if field in SPAN_FIELDS and span in SPAN_NAMES:
                out[name] = summary.get(span, {}).get(field, 0)
            elif name in counts:
                out[name] = counts[name]
            else:
                raise KeyError(f"no span or count gives the metric {name!r}")
        return out


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every probe for the duration of the block, then put each
    original object back, also when the block raises."""
    saved = []
    try:
        for (name, _, _, root, count), (owner, leaf, original) in zip(PROBES,
                                                                      probe_targets()):
            setattr(owner, leaf, tracer.wrap(name, original, root, count))
            saved.append((owner, leaf, original))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
