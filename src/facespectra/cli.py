"""Command-line pipeline: synth -> basis -> features -> evaluate.

Stages communicate exclusively through files so each one is rerun-safe
and cacheable.  Every subcommand accepts ``--config FILE`` with a JSON
object overriding its defaults; explicit flags win over the config file.
Exit codes: 0 on success, 1 on runtime failure (with a machine-readable
error block on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, pipeline
from .artifacts import npy_json_paths
from .data import load_manifest
from .experiments import (
    FOLDS,
    SEED,
    ClassifierConfig,
    au_report_section,
    build_report,
    check_sweep,
    compare_methods,
    eigen_sweep,
    evaluate_aus,
    evaluate_expressions,
    expression_report_section,
    format_au_result,
    format_expression_result,
    format_sweep_result,
    save_report,
    sweep_report_section,
)
from .features import DESCRIPTORS, load_feature_table, save_feature_csv, save_feature_table
from .patches import ALIGN_MODES, PatchConfig
from .pipeline import FeatureRunConfig, compute_basis
from .spectral import load_basis, save_basis
from .synth import SynthConfig, synth_generate


class UsageError(ValueError):
    pass


# namespace entries that are not settings of a subcommand
_INTERNAL = ("command", "config", "func", "parser")


def _settings(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _INTERNAL}


def _config_value(action: argparse.Action, key: str, value):
    """A ``--config`` value checked as its flag checks a command-line one:
    a JSON boolean for an on/off flag, ``null`` only where the flag's
    default is None, otherwise a string or number that passes the flag's
    ``type`` and ``choices``."""
    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif value is None:
        ok = action.default is None
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            converted = (action.type or str)(str(value))
        except (ValueError, argparse.ArgumentTypeError):
            ok = False
        else:
            ok = action.choices is None or converted in action.choices
            value = converted
    else:
        ok = False
    if not ok:
        raise UsageError(f"--config key {key!r}: invalid value {value!r} for "
                         f"{action.option_strings[0]}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv) -> argparse.Namespace:
    """Re-parse ``argv`` with the ``--config`` file's values, checked like
    the flags' own, as the subcommand's defaults, so explicit flags still
    win over them."""
    try:
        overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read --config {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError(f"--config {args.config} must contain a JSON object")
    unknown = set(overrides) - set(_settings(args))
    if unknown:
        raise UsageError(f"unknown keys in --config: {sorted(unknown)}")
    actions = {a.dest: a for a in args.parser._actions}
    args.parser.set_defaults(**{key: _config_value(actions[key], key, value)
                                for key, value in overrides.items()})
    return parser.parse_args(argv)


def _positive(kind):
    """Flag ``type`` that parses with ``kind`` and accepts only finite
    values above zero."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    return parse


def _fold_count(text: str) -> int:
    """``--folds`` type: an integer of at least 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 folds, got {text!r}")
    return value


def _patch_config(args) -> PatchConfig:
    try:
        return PatchConfig(lambda_min=args.lambda_min, lambda_max=args.lambda_max,
                           n_curves=args.curves, samples_per_curve=args.samples)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_synth(args) -> int:
    try:
        sc = SynthConfig(
            subjects=args.subjects,
            levels=tuple(range(1, args.levels + 1)),
            resolution=args.resolution,
            amplitude=args.amplitude,
            subject_amplitude=args.subject_amplitude,
            jitter=args.jitter,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    manifest = synth_generate(sc, out)
    n = sc.subjects * len(sc.expressions) * len(sc.levels)
    print(f"wrote {n} scans under {out} (manifest: {manifest})")
    return 0


def cmd_basis(args) -> int:
    pc = _patch_config(args)
    n = pc.n_vertices
    k = n if args.k is None else args.k
    if not 1 <= k <= n:
        raise UsageError(f"--k must be in [1, {n}] for this configuration, got {k}")
    basis = compute_basis(pc, k)
    save_basis(args.out, basis)
    npy, sidecar = npy_json_paths(args.out)
    print(f"basis: n={basis.n} k={basis.k} hash={basis.config_hash:#x} -> {npy} + {sidecar}")
    return 0


def _basis_methods() -> str:
    """The methods that project onto the shared basis, as usage texts name them."""
    return " or ".join(name for name, d in DESCRIPTORS.items() if d.needs_basis)


def cmd_features(args) -> int:
    if not args.manifest:
        raise UsageError("--manifest is required")
    pc = _patch_config(args)
    desc = DESCRIPTORS[args.method]
    unused = [flag for flag, given in (
        ("--basis", args.basis is not None and not desc.needs_basis),
        ("--drop-constant", args.drop_constant and not desc.needs_basis),
        (f"--mode {args.mode}", args.mode not in desc.modes)) if given]
    if unused:
        raise UsageError(f"--method {args.method} takes no {' or '.join(unused)} "
                         f"({_basis_methods()} features only)")
    basis = None
    if desc.needs_basis:
        if not args.basis:
            raise UsageError(f"--basis is required for {args.method} features")
        basis = load_basis(args.basis, expected_hash=pc.connectivity_hash())
    manifest = load_manifest(args.manifest)
    try:
        (table,), errors = pipeline.compute_feature_tables(
            manifest, pc, [(args.method, args.mode, args.k)], basis=basis,
            jobs=args.jobs, missing_policy=args.missing, align=args.align,
            drop_constant=args.drop_constant, rescale=args.rescale,
            patches_dir=args.save_patches,
        )
    except pipeline.FeaturizationError as exc:
        print(json.dumps({"errors": exc.errors}), file=sys.stderr)
        raise
    save_feature_table(args.out, table)
    if args.csv:
        save_feature_csv(args.csv, table)
    npy, sidecar = npy_json_paths(args.out)
    print(f"features: {table.X.shape[0]} scans x {table.X.shape[1]} columns "
          f"({table.method}/{table.mode}, k={table.k}) -> {npy} + {sidecar}")
    if errors:
        print(json.dumps({"errors": errors}), file=sys.stderr)
        return 1
    return 0


def _table_meta(table) -> dict:
    """How a feature table was made, as a report's config echoes it."""
    return {"method": table.method, "mode": table.mode, "k": table.k,
            "n_landmarks": len(table.landmark_labels), "patch_config": table.config,
            "config_hash": table.config_hash, "run": table.run}


def cmd_evaluate(args) -> int:
    if not args.features:
        raise UsageError("--features is required")
    other = ("reg",) if args.classifier == "svm" else ("kernel", "C", "gamma")
    unused = [f"--{name}" for name in other
              if getattr(args, name) != getattr(ClassifierConfig, name)]
    if unused:
        raise UsageError(f"--classifier {args.classifier} takes no {' or '.join(unused)}")
    clf = ClassifierConfig(kind=args.classifier, kernel=args.kernel, C=args.C,
                           gamma=args.gamma, reg=args.reg)
    folds, seed = args.folds, args.seed
    table = load_feature_table(args.features)
    n_subjects = len(set(table.subjects))
    if folds > n_subjects:
        raise UsageError(f"--folds {folds} exceeds the {n_subjects} distinct subjects "
                         f"in {args.features}")
    run_config = _settings(args)
    run_config["classifier_config"] = clf.to_dict()
    run_config["feature_meta"] = _table_meta(table)

    if args.compare_features and (args.sweep or args.task != "expressions"):
        raise UsageError("--compare-features applies to the expressions task "
                         "without --sweep only")
    if args.sweep:
        if args.task != "expressions":
            raise UsageError("--sweep applies to the expressions task only")
        try:
            k_values = check_sweep([x for x in args.sweep.split(",") if x.strip()], table.k)
        except ValueError as exc:
            raise UsageError(f"--sweep {args.sweep!r}: {exc}") from None
        result = eigen_sweep(table, k_values, classifier=clf, folds=folds, seed=seed)
        report = build_report("sweep", run_config, sweep_report_section(result))
        summary = format_sweep_result(result)
    elif args.task == "expressions":
        result = evaluate_expressions(table.X, table.expressions, table.subjects,
                                      classifier=clf, folds=folds, seed=seed,
                                      missing=table.missing)
        comparison = None
        if args.compare_features:
            other = load_feature_table(args.compare_features)
            if other.subjects != table.subjects:
                raise UsageError("--compare-features table has different samples")
            run_config["compare_feature_meta"] = _table_meta(other)
            other_result = evaluate_expressions(
                other.X, other.expressions, other.subjects,
                classifier=clf, folds=folds, seed=seed, missing=other.missing)
            names = [table.method, other.method]
            if names[0] == names[1]:    # two tables of one method: use the file stems
                names = [Path(p).stem for p in (args.features, args.compare_features)]
            if names[0] == names[1]:
                raise UsageError(f"--compare-features: both tables are {table.method} "
                                 f"tables named {names[0]!r}")
            comparison = compare_methods(dict(zip(names, (result, other_result))))
        report = build_report("expressions", run_config,
                              expression_report_section(result), comparison=comparison)
        summary = format_expression_result(result)
        if comparison:
            summary += (f"\nmethod comparison: {comparison['ordering']} (mean paired "
                        f"difference {100 * comparison['mean_difference']:+.2f} points)")
    else:
        result = evaluate_aus(table.X, table.aus, table.subjects,
                              classifier=clf, folds=folds, seed=seed, missing=table.missing)
        report = build_report("aus", run_config, au_report_section(result))
        summary = format_au_result(result)
    save_report(args.out, report)
    print(summary)
    print(f"report -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facespectra",
        description="Spectral patch descriptors and expression/AU experiments "
                    "for landmark-annotated 3D facial meshes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON file overriding this subcommand's defaults; "
                            "keys are the flags' dest names")
        p.set_defaults(func=func, parser=p)
        return p

    def add_patch_args(p):
        p.add_argument("--lambda-min", dest="lambda_min", type=float,
                       default=PatchConfig.lambda_min)
        p.add_argument("--lambda-max", dest="lambda_max", type=float,
                       default=PatchConfig.lambda_max)
        p.add_argument("--curves", type=int, default=PatchConfig.n_curves,
                       help="level curves per patch")
        p.add_argument("--samples", type=int, default=PatchConfig.samples_per_curve,
                       help="samples per curve")

    p = add("synth", "generate a synthetic dataset (meshes, landmarks, manifest)",
            cmd_synth)
    p.add_argument("--out", default="synth_data", help="output directory")
    p.add_argument("--subjects", type=int, default=SynthConfig.subjects)
    p.add_argument("--levels", type=int, default=len(SynthConfig.levels),
                   help="number of intensity levels (1..L)")
    p.add_argument("--resolution", type=int, default=SynthConfig.resolution,
                   help="grid vertices across the face")
    p.add_argument("--amplitude", type=float, default=SynthConfig.amplitude,
                   help="expression bump scale, mm")
    p.add_argument("--subject-amplitude", dest="subject_amplitude", type=float,
                   default=SynthConfig.subject_amplitude)
    p.add_argument("--jitter", type=float, default=SynthConfig.jitter,
                   help="Gaussian vertex noise, mm")
    p.add_argument("--seed", type=int, default=SynthConfig.seed)

    p = add("basis", "compute and store the shared graph-Laplacian basis", cmd_basis)
    p.add_argument("--out", default="basis",
                   help="output stem (.npy and .json are written)")
    add_patch_args(p)
    p.add_argument("--k", type=int, default=None,
                   help="eigenpairs to keep (default: all)")

    p = add("features", "extract patches and feature vectors for a manifest",
            cmd_features)
    p.add_argument("--manifest")
    p.add_argument("--out", default="features",
                   help="output stem (.npy and .json are written)")
    p.add_argument("--basis", help=f"basis stem (required for {_basis_methods()})")
    default = next(iter(DESCRIPTORS.values()))   # --mode offers the default method's modes
    p.add_argument("--method", choices=tuple(DESCRIPTORS), default=default.name)
    p.add_argument("--mode", choices=tuple(default.modes), default=next(iter(default.modes)))
    p.add_argument("--k", type=_positive(int), default=50)
    add_patch_args(p)
    run = FeatureRunConfig
    p.add_argument("--align", choices=ALIGN_MODES, default=run.align)
    p.add_argument("--missing", choices=run.MISSING_POLICIES, default=run.missing_policy,
                   help="zero-fill missing patches or drop the scan")
    p.add_argument("--drop-constant", dest="drop_constant", action="store_true",
                   help="drop the constant-eigenvector coefficient row")
    p.add_argument("--rescale", type=_positive(float), default=run.rescale,
                   help="unit rescale applied to meshes and their landmarks")
    p.add_argument("--jobs", type=_positive(int), default=run.jobs,
                   help="worker pool size for scan extraction")
    p.add_argument("--save-patches", dest="save_patches",
                   help="directory for per-scan patch archives")
    p.add_argument("--csv", help="also export the feature matrix as CSV")

    p = add("evaluate", "run cross-validated experiments and write a report",
            cmd_evaluate)
    p.add_argument("--features")
    p.add_argument("--out", default="report.json")
    p.add_argument("--task", choices=("expressions", "aus"), default="expressions")
    clf = ClassifierConfig
    p.add_argument("--classifier", choices=clf.KINDS, default=clf.kind)
    p.add_argument("--kernel", choices=clf.KERNELS, default=clf.kernel)
    p.add_argument("--C", type=_positive(float), default=clf.C)
    p.add_argument("--gamma", type=_positive(float), default=clf.gamma)
    p.add_argument("--reg", type=_positive(float), default=clf.reg)
    p.add_argument("--folds", type=_fold_count, default=FOLDS)
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--sweep", help="comma-separated eigenvalue counts")
    p.add_argument("--compare-features", dest="compare_features",
                   help="second feature table; emit a paired method comparison")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(parser, args, argv)
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": {"type": "usage", "message": str(exc)}}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: nonzero exit + JSON error block
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
