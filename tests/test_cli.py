import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import facespectra
from facespectra.cli import build_parser, main
from facespectra.data import load_manifest
from facespectra.experiments import FOLDS, SEED, ClassifierConfig, validate_report
from facespectra.features import METHODS, load_feature_table, save_feature_table
from facespectra.patches import ALIGN_MODES, PatchConfig
from facespectra.pipeline import FeatureRunConfig
from facespectra.synth import SynthConfig

PATCH_FLAGS = ["--lambda-min", "6", "--lambda-max", "12", "--curves", "3",
               "--samples", "8"]


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Small dataset plus basis produced through the CLI itself."""
    ws = tmp_path_factory.mktemp("cli_ws")
    data = ws / "data"
    rc = main(["synth", "--out", str(data), "--subjects", "2", "--seed", "3",
               "--resolution", "40"])
    assert rc == 0
    basis = ws / "basis"
    rc = main(["basis", "--out", str(basis)] + PATCH_FLAGS + ["--k", "25"])
    assert rc == 0
    feats = ws / "glf"
    rc = main(["features", "--manifest", str(data / "manifest.csv"),
               "--basis", str(basis), "--method", "glf", "--mode", "coords",
               "--k", "12", "--out", str(feats)] + PATCH_FLAGS)
    assert rc == 0
    return {"ws": ws, "data": data, "basis": basis, "glf": feats}


def test_parser_defaults_and_choices_come_from_their_homes():
    """Each setting defined outside the CLI is parsed with that definition's
    default and choices: ``{dest: (default, choices)}`` per subcommand."""
    patch = {"lambda_min": (PatchConfig.lambda_min, None),
             "lambda_max": (PatchConfig.lambda_max, None),
             "curves": (PatchConfig.n_curves, None),
             "samples": (PatchConfig.samples_per_curve, None)}
    run, clf = FeatureRunConfig, ClassifierConfig
    homes = {
        "synth": {"subjects": (SynthConfig.subjects, None),
                  "levels": (len(SynthConfig.levels), None),
                  "resolution": (SynthConfig.resolution, None),
                  "amplitude": (SynthConfig.amplitude, None),
                  "subject_amplitude": (SynthConfig.subject_amplitude, None),
                  "jitter": (SynthConfig.jitter, None), "seed": (SynthConfig.seed, None)},
        "basis": patch,
        "features": {**patch, "method": ("glf", METHODS),
                     "mode": ("coords", ("coords", "norms")), "align": (run.align, ALIGN_MODES),
                     "missing": (run.missing_policy, run.MISSING_POLICIES),
                     "drop_constant": (run.drop_constant, None),
                     "rescale": (run.rescale, None), "jobs": (run.jobs, None)},
        "evaluate": {"classifier": (clf.kind, clf.KINDS), "kernel": (clf.kernel, clf.KERNELS),
                     "C": (clf.C, None), "gamma": (clf.gamma, None), "reg": (clf.reg, None),
                     "folds": (FOLDS, None), "seed": (SEED, None)},
    }
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, settings in homes.items():
        parsed = vars(parser.parse_args([command]))
        actions = {a.dest: a for a in commands[command]._actions}
        for dest, (default, choices) in settings.items():
            assert parsed[dest] == default, (command, dest)
            assert actions[dest].choices == choices, (command, dest)
        # --task alone has its choices in the CLI
        assert {d for d, a in actions.items() if a.choices} <= set(settings) | {"task"}


def test_version_has_one_home():
    """The package version is read from ``facespectra.__version__``, not
    written again in ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "facespectra.__version__"}
    assert isinstance(facespectra.__version__, str)


def test_synth_cmd_creates_dataset(cli_workspace):
    manifest = load_manifest(cli_workspace["data"] / "manifest.csv")
    assert len(manifest) == 24  # 2 subjects x 6 expressions x 2 levels


def test_basis_cmd_bit_identical_rerun(cli_workspace, tmp_path):
    other = tmp_path / "again"
    rc = main(["basis", "--out", str(other)] + PATCH_FLAGS + ["--k", "25"])
    assert rc == 0
    for suffix in (".npy", ".json"):
        first = cli_workspace["ws"] / f"basis{suffix}"
        assert (tmp_path / f"again{suffix}").read_bytes() == first.read_bytes()


def test_basis_cmd_default_dimension(tmp_path, capsys):
    rc = main(["basis", "--out", str(tmp_path / "default"), "--k", "10"])
    assert rc == 0
    assert "n=751" in capsys.readouterr().out


def test_basis_cmd_k_too_large_is_usage_error(tmp_path, capsys):
    rc = main(["basis", "--out", str(tmp_path / "b")] + PATCH_FLAGS +
              ["--k", "26"])  # n = 1 + 3*8 = 25
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "usage"


def test_features_cmd_column_counts(cli_workspace, tmp_path):
    table = load_feature_table(cli_workspace["glf"])
    assert table.X.shape == (24, 68 * 12 * 3)
    dna = tmp_path / "dna"
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--method", "shapedna", "--k", "10", "--out", str(dna)] + PATCH_FLAGS)
    assert rc == 0
    t2 = load_feature_table(dna)
    assert t2.X.shape == (24, 680)


@pytest.mark.parametrize("suffix", ["", ".npy", ".json"])
def test_completion_messages_name_the_files_written(cli_workspace, tmp_path, capsys, suffix):
    basis, feats = tmp_path / "b", tmp_path / "feats"
    assert main(["basis", "--out", f"{basis}{suffix}", "--k", "5"] + PATCH_FLAGS) == 0
    assert main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
                 "--method", "shapedna", "--k", "3", "--out", f"{feats}{suffix}"]
                + PATCH_FLAGS) == 0
    lines = capsys.readouterr().out.splitlines()
    for stem, line in zip((basis, feats), lines):
        assert line.endswith(f"-> {stem}.npy + {stem}.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "b.json", "b.npy", "feats.json", "feats.npy"]


def test_features_cmd_requires_basis_for_glf(cli_workspace, capsys):
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--method", "glf", "--k", "4", "--out", "x"] + PATCH_FLAGS)
    assert rc == 2
    assert "basis" in capsys.readouterr().err


def test_features_cmd_basis_hash_mismatch(cli_workspace, capsys):
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--basis", str(cli_workspace["basis"]), "--method", "glf",
               "--k", "4", "--out", "x",
               "--lambda-min", "6", "--lambda-max", "12", "--curves", "4",
               "--samples", "8"])
    assert rc == 1
    assert "hash" in capsys.readouterr().err


def test_features_cmd_unreadable_mesh_continues(cli_workspace, tmp_path, capsys):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(cli_workspace["data"], data)
    victim = data / "meshes" / "S000_AN_1.obj"
    victim.write_text("v 0 0 zzz\n")
    out = tmp_path / "broken"
    rc = main(["features", "--manifest", str(data / "manifest.csv"),
               "--basis", str(cli_workspace["basis"]), "--method", "glf",
               "--mode", "coords", "--k", "6", "--out", str(out)] + PATCH_FLAGS)
    assert rc == 1  # partial failure -> nonzero exit
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["errors"]
    table = load_feature_table(out)
    assert table.X.shape[0] == 23  # run continued without the bad scan


def test_features_cmd_names_why_no_scan_featurized(cli_workspace, tmp_path, capsys):
    """With no scan left, ``features`` prints every scan's record on stderr,
    then an error naming the scan count and the first scan's reason."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(cli_workspace["data"], data)
    meshes = sorted((data / "meshes").glob("*.obj"))
    for path in meshes:
        path.write_text("v 0 0 zzz\n")
    rc = main(["features", "--manifest", str(data / "manifest.csv"),
               "--basis", str(cli_workspace["basis"]), "--method", "glf",
               "--mode", "coords", "--k", "6", "--out", str(tmp_path / "feats")] + PATCH_FLAGS)
    assert rc == 1
    errors_line, error_line = capsys.readouterr().err.strip().splitlines()[-2:]
    errors = json.loads(errors_line)["errors"]
    assert sorted(e["scan"] for e in errors) == [str(p) for p in meshes]
    error = json.loads(error_line)["error"]
    assert error["type"] == "FeaturizationError"
    assert error["message"].startswith(f"no scan could be featurized ({len(meshes)} scan(s)); "
                                       f"first, {errors[0]['scan']}: {errors[0]['error']}")
    assert not (tmp_path / "feats.npy").exists()


def test_infinite_lambda_max_is_usage_error(tmp_path, capsys):
    """``basis`` and ``features`` refuse an infinite ``--lambda-max``, naming
    the bound, before anything is read or written."""
    out = ["--out", str(tmp_path / "out")]
    for argv in (["basis", *out], ["features", *out, "--manifest", "m.csv"]):
        assert main(argv + ["--lambda-max", "inf"]) == 2, argv[0]
        assert "lambda_max < inf" in capsys.readouterr().err, argv[0]
    assert not list(tmp_path.glob("out*"))


def test_features_cmd_saves_patch_archives_and_csv(cli_workspace, tmp_path):
    arch = tmp_path / "arch"
    out = tmp_path / "feats"
    csv_path = tmp_path / "feats.csv"
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--basis", str(cli_workspace["basis"]), "--method", "glf",
               "--k", "4", "--out", str(out), "--save-patches", str(arch),
               "--csv", str(csv_path)] + PATCH_FLAGS)
    assert rc == 0
    assert len(list(arch.glob("*.npy"))) == 24
    assert len(list(arch.glob("*.json"))) == 24
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 25
    assert lines[0].split(",")[4].startswith("L")


def test_evaluate_cmd_expressions_report(cli_workspace, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--features", str(cli_workspace["glf"]),
               "--task", "expressions", "--classifier", "flda",
               "--folds", "2", "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean accuracy" in out
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert len(report["results"]["confusion"]["percent"]) == 6


def test_evaluate_cmd_au_table_has_17_rows(cli_workspace, tmp_path, capsys):
    report_path = tmp_path / "aus.json"
    rc = main(["evaluate", "--features", str(cli_workspace["glf"]),
               "--task", "aus", "--classifier", "flda", "--folds", "2",
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert len(report["results"]["aus"]) == 17


def test_evaluate_cmd_sweep_columns(cli_workspace, tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    rc = main(["evaluate", "--features", str(cli_workspace["glf"]),
               "--task", "expressions", "--classifier", "flda", "--folds", "2",
               "--sweep", "2,6,12", "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert report["results"]["k_values"] == [2, 6, 12]
    out = capsys.readouterr().out
    assert "2" in out and "12" in out


def test_evaluate_cmd_compare_features(cli_workspace, tmp_path, capsys):
    dna = tmp_path / "dna"
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--method", "shapedna", "--k", "12", "--out", str(dna)] + PATCH_FLAGS)
    assert rc == 0
    report_path = tmp_path / "cmp.json"
    rc = main(["evaluate", "--features", str(cli_workspace["glf"]),
               "--task", "expressions", "--classifier", "flda", "--folds", "2",
               "--compare-features", str(dna), "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert report["comparison"]["methods"] == ["glf", "shapedna"]
    assert len(report["comparison"]["paired_differences"]) == 2
    assert "comparison" in capsys.readouterr().out


def test_evaluate_cmd_compare_features_same_method(cli_workspace, tmp_path, capsys):
    """Two GLF tables are told apart by their file stems."""
    norms = tmp_path / "glf_norms"
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--basis", str(cli_workspace["basis"]), "--method", "glf",
               "--mode", "norms", "--k", "12", "--out", str(norms)] + PATCH_FLAGS)
    assert rc == 0
    report_path = tmp_path / "cmp.json"
    rc = main(["evaluate", "--features", str(cli_workspace["glf"]),
               "--classifier", "flda", "--folds", "2",
               "--compare-features", str(norms), "--out", str(report_path)])
    assert rc == 0, capsys.readouterr().err
    comparison = json.loads(report_path.read_text())["comparison"]
    assert comparison["methods"] == ["glf", "glf_norms"]
    assert set(comparison["mean_accuracy"]) == {"glf", "glf_norms"}
    assert "glf" in capsys.readouterr().out


def test_evaluate_report_says_how_each_table_was_made(cli_workspace, tmp_path, capsys):
    """The report's config echoes each table's run settings and connectivity
    hash, for the ``--compare-features`` table too."""
    aligned = tmp_path / "glf_aligned"
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--basis", str(cli_workspace["basis"]), "--method", "glf", "--k", "12",
               "--align", "normal", "--out", str(aligned)] + PATCH_FLAGS)
    assert rc == 0
    report_path = tmp_path / "cmp.json"
    rc = main(["evaluate", "--features", str(cli_workspace["glf"]), "--classifier", "flda",
               "--folds", "2", "--compare-features", str(aligned), "--out", str(report_path)])
    assert rc == 0, capsys.readouterr().err
    config = json.loads(report_path.read_text())["config"]
    for key, path in (("feature_meta", cli_workspace["glf"]),
                      ("compare_feature_meta", aligned)):
        table = load_feature_table(path)
        assert config[key] == {"method": "glf", "mode": "coords", "k": 12,
                               "n_landmarks": len(table.landmark_labels),
                               "patch_config": table.config,
                               "config_hash": table.config_hash, "run": table.run}
    assert [config[key]["run"]["align"] for key in ("feature_meta", "compare_feature_meta")
            ] == ["none", "normal"]


def test_evaluate_cmd_passes_missing_flags(cli_workspace, tmp_path, capsys):
    """``evaluate`` hands each table's missing-patch flags to the
    evaluation, also for the ``--compare-features`` table: a copy whose
    missing blocks hold garbage instead of zeros gives the same results."""
    table = load_feature_table(cli_workspace["glf"])
    rng = np.random.default_rng(0)
    flags = rng.random(table.missing.shape) < 0.15
    width = table.X.shape[1] // flags.shape[1]
    paths = []
    for name, fill in (("zeros", 0.0), ("garbage", 1e4)):
        X = table.X.copy()
        X[flags.repeat(width, axis=1)] = fill
        path = tmp_path / name
        save_feature_table(path, replace(table, X=X, missing=flags))
        paths.append(str(path))
    results = {}
    for name, features, other in zip(("zeros", "garbage"), paths, paths[::-1]):
        for task, extra in (("expressions", ["--compare-features", other]),
                            ("aus", []), ("sweep", ["--sweep", "2,12"])):
            out = tmp_path / f"{name}-{task}.json"
            argv = ["evaluate", "--features", features, "--classifier", "flda",
                    "--folds", "2", "--out", str(out), *extra]
            argv += ["--task", "aus"] if task == "aus" else []
            assert main(argv) == 0, capsys.readouterr().err
            results[name, task] = json.loads(out.read_text())["results"]
    for task in ("expressions", "aus", "sweep"):
        assert results["zeros", task] == results["garbage", task]
    for name in ("zeros", "garbage"):
        report = json.loads((tmp_path / f"{name}-expressions.json").read_text())
        assert report["comparison"]["paired_differences"] == [0.0, 0.0]


def test_evaluate_cmd_bad_sweep_or_comparison_is_usage_error(cli_workspace, tmp_path,
                                                             capsys):
    glf = str(cli_workspace["glf"])
    report_path = tmp_path / "bad.json"
    for flags, named in ((["--sweep", "0,5"], "[0]"), (["--sweep=-3,5"], "[-3]"),
                         (["--sweep", "5,2,5"], "[5]"),
                         (["--task", "aus", "--compare-features", glf], "--compare-features"),
                         (["--sweep", "2,6", "--compare-features", glf],
                          "--compare-features")):
        rc = main(["evaluate", "--features", glf, "--classifier", "flda", "--folds", "2",
                   "--out", str(report_path), *flags])
        assert rc == 2, flags
        assert named in capsys.readouterr().err, flags
        assert not report_path.exists()


def _features_with_config(ws, tmp_path, config, flags=()):
    """Run glf ``features`` with ``config`` as its --config file; return
    the table's k."""
    cfgfile = tmp_path / "features.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "cfg_feats"
    rc = main(["features", "--config", str(cfgfile), "--manifest",
               str(ws["data"] / "manifest.csv"), "--basis", str(ws["basis"]),
               "--out", str(out), *flags] + PATCH_FLAGS)
    assert rc == 0
    return load_feature_table(out).k


def test_config_file_overrides_defaults(cli_workspace, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"subjects": 1, "resolution": 24, "seed": 9}))
    out = tmp_path / "d"
    rc = main(["synth", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    assert len(load_manifest(out / "manifest.csv")) == 12
    assert _features_with_config(cli_workspace, tmp_path, {"k": 6}) == 6


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    # the removed no-op flags are unknown keys too
    for command, key in (("synth", "bogus"), ("basis", "bogus"), ("basis", "seed"),
                         ("features", "bogus"), ("features", "seed"),
                         ("features", "lumping"), ("evaluate", "bogus"),
                         ("evaluate", "jobs")):
        cfgfile.write_text(json.dumps({key: 1}))
        rc = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "d")])
        assert rc == 2, command
        assert key in capsys.readouterr().err


def test_explicit_flag_wins_over_config(cli_workspace, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"subjects": 3, "resolution": 24}))
    out = tmp_path / "d"
    rc = main(["synth", "--config", str(cfgfile), "--subjects", "1",
               "--out", str(out)])
    assert rc == 0
    assert len(load_manifest(out / "manifest.csv")) == 12
    assert _features_with_config(cli_workspace, tmp_path, {"k": 6}, ["--k", "4"]) == 4


def test_config_value_checked_like_flag(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    for config in ({"drop_constant": "false"}, {"curves": 2.5}, {"method": "foo"},
                   {"align": 1}, {"k": None}, {"k": True}, {"rescale": 0},
                   {"rescale": -1}, {"jobs": 0}, {"jobs": -2}):
        cfgfile.write_text(json.dumps(config))
        rc = main(["features", "--config", str(cfgfile)])
        assert rc == 2, config
        err = capsys.readouterr().err
        assert repr(next(iter(config))) in err, config
        assert "--" + next(iter(config)).replace("_", "-") in err, config


def test_removed_no_op_flags_rejected(capsys):
    for argv in (["basis", "--seed", "1"], ["basis", "--jobs", "2"],
                 ["features", "--seed", "1"], ["evaluate", "--jobs", "2"],
                 ["features", "--lumping", "mixed"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_glf_only_flags_rejected_for_shapedna(cli_workspace, tmp_path, capsys):
    """``--basis``, ``--drop-constant`` and ``--mode norms`` change nothing in
    Shape-DNA features, so with ``--method shapedna`` each is a usage error
    naming the flag, from the command line and from ``--config`` alike."""
    argv = ["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
            "--method", "shapedna", "--k", "3", "--out", str(tmp_path / "dna")] + PATCH_FLAGS
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"drop_constant": True}))
    for extra, flag in ((["--basis", str(cli_workspace["basis"])], "--basis"),
                        (["--drop-constant"], "--drop-constant"),
                        (["--mode", "norms"], "--mode norms"),
                        (["--config", str(cfgfile)], "--drop-constant")):
        assert main(argv + extra) == 2, extra
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "usage" and flag in err["message"], extra
    assert not any(tmp_path.glob("dna*"))


def test_classifier_flags_of_the_other_classifier_rejected(cli_workspace, tmp_path, capsys):
    """``--kernel``, ``--C`` and ``--gamma`` set the SVM only and ``--reg``
    FLDA only, so each, set to other than its default for the other
    classifier, is a usage error naming it, from the command line and
    from ``--config`` alike; its default value passes."""
    report_path = tmp_path / "report.json"
    argv = ["evaluate", "--features", str(cli_workspace["glf"]), "--folds", "2",
            "--out", str(report_path)]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"C": 5.0, "gamma": 3.0}))
    for kind, extra, named in (
            ("flda", ["--C", "5", "--kernel", "linear", "--gamma", "3"],
             ["--kernel", "--C", "--gamma"]),
            ("flda", ["--config", str(cfgfile)], ["--C", "--gamma"]),
            ("svm", ["--reg", "0.5"], ["--reg"])):
        assert main(argv + ["--classifier", kind] + extra) == 2, extra
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "usage", extra
        assert all(flag in err["message"] for flag in named), extra
        assert ("--reg" in err["message"]) == (kind == "svm"), extra
    assert not report_path.exists()
    assert main(argv + ["--classifier", "flda", "--kernel", "rbf", "--C", "1"]) == 0
    assert report_path.exists()


def test_out_of_range_flags_rejected(capsys):
    for flag, value in (("--rescale", "-1"), ("--rescale", "0"), ("--rescale", "nan"),
                        ("--jobs", "-2"), ("--jobs", "0")):
        with pytest.raises(SystemExit) as exc:
            main(["features", "--manifest", "m.csv", flag, value])
        assert exc.value.code == 2, (flag, value)
        assert f"argument {flag}" in capsys.readouterr().err, (flag, value)


def test_out_of_range_classifier_settings_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    for flag in ("--C", "--gamma", "--reg"):
        for value in ("0", "-1", "nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                main(["evaluate", "--features", "t", flag, value])
            assert exc.value.code == 2, (flag, value)
            assert f"argument {flag}" in capsys.readouterr().err, (flag, value)
            cfgfile.write_text(json.dumps({flag[2:]: float(value)}))
            rc = main(["evaluate", "--config", str(cfgfile)])
            assert rc == 2, (flag, value)
            assert flag in capsys.readouterr().err, (flag, value)


def test_fold_count_below_two_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    for value in ("1", "0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--features", "t", "--folds", value])
        assert exc.value.code == 2, value
        assert "argument --folds" in capsys.readouterr().err, value
        cfgfile.write_text(json.dumps({"folds": int(value)}))
        rc = main(["evaluate", "--config", str(cfgfile)])
        assert rc == 2, value
        assert "--folds" in capsys.readouterr().err, value


def test_more_folds_than_subjects_is_usage_error(cli_workspace, tmp_path, capsys):
    report_path = tmp_path / "folds.json"
    for task in ("expressions", "aus"):
        rc = main(["evaluate", "--features", str(cli_workspace["glf"]), "--task", task,
                   "--classifier", "flda", "--folds", "3", "--out", str(report_path)])
        assert rc == 2, task
        err = capsys.readouterr().err
        assert "--folds 3" in err and "2 distinct subjects" in err, task
        assert not report_path.exists()

def test_features_cmd_shapedna_k_beyond_patch_fails(cli_workspace, tmp_path, capsys):
    out = tmp_path / "dna"
    rc = main(["features", "--manifest", str(cli_workspace["data"] / "manifest.csv"),
               "--method", "shapedna", "--k", "200", "--out", str(out)] + PATCH_FLAGS)
    assert rc == 1
    assert "k=200" in capsys.readouterr().err
    assert not out.with_suffix(".npy").exists()


def test_invalid_synth_amplitude_usage_error(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--amplitude", "-2"])
    assert rc == 2
    assert "amplitude" in capsys.readouterr().err


def test_empty_levels_and_zero_k_are_usage_errors(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    for command, key, value, named in (("synth", "levels", 0, "levels is empty"),
                                       ("synth", "levels", -1, "levels is empty"),
                                       ("features", "k", 0, "--k"),
                                       ("features", "k", -3, "--k")):
        argv = [command, "--out", str(tmp_path / "out")]
        flag = [f"--{key}", str(value)]
        if command == "synth":
            assert main(argv + flag) == 2, (key, value)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv + flag)
            assert exc.value.code == 2, (key, value)
        assert named in capsys.readouterr().err, (key, value)
        cfgfile.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(cfgfile), *argv[1:]]) == 2, (key, value)
        assert named in capsys.readouterr().err, (key, value)
    assert not (tmp_path / "out").exists()


def test_features_then_evaluate_name_every_injected_fault(cli_workspace, tmp_path, capsys,
                                                          monkeypatch):
    """Failure injection end to end: a landmark moved off the surface, a
    mesh file cut short so that it does not parse, and an SMO fold that
    cannot converge (every pair of fold 0 capped at one pair update) are
    each named with their reason, in the stderr error block of
    ``features`` or in the report of ``evaluate``, and the exit codes are
    README's: 1 for the partial ``features`` run, 0 for an evaluation
    that skips a fold and records why."""
    import shutil

    from facespectra import classify
    from facespectra.mesh import LandmarkSet, load_landmarks, save_landmarks

    data = tmp_path / "data"
    shutil.copytree(cli_workspace["data"], data)
    records = load_manifest(data / "manifest.csv").records
    moved, cut = records[1], records[2]
    lmk = load_landmarks(moved.landmarks_path)
    positions = lmk.positions.copy()
    positions[5, 2] += 200.0
    save_landmarks(moved.landmarks_path, LandmarkSet(lmk.labels, positions))
    text = cut.mesh_path.read_text()
    cut.mesh_path.write_text(text[:text.rstrip().rindex(" ")])  # last face loses an index
    feats = tmp_path / "feats"
    rc = main(["features", "--manifest", str(data / "manifest.csv"),
               "--basis", str(cli_workspace["basis"]), "--method", "glf",
               "--mode", "coords", "--k", "6", "--out", str(feats)] + PATCH_FLAGS)
    assert rc == 1
    errors = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["errors"]
    by_scan = {e["scan"]: e for e in errors}
    assert set(by_scan) == {str(moved.mesh_path), str(cut.mesh_path)}
    assert "only triangular faces are supported" in by_scan[str(cut.mesh_path)]["error"]
    label = lmk.labels[5]
    assert by_scan[str(moved.mesh_path)]["missing_patches"] == {
        label: f"iso-level 6.0 has no crossings (landmark {label!r})"}
    table = load_feature_table(feats)
    assert table.X.shape[0] == len(records) - 1          # the cut scan is skipped
    assert np.argwhere(table.missing).tolist() == [[1, 5]]  # flagged in the sidecar

    solve = classify.svm_solve_batch
    calls = []

    def fold_zero_capped(grams, problems, C=1.0, tol=1e-3, max_iter=100_000):
        results = solve(grams, problems, C=C, tol=tol, max_iter=max_iter)
        if not calls:                       # fold 0's pairs read Gram 0 of the first call
            zero = [p for p, (g, _) in enumerate(problems) if g == 0]
            capped = solve(grams, [problems[p] for p in zero], C=C, tol=tol, max_iter=1)
            for p, machine in zip(zero, capped):
                results[p] = machine
        calls.append(len(problems))
        return results

    monkeypatch.setattr(classify, "svm_solve_batch", fold_zero_capped)
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--features", str(feats), "--classifier", "svm", "--folds", "2",
               "--out", str(report_path)])
    assert rc == 0, capsys.readouterr().err
    skipped = json.loads(report_path.read_text())["results"]["skipped"]
    assert [s["fold"] for s in skipped] == [0]
    assert "SMO did not converge in 1 iterations" in skipped[0]["reason"]
