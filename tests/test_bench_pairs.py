"""``tools/bench_pairs.py`` pairs parent and change runs of one benchmark
workload.  Here its ``run`` returns canned metrics, so no benchmark
process starts, and its ``ROOT`` is a temporary directory holding a copy
of ``BENCHMARK.json``, so nothing is written into the repository."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def _canned_runs(monkeypatch, module, wall_s):
    """Make the i-th run of each side read ``wall_s[side][i]`` (the other
    end-to-end metrics are equal on both sides); returns the sides run, in
    order."""
    sides = []
    values = {side: iter(v) for side, v in wall_s.items()}

    def run(checkout, workload, seed, seconds):
        side = "change" if checkout == module.ROOT else "parent"
        sides.append(side)
        return {"seed": seed, "correct": True, "failed": 0, "attempted": 1,
                "environment": {"side": side},
                "metrics": {"wall_s": next(values[side]), "setup_s": 1.0,
                            "peak_rss_mb": 50.0}}

    monkeypatch.setattr(module, "run", run)
    return sides


def _argv(root, pairs):
    return ["--parent", str(root / "parent"), "--workload", "eval-acc", "--seeds", "0",
            "--pairs", str(pairs), "--seconds", "0.5"]


@pytest.mark.parametrize("pairs", [1, 0])
def test_too_few_pairs_rejected_before_any_run(bench_pairs, monkeypatch, capsys, pairs):
    sides = _canned_runs(monkeypatch, bench_pairs, {"parent": [], "change": []})
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(_argv(bench_pairs.ROOT, pairs))
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert sides == []
    assert not (bench_pairs.ROOT / "BENCH_eval-acc.json").exists()


def test_unknown_claim_rejected_before_any_run(bench_pairs, monkeypatch, capsys):
    sides = _canned_runs(monkeypatch, bench_pairs, {"parent": [], "change": []})
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(_argv(bench_pairs.ROOT, 10) + ["--claim", "wall_s",
                                                        "--claim", "wal_s"])
    assert exit_info.value.code == 2
    assert "--claim wal_s: not an end-to-end metric" in capsys.readouterr().err
    assert sides == []
    assert not (bench_pairs.ROOT / "BENCH_eval-acc.json").exists()


@pytest.mark.parametrize("tail, wins, holds", [
    ([1.0], 9, True),              # 9 wins and a tie
    ([1.0, 1.0], 8, False),        # 8 wins and two ties
    ([1.0, 1.5], 8, False),        # 8 wins, a tie and a loss
], ids=["9-wins", "8-wins-2-ties", "8-wins-1-loss"])
def test_gain_rule_needs_nine_wins_in_ten(bench_pairs, monkeypatch, tail, wins, holds):
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    change = [0.5] * (10 - len(tail)) + tail
    sides = _canned_runs(monkeypatch, bench_pairs, {"parent": parent, "change": change})
    assert bench_pairs.main(_argv(bench_pairs.ROOT, 10)) == 0
    assert sides == ["parent", "change", "change", "parent"] * 5    # alternating order
    out = json.loads((bench_pairs.ROOT / "BENCH_eval-acc.json").read_text())
    assert out["correct"] is True
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == parent and wall["change"]["runs"] == change
    assert (wall["wins"], wall["pairs"], wall["gain_rule_holds"]) == (wins, 10, holds)
    # equal runs on both sides: every pair ties, and no side wins
    for name in ("setup_s", "peak_rss_mb"):
        assert (out["metrics"][name]["wins"], out["metrics"][name]["gain_rule_holds"]) == (
            0, False)
