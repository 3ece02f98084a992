"""Tests for the benchmark-trajectory ledger (``repro bench`` /
``repro.obs.history``): entry schema, (git_sha, bench) dedupe, floor /
ceiling / drift gates, trend rendering, git SHA and dirty-tree stamping,
and the CLI's exit codes — including nonzero on a seeded synthetic
regression."""

import json
import shutil
import subprocess

import pytest

from repro.cli import main
from repro.obs.history import (
    DEFAULT_GATES,
    HISTORY_FORMAT,
    SUITES,
    Gate,
    HistoryError,
    append_entry,
    check_gates,
    entry_from_payload,
    format_trend,
    git_sha,
    load_history,
    resolve_metric,
    tree_dirty,
)


def _entry(bench="kernels", sha="a" * 40, host="box", **results):
    return {"format": HISTORY_FORMAT, "bench": bench, "git_sha": sha,
            "host": host, "repro_version": "test",
            "bench_format": f"repro-bench/{bench}/1", "results": results}


SPEEDUP_GATE = Gate("kernels", "case.speedup", floor=3.0,
                    tolerance_pct=20.0, window=3)
OVERHEAD_GATE = Gate("obs", "overhead_pct", ceiling=1.0,
                     tolerance_pct=50.0)


# ----------------------------------------------------------------------
# git sha stamping
# ----------------------------------------------------------------------
class TestGitSha:
    def test_env_var_wins(self, monkeypatch):
        monkeypatch.setenv("GIT_COMMIT", "deadbeef")
        assert git_sha() == "deadbeef"

    def test_falls_back_to_rev_parse(self, monkeypatch):
        monkeypatch.delenv("GIT_COMMIT", raising=False)
        sha = git_sha()     # the test suite runs inside the repo
        assert sha == "unknown" or (len(sha) == 40
                                    and all(c in "0123456789abcdef"
                                            for c in sha))

    def test_unknown_outside_a_repo(self, monkeypatch, tmp_path):
        monkeypatch.delenv("GIT_COMMIT", raising=False)
        assert git_sha(cwd=str(tmp_path)) == "unknown"

    def test_tree_dirty_false_outside_a_repo(self, tmp_path):
        assert tree_dirty(cwd=str(tmp_path)) is False

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_tree_dirty_tracks_modified_tracked_files(self, tmp_path):
        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                            "-c", "commit.gpgsign=false", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "a.txt").write_text("one\n")
        git("add", "a.txt")
        git("commit", "-q", "-m", "init")
        assert tree_dirty(cwd=str(tmp_path)) is False
        (tmp_path / "scratch.txt").write_text("untracked\n")
        assert tree_dirty(cwd=str(tmp_path)) is False
        (tmp_path / "a.txt").write_text("two\n")
        assert tree_dirty(cwd=str(tmp_path)) is True


# ----------------------------------------------------------------------
# ledger file
# ----------------------------------------------------------------------
class TestLedger:
    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(str(tmp_path / "none.jsonl")) == []

    def test_append_and_reload(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        append_entry(path, _entry(sha="a" * 40))
        append_entry(path, _entry(sha="b" * 40))
        shas = [e["git_sha"] for e in load_history(path)]
        assert shas == ["a" * 40, "b" * 40]

    def test_same_sha_and_bench_replaces(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        append_entry(path, _entry(sha="a" * 40, speedup=1.0))
        append_entry(path, _entry(sha="a" * 40, speedup=2.0))
        entries = load_history(path)
        assert len(entries) == 1
        assert entries[0]["results"] == {"speedup": 2.0}

    def test_same_sha_different_bench_keeps_both(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        append_entry(path, _entry(bench="kernels"))
        append_entry(path, _entry(bench="obs"))
        assert len(load_history(path)) == 2

    def test_rejects_bad_json_and_bad_format(self, tmp_path):
        bad = tmp_path / "h.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(HistoryError, match="not valid JSON"):
            load_history(str(bad))
        bad.write_text(json.dumps({"format": "something/else"}) + "\n")
        with pytest.raises(HistoryError, match="expected format"):
            load_history(str(bad))

    def test_entry_from_payload(self, monkeypatch):
        monkeypatch.setenv("GIT_COMMIT", "cafe")
        payload = {"format": "repro-bench/kernels/1", "host": "h",
                   "repro_version": "1.8.0", "git_sha": "stamped",
                   "results": {"x": 1}}
        entry = entry_from_payload("kernels", payload)
        assert entry["format"] == HISTORY_FORMAT
        assert entry["git_sha"] == "stamped"      # payload stamp wins
        assert entry["results"] == {"x": 1}
        with pytest.raises(HistoryError, match="no 'results'"):
            entry_from_payload("kernels", {"host": "h"})

    def test_checked_in_ledger_is_valid_and_green(self):
        entries = load_history("BENCH_HISTORY.jsonl")
        assert {e["bench"] for e in entries} >= set(SUITES)
        assert check_gates(entries) == []


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
class TestGates:
    def test_gate_requires_exactly_one_bound(self):
        with pytest.raises(ValueError, match="exactly one"):
            Gate("kernels", "x")
        with pytest.raises(ValueError, match="exactly one"):
            Gate("kernels", "x", floor=1.0, ceiling=2.0)

    def test_resolve_metric_walks_dots(self):
        results = {"case": {"speedup": 4.2}, "flat": 1}
        assert resolve_metric(results, "case.speedup") == 4.2
        assert resolve_metric(results, "flat") == 1
        assert resolve_metric(results, "case.missing") is None
        assert resolve_metric(results, "case") is None      # not scalar

    def test_empty_history_passes_vacuously(self):
        assert check_gates([], (SPEEDUP_GATE,)) == []

    def test_floor_violation(self):
        entries = [_entry(case={"speedup": 2.5})]
        violations = check_gates(entries, (SPEEDUP_GATE,))
        assert [v.kind for v in violations] == ["floor"]
        assert "2.5" in violations[0].render()

    def test_ceiling_violation(self):
        entries = [_entry(bench="obs", overhead_pct=1.7)]
        violations = check_gates(entries, (OVERHEAD_GATE,))
        assert [v.kind for v in violations] == ["ceiling"]

    def test_missing_tracked_metric_is_a_violation(self):
        entries = [_entry(other=1.0)]
        violations = check_gates(entries, (SPEEDUP_GATE,))
        assert [v.kind for v in violations] == ["missing"]

    def test_drift_regression_fails(self):
        entries = [_entry(sha=f"{i:040x}", case={"speedup": 10.0})
                   for i in range(3)]
        entries.append(_entry(sha="f" * 40, case={"speedup": 7.0}))
        violations = check_gates(entries, (SPEEDUP_GATE,))
        assert [v.kind for v in violations] == ["drift"]
        assert "30.0% worse" in violations[0].message

    def test_drift_within_tolerance_passes(self):
        entries = [_entry(sha=f"{i:040x}", case={"speedup": 10.0})
                   for i in range(3)]
        entries.append(_entry(sha="f" * 40, case={"speedup": 9.0}))
        assert check_gates(entries, (SPEEDUP_GATE,)) == []

    def test_drift_ignores_other_hosts(self):
        entries = [_entry(sha=f"{i:040x}", host="fast-box",
                          case={"speedup": 100.0}) for i in range(3)]
        entries.append(_entry(sha="f" * 40, host="slow-box",
                              case={"speedup": 5.0}))
        # 5.0 clears the floor; the fast-box history must not count
        assert check_gates(entries, (SPEEDUP_GATE,)) == []

    def test_drift_direction_for_ceiling_metrics(self):
        entries = [_entry(bench="obs", sha=f"{i:040x}",
                          overhead_pct=0.2) for i in range(3)]
        entries.append(_entry(bench="obs", sha="f" * 40,
                              overhead_pct=0.8))
        violations = check_gates(entries, (OVERHEAD_GATE,))
        assert [v.kind for v in violations] == ["drift"]

    def test_improvement_never_fails_drift(self):
        entries = [_entry(sha=f"{i:040x}", case={"speedup": 5.0})
                   for i in range(3)]
        entries.append(_entry(sha="f" * 40, case={"speedup": 50.0}))
        assert check_gates(entries, (SPEEDUP_GATE,)) == []

    def test_default_gates_mirror_ci_floors(self):
        by_metric = {(gate.bench, gate.metric): gate
                     for gate in DEFAULT_GATES}
        assert len(by_metric) == len(DEFAULT_GATES)
        assert by_metric[
            "kernels", "dense_mlp_8b_asm2.speedup"].floor == 3.0
        assert by_metric[
            "simulator", "dense_400x120_8b_asm2.speedup"].floor == 20.0
        assert by_metric[
            "training", "mlp_1024x100x10_8b_asm2.speedup"].floor == 3.0
        assert by_metric[
            "training", "train_epoch_mlp_8b.speedup"].floor == 2.0
        assert by_metric["obs", "overhead_pct"].ceiling == 1.0

    def test_format_trend_lists_every_gate(self):
        entries = [_entry(case={"speedup": 4.0})]
        text = format_trend(entries, (SPEEDUP_GATE, OVERHEAD_GATE))
        assert "kernels.case.speedup" in text
        assert "(no entries)" in text            # obs has none
        assert "4" in text


# ----------------------------------------------------------------------
# the repro bench CLI
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_check_green_ledger_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        append_entry(path, _entry(
            bench="kernels", dense_mlp_8b_asm2={"speedup": 5.0}))
        assert main(["bench", "--check", "--history", path]) == 0
        assert "all trajectory gates pass" in capsys.readouterr().out

    def test_check_seeded_regression_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        append_entry(path, _entry(
            bench="kernels", dense_mlp_8b_asm2={"speedup": 1.2}))
        assert main(["bench", "--check", "--history", path]) == 1
        assert "GATE FAILED" in capsys.readouterr().err

    def test_check_drift_regression_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        for i in range(4):
            append_entry(path, _entry(bench="obs", sha=f"{i:040x}",
                                      overhead_pct=0.1))
        append_entry(path, _entry(bench="obs", sha="f" * 40,
                                  overhead_pct=0.9))
        assert main(["bench", "--check", "--history", path]) == 1
        err = capsys.readouterr().err
        assert "drift" in err

    def test_empty_history_check_is_a_noop(self, tmp_path, capsys):
        path = str(tmp_path / "h.jsonl")
        assert main(["bench", "--check", "--history", path]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_unknown_suite_is_rejected(self, tmp_path, capsys):
        assert main(["bench", "nope", "--history",
                     str(tmp_path / "h.jsonl")]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_corrupt_ledger_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        path.write_text("garbage\n")
        assert main(["bench", "--check", "--history", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err
