"""CLI surface of the folding refactor: --fold, --nodes paper, validation."""

import pytest

from repro.cli import main


class TestPositiveCountValidation:
    """--nodes/--ppn must be rejected with a clean SystemExit, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "--nodes", "0"],
        ["run", "--nodes", "-3"],
        ["run", "--ppn", "0"],
        ["run", "--nodes", "two"],
        ["figures", "--id", "fig10", "--nodes", "-1"],
        ["figures", "--id", "fig10", "--ppn", "0"],
        ["select", "--nodes", "0"],
        ["select", "--ppn", "-2"],
        ["workload", "--nodes", "0"],
        ["workload", "--ppn", "-1"],
        ["trace", "--nodes", "-4"],
        ["trace", "--ppn", "0"],
    ])
    def test_rejected_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error
        assert "positive integer" in capsys.readouterr().err


class TestRunFold:
    def test_run_folded_reports_representatives(self, capsys):
        assert main(["run", "--system", "tiny", "--algorithm", "pairwise",
                     "--nodes", "4", "--ppn", "4", "--msg-bytes", "64",
                     "--fold", "on"]) == 0
        out = capsys.readouterr().out
        assert "[folded: 4 representatives x 4]" in out

    def test_run_folded_matches_unfolded_elapsed(self, capsys):
        main(["run", "--system", "tiny", "--algorithm", "pairwise",
              "--nodes", "4", "--ppn", "4", "--msg-bytes", "64"])
        plain = capsys.readouterr().out.splitlines()[0]
        main(["run", "--system", "tiny", "--algorithm", "pairwise",
              "--nodes", "4", "--ppn", "4", "--msg-bytes", "64", "--fold", "on"])
        folded = capsys.readouterr().out.splitlines()[0]
        plain_elapsed = plain.split("->")[1].split("s")[0].strip()
        folded_elapsed = folded.split("->")[1].split("s")[0].strip()
        assert plain_elapsed == folded_elapsed

    def test_run_fold_on_contended_fabric_refused(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--system", "tiny", "--fabric", "dragonfly", "--algorithm",
                  "node-aware", "--nodes", "4", "--ppn", "4", "--msg-bytes", "16384",
                  "--fold", "on"])
        assert "dragonfly" in str(exc.value)

    def test_run_fold_auto_contended_fabric_runs_full_width(self, capsys):
        argv = ["run", "--system", "tiny", "--fabric", "dragonfly", "--algorithm",
                "node-aware", "--nodes", "4", "--ppn", "4", "--msg-bytes", "16384"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--fold", "auto"]) == 0
        auto = capsys.readouterr().out
        assert "[folded" not in auto
        assert auto == plain

    def test_nodes_paper_on_contended_fabric_refused(self):
        """--nodes paper folds; a fabric that refuses folding fails fast."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--system", "dane", "--nodes", "paper", "--ppn", "112",
                  "--fabric", "dragonfly", "--algorithm", "node-aware",
                  "--msg-bytes", "4"])
        assert "dragonfly" in str(exc.value)

    def test_nodes_paper_requires_table1_system(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--system", "tiny", "--nodes", "paper"])
        assert "Table-1" in str(exc.value)


class TestWorkloadFold:
    def test_workload_folds_symmetric_pattern(self, capsys):
        assert main(["workload", "--system", "tiny", "--pattern", "uniform",
                     "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                     "--msg-bytes", "64", "--fold", "auto", "--no-model"]) == 0
        out = capsys.readouterr().out
        assert "Folded: 4 representatives x 4" in out
        assert "validated against the reference transposition" in out

    def test_workload_fold_on_asymmetric_pattern_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["workload", "--system", "tiny", "--pattern", "skewed-moe",
                  "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                  "--msg-bytes", "64", "--fold", "on", "--no-model"])

    @pytest.mark.parametrize("cached", [False, True], ids=["direct", "cached"])
    def test_workload_fold_on_asymmetric_pattern_refused(self, cached, tmp_path):
        """The result-store path refuses an unfoldable fold like the direct path."""
        argv = ["workload", "--system", "tiny", "--pattern", "skewed-moe",
                "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                "--msg-bytes", "64", "--fold", "on", "--no-model"]
        if cached:
            argv += ["--cache-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert "not foldable" in str(exc.value)

    def test_workload_fold_auto_asymmetric_falls_back(self, capsys):
        assert main(["workload", "--system", "tiny", "--pattern", "skewed-moe",
                     "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                     "--msg-bytes", "64", "--fold", "auto", "--no-model"]) == 0
        assert "Folded:" not in capsys.readouterr().out


class TestVerifyFoldGate:
    def test_fold_gate_green(self, capsys):
        assert main(["verify", "--count", "1", "--fold-gate"]) == 0
        out = capsys.readouterr().out
        assert "fold gate: PASS" in out
