"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.game == "breakout"
        assert args.t_max == 5
        assert args.learning_rate == pytest.approx(7e-4)
        assert not args.lstm

    def test_unknown_game_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--game", "pitfall"])

    def test_sweep_rates_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "--rates", "1e-4", "7e-4"])
        assert args.rates == [1e-4, 7e-4]

    def test_max_steps_is_an_alias_for_steps(self):
        args = build_parser().parse_args(["train", "--max-steps", "200"])
        assert args.steps == 200

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["train"])
        assert args.trace is None and args.metrics is None


class TestCommands:
    def test_tables_prints_all_four(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for title in ["Table 1", "Table 2", "Table 3", "Table 4"]:
            assert title in out
        assert "663808" in out or "663,808" in out

    def test_train_tiny_run(self, capsys, tmp_path):
        checkpoint = os.path.join(tmp_path, "ckpt.npz")
        code = main(["train", "--game", "pong", "--steps", "60",
                     "--agents", "1", "--episode-cap", "50",
                     "--actors", "serial", "--checkpoint", checkpoint])
        assert code == 0
        out = capsys.readouterr().out
        assert "Training A3C on pong" in out
        assert os.path.exists(checkpoint)
        from repro.nn.checkpoint import load_checkpoint
        params, stats, metadata = load_checkpoint(checkpoint)
        assert metadata["game"] == "pong"
        assert "Conv1.weight" in params
        assert stats is not None

    def test_cli_checkpoint_restores_into_a_built_trainer(self, capsys,
                                                          tmp_path):
        """The checkpoint ``train --checkpoint`` writes restores into a
        trainer built from the same arguments: θ and the global step
        equal those of the same serial run trained in-process."""
        import numpy as np

        from repro.cli import _build_trainer

        argv = ["train", "--game", "pong", "--steps", "40",
                "--agents", "1", "--episode-cap", "50",
                "--actors", "serial", "--no-runlog",
                "--checkpoint", os.path.join(tmp_path, "ckpt.npz")]
        assert main(argv) == 0
        args = build_parser().parse_args(argv)
        trained = _build_trainer(args).train(actors="serial")
        restored = _build_trainer(args)
        metadata = restored.restore_checkpoint(args.checkpoint)
        assert metadata["game"] == "pong" and metadata["lstm"] is False
        assert metadata["config"]["max_steps"] == 40
        assert restored.server.global_step == trained.global_steps
        for name, value in trained.params.items():
            np.testing.assert_array_equal(restored.server.params[name],
                                          value)

    def test_train_lstm_tiny_run(self, capsys):
        code = main(["train", "--game", "pong", "--steps", "30",
                     "--agents", "1", "--episode-cap", "50",
                     "--actors", "serial", "--lstm"])
        assert code == 0
        assert "A3C-LSTM" in capsys.readouterr().out

    def test_train_with_trace_and_metrics(self, capsys, tmp_path):
        import json

        from repro import obs
        trace = os.path.join(tmp_path, "t.json")
        metrics = os.path.join(tmp_path, "m.jsonl")
        code = main(["train", "--game", "pong", "--max-steps", "60",
                     "--agents", "2", "--episode-cap", "50",
                     "--actors", "serial", "--trace", trace,
                     "--metrics", metrics])
        obs.disable()
        obs.metrics().reset()
        assert code == 0
        doc = json.loads(open(trace).read())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete and all("ts" in e and "dur" in e
                                for e in complete)
        rows = [json.loads(line) for line in open(metrics)]
        names = {row["name"] for row in rows}
        assert {"fpga.cu.utilisation", "fpga.dram.bytes",
                "lat.total_ns", "trainer.steps"} <= names
        out = capsys.readouterr().out
        assert "Compute-unit utilisation" in out
        assert "DRAM traffic by channel" in out
        # The report renders again from the files alone.
        assert main(["obs-report", "--metrics", metrics,
                     "--trace", trace]) == 0
        assert "Trace lanes" in capsys.readouterr().out

    def test_obs_report_requires_an_input(self, capsys):
        assert main(["obs-report"]) == 2
        assert "needs" in capsys.readouterr().out

    def test_card_prints_checks(self, capsys):
        assert main(["card"]) == 0
        out = capsys.readouterr().out
        assert "Calibration model card" in out
        assert "OFF" not in out

    def test_ablate_small_sweep(self, capsys):
        code = main(["ablate", "--agents-sweep", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FA3C-Alt1" in out and "FA3C-SingleCU" in out


class TestRunLogCLI:
    def test_train_opens_a_run_directory(self, capsys):
        from repro.obs import runlog

        code = main(["train", "--game", "pong", "--steps", "30",
                     "--agents", "1", "--episode-cap", "50",
                     "--actors", "serial"])
        assert code == 0
        assert "run log:" in capsys.readouterr().out
        runs = runlog.list_runs()
        assert len(runs) == 1
        assert runs[0]["command"] == "train"
        assert runs[0]["outcome"] == "ok"
        manifest = runlog.load_manifest(
            runlog.resolve_run(runs[0]["run_id"]))
        assert manifest["config"]["game"] == "pong"
        assert manifest["topology"]["variant"]

    def test_no_runlog_skips_the_run_directory(self, capsys):
        from repro.obs import runlog

        code = main(["train", "--game", "pong", "--steps", "30",
                     "--agents", "1", "--episode-cap", "50",
                     "--actors", "serial", "--no-runlog"])
        assert code == 0
        assert "run log:" not in capsys.readouterr().out
        assert runlog.list_runs() == []

    def test_failed_train_lists_as_failed(self, capsys, monkeypatch):
        from repro.core import A3CAgent, WorkerFailed
        from repro.obs import runlog

        def raise_runtime_error(agent, lat=None):
            raise RuntimeError("injected fault")
        monkeypatch.setattr(A3CAgent, "run_routine", raise_runtime_error)
        with pytest.raises(WorkerFailed):
            main(["train", "--game", "pong", "--steps", "30",
                  "--agents", "1", "--episode-cap", "50",
                  "--actors", "serial"])
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        assert "failed" in capsys.readouterr().out
        [run] = runlog.list_runs()
        assert run["outcome"] == "failed"
        manifest = runlog.load_manifest(runlog.resolve_run(run["run_id"]))
        assert manifest["error"] == \
            "agent-0 failed: RuntimeError: injected fault"
        assert main(["obs-report", "--run", run["run_id"]]) == 0
        assert ("  error:\n    agent-0 failed: RuntimeError: injected "
                "fault\n") in capsys.readouterr().out

    def test_train_that_raises_after_opening_fails_the_run(
            self, capsys, tmp_path):
        from repro.obs import runlog

        checkpoint = os.path.join(tmp_path, "missing", "x.npz")
        with pytest.raises(FileNotFoundError):
            main(["train", "--game", "pong", "--steps", "40",
                  "--agents", "1", "--episode-cap", "50",
                  "--actors", "serial", "--checkpoint", checkpoint])
        [run] = runlog.list_runs()
        assert run["outcome"] == "failed"
        manifest = runlog.load_manifest(runlog.resolve_run(run["run_id"]))
        assert manifest["error"].startswith("FileNotFoundError: ")
        assert "missing" in manifest["error"]

    def test_bench_that_raises_fails_the_run(self, capsys, monkeypatch):
        from repro.obs import runlog
        from repro.obs.prof import baseline

        def raise_runtime_error(name):
            raise RuntimeError(f"injected fault in {name}")
        monkeypatch.setattr(baseline, "run_scenario", raise_runtime_error)
        with pytest.raises(RuntimeError):
            main(["bench", "--scenarios", "fa3c-n8"])
        [run] = runlog.list_runs()
        assert run["command"] == "bench" and run["outcome"] == "failed"
        manifest = runlog.load_manifest(runlog.resolve_run(run["run_id"]))
        assert manifest["error"] == \
            "RuntimeError: injected fault in fa3c-n8"

    def test_runs_list_and_diff_between_benches(self, capsys):
        from repro.obs import runlog

        assert main(["bench", "--scenarios", "fa3c-n8"]) == 0
        assert main(["bench", "--scenarios", "fa3c-n8"]) == 0
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "Recorded runs" in out
        ids = [row["run_id"] for row in runlog.list_runs()]
        assert len(ids) == 2
        assert main(["runs", "diff", ids[0], ids[1]]) == 0
        out = capsys.readouterr().out
        assert "Scenario deltas" in out
        assert "fa3c-n8" in out

    def test_runs_diff_unknown_run_fails(self, capsys):
        assert main(["runs", "diff", "nope-a", "nope-b"]) == 2
        assert "runs diff:" in capsys.readouterr().out

    def test_obs_report_run_renders_merged_run(self, capsys, tmp_path):
        from repro import obs
        from repro.obs import runlog

        metrics = os.path.join(str(tmp_path), "m.jsonl")
        code = main(["train", "--game", "pong", "--steps", "60",
                     "--agents", "2", "--episode-cap", "50",
                     "--actors", "procs", "--workers", "2",
                     "--metrics", metrics])
        obs.disable()
        obs.metrics().reset()
        assert code == 0
        run_id = runlog.list_runs()[0]["run_id"]
        capsys.readouterr()
        assert main(["obs-report", "--run", run_id]) == 0
        out = capsys.readouterr().out
        assert "Per-worker breakdown" in out
        assert "worker-0" in out and "worker-1" in out
