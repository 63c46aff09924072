"""The perf-baseline subsystem: snapshots, tolerance checks, CLI gate.

``repro bench --baseline`` / ``--check`` back the CI ``perf-gate`` job;
the acceptance criterion is that an injected 20 % IPS regression makes
``--check`` exit non-zero.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.prof import baseline as bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = REPO_ROOT / "BENCH_fa3c.json"


def _snapshot(scenarios, ips_rtol=0.05, share_atol=0.02):
    return {
        "version": bench.SNAPSHOT_VERSION,
        "tolerances": {"ips_rtol": ips_rtol, "share_atol": share_atol},
        "scenarios": scenarios,
    }


def _entry(ips, **buckets):
    return {"ips": ips, "buckets": buckets}


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        doc = _snapshot({"s": _entry(100.0, pe_compute=0.6,
                                     dram_wait=0.4)})
        path = tmp_path / "b.json"
        bench.write_snapshot(doc, path)
        assert bench.load_snapshot(path) == doc
        # Committed-diff friendliness: stable key order, one trailing
        # newline.
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('{"version": 99, "scenarios": {}}')
        with pytest.raises(ValueError, match="version"):
            bench.load_snapshot(path)

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(ValueError, match="fa3c-n8"):
            bench.run_scenario("no-such-scenario")

    def test_committed_baseline_is_loadable_and_complete(self):
        doc = bench.load_snapshot(COMMITTED)
        assert set(doc["scenarios"]) == set(bench.scenario_names())
        for name, entry in doc["scenarios"].items():
            assert entry["ips"] > 0, name
            shares = entry["buckets"]
            assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)


class TestCheckSnapshot:
    BASE = _snapshot({"s": _entry(1000.0, pe_compute=0.60,
                                  dram_wait=0.40)})

    def test_identical_passes(self):
        assert bench.check_snapshot(self.BASE, self.BASE) == []

    def test_small_drift_within_tolerance_passes(self):
        cur = _snapshot({"s": _entry(970.0, pe_compute=0.61,
                                     dram_wait=0.39)})
        assert bench.check_snapshot(self.BASE, cur) == []

    def test_ips_regression_fails(self):
        cur = _snapshot({"s": _entry(800.0, pe_compute=0.60,
                                     dram_wait=0.40)})
        failures = bench.check_snapshot(self.BASE, cur)
        assert len(failures) == 1 and "ips regressed" in failures[0]

    def test_ips_improvement_passes(self):
        cur = _snapshot({"s": _entry(1500.0, pe_compute=0.60,
                                     dram_wait=0.40)})
        assert bench.check_snapshot(self.BASE, cur) == []

    @pytest.mark.parametrize("pe,dram", [(0.65, 0.35), (0.55, 0.45)])
    def test_share_drift_fails_in_either_direction(self, pe, dram):
        cur = _snapshot({"s": _entry(1000.0, pe_compute=pe,
                                     dram_wait=dram)})
        failures = bench.check_snapshot(self.BASE, cur)
        assert failures and all("share moved" in f for f in failures)

    def test_new_bucket_appearing_fails(self):
        cur = _snapshot({"s": _entry(1000.0, pe_compute=0.57,
                                     dram_wait=0.40,
                                     buffer_stall=0.03)})
        failures = bench.check_snapshot(self.BASE, cur)
        assert any("buffer_stall" in f for f in failures)

    def test_missing_scenario_fails(self):
        cur = _snapshot({})
        failures = bench.check_snapshot(self.BASE, cur)
        assert failures == ["s: scenario missing from current run"]

    def test_tolerances_read_from_baseline_doc(self):
        base = _snapshot({"s": _entry(1000.0, pe_compute=1.0)},
                         ips_rtol=0.30)
        cur = _snapshot({"s": _entry(800.0, pe_compute=1.0)})
        assert bench.check_snapshot(base, cur) == []

    def test_explicit_tolerance_overrides_baseline_doc(self):
        base = _snapshot({"s": _entry(1000.0, pe_compute=1.0)},
                         ips_rtol=0.30)
        cur = _snapshot({"s": _entry(800.0, pe_compute=1.0)})
        assert bench.check_snapshot(base, cur, ips_rtol=0.05)


class TestBenchCLI:
    """End-to-end through ``repro bench`` (one real scenario per run)."""

    def test_check_passes_against_committed_baseline(self, capsys):
        rc = main(["bench", "--check", "--file", str(COMMITTED),
                   "--scenarios", "fa3c-n8"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "perf gate OK" in out

    def test_injected_ips_regression_trips_the_gate(self, tmp_path,
                                                    capsys):
        # Inflate the baseline so the (unchanged) current run looks
        # 20 % slower than expected.
        doc = bench.load_snapshot(COMMITTED)
        doc["scenarios"]["fa3c-n8"]["ips"] = round(
            doc["scenarios"]["fa3c-n8"]["ips"] * 1.25, 3)
        inflated = tmp_path / "BENCH_inflated.json"
        bench.write_snapshot(doc, inflated)
        rc = main(["bench", "--check", "--file", str(inflated),
                   "--scenarios", "fa3c-n8"])
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "PERF GATE FAILED" in out and "ips regressed" in out

    def test_share_drift_trips_the_gate(self, tmp_path, capsys):
        doc = bench.load_snapshot(COMMITTED)
        buckets = doc["scenarios"]["fa3c-n8"]["buckets"]
        buckets["pe_compute"] = round(buckets["pe_compute"] + 0.10, 4)
        drifted = tmp_path / "BENCH_drifted.json"
        bench.write_snapshot(doc, drifted)
        rc = main(["bench", "--check", "--file", str(drifted),
                   "--scenarios", "fa3c-n8"])
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "share moved" in out

    def test_requested_scenario_missing_from_baseline_fails(
            self, tmp_path, capsys):
        doc = bench.load_snapshot(COMMITTED)
        del doc["scenarios"]["fa3c-n8"]
        partial = tmp_path / "BENCH_partial.json"
        bench.write_snapshot(doc, partial)
        rc = main(["bench", "--check", "--file", str(partial),
                   "--scenarios", "fa3c-n8"])
        assert rc == 1
        assert "not in baseline" in capsys.readouterr().out

    def test_missing_baseline_file_is_a_usage_error(self, tmp_path,
                                                    capsys):
        rc = main(["bench", "--check", "--file",
                   str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot load baseline" in capsys.readouterr().out

    def test_baseline_writes_report_dir_artifacts(self, tmp_path):
        out_file = tmp_path / "b.json"
        report_dir = tmp_path / "report"
        rc = main(["bench", "--baseline", "--file", str(out_file),
                   "--scenarios", "fa3c-n8",
                   "--report-dir", str(report_dir)])
        assert rc == 0
        doc = bench.load_snapshot(out_file)
        assert set(doc["scenarios"]) == {"fa3c-n8"}
        assert (report_dir / "fa3c-n8.folded").stat().st_size > 0
        assert "cycle attribution" in \
            (report_dir / "fa3c-n8.txt").read_text()


class TestScenarioDeterminism:
    def test_back_to_back_runs_are_bit_identical(self):
        first, _ = bench.run_scenario("fa3c-n8")
        second, _ = bench.run_scenario("fa3c-n8")
        assert first == second

