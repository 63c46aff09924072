"""The modelled snapshot: one record per scenario, an exact diff, CLI gate.

``repro bench --baseline`` / ``--check`` back the CI ``perf-gate`` job.
The simulator is deterministic, so ``--check`` requires every rounded
field of ``BENCH_fa3c.json`` to equal a fresh run: a 0.1 % IPS change in
any scenario, a bucket share moved by 0.0001 or one HDR count moved by
one fails it, and so does a record missing on either side.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.prof import baseline as bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = REPO_ROOT / "BENCH_fa3c.json"


def _snapshot(scenarios):
    return {"version": bench.SNAPSHOT_VERSION, "scenarios": scenarios}


def _entry(ips, **buckets):
    return {"ips": ips, "buckets": buckets}


def _edited_copy(tmp_path, edit):
    """A copy of the committed snapshot with ``edit(scenarios)`` applied."""
    doc = bench.load_snapshot(COMMITTED)
    edit(doc["scenarios"])
    path = tmp_path / "BENCH_edited.json"
    bench.write_snapshot(doc, path)
    return path


def _check(path, *selection):
    return main(["bench", "--check", "--file", str(path), "--no-runlog",
                 *selection])


def _gate_lines(out):
    """The field-level diff lines a failed ``--check`` printed."""
    return [line[len("  - "):] for line in out.splitlines()
            if line.startswith("  - ")]


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
            latency = entry["latency"]
            assert latency["requests"] > 0, name
            assert sum(latency["hdr"].values()) == latency["requests"]
            assert latency["p99_us"] >= latency["p50_us"] > 0, name

    def test_committed_baseline_matches_current_model(self):
        """The committed snapshot is the model's output, field for field."""
        assert bench.collect_snapshot() == bench.load_snapshot(COMMITTED)


class TestCheckSnapshot:
    """``diff_scenarios``, the exact field diff behind ``--check``."""

    BASE = {"s": _entry(1000.0, pe_compute=0.60, dram_wait=0.40)}

    def test_identical_passes(self):
        assert bench.diff_scenarios(self.BASE, self.BASE) == []

    def test_ips_regression_fails(self):
        cur = {"s": _entry(999.0, pe_compute=0.60, dram_wait=0.40)}
        assert bench.diff_scenarios(self.BASE, cur) == \
            ["s.ips: 1000.0 -> 999.0"]

    @pytest.mark.parametrize("pe,dram", [(0.65, 0.35), (0.55, 0.45)])
    def test_share_drift_fails_in_either_direction(self, pe, dram):
        cur = {"s": _entry(1000.0, pe_compute=pe, dram_wait=dram)}
        assert bench.diff_scenarios(self.BASE, cur) == [
            f"s.buckets.dram_wait: 0.4 -> {dram}",
            f"s.buckets.pe_compute: 0.6 -> {pe}"]

    def test_new_bucket_appearing_fails(self):
        cur = {"s": _entry(1000.0, pe_compute=0.57, dram_wait=0.40,
                           buffer_stall=0.03)}
        failures = bench.diff_scenarios(self.BASE, cur)
        assert "s.buckets.buffer_stall: missing from the baseline" \
            in failures

    def test_missing_scenario_fails(self):
        failures = bench.diff_scenarios(self.BASE, {})
        assert failures == ["s: missing from this run"]

    def test_extra_scenario_fails(self):
        failures = bench.diff_scenarios({}, self.BASE)
        assert failures == ["s: missing from the baseline"]

    def test_latency_field_change_fails(self):
        """Growth and a drop alike: any latency field is exact."""
        latency = {"requests": 760, "p50_us": 950.272, "p99_us": 1769.472,
                   "hdr": {"158": 209, "160": 76}}
        base = {"s": {"latency": latency}}
        for field, value, line in (
                ("p99_us", 1769.473, "s.latency.p99_us: 1769.472 -> "
                                     "1769.473"),
                ("p50_us", 950.271, "s.latency.p50_us: 950.272 -> "
                                    "950.271"),
                ("requests", 761, "s.latency.requests: 760 -> 761"),
                ("hdr", {"158": 210, "160": 76},
                 "s.latency.hdr.158: 209 -> 210")):
            cur = {"s": {"latency": {**latency, field: value}}}
            assert bench.diff_scenarios(base, cur) == [line]


class TestBenchCLI:
    """End-to-end through ``repro bench``."""

    def test_check_passes_against_committed_baseline(self, capsys):
        rc = _check(COMMITTED)
        out = capsys.readouterr().out
        assert rc == 0, out
        assert (f"perf gate OK: {len(bench.SCENARIOS)} scenarios equal"
                in out)

    def test_injected_ips_regression_trips_the_gate(self, tmp_path,
                                                    capsys):
        # Inflate the baseline so the (unchanged) current run looks
        # 20 % slower than expected.
        def inflate(scenarios):
            scenarios["fa3c-n8"]["ips"] = round(
                scenarios["fa3c-n8"]["ips"] * 1.25, 3)

        rc = _check(_edited_copy(tmp_path, inflate), "--scenarios",
                    "fa3c-n8")
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "PERF GATE FAILED" in out
        assert [line.split(":")[0] for line in _gate_lines(out)] == \
            ["fa3c-n8.ips"]

    @pytest.mark.parametrize("name", bench.scenario_names())
    def test_tenth_of_a_percent_ips_change_fails(self, tmp_path, capsys,
                                                 name):
        def nudge(scenarios):
            scenarios[name]["ips"] = round(scenarios[name]["ips"] * 1.001,
                                           3)

        rc = _check(_edited_copy(tmp_path, nudge))
        out = capsys.readouterr().out
        assert rc == 1, out
        assert [line.split(":")[0] for line in _gate_lines(out)] == \
            [f"{name}.ips"]

    def test_share_drift_trips_the_gate(self, tmp_path, capsys):
        def drift(scenarios):
            buckets = scenarios["fa3c-n8"]["buckets"]
            buckets["pe_compute"] = round(buckets["pe_compute"] + 0.0001, 4)

        rc = _check(_edited_copy(tmp_path, drift), "--scenarios",
                    "fa3c-n8")
        out = capsys.readouterr().out
        assert rc == 1, out
        assert [line.split(":")[0] for line in _gate_lines(out)] == \
            ["fa3c-n8.buckets.pe_compute"]

    def test_hdr_count_moved_by_one_trips_the_gate(self, tmp_path, capsys):
        def move(scenarios):
            scenarios["fa3c-n8"]["latency"]["hdr"]["158"] += 1

        rc = _check(_edited_copy(tmp_path, move), "--scenarios", "fa3c-n8")
        out = capsys.readouterr().out
        assert rc == 1, out
        assert _gate_lines(out) == ["fa3c-n8.latency.hdr.158: 210 -> 209"]

    @pytest.mark.parametrize("kind", ["deleted", "extra"])
    def test_full_check_compares_the_scenario_set(self, tmp_path, capsys,
                                                  kind):
        def edit(scenarios):
            if kind == "deleted":
                del scenarios["fa3c-int8-n8"]
            else:
                scenarios["fa3c-extra-n8"] = dict(scenarios["fa3c-n8"])

        rc = _check(_edited_copy(tmp_path, edit))
        out = capsys.readouterr().out
        assert rc == 1, out
        assert _gate_lines(out) == (
            ["fa3c-int8-n8: missing from the baseline"]
            if kind == "deleted" else
            ["fa3c-extra-n8: missing from this run"])

    def test_requested_scenario_missing_from_baseline_fails(
            self, tmp_path, capsys):
        def delete(scenarios):
            del scenarios["fa3c-n8"]

        rc = _check(_edited_copy(tmp_path, delete), "--scenarios",
                    "fa3c-n8")
        assert rc == 1
        assert _gate_lines(capsys.readouterr().out) == \
            ["fa3c-n8: missing from the baseline"]

    @pytest.mark.parametrize("selection", [
        ["--platform", "fa3c-alt1"],
        ["--scenarios", "fa3c-n8", "--platform", "ga3c-tf"],
        ["--scenarios", "nope"],
    ], ids=["backend-without-scenario", "disjoint", "unknown-name"])
    def test_empty_or_unknown_selection_is_a_usage_error(self, capsys,
                                                         selection):
        rc = _check(COMMITTED, *selection)
        out = capsys.readouterr().out
        assert rc == 2, out
        assert "known: " + ", ".join(bench.scenario_names()) in out
        assert "ips=" not in out  # nothing ran

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
        assert doc["scenarios"] == {
            "fa3c-n8": bench.load_snapshot(COMMITTED)["scenarios"]
            ["fa3c-n8"]}
        assert (report_dir / "fa3c-n8.folded").stat().st_size > 0
        assert "cycle attribution" in \
            (report_dir / "fa3c-n8.txt").read_text()

    def test_subset_refresh_replaces_only_the_selected_records(
            self, tmp_path):
        # Stale every record; a ga3c-tf refresh must restore its two
        # and leave the other nine byte-identical.
        def stale(scenarios):
            for entry in scenarios.values():
                entry["ips"] = 1.0

        path = _edited_copy(tmp_path, stale)
        expected = bench.load_snapshot(path)
        committed = bench.load_snapshot(COMMITTED)["scenarios"]
        for name in bench.scenario_names(backend="ga3c-tf"):
            expected["scenarios"][name] = committed[name]
        rc = main(["bench", "--baseline", "--file", str(path),
                   "--platform", "ga3c-tf", "--no-runlog"])
        assert rc == 0
        assert path.read_text() == \
            json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestScenarioDeterminism:
    def test_back_to_back_runs_are_bit_identical(self):
        first, _ = bench.run_scenario("fa3c-n8")
        second, _ = bench.run_scenario("fa3c-n8")
        assert first == second
