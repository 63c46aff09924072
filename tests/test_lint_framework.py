"""Tests for the lint framework itself: pragmas, config, reporters,
file collection, and the CLI exit-code contract."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.lint import (
    LintConfig,
    LintRun,
    all_rules,
    lint_paths,
    lint_source,
    load_config,
)
from repro.lint.config import (
    _parse_mini_toml,
    config_from_table,
    path_matches,
)
from repro.lint.engine import build_rules
from repro.lint.pragmas import PragmaIndex
from repro.lint.report import render_json, render_text

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEEDED = REPO_ROOT / "tests" / "data" / "lint_seeded_violation.py"

VIOLATING = (
    "import numpy as np\n"
    "\n"
    "NOISE = np.random.rand(3)\n"
)


class TestPragmas:
    def test_trailing_line_pragma(self):
        source = VIOLATING.replace(
            "np.random.rand(3)",
            "np.random.rand(3)  # repro-lint: ok[determinism] fixture")
        result = lint_source(source, "x.py", LintConfig())
        assert not result.findings
        assert result.suppressed == 1

    def test_comment_line_pragma_targets_next_line(self):
        source = VIOLATING.replace(
            "NOISE",
            "# repro-lint: ok[determinism] fixture seed\nNOISE")
        result = lint_source(source, "x.py", LintConfig())
        assert not result.findings
        assert result.suppressed == 1

    def test_wrong_rule_does_not_suppress(self):
        source = VIOLATING.replace(
            "np.random.rand(3)",
            "np.random.rand(3)  # repro-lint: ok[hot-path]")
        result = lint_source(source, "x.py", LintConfig())
        assert len(result.findings) == 1

    def test_star_suppresses_all_rules(self):
        source = VIOLATING.replace(
            "np.random.rand(3)",
            "np.random.rand(3)  # repro-lint: ok[*]")
        result = lint_source(source, "x.py", LintConfig())
        assert not result.findings

    def test_file_ok(self):
        source = "# repro-lint: file-ok[determinism]\n" + VIOLATING
        result = lint_source(source, "x.py", LintConfig())
        assert not result.findings
        assert result.suppressed == 1

    def test_skip_file(self):
        source = "# repro-lint: skip-file\n" + "this is not python {"
        result = lint_source(source, "x.py", LintConfig())
        assert result.skipped
        assert result.error is None

    def test_multi_line_span_suppressed_by_any_line(self):
        index = PragmaIndex("a\nb  # repro-lint: ok[seqlock]\nc\n")
        assert index.suppresses("seqlock", 1, end_line=3)
        assert not index.suppresses("seqlock", 3, end_line=5)

    def test_multiple_rules_in_one_bracket(self):
        index = PragmaIndex("x = 1  # repro-lint: ok[seqlock, hot-path]\n")
        assert index.suppresses("seqlock", 1)
        assert index.suppresses("hot-path", 1)
        assert not index.suppresses("determinism", 1)


class TestPragmaEdgeCases:
    def test_crlf_line_endings(self):
        source = VIOLATING.replace(
            "np.random.rand(3)",
            "np.random.rand(3)  # repro-lint: ok[determinism] fixture")
        source = source.replace("\n", "\r\n")
        result = lint_source(source, "x.py", LintConfig())
        assert result.error is None
        assert not result.findings
        assert result.suppressed == 1

    def test_one_bracket_suppresses_two_rules_on_one_line(self):
        source = (
            "import numpy as np\n"
            "from repro.perf.hotpath import hot_path\n"
            "\n"
            "\n"
            "@hot_path\n"
            "def leaf(n):\n"
            "    x = 0.0\n"
            "    for _ in range(n):\n"
            "        x += np.zeros(3)[0] + np.random.rand()"
            "  # repro-lint: ok[hot-path, determinism] fixture\n"
            "    return x\n")
        result = lint_source(source, "x.py", LintConfig())
        assert not result.findings
        assert result.suppressed == 2
        assert result.suppressed_by_rule == {"determinism": 1,
                                             "hot-path": 1}

    def test_pragma_on_decorator_line_reaches_the_def(self):
        source = (
            "import functools\n"
            "\n"
            "\n"
            "@functools.lru_cache()"
            "  # repro-lint: ok[seed-flow] fixture contract\n"
            "def fork(seed, worker_id):\n"
            "    return seed * 31 + worker_id\n")
        result = lint_source(source, "x.py", LintConfig())
        assert not result.findings
        assert result.suppressed == 1

    def test_unknown_rule_pragma_warns(self):
        source = "x = 1  # repro-lint: ok[hot-pth] typo\n"
        result = lint_source(source, "x.py", LintConfig())
        assert not result.findings
        assert len(result.warnings) == 1
        assert "hot-pth" in result.warnings[0]
        assert "line 1" in result.warnings[0]
        run = LintRun(files=[result])
        assert run.warnings == [("x.py", result.warnings[0])]
        assert "warning: pragma names unknown rule 'hot-pth'" \
            in render_text(run)
        assert not run.findings        # warnings never become findings

    def test_known_rule_pragma_does_not_warn(self):
        source = ("import numpy as np\n"
                  "NOISE = np.random.rand(3)"
                  "  # repro-lint: ok[determinism] fixture\n")
        result = lint_source(source, "x.py", LintConfig())
        assert result.warnings == []


class TestConfig:
    def test_repo_pyproject_loads(self):
        config = load_config(str(REPO_ROOT / "pyproject.toml"))
        assert config.paths == ["src"]
        assert set(config.select) == set(all_rules())
        assert "modules" in config.options("fp32-order")

    def test_mini_toml_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        full = tomllib.loads(text)["tool"]["repro-lint"]
        mini = _parse_mini_toml(text)["tool"]["repro-lint"]
        assert mini == full

    def test_mini_toml_subset_values(self):
        document = _parse_mini_toml(
            '[tool."repro-lint"]\n'
            'paths = ["src", "tools"]  # trailing comment\n'
            "strict = true\n"
            "depth = 3\n"
            '[tool."repro-lint".hot-path]\n'
            'functions = ["a.b",\n'
            '             "c.d"]\n')
        table = document["tool"]["repro-lint"]
        assert table["paths"] == ["src", "tools"]
        assert table["strict"] is True
        assert table["depth"] == 3
        assert table["hot-path"]["functions"] == ["a.b", "c.d"]

    def test_config_from_table_collects_rule_options(self):
        config = config_from_table({
            "select": ["fp32-order"],
            "fp32-order": {"modules": ["repro/ale"]},
        })
        assert config.select == ["fp32-order"]
        assert config.options("fp32-order") == {"modules": ["repro/ale"]}
        assert config.options("unknown") == {}

    @pytest.mark.parametrize("table, named, allowed", [
        ({"cache-path": ".repro-lint-cache.json"}, "'cache-path'",
         "paths, select, exclude"),
        ({"hot-path-transitive": {"depth": 3}}, "hot-path-transitive",
         "fp32-order, hot-path"),
        ({"select": ["fp32-order"], "fp32-order": {"module": ["repro/ale"]}},
         "'module'", "modules, quantized-modules"),
    ], ids=["top-level-key", "unregistered-rule", "rule-option"])
    def test_unknown_key_raises_naming_it(self, table, named, allowed):
        """A misspelt or retired key fails loudly instead of being
        silently ignored (a typo'd ``module`` used to leave fp32-order
        at its default scope)."""
        with pytest.raises(ValueError) as excinfo:
            config_from_table(table)
        assert named in str(excinfo.value)
        assert allowed in str(excinfo.value)

    def test_path_matching_is_segment_based(self):
        assert path_matches("src/repro/fpga/pe.py", "repro/fpga")
        assert path_matches("src/repro/fpga/pe.py", "repro/fpga/pe.py")
        assert path_matches("/abs/src/repro/nn/ops.py", "repro/nn")
        assert not path_matches("src/repro/fpga_ext/pe.py", "repro/fpga")
        assert not path_matches("src/repro/fpga/pe.py", "fpga/pe")

    def test_unknown_rule_select_raises_with_known_list(self):
        with pytest.raises(KeyError) as excinfo:
            build_rules(LintConfig(), select=["no-such-rule"])
        assert "determinism" in excinfo.value.args[0]


class TestReporters:
    def run_on_violating(self):
        import repro.lint as lint
        result = lint_source(VIOLATING, "x.py", LintConfig())
        run = lint.LintRun(files=[result])
        return run

    def test_text_report_lists_location_rule_and_summary(self):
        text = render_text(self.run_on_violating())
        assert "x.py:3:" in text
        assert "[determinism]" in text
        assert "1 finding(s) (determinism=1) in 1 file(s)" in text

    def test_text_report_clean(self):
        run = __import__("repro.lint", fromlist=["LintRun"]).LintRun(
            files=[lint_source("x = 1\n", "x.py", LintConfig())])
        assert render_text(run).startswith("ok: 0 findings")

    def test_json_report_schema(self):
        document = json.loads(render_json(self.run_on_violating()))
        assert document["version"] == 2
        assert document["files_checked"] == 1
        assert document["counts"] == {"determinism": 1}
        finding = document["findings"][0]
        assert finding["rule"] == "determinism"
        assert finding["path"] == "x.py"
        assert finding["line"] == 3
        assert "message" in finding and "col" in finding
        assert "id" in finding                     # stable --why handle
        # v2 additions: per-rule suppression counts and rule timings.
        assert document["suppressed_by_rule"] == {}
        assert isinstance(document["timing_ms"], dict)
        assert all(isinstance(v, (int, float))
                   for v in document["timing_ms"].values())
        assert document["warnings"] == []

    def test_syntax_error_reported_not_raised(self):
        result = lint_source("def broken(:\n", "x.py", LintConfig())
        assert result.error and "syntax error" in result.error


class TestCollection:
    def test_exclude_prunes_directory_walk(self, tmp_path):
        (tmp_path / "keep.py").write_text(VIOLATING)
        skipdir = tmp_path / "vendored"
        skipdir.mkdir()
        (skipdir / "drop.py").write_text(VIOLATING)
        config = LintConfig(exclude=["vendored"])
        run = lint_paths([str(tmp_path)], config)
        assert [pathlib.Path(r.path).name for r in run.files] == ["keep.py"]

    def test_explicit_file_beats_exclude(self, tmp_path):
        target = tmp_path / "excluded.py"
        target.write_text(VIOLATING)
        config = LintConfig(exclude=["excluded.py"])
        run = lint_paths([str(target)], config)
        assert run.files_checked == 1
        assert len(run.findings) == 1


class TestCLI:
    def lint_args(self, *extra):
        return ["lint", "--config",
                str(REPO_ROOT / "pyproject.toml"), *extra]

    def test_strict_on_clean_source_exits_zero(self, capsys):
        code = main(self.lint_args(str(REPO_ROOT / "src"), "--strict"))
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ok: 0 findings" in out

    def test_strict_on_seeded_violation_exits_nonzero(self, capsys):
        code = main(self.lint_args(str(SEEDED), "--strict"))
        out = capsys.readouterr().out
        assert code == 1
        assert "[determinism]" in out and "[hot-path]" in out

    def test_non_strict_reports_but_exits_zero(self, capsys):
        code = main(self.lint_args(str(SEEDED)))
        assert code == 0
        assert "finding(s)" in capsys.readouterr().out

    def test_select_restricts_rules(self, capsys):
        code = main(self.lint_args(str(SEEDED), "--strict",
                                   "--select", "seqlock"))
        assert code == 0, capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        code = main(self.lint_args(str(SEEDED), "--select", "bogus"))
        assert code == 2
        assert "bogus" in capsys.readouterr().out

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.repro-lint.seqlock]\n'
                             'store-modules = ["x.py"]\n')
        code = main(["lint", "--config", str(pyproject), str(SEEDED)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("lint: cannot load config:")
        assert "'store-modules'" in out

    def test_json_format(self, capsys):
        code = main(self.lint_args(str(SEEDED), "--format", "json"))
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 2
        assert document["counts"]["determinism"] >= 1
        assert "suppressed_by_rule" in document
        assert "timing_ms" in document
