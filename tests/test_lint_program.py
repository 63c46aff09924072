"""Whole-program lint machinery: the index, ``--why``, call-chain
findings of the ``hot-path`` rule, and the cross-module seeded
self-check fixture.
"""

import ast
import pathlib

from repro.cli import main
from repro.lint import LintConfig, lint_paths
from repro.lint.astutil import FileContext
from repro.lint.program import ProgramIndex, extract_summary

REPO_ROOT = pathlib.Path(__file__).parent.parent
XMODULE = REPO_ROOT / "tests" / "data" / "lint_seeded_xmodule"
XMODULE_FILES = [
    str(XMODULE / "hot.py"),
    str(XMODULE / "helpers.py"),
    str(XMODULE / "laya" / "__init__.py"),
    str(XMODULE / "layb" / "__init__.py"),
]


def summarize(relpath, source, hot_functions=()):
    return extract_summary(FileContext(ast.parse(source), relpath,
                                       hot_functions))


def build_index(files):
    return ProgramIndex([summarize(path, src)
                         for path, src in files.items()])


class TestProgramIndex:
    def test_resolve_bare_name_same_module(self):
        program = build_index({
            "repro/pkg/a.py": "def helper():\n    return 1\n"})
        assert program.resolve_name("repro.pkg.a", "helper") == \
            "repro.pkg.a.helper"

    def test_resolve_through_import_binding(self):
        program = build_index({
            "repro/pkg/a.py": "def helper():\n    return 1\n",
            "repro/pkg/b.py": "from repro.pkg.a import helper\n",
        })
        assert program.resolve_name("repro.pkg.b", "helper") == \
            "repro.pkg.a.helper"

    def test_resolve_module_alias_attribute(self):
        program = build_index({
            "repro/pkg/a.py": "def helper():\n    return 1\n",
            "repro/pkg/b.py": "from repro.pkg import a as util\n",
        })
        assert program.resolve_name("repro.pkg.b", "util.helper") == \
            "repro.pkg.a.helper"

    def test_resolve_through_package_reexport(self):
        program = build_index({
            "repro/pkg/__init__.py":
                "from repro.pkg.impl import helper\n",
            "repro/pkg/impl.py": "def helper():\n    return 1\n",
            "repro/use.py": "from repro.pkg import helper\n",
        })
        assert program.resolve_name("repro.use", "helper") == \
            "repro.pkg.impl.helper"

    def test_resolve_class_method(self):
        program = build_index({
            "repro/pkg/a.py": ("class Engine:\n"
                               "    def run(self):\n"
                               "        return 1\n")})
        assert program.resolve_name("repro.pkg.a", "Engine.run") == \
            "repro.pkg.a.Engine.run"

    def test_cross_package_cycle_detected_intra_package_ignored(self):
        program = build_index({
            "repro/one/__init__.py": "import repro.two\n",
            "repro/two/__init__.py": "import repro.one\n",
            # an __init__ re-export knot inside one package is fine
            "repro/pkg/__init__.py": "from repro.pkg.sub import x\n",
            "repro/pkg/sub.py": "import repro.pkg\nx = 1\n",
        })
        cycles = program.import_cycles()
        assert any("repro.one" in cycle for cycle in cycles)
        assert not any("repro.pkg" in cycle for cycle in cycles)


HELPER = ("import numpy as np\n"
          "from repro.obs import runtime as _obs\n"
          "\n"
          "\n"
          "def emit(count):\n"
          "    _obs.metrics().counter('x').inc(count)\n")

HOT = ("from repro.perf.hotpath import hot_path\n"
       "\n"
       "from repro.helper import emit\n"
       "\n"
       "\n"
       "@hot_path\n"
       "def drain(n):\n"
       "    emit(n)\n"
       "    return n\n")


def write_tree(tmp_path, files):
    """Lay files out under ``tmp_path/repro`` so their derived module
    names (``repro.*``) line up with the dotted imports they use."""
    pkg = tmp_path / "repro"
    pkg.mkdir(exist_ok=True)
    for name, source in files.items():
        (pkg / name).write_text(source)
    return pkg


class TestCLIIncrementalAndWhy:
    def lint_args(self, *extra):
        return ["lint", "--config", str(REPO_ROOT / "pyproject.toml"),
                *extra]

    def test_why_explains_a_finding_by_id_prefix(self, tmp_path, capsys):
        write_tree(tmp_path, {"helper.py": HELPER, "hot.py": HOT})
        run = lint_paths([str(tmp_path)], LintConfig())
        finding = run.findings[0]
        fid = finding.finding_id()
        code = main(self.lint_args(str(tmp_path), "--why", fid[:10]))
        out = capsys.readouterr().out
        assert code == 0
        assert f"finding {fid}" in out
        assert "[hot-path]" in out
        assert "drain() calls emit()" in out

    def test_why_unknown_id_exits_two(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("VALUE = 1\n")
        code = main(self.lint_args(str(tmp_path), "--why", "deadbeef"))
        assert code == 2
        assert "no finding" in capsys.readouterr().out


class TestSeededXModule:
    """The CI self-check fixture must fire every program rule across a
    module boundary."""

    def run(self):
        return lint_paths(XMODULE_FILES, LintConfig())

    def test_all_three_program_rules_fire(self):
        rules = {f.rule for f in self.run().findings}
        assert {"hot-path", "seed-flow", "layering"} <= rules

    def test_findings_cross_the_module_boundary(self):
        transitive = [f for f in self.run().findings
                      if f.rule == "hot-path"]
        assert transitive
        for finding in transitive:
            assert finding.path.endswith("hot.py")
            assert "helpers.py" in finding.message
            assert "(depth 1)" in finding.message

    def test_chains_are_complete(self):
        for finding in self.run().findings:
            assert finding.chain, finding.message
            # every hop names a file:line location
            for hop in finding.chain:
                assert ":" in hop

    def test_cli_exits_nonzero_with_rule_names(self, capsys):
        code = main(["lint", "--config",
                     str(REPO_ROOT / "pyproject.toml"),
                     *XMODULE_FILES, "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        for rule in ("hot-path", "seed-flow", "layering"):
            assert f"[{rule}]" in out


class TestTransitiveChainRendering:
    def test_message_carries_the_full_call_path(self, tmp_path):
        write_tree(tmp_path, {
            "a.py": ("import time\n\n\ndef stamp():\n"
                     "    return time.perf_counter()\n\n\n"
                     "def relay():\n    return stamp()\n"),
            "b.py": ("from repro.perf.hotpath import hot_path\n\n"
                     "from repro.a import relay\n\n\n"
                     "@hot_path\ndef leaf():\n    return relay()\n"),
        })
        run = lint_paths([str(tmp_path)], LintConfig())
        finding = next(f for f in run.findings
                       if f.rule == "hot-path")
        assert "via leaf() -> relay() -> stamp()" in finding.message
        assert "(depth 2)" in finding.message
        assert len(finding.chain) == 3
