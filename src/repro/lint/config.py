"""Lint configuration: the ``[tool.repro-lint]`` table in pyproject.toml.

The schema is flat and string-valued on purpose so the fallback parser
(for Python 3.9/3.10, which lack :mod:`tomllib`; the sandbox cannot
install ``tomli``) only needs tables, strings, booleans, and string
lists::

    [tool.repro-lint]
    paths = ["src"]
    select = ["determinism", "hot-path", ...]
    exclude = ["lint_corpus"]

    [tool.repro-lint.fp32-order]
    modules = ["repro/fpga/pe.py", "repro/nn"]

Module/path patterns match *path segments*: ``repro/fpga`` matches any
file under a ``repro/fpga`` directory regardless of the leading ``src/``
or an absolute prefix, and ``repro/fpga/pe.py`` matches exactly that
file.  See :func:`path_matches`.

Every key is checked: an unknown top-level key, a table for an
unregistered rule, or an option its rule does not declare
(:attr:`~repro.lint.registry.Rule.option_keys`) raises ``ValueError``
instead of being silently ignored.
"""

from __future__ import annotations

import dataclasses
import os
import re
import typing

from repro.lint.registry import all_rules

try:
    import tomllib as _toml
except ImportError:                                   # Python < 3.11
    _toml = None

#: Rule execution order is alphabetical; this is also the default select.
DEFAULT_SELECT = ("attribution", "determinism", "fp32-order", "hot-path",
                  "layering", "seed-flow", "seqlock")

TABLE = "repro-lint"

#: The string-list keys of ``[tool.repro-lint]`` besides the rule tables.
TOP_LEVEL_KEYS = ("paths", "select", "exclude")


@dataclasses.dataclass
class LintConfig:
    """Parsed lint configuration."""

    paths: typing.List[str] = dataclasses.field(
        default_factory=lambda: ["src"])
    select: typing.List[str] = dataclasses.field(
        default_factory=lambda: list(DEFAULT_SELECT))
    exclude: typing.List[str] = dataclasses.field(default_factory=list)
    rule_options: typing.Dict[str, typing.Dict[str, object]] = \
        dataclasses.field(default_factory=dict)

    def options(self, rule: str) -> typing.Dict[str, object]:
        return self.rule_options.get(rule, {})


def path_matches(path: str, pattern: str) -> bool:
    """Does ``pattern`` name this file or one of its parent directories?

    Both sides are compared as ``/``-joined path segments, so the match
    is insensitive to ``src/`` prefixes, absolute paths, and trailing
    slashes: ``repro/fpga`` matches ``src/repro/fpga/pe.py`` and
    ``repro/fpga/pe.py`` matches only that file.
    """
    norm = "/" + path.replace(os.sep, "/").strip("/") + "/"
    pat = "/" + pattern.replace(os.sep, "/").strip("/") + "/"
    return pat in norm


def path_matches_any(path: str,
                     patterns: typing.Iterable[str]) -> bool:
    return any(path_matches(path, pattern) for pattern in patterns)


def find_pyproject(start: str = ".") -> typing.Optional[str]:
    """Walk up from ``start`` to the nearest pyproject.toml."""
    here = os.path.abspath(start)
    if os.path.isfile(here):
        here = os.path.dirname(here)
    while True:
        candidate = os.path.join(here, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(here)
        if parent == here:
            return None
        here = parent


def load_config(pyproject: typing.Optional[str] = None,
                start: str = ".") -> LintConfig:
    """Load ``[tool.repro-lint]``; defaults when absent."""
    path = pyproject or find_pyproject(start)
    if path is None:
        return LintConfig()
    with open(path, "rb") as handle:
        raw = handle.read()
    if _toml is not None:
        document = _toml.loads(raw.decode("utf-8"))
    else:
        document = _parse_mini_toml(raw.decode("utf-8"))
    table = document.get("tool", {}).get(TABLE, {})
    return config_from_table(table)


def config_from_table(table: typing.Dict[str, object]) -> LintConfig:
    """Build a :class:`LintConfig`; ``ValueError`` names any key that
    no part of the linter reads, with the keys allowed there."""
    rules = all_rules()
    config = LintConfig()
    for key, value in table.items():
        if isinstance(value, dict):
            if key not in rules:
                raise ValueError(
                    f"[tool.{TABLE}.{key}] is not a registered rule; "
                    f"rules: {', '.join(rules)}")
            allowed = rules[key].option_keys
            for option in value:
                if option not in allowed:
                    raise ValueError(
                        f"unknown option {option!r} in "
                        f"[tool.{TABLE}.{key}]; allowed: "
                        f"{', '.join(allowed) or '(none)'}")
            config.rule_options[key] = value
        elif key in TOP_LEVEL_KEYS:
            setattr(config, key, [str(item) for item in value])
        else:
            raise ValueError(
                f"unknown key {key!r} in [tool.{TABLE}]; allowed: "
                f"{', '.join(TOP_LEVEL_KEYS)}, or a rule table")
    return config


# -- minimal TOML subset parser (pre-3.11 fallback) ------------------------

_SECTION = re.compile(r"^\[([^\]]+)\]\s*$")
_KEY = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.*)$")


def _parse_mini_toml(text: str) -> typing.Dict[str, object]:
    """Parse the subset of TOML the lint schema uses.

    Tables, string values, booleans, and (possibly multi-line) arrays of
    strings.  Anything fancier belongs in real TOML on Python >= 3.11.
    """
    root: typing.Dict[str, object] = {}
    current = root
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = _strip_comment(lines[index])
        index += 1
        if not line:
            continue
        section = _SECTION.match(line)
        if section:
            current = root
            for part in _split_table_key(section.group(1)):
                current = current.setdefault(part, {})  # type: ignore
            continue
        key = _KEY.match(line)
        if not key:
            continue
        name, value = key.group(1), key.group(2).strip()
        if value.startswith("[") and "]" not in value:
            # Multi-line array: accumulate until the closing bracket.
            while index < len(lines) and "]" not in value:
                value += " " + _strip_comment(lines[index])
                index += 1
        current[name] = _parse_value(value)
    return root


def _split_table_key(key: str) -> typing.List[str]:
    """``tool."repro-lint".fp32-order`` -> its dotted parts, unquoted."""
    parts = []
    for part in re.findall(r'"[^"]*"|[^.]+', key):
        parts.append(part.strip().strip('"'))
    return [p for p in parts if p]


def _strip_comment(line: str) -> str:
    out = []
    in_string = False
    for char in line:
        if char == '"':
            in_string = not in_string
        if char == "#" and not in_string:
            break
        out.append(char)
    return "".join(out).strip()


def _parse_value(value: str) -> object:
    value = value.strip()
    if value.startswith("["):
        inner = value.strip()[1:]
        inner = inner.rsplit("]", 1)[0]
        return [_parse_value(item) for item
                in _split_array_items(inner)]
    if value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        return value


def _split_array_items(inner: str) -> typing.List[str]:
    items = []
    depth = 0
    in_string = False
    current = ""
    for char in inner:
        if char == '"':
            in_string = not in_string
        if char == "," and depth == 0 and not in_string:
            if current.strip():
                items.append(current.strip())
            current = ""
            continue
        if char == "[" and not in_string:
            depth += 1
        if char == "]" and not in_string:
            depth -= 1
        current += char
    if current.strip():
        items.append(current.strip())
    return items
