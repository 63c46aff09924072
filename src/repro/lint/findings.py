"""The finding record every rule emits."""

from __future__ import annotations

import dataclasses
import hashlib
import typing


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``line``/``end_line`` are 1-based; ``col`` is 0-based (as in
    :mod:`ast`).  ``end_line`` lets the pragma matcher accept a
    suppression on any line of a multi-line statement.

    ``chain`` carries the call/import path justifying an
    *interprocedural* finding — one human-readable hop per entry,
    first entry at the anchor, last at the hazard.  ``repro lint --why
    <id>`` prints it; :meth:`finding_id` is the stable-within-a-run
    identifier the flag takes.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    end_line: typing.Optional[int] = None
    chain: typing.Tuple[str, ...] = ()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def finding_id(self) -> str:
        """Short content hash: stable across runs while the finding
        (rule, location, message) is unchanged."""
        blob = f"{self.rule}|{self.path}|{self.line}|{self.col}|" \
               f"{self.message}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:8]

    def as_dict(self) -> typing.Dict[str, object]:
        out: typing.Dict[str, object] = {
            "id": self.finding_id(), "rule": self.rule,
            "path": self.path, "line": self.line, "col": self.col,
            "message": self.message}
        if self.chain:
            out["chain"] = list(self.chain)
        return out

    def sort_key(self) -> typing.Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)
