"""The one reader of the line-delimited JSON files the engine takes in."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator


def read_jsonl(path: str | Path, error_cls: type[Exception]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each non-blank line of ``path``;
    a line that is not a JSON object raises ``error_cls`` naming the line."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error_cls(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise error_cls(f"{path}: line {lineno}: record must be an object")
            yield lineno, record


def is_str_list(value: Any) -> bool:
    """Whether ``value`` is a JSON list of strings (a bare string is not)."""
    return isinstance(value, list) and all(isinstance(v, str) for v in value)
