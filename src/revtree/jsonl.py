"""The one reader of the JSON files the engine takes in, and of their fields,
and the one writer of the JSON documents it puts out."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

# how errors name the kinds a field may have; kinds are exact, so a bool is
# not an int and a string is not a list of strings
_KINDS = {str: "a string", bool: "true or false", int: "an integer", dict: "a JSON object",
          list[str]: "a list of strings", list[int]: "a list of integers"}
_ITEM_KINDS = {list[str]: str, list[int]: int}
_REQUIRED = object()


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


def read_json(path: str | Path, error_cls: type[Exception], kind=dict) -> Any:
    """The JSON document in ``path``, which is of ``kind`` (see
    :func:`field`); otherwise ``error_cls`` naming the file."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error_cls(f"{path} is not JSON: {exc}") from None
    if not _is(document, kind):
        raise error_cls(f"{path} does not hold {_KINDS[kind]}")
    return document


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as sorted, indented JSON and a newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2,
                                     ensure_ascii=False) + "\n", encoding="utf-8")


def field(record: dict, key: str, kind, where: str, error_cls: type[Exception],
          default: Any = _REQUIRED) -> Any:
    """``record[key]``, exactly of ``kind`` (a key of ``_KINDS``), or
    ``default``, if given, when ``key`` is missing or is null where the
    default is ``None``.  Otherwise ``error_cls`` names ``where`` (the file,
    and the line if there is one) and ``key``."""
    if key not in record or record[key] is None and default is None:
        if default is _REQUIRED:
            raise error_cls(f"{where}: {key} is missing")
        return default
    if not _is(record[key], kind):
        raise error_cls(f"{where}: {key} must be {_KINDS[kind]}, got {record[key]!r}")
    return record[key]


def _is(value: Any, kind) -> bool:
    if kind in _ITEM_KINDS:
        return type(value) is list and all(type(v) is _ITEM_KINDS[kind] for v in value)
    return type(value) is kind
