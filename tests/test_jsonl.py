"""The one typed reader of input files: exact kinds, defaults, and errors
that name the file, the line and the field."""

from __future__ import annotations

import pytest

from revtree.jsonl import field, read_json


class Refused(Exception):
    pass


@pytest.mark.parametrize("value, kind", [
    ("x", str), ("", str), (True, bool), (False, bool), (0, int), (-3, int),
    ([], list[str]), (["a", "b"], list[str]), ([1, 2], list[int]), ({}, dict),
])
def test_a_value_of_its_exact_kind_is_returned(value, kind):
    assert field({"k": value}, "k", kind, "f: line 1", Refused) is value


@pytest.mark.parametrize("value, kind, named", [
    # a bool is an int and an int is not a bool to isinstance; here neither
    (True, int, "an integer"),
    (1, bool, "true or false"),
    (1.0, int, "an integer"),
    ("a", list[str], "a list of strings"),
    (("a",), list[str], "a list of strings"),
    (["a", 1], list[str], "a list of strings"),
    ([True], list[int], "a list of integers"),
    (None, str, "a string"),
    ([], dict, "a JSON object"),
])
def test_a_value_of_another_kind_is_refused_naming_where_and_the_field(
        value, kind, named):
    with pytest.raises(Refused) as info:
        field({"k": value}, "k", kind, "data.jsonl: line 4", Refused)
    assert str(info.value) == f"data.jsonl: line 4: k must be {named}, got {value!r}"


def test_a_missing_field_is_refused_unless_it_has_a_default():
    with pytest.raises(Refused, match="^cfg.json: k is missing$"):
        field({}, "k", str, "cfg.json", Refused)
    assert field({}, "k", str, "cfg.json", Refused, default="d") == "d"


def test_a_null_is_missing_only_where_the_default_is_none():
    assert field({"k": None}, "k", str, "w", Refused, default=None) is None
    with pytest.raises(Refused, match="k must be a string, got None"):
        field({"k": None}, "k", str, "w", Refused, default="")
    with pytest.raises(Refused, match="k must be a string, got None"):
        field({"k": None}, "k", str, "w", Refused)


def test_read_json_names_the_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": 1}')
    assert read_json(path, Refused) == {"a": 1}
    path.write_text("{oops")
    with pytest.raises(Refused, match=f"^{path} is not JSON: "):
        read_json(path, Refused)
    path.write_text('["a", 2]')
    with pytest.raises(Refused, match=f"^{path} does not hold a JSON object$"):
        read_json(path, Refused)
    with pytest.raises(Refused, match=f"^{path} does not hold a list of strings$"):
        read_json(path, Refused, list[str])
