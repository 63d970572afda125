"""Deterministic emission and fixture parsing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_rkhs.errors import DomainError
from dirichlet_rkhs.serialize import (dump_point_sequence, emit_csv, emit_json,
                                      format_float, load_complex_list,
                                      load_point_sequence, parse_complex_pair)


def test_format_float_round_trips():
    for x in (0.1, 1.0, -2.5e-300, 3.141592653589793, 1e300, 0.0):
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"


def test_format_float_lowercase_exponent():
    assert "e" in format_float(1e300)
    assert "E" not in format_float(1e300)


def test_format_float_rejects_nonfinite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            format_float(bad)


def test_emit_json_shape():
    out = emit_json({"a": 1, "b": [1.0, 2.0], "c": None, "d": True,
                     "e": complex(1.0, -2.0), "f": "x"})
    assert out.endswith("\n")
    parsed = json.loads(out)
    assert parsed == {"a": 1, "b": [1.0, 2.0], "c": None, "d": True,
                      "e": [1.0, -2.0], "f": "x"}
    # flat lists stay on one line; dict order is insertion order
    assert "[1, 2]" in out
    assert out.index('"a"') < out.index('"b"') < out.index('"c"')


def test_emit_json_nested_and_empty():
    out = emit_json({"rows": [{"k": 1}, {"k": 2}], "none": [], "obj": {}})
    assert json.loads(out) == {"rows": [{"k": 1}, {"k": 2}], "none": [], "obj": {}}


def test_emit_json_deterministic():
    obj = {"v": [0.1 + 0.2, 1e-17], "n": 3}
    assert emit_json(obj) == emit_json(obj)


def test_emit_json_numpy_scalars():
    out = emit_json({"i": np.int64(4), "x": np.float64(0.5), "b": np.bool_(True)})
    assert json.loads(out) == {"i": 4, "x": 0.5, "b": True}


def test_emit_json_rejects_unknown_types():
    with pytest.raises(DomainError):
        emit_json({"x": object()})


def _reference_emit(obj, parts: list, indent: int) -> None:
    """emit_json's renderer with one recursive call per value, floats
    included: the reference for its rendering of each list in one join."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            parts.append(f"{pad}  {json.dumps(str(key))}: ")
            _reference_emit(val, parts, indent + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            parts.append("[")
            for i, val in enumerate(obj):
                _reference_emit(val, parts, indent)
                if i + 1 < len(obj):
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for i, val in enumerate(obj):
                parts.append(pad + "  ")
                _reference_emit(val, parts, indent + 1)
                parts.append(",\n" if i + 1 < len(obj) else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        parts.append(f"[{format_float(obj.real)}, {format_float(obj.imag)}]")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise DomainError(f"cannot serialize value of type {type(obj).__name__}")


def _reference_emit_json(obj) -> str:
    parts: list = []
    _reference_emit(obj, parts, 0)
    return "".join(parts) + "\n"


_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0)
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))
_FLOAT_ROW = st.lists(_FLOATS, min_size=1, max_size=6)
_LEAVES = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(-10**20, 10**20),
                    st.booleans(), st.none(), st.text(max_size=4),
                    st.builds(complex, _FLOATS, _FLOATS))
_PAYLOADS = st.recursive(
    st.one_of(_LEAVES, _FLOAT_ROW, st.lists(_FLOAT_ROW, min_size=1, max_size=4),
              st.lists(st.one_of(_FLOATS, _FLOATS.map(np.float64)), max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200)
@given(_PAYLOADS)
def test_emit_json_matches_the_recursive_reference(payload):
    # the joined lists render byte for byte as the recursive form:
    # -0, subnormals, +-max, numpy floats, mixed lists, empty lists, dicts
    assert emit_json({"payload": payload}) == _reference_emit_json({"payload": payload})
    assert emit_json(payload) == _reference_emit_json(payload)


@given(st.lists(_FLOAT_ROW, min_size=1, max_size=4), st.data())
def test_non_finite_in_a_float_row_raises_the_same_error(rows, data):
    # a nan or inf anywhere in a row, a row of numpy floats, a row mixed
    # with other leaves or a row of rows raises format_float's DomainError
    # for the first one, as the recursive form does
    bad = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    r = data.draw(st.integers(0, len(rows) - 1))
    rows[r].insert(data.draw(st.integers(0, len(rows[r]))), bad)
    mixed = [None, 1, "x"] + rows[r]
    for payload in (rows[r], [np.float64(v) for v in rows[r]], mixed, rows,
                    {"entries": rows}):
        with pytest.raises(DomainError) as want:
            _reference_emit_json(payload)
        with pytest.raises(DomainError) as got:
            emit_json(payload)
        assert str(got.value) == str(want.value)


def test_emit_csv():
    out = emit_csv(["a", "b"], [[1, 2.5], [True, None]])
    assert out == "a,b\n1,2.5\ntrue,\n"
    with pytest.raises(DomainError):
        emit_csv(["a", "b"], [[1]])


def test_parse_complex_pair():
    assert parse_complex_pair("1,2") == complex(1.0, 2.0)
    assert parse_complex_pair("-0.5,1e3") == complex(-0.5, 1000.0)
    for bad in ("1", "1,2,3", "a,b"):
        with pytest.raises(DomainError):
            parse_complex_pair(bad)


def test_point_sequence_round_trip(fixtures_dir, tmp_path):
    seq = load_point_sequence(fixtures_dir / "equidistributed.json")
    text = dump_point_sequence(seq)
    p = tmp_path / "again.json"
    p.write_text(text)
    again = load_point_sequence(p)
    assert again == seq
    assert dump_point_sequence(again) == text


def test_load_point_sequence_rejects_malformed(tmp_path):
    cases = ['{"a": 1}', '[[1.0]]', '[[1.0, 2.0, 3.0]]', '[["x", 2.0]]',
             '[[0.4, 0.0]]']
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_text(text)
        with pytest.raises(DomainError):
            load_point_sequence(p)


def test_load_complex_list(fixtures_dir, tmp_path):
    targets = load_complex_list(fixtures_dir / "targets_small.json")
    assert targets == [complex(1, 0), complex(0.5, -0.25), complex(0, 1)]
    p = tmp_path / "bad.json"
    p.write_text('[[1.0, "y"]]')
    with pytest.raises(DomainError):
        load_complex_list(p)
    for bad in ('[[NaN, 0]]', '[[1.0, Infinity]]', '[[-Infinity, 0]]'):
        p.write_text(bad)
        with pytest.raises(DomainError):
            load_complex_list(p)
