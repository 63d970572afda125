"""Deterministic emission and fixture parsing."""

import json

import numpy as np
import pytest

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
