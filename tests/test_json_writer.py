"""The CLI's JSON writer against the standard library's encoder.

``_emit_json`` must write exactly what ``json.dumps(..., indent=2)`` writes
after every non-finite float has been replaced by None and every ``_Columns``
by its list of records, plus a newline.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubberroll import cli


def _json_clean(obj):
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, cli._Columns):
        return [{k: _json_clean(v) for k, v in zip(obj.names, row)} for row in zip(*obj.columns)]
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    return obj


def oracle(payload) -> str:
    return json.dumps(_json_clean(payload), indent=2) + "\n"


specials = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1])
strings = st.text() | st.sampled_from(['"', "\\", "\n\t\r\x00\x1f\x7f", "é ü ß", "€ 中 \U0001f600",
                                        "\ud800", "%s", "%", "%(x)s", "</script>"])
atoms = (st.none() | st.booleans() | st.integers() | strings
         | st.floats(allow_nan=True, allow_infinity=True)
         | specials)
keys = st.sampled_from(["theta0", "kappa", "eps", "stability", "lambda_sq", "%", "a\"b", "ü"]) | strings


@st.composite
def record_lists(draw, values):
    """Lists of flat records: the same keys in the same order, now and then
    broken by a record whose keys differ or by a nested value."""
    names = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.lists(values, min_size=len(names), max_size=len(names)),
                         min_size=1, max_size=6))
    recs = [dict(zip(names, row)) for row in rows]
    odd = draw(st.sampled_from(["none", "keys", "order", "nested"]))
    if odd == "keys":
        recs.append(dict(zip(names[:-1] + ["other"], rows[0])))
    elif odd == "order":
        recs.append(dict(zip(reversed(names), rows[0])))
    elif odd == "nested":
        recs.append({**recs[0], names[0]: [rows[0][0], {}]})
    return recs


@st.composite
def column_sets(draw):
    """_Columns of 0 to 6 rows: each column all floats, all finite floats
    (now and then a numpy array), all strings, or mixed atoms."""
    names = tuple(draw(st.lists(keys, min_size=1, max_size=5, unique=True)))
    n = draw(st.integers(0, 6))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(["floats", "finite", "strings", "atoms"]))
        values = {"floats": st.floats() | specials,
                  "finite": st.floats(allow_nan=False, allow_infinity=False),
                  "strings": strings, "atoms": atoms}[kind]
        col = draw(st.lists(values, min_size=n, max_size=n))
        if kind in ("floats", "finite") and draw(st.booleans()):
            col = np.array(col, dtype=float)
        columns.append(col)
    return cli._Columns(names, tuple(columns))


payloads = st.recursive(
    atoms | column_sets(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4) | record_lists(inner)),
    max_leaves=40,
) | record_lists(atoms) | column_sets()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(payload=payloads)
def test_emit_json_writes_the_stdlib_bytes(payload, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "writer.json"
    size = cli._emit_json(payload, str(out))
    want = oracle(payload)
    assert out.read_bytes() == want.encode("ascii")
    assert size == len(want)


def test_emit_json_to_stdout(capsys):
    payload = {"samples": [{"x": 1.5, "y": math.nan}, {"x": -0.0, "y": None}], "empty": {}, "t": ()}
    cli._emit_json(payload, None)
    assert capsys.readouterr().out == oracle(payload)


def test_columns_reject_ragged_and_nested_values():
    with pytest.raises(ValueError):
        cli._json_text(cli._Columns(("a", "b"), ([1.0, 2.0], [3.0])))
    with pytest.raises(TypeError):
        cli._json_text(cli._Columns(("a",), ([1.0, [2.0]],)))
