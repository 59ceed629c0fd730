"""Generated bad inputs for the CLI: every run ends in its documented contract.

Each property mutates one valid input file (a model file, a training CSV, a
points CSV or an experiment config) in its values, types and nesting, runs
cli.main in process, and checks the contract: the exit code is 0, 2, 3 or 4,
an exit 2 or 3 prints exactly one line on stderr, `error: ...`, and no
Python warning is raised. The grids a mutated config asks for stay small.
"""

import contextlib
import io
import json
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confpce.cli import main

SETTINGS = settings(derandomize=True, deadline=None)
EXTREMES = (1e308, -1e308, 1e-308, 5e-324, 0.0, -0.0, 1.0, 0.5)
NUMBERS = st.one_of(
    st.integers(-3, 12), st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(EXTREMES)
)
LEAVES = st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=4))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)
FIELDS = st.one_of(
    NUMBERS.map(repr),
    st.sampled_from(("", " ", "nan", "-inf", "1e309", "1_000", "١٢", "0x10", "1,2", "x1", "y")),
    st.text(max_size=4),
)


def mutate_json(data, doc):
    """`doc` with one node, drawn by walking down from the root, replaced or deleted."""
    children = list(doc) if isinstance(doc, dict) else list(range(len(doc))) if isinstance(doc, list) else []
    if not children or data.draw(st.booleans()):
        return data.draw(VALUES)
    key = data.draw(st.sampled_from(children))
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    if data.draw(st.integers(0, 4)) == 0:
        del copy[key]
    else:
        copy[key] = mutate_json(data, doc[key])
    return copy


def mutate_csv(data, rows):
    """`rows`, lists of fields with the header first, after one to three edits."""
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        edit = data.draw(st.sampled_from(("field", "drop field", "add field", "drop row", "copy row")))
        if edit == "field" and rows[i]:
            rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(FIELDS)
        elif edit == "drop field" and rows[i]:
            del rows[i][data.draw(st.integers(0, len(rows[i]) - 1))]
        elif edit == "add field":
            rows[i].append(data.draw(FIELDS))
        elif edit == "drop row" and len(rows) > 1:
            del rows[i]
        else:
            rows.insert(i, list(rows[i]))
    return rows


def csv_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def run_contract(*argv):
    """cli.main(argv) with stdout and stderr captured; checks the contract."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(arg) for arg in argv])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return code


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory with a valid training CSV, model file, points CSV and config."""
    d = tmp_path_factory.mktemp("generated")
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (16, 2))
    train = [["x1", "x2", "y"]] + [[repr(float(v)) for v in (*p, p[0] + p[1] ** 2)] for p in x]
    points = [["x1", "x2"]] + [[repr(float(v)) for v in p] for p in rng.uniform(-0.5, 0.5, (4, 2))]
    (d / "train.csv").write_text(csv_text(train))
    (d / "points.csv").write_text(csv_text(points))
    assert run_contract("fit", "--data", d / "train.csv", "--degree", "2", "--out", d / "model.json") == 0
    config = {"benchmark": "meromorphic", "degrees": [1, 2], "oversampling": [2],
              "methods": ["jackknife", "jackknife_plus"], "n_seeds": 1, "test_size": 20}
    return d, train, points, json.loads((d / "model.json").read_text()), config


@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_mutated_model_file(valid, data):
    d, _, _, model, _ = valid
    path, out = d / "bad-model.json", d / "iv.csv"
    path.write_text(json.dumps(mutate_json(data, model)))
    method = data.draw(st.sampled_from(("jk", "jk+")))
    run_contract("interval", "--model", path, "--points", d / "points.csv", "--method", method,
                 "--out", out)
    out.unlink(missing_ok=True)


@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_mutated_training_csv(valid, data):
    d, train, _, _, _ = valid
    path, out = d / "bad-train.csv", d / "m.json"
    path.write_text(csv_text(mutate_csv(data, train)))
    ranges = data.draw(st.sampled_from(((), ("--ranges=-1:1,-1:1",))))
    run_contract("fit", "--data", path, "--degree", "2", *ranges, "--out", out)
    out.unlink(missing_ok=True)


@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_mutated_points_csv(valid, data):
    d, _, points, _, _ = valid
    path, out = d / "bad-points.csv", d / "iv.csv"
    path.write_text(csv_text(mutate_csv(data, points)))
    run_contract("interval", "--model", d / "model.json", "--points", path, "--out", out)
    out.unlink(missing_ok=True)


def small_grid(doc):
    """Whether every size a config may ask for is small; malformed ones are refused anyway."""
    if not isinstance(doc, dict):
        return True
    for field, most in (("degrees", 3), ("oversampling", 3), ("n_seeds", 2), ("test_size", 50)):
        values = doc.get(field)
        values = values if isinstance(values, list) else [values]
        if len(values) > 3:
            return False
        for v in values:
            if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) > most:
                if float(v).is_integer() or field == "test_size":
                    return False
    return True


@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_mutated_config(valid, data):
    d, _, _, _, config = valid
    doc = mutate_json(data, config)
    assume(small_grid(doc))
    path, out = d / "bad-config.json", d / "report"
    path.write_text(json.dumps(doc))
    run_contract("experiment", "--config", path, "--out", out)
    shutil.rmtree(out, ignore_errors=True)
