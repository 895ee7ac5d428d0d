"""Fuzzing of the JSON loaders and of ``cli.main`` with mutated documents.

Each example starts from a valid document and replaces 1-3 of its nodes, at
any depth and the root included, by a value JSON can hold but the format
does not allow there: booleans, strings, ``null``, NaN, infinities, integers
beyond float range, ``-0.0``, subnormals, empty containers and random
numbers.  The loaders must answer with :class:`ValueError` alone, and the
CLI with a documented exit code.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sesqc.cli import main
from sesqc.decompose import compile_unitary
from sesqc.formats import (
    matrix_from_obj,
    matrix_to_obj,
    save_json,
    schedule_from_obj,
    schedule_to_obj,
    state_from_obj,
    state_to_obj,
)
from sesqc.linalg import random_unitary

SEEDS = (True, False, "1", None, float("nan"), float("inf"), float("-inf"),
         10**400, -(10**400), -0.0, 1e-320, [], {})
EXIT_CODES = {0, 2, 3, 4, 5, 6}


def _documents() -> dict:
    rng = np.random.default_rng(80)
    u = random_unitary(3, rng)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    o = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = o @ o.conj().T
    return {
        "unitary": matrix_to_obj(u),
        "observable": matrix_to_obj(o + o.conj().T),
        "density": matrix_to_obj(rho / np.trace(rho).real),
        "state": state_to_obj(a / np.linalg.norm(a)),
        "schedule": schedule_to_obj(compile_unitary(u), source="compile"),
    }


DOCUMENTS = _documents()
LOADERS = {
    "unitary": matrix_from_obj,
    "observable": matrix_from_obj,
    "density": matrix_from_obj,
    "state": state_from_obj,
    "schedule": schedule_from_obj,
}
# argv per case; "{doc}" is the mutated document, the other names valid files
CASES = {
    "compile": (("compile", "{doc}", "--out", "{out}"), "unitary"),
    "prepare-linear": (("prepare", "{doc}", "--mode", "linear", "--out", "{out}"), "state"),
    "prepare-three-step": (("prepare", "{doc}", "--mode", "three-step", "--out", "{out}"), "state"),
    "simulate": (("simulate", "{doc}", "--shots", "10", "--seed", "1"), "schedule"),
    "simulate-initial": (("simulate", "{schedule}", "--initial", "{doc}"), "state"),
    "expect-observable": (("expect", "{doc}", "{state}", "--exact"), "observable"),
    "expect-state": (("expect", "{observable}", "{doc}", "--shots", "100", "--seed", "1"), "state"),
    "expect-density": (("expect", "{observable}", "{doc}", "--exact"), "density"),
}

values = st.one_of(
    st.sampled_from(SEEDS),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
)
edits = st.lists(st.tuples(st.integers(min_value=0, max_value=10**6), values), min_size=1, max_size=3)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def mutate(doc, changes):
    """Copy of ``doc`` with node ``pick % node count`` replaced by ``value``, per change."""
    doc = json.loads(json.dumps(doc))
    for pick, value in changes:
        paths = list(_paths(doc))
        path = paths[pick % len(paths)]
        value = json.loads(json.dumps(value))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return doc


def test_mutate_reaches_every_depth():
    doc = {"a": [[1, 2], [3]], "b": 4}
    assert len(list(_paths(doc))) == 8
    assert mutate(doc, [(0, [])]) == []
    assert mutate(doc, [(4, None)]) == {"a": [[1, None], [3]], "b": 4}
    assert mutate(doc, [(7, 10**400)])["b"] == 10**400
    assert doc == {"a": [[1, 2], [3]], "b": 4}


@settings(deadline=None, max_examples=400)
@given(kind=st.sampled_from(sorted(LOADERS)), changes=edits)
def test_loaders_raise_only_value_error(kind, changes):
    doc = mutate(DOCUMENTS[kind], changes)
    try:
        LOADERS[kind](doc)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the mutated document, the output and one valid file per kind."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"doc": root / "doc.json", "out": root / "out.json"}
    for kind, doc in DOCUMENTS.items():
        paths[kind] = root / f"{kind}.json"
        save_json(paths[kind], doc)
    return paths


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on entries near 1e308
@settings(deadline=None, max_examples=200)
@given(case=st.sampled_from(sorted(CASES)), changes=edits)
def test_cli_exits_with_a_documented_code(files, case, changes):
    argv, kind = CASES[case]
    save_json(files["doc"], mutate(DOCUMENTS[kind], changes))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([arg.format(**files) for arg in argv])
    assert code in EXIT_CODES
