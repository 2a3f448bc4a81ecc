"""Every file reader maps a damaged real file to its typed error, never to a traceback.

The inputs are the files of one short real run (the ``short_run`` fixture),
each damaged by one mutation: a truncation, a deleted, duplicated or swapped
line, one token replaced, or, in the JSON config, one value replaced by a value
of any JSON type. Each input either loads or raises an ``MflightError``
subclass; a checkpoint that loads holds finite values only. A file that is
missing, or holds a byte that is not UTF-8, raises its reader's typed error.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflight.agent import load_checkpoint
from mflight.config import build_run_config, load_document
from mflight.errors import CheckpointError, ConfigError, MflightError, SchemaError
from mflight.orchestrator import read_episodes_csv, read_summary


def load_finite_checkpoint(path):
    params, extras = load_checkpoint(path)
    assert params.all_finite() and all(np.isfinite(v).all() for v in extras.values())


def load_config(path):
    return build_run_config(load_document(path))


# file of the short run -> its reader
READERS = {
    "run/checkpoint_target_final.ckpt": load_finite_checkpoint,
    "run/episodes.csv": read_episodes_csv,
    "run/summary.txt": read_summary,
    "config.json": load_config,
}
# file of the short run -> the error its reader raises when it cannot read the file
UNREADABLE = {
    "run/checkpoint_target_final.ckpt": CheckpointError,
    "run/episodes.csv": SchemaError,
    "run/summary.txt": SchemaError,
    "config.json": ConfigError,
}

TOKEN = re.compile(r"[^\s,:\[\]{}]+")  # a run of characters between separators
REPLACEMENTS = ("", "nan", "inf", "-inf", "-0.0", "-1", "0", "1e400", "2.5", "x", "null",
                "true", '"', "[]", "{}", "array")
JSON_VALUES = (None, True, 0, -1, 2.5, "x", [], {})

# (kind, position, second position, replacement); positions wrap around the file.
# A "value" mutation sets the value at the first position to JSON_VALUES[second
# position]; in a file that is not JSON it replaces a token.
mutations = st.tuples(st.sampled_from(("truncate", "delete", "duplicate", "swap", "token",
                                       "value")),
                      st.integers(0, 2**20), st.integers(0, 2**20),
                      st.sampled_from(REPLACEMENTS))


def json_paths(tree, path=()):
    """The key path of every value below the root of a JSON document."""
    children = tree.items() if isinstance(tree, dict) else \
        enumerate(tree) if isinstance(tree, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutate(text: str, mutation, name: str) -> str:
    kind, i, j, replacement = mutation
    if kind == "truncate":
        return text[:i % len(text)]
    if kind == "value" and name.endswith(".json"):
        doc = json.loads(text)
        paths = list(json_paths(doc))
        *parents, key = paths[i % len(paths)]
        node = doc
        for part in parents:
            node = node[part]
        node[key] = JSON_VALUES[j % len(JSON_VALUES)]
        return json.dumps(doc, indent=2)
    if kind in ("token", "value"):
        spans = [m.span() for m in TOKEN.finditer(text)]
        start, end = spans[i % len(spans)]
        return text[:start] + replacement + text[end:]
    lines = text.splitlines(keepends=True)
    i, j = i % len(lines), j % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


@pytest.mark.parametrize("name", READERS)
def test_real_files_load(short_run, name):
    READERS[name](short_run / name)


@pytest.mark.parametrize("name", READERS)
def test_missing_file_raises_its_typed_error(tmp_path, name):
    with pytest.raises(UNREADABLE[name], match="cannot read .*No such file"):
        READERS[name](tmp_path / "missing")


@pytest.mark.parametrize("name", READERS)
def test_non_utf8_byte_raises_its_typed_error(short_run, tmp_path, name):
    data = (short_run / name).read_bytes()
    damaged = tmp_path / "damaged"
    damaged.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    with pytest.raises(UNREADABLE[name], match="cannot read .*can't decode byte 0xff"):
        READERS[name](damaged)


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=150, deadline=None)
@given(mutation=mutations)
def test_damaged_file_loads_or_raises_its_typed_error(short_run, name, mutation):
    damaged = short_run / "damaged" / name.replace("/", "_")
    damaged.parent.mkdir(exist_ok=True)
    damaged.write_text(mutate((short_run / name).read_text(), mutation, name))
    try:
        READERS[name](damaged)
    except MflightError:
        pass
