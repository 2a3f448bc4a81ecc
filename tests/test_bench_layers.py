"""The benchmark's tracer wraps mflight entry points by name; every name must resolve.

``bench/spans.py`` replaces each ``LAYERS`` attribute with a traced wrapper
and tags each ``Environment.step`` span from ``out[1]["converged"]``. A
renamed entry point would make ``bench/run.py --trace 1`` die at install.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from mflight.aeroenv import Environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("layer, module_name, attr", SPANS.LAYERS,
                         ids=[layer for layer, _, _ in SPANS.LAYERS])
def test_layer_entry_point_resolves(layer, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), layer


def test_step_output_takes_the_penalized_tag():
    _, tag = SPANS.TAGGED["aeroenv.step"]
    env = Environment("low")
    crossed = np.zeros(13)
    crossed[[1, 3, 5]] = -1.0   # upper ordinates at their lowest,
    crossed[[7, 9, 11]] = 1.0   # lower ordinates at their highest
    assert tag(env.step(np.zeros(13), 6e6)) == 0
    assert tag(env.step(crossed, 6e6)) == 1
