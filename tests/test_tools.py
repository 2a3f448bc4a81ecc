"""The scripts under tools/ load against the current package and run their helpers."""

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from mflight.agent import load_checkpoint, value
from mflight.ppo import PpoConfig, PpoTrainer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def tools():
    """Both tools/ scripts as modules, with os.environ and sys.path restored afterwards."""
    environ, path = dict(os.environ), list(sys.path)
    modules = {}
    try:
        for name in ("artifact_digests", "layer_timings"):
            spec = importlib.util.spec_from_file_location(f"tools_{name}",
                                                          ROOT / "tools" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            modules[name] = module
        yield modules
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path


def test_layer_timings_builds_a_ppo_batch(tools):
    params, _ = load_checkpoint(ROOT / "bench" / "eval.ckpt")
    batch = tools["layer_timings"].ppo_batch(params, 3, 2024)
    assert len(batch) == 3
    assert batch.states.shape == (3, 1) and batch.actions.shape == (3, params.action_dim)
    assert batch.log_probs_old.shape == batch.advantages.shape == batch.returns.shape == (3,)
    assert ((-0.1 <= batch.returns) & (batch.returns <= 0.0)).all()
    values = np.array([value(params, float(s)) for s in batch.states[:, 0]])
    assert batch.advantages.tobytes() == (batch.returns - values).tobytes()
    stats = PpoTrainer(params.copy(), PpoConfig(epochs_per_update=1)).update(batch)
    assert stats.epochs_run == 1 and not stats.aborted


def test_artifact_digests_hashes_a_file(tools, tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"mflight\n")
    assert tools["artifact_digests"].sha256(str(path)) == hashlib.sha256(b"mflight\n").hexdigest()
