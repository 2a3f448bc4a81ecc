"""Spans around the calls into each mflight layer, and their self times.

A span records a layer name, its start and end on the monotonic clock, its
parent span and one integer tag. Spans stay in memory until the traced
command ends; ``Tracer.save`` then writes them once, as one ``.npz`` file.

Each wrapper is installed at the name through which the program makes the
call: the panel solve is called as ``aeroenv.solve_panel``, so that is the
attribute replaced, not ``panel.solve_panel``.
"""

from __future__ import annotations

import importlib
import threading
import time
from array import array

import numpy as np

# (metric name, module that holds the name the program calls, attribute)
LAYERS = (
    ("geometry.build_airfoil", "mflight.aeroenv", "build_airfoil"),
    ("panel.solve_panel", "mflight.aeroenv", "solve_panel"),
    ("boundary_layer.split_surfaces", "mflight.boundary_layer", "split_surfaces"),
    ("boundary_layer.march_surface", "mflight.boundary_layer", "march_surface"),
    ("aeroenv.step", "mflight.aeroenv", "Environment.step"),
    ("agent.act", "mflight.orchestrator", "act"),
    ("agent.value", "mflight.orchestrator", "value"),
    ("ppo.update", "mflight.ppo", "PpoTrainer.update"),
    ("ctl.update", "mflight.ctl", "TransferController.update"),
    ("orchestrator.collect_round", "mflight.orchestrator", "collect_round"),
    ("orchestrator.evaluate_policy", "mflight.orchestrator", "evaluate_policy"),
    ("orchestrator.write_episodes_csv", "mflight.orchestrator", "write_episodes_csv"),
    ("agent.save_checkpoint", "mflight.orchestrator", "save_checkpoint"),
    ("agent.load_checkpoint", "mflight.cli", "load_checkpoint"),
    ("config.load_document", "mflight.config", "load_document"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

# The tag a span keeps: a penalized episode (step) or the epochs run (update).
TAGGED = {
    "aeroenv.step": ("aeroenv.step.penalized", lambda out: 0 if out[1]["converged"] else 1),
    "ppo.update": ("ppo.update.epochs", lambda out: int(out.epochs_run)),
}


class Tracer:
    """In-memory span store, safe to call from the orchestrator's worker threads.

    A span opened on a worker thread with nothing open on that thread takes
    the coordinator's innermost open span as its parent: the worker pool is
    only ever started from inside ``collect_round``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main_ident = threading.main_thread().ident
        self.name = array("q")
        self.parent = array("q")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")

    def begin(self, name_id: int) -> int:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main_ident)
            parent = main[-1] if ident != self._main_ident and main else -1
        with self._lock:
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(parent)
            self.tag.append(0)
            self.end.append(0.0)
            self.start.append(time.monotonic())
        stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.monotonic()
        self._stacks[threading.get_ident()].pop()

    def wrap(self, layer: str, fn):
        name_id = LAYER_NAMES.index(layer)
        tag = TAGGED.get(layer, (None, None))[1]

        def traced(*args, **kwargs):
            idx = self.begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if tag is not None:
                self.tag[idx] = tag(out)
            return out

        return traced

    def install(self) -> None:
        """Replace every layer entry point listed in LAYERS with its traced wrapper."""
        for layer, module_name, attr in LAYERS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(layer, getattr(owner, leaf)))

    def save(self, path) -> None:
        np.savez(path, name=np.asarray(self.name), parent=np.asarray(self.parent),
                 tag=np.asarray(self.tag), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def self_times(spans, t0: float, t1: float):
    """Self time per layer, and the part of [t0, t1] that no span covers.

    At each instant the elapsed time is shared equally among the open spans
    that have no open child, so on one thread a span's self time is its
    duration minus the time its children cover, and with worker threads the
    self times plus the uncovered time still add up to the wall time.
    Returns (self seconds per layer id, seconds of [t0, t1] outside any span).
    """
    name = spans["name"].tolist()
    parent = spans["parent"].tolist()
    start = spans["start"].tolist()
    end = spans["end"].tolist()
    # at equal times a start sorts first, so a zero-length span still opens
    events = sorted([(s, 0, i) for i, s in enumerate(start)]
                    + [(e, 1, i) for i, e in enumerate(end)])
    own = [0.0] * len(LAYER_NAMES)
    open_children = [0] * len(name)
    is_open = [False] * len(name)
    leaves: set[int] = set()
    uncovered = 0.0
    t_prev = min([t0] + start)
    for t, kind, i in events:
        lo, hi = max(t_prev, t0), min(t, t1)
        if leaves:
            share = (t - t_prev) / len(leaves)
            for leaf in leaves:
                own[name[leaf]] += share
        elif hi > lo:
            uncovered += hi - lo
        t_prev = t
        p = parent[i]
        if kind == 0:
            is_open[i] = True
            leaves.add(i)
            if p >= 0 and is_open[p]:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p >= 0 and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    if t1 > t_prev:
        uncovered += t1 - max(t_prev, t0)
    return own, uncovered
