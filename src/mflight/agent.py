"""Gaussian policy and value function: small MLPs with manual backprop.

Everything is float64 and the gradients are exact reverse-mode derivatives,
checked against central finite differences in the test suite. The policy is a
diagonal Gaussian with a state-independent learned log-std; actions are
sampled pre-clip (log-probabilities refer to the unclipped sample) and clamped
to [-1, 1] before they reach the environment.

The agent takes (B, 1) state stacks only, through one :meth:`Mlp.forward_rows`
pass; the PPO update projects ``log_std`` into [-5, 2] after every step.

All parameters live in one vector, ``PolicyParams.flat``, that :func:`layout`
names in checkpoint order; the weights, biases and ``log_std`` are views into it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError
from .files import atomic_write, read_text
from .geometry import N_DESIGN_VARS

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = float(np.log(2.0 * np.pi))

CKPT_HEADER = "MFRL-CKPT v1"


def orthogonal(rng: np.random.Generator, n_in: int, n_out: int, gain: float) -> np.ndarray:
    """Scaled semi-orthogonal matrix via QR of a Gaussian draw."""
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if n_in < n_out:
        q = q.T
    return gain * q[:n_in, :n_out]


def layout(sizes: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter array, in checkpoint order, for policy widths
    ``sizes`` (state, hidden..., action); the value net has one output."""
    def mlp(prefix: str, widths: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
        return [entry for i in range(len(widths) - 1)
                for entry in ((f"{prefix}.w{i}", (widths[i], widths[i + 1])),
                              (f"{prefix}.b{i}", (widths[i + 1],)))]

    return mlp("policy", sizes) + [("log_std", (sizes[-1],))] + mlp("value", (*sizes[:-1], 1))


@dataclass
class Mlp:
    """Fully connected tanh network with linear output and cached backprop."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def forward(self, h: np.ndarray, cache: list | None = None) -> np.ndarray:
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if cache is not None:
                cache.append(h)
            h = h @ w + b
            if i < len(self.weights) - 1:
                h = np.tanh(h)
        return h

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """``forward`` of a (B, k) stack with the bits of B one-row passes.

        Bit-exact because each row runs as its own (1, k) product of a (B, 1, k)
        stacked matmul; a plain (B, k) pass is one gemm, whose last bits differ.
        """
        return self.forward(x[:, None, :])[:, 0, :]

    def backward(self, cache: list, grad_out: np.ndarray, out: "Mlp") -> None:
        """Write the gradients of a scalar loss, given d(loss)/d(output), into ``out``
        (this network's shapes; typically views of a gradient vector)."""
        g = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(cache[i].T, g, out=out.weights[i])
            g.sum(axis=0, out=out.biases[i])
            if i > 0:
                g = (g @ self.weights[i].T) * (1.0 - cache[i] ** 2)  # cache holds tanh outputs


class PolicyParams:
    """All trainable parameters in one float64 vector ``flat``, laid out by :func:`layout`;
    ``policy`` (mean net), ``log_std`` and ``value`` are views into it."""

    def __init__(self, sizes: tuple[int, ...], flat: np.ndarray | None = None):
        named = layout(sizes)
        ends = list(itertools.accumulate(math.prod(shape) for _, shape in named))
        # (name, start, end, shape) of every array, computed once and shared by views()
        self.spans = [(name, end - math.prod(shape), end, shape)
                       for (name, shape), end in zip(named, ends)]
        self._bind(np.zeros(ends[-1]) if flat is None else flat)

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self._tensors = [(name, flat[start:end].reshape(shape))
                         for name, start, end, shape in self.spans]
        t = [view for _, view in self._tensors]  # policy w/b pairs, log_std, value w/b pairs
        d = len(t) // 4                          # layers per network
        self.policy = Mlp(t[:2 * d:2], t[1:2 * d:2])
        self.log_std = t[2 * d]
        self.value = Mlp(t[2 * d + 1::2], t[2 * d + 2::2])

    @property
    def action_dim(self) -> int:
        return len(self.log_std)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """Named views of every parameter array, in checkpoint order."""
        return self._tensors

    def views(self, vec: np.ndarray) -> "PolicyParams":
        """The same layout over another vector, such as a gradient; nothing is copied."""
        out = object.__new__(PolicyParams)
        out.spans = self.spans
        out._bind(vec)
        return out

    def copy(self) -> "PolicyParams":
        return self.views(self.flat.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def init_params(rng: np.random.Generator, state_dim: int = 1, action_dim: int = N_DESIGN_VARS,
                hidden: tuple[int, ...] = (64, 64), log_std_init: float = -0.5) -> PolicyParams:
    """Orthogonal weights, drawn for the policy layers and then the value layers; zero biases."""
    params = PolicyParams((state_dim, *hidden, action_dim))
    for net in (params.policy, params.value):
        for i, w in enumerate(net.weights):
            w[...] = orthogonal(rng, *w.shape, 0.01 if i == len(hidden) else 1.0)
    params.log_std[...] = log_std_init
    return params


def value(params: PolicyParams, states: np.ndarray) -> np.ndarray:
    """V(s) of each row of a (B, 1) state stack, as ``collect_round`` computes it.

    No command calls it: it stays only because the benchmark's tracer wraps
    ``orchestrator.value`` by name, and ``bench/`` is fixed between revisions.
    """
    return params.value.forward_rows(states)[:, 0]


def gaussian_log_prob(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density of each row of (B, d) actions and means."""
    std = np.exp(log_std)
    z = (actions - mean) / std
    return -0.5 * (z * z).sum(axis=1) - log_std.sum() - 0.5 * actions.shape[1] * LOG_2PI


@dataclass
class GaussianActions:
    """A round of sampled actions, one row per state."""

    actions: np.ndarray    # (T, d) pre-clip samples
    log_probs: np.ndarray  # (T,) log-probabilities of the pre-clip samples
    clipped: np.ndarray    # (T, d) samples clamped to [-1, 1] for the environment


def act(params: PolicyParams, states: np.ndarray, rngs) -> GaussianActions:
    """Sample a_j ~ N(mean(s_j), diag(std^2)) for each row s_j of a (B, 1) state
    stack, drawing from ``rngs[j]``.

    The means are one :meth:`Mlp.forward_rows` pass over the stack; the rest
    is elementwise or sums over one row. So every row has the bits of acting
    on its state alone.
    """
    means = params.policy.forward_rows(states)
    noise = np.empty_like(means)
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=noise[j])
    actions = means + np.exp(params.log_std) * noise
    return GaussianActions(actions=actions,
                           log_probs=gaussian_log_prob(actions, means, params.log_std),
                           clipped=np.clip(actions, -1.0, 1.0))


# ---------------------------------------------------------------------------
# checkpoints: versioned plain text, bit-exact float64 round trip
# ---------------------------------------------------------------------------

def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays; repr() gives shortest-round-trip decimals.

    Each array is a line ``array <name> <dims>`` and then one value per line.
    A scalar and an empty vector both have the dims ``0``; the scalar's value
    line tells them apart.

    Written atomically: the file is complete or absent, never partial.
    """
    lines = [CKPT_HEADER]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=float)
        dims = " ".join(str(d) for d in arr.shape) if arr.ndim else "0"
        lines.append(f"array {name} {dims}")
        lines.extend(repr(float(v)) for v in arr.ravel())
    atomic_write(path, "\n".join(lines) + "\n")


def load_arrays(path) -> dict[str, np.ndarray]:
    lines = read_text(path, CheckpointError, "checkpoint").splitlines()
    if not lines or lines[0] != CKPT_HEADER:
        raise CheckpointError(f"bad checkpoint header in {path}")
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if not parts or parts[0] != "array" or len(parts) < 3:
            raise CheckpointError(f"malformed declaration at line {i + 1} of {path}")
        name = parts[1]
        try:
            shape = tuple(int(d) for d in parts[2:])
        except ValueError as exc:
            raise CheckpointError(f"bad dimensions at line {i + 1} of {path}: {exc}") from exc
        if min(shape) < 0:
            raise CheckpointError(f"negative dimension at line {i + 1} of {path}")
        i += 1
        # dims "0" declare a scalar when its one value line follows, and an
        # empty vector when the next declaration or the end of the file does
        if shape == (0,) and i < len(lines) and not lines[i].startswith("array "):
            shape = ()
        count = math.prod(shape)
        if i + count > len(lines):
            raise CheckpointError(f"truncated checkpoint {path}")
        try:
            vals = np.array([float(v) for v in lines[i:i + count]], dtype=float)
        except ValueError as exc:
            raise CheckpointError(f"bad value in {path}: {exc}") from exc
        arrays[name] = vals.reshape(shape)
        i += count
    return arrays


def save_checkpoint(path, params: PolicyParams, extras: dict[str, np.ndarray] | None = None) -> None:
    arrays = dict(params.tensors())
    arrays.update({f"extra.{k}": np.asarray(v, dtype=float) for k, v in (extras or {}).items()})
    save_arrays(path, arrays)


def load_checkpoint(path):
    """Load (params, extras) from a checkpoint file.

    The widths come from the ``policy.w{i}`` chain; besides ``extra.*`` the
    file must hold exactly the arrays :func:`layout` names for them. Every
    array, ``extra.*`` included, must be finite.
    """
    arrays = load_arrays(path)
    chain = []
    while arrays.get(f"policy.w{len(chain)}", np.empty(0)).ndim == 2:
        chain.append(arrays[f"policy.w{len(chain)}"].shape)
    if not chain:
        raise CheckpointError(f"checkpoint {path} has no 2-d policy.w0 array")
    sizes = (chain[0][0], *(n_out for _, n_out in chain))
    expected = dict(layout(sizes))
    found = {name: v.shape for name, v in arrays.items() if not name.startswith("extra.")}
    wrong = [f"{name} is {found.get(name, 'missing')}, expected {expected.get(name, 'none')}"
             for name in {**expected, **found} if found.get(name) != expected.get(name)]
    if wrong:
        raise CheckpointError(f"checkpoint {path} does not hold a policy of widths {sizes}: "
                              + "; ".join(wrong))
    bad = [name for name, v in arrays.items() if not np.isfinite(v).all()]
    if bad:
        raise CheckpointError(f"checkpoint {path} has non-finite values in {', '.join(bad)}")
    params = PolicyParams(sizes, np.concatenate([arrays[name].ravel() for name in expected]))
    extras = {k[len("extra."):]: v for k, v in arrays.items() if k.startswith("extra.")}
    return params, extras
