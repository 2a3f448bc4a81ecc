"""Run configuration documents: JSON schema, validation, overrides, defaults.

A config document is nested key/value JSON with a schema_version; unknown
keys are rejected. ``build_run_config`` maps it onto the orchestrator's
RunConfig: the top-level keys keep their names, ``source`` and ``target``
become PhaseSpecs, ``ppo`` a PpoConfig, ``geometry.bounds`` the
GeometryBounds and ``state_reference`` the ``state_ref`` pair. The keys of
``ctl``, ``agent`` and ``evaluation`` become flat fields, some renamed:
``ctl.window`` is ``ctl_window`` and ``evaluation.episodes`` is
``eval_episodes``. A tier's surface resolution, nose blend and angle of attack
belong to the environment, the network widths are init_params' defaults, and
the PPO update's clip, epochs, value coefficient and gradient-norm clip are
constants of ``ppo``; none of them is a key.
``python -m mflight.config`` prints the generated reference of every key and
its default.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from .aeroenv import StateDistribution
from .errors import ConfigError
from .files import read_text
from .geometry import GeometryBounds
from .orchestrator import PhaseSpec, RunConfig
from .ppo import PpoConfig

SCHEMA_VERSION = 1

# (default, description) per key; None defaults mean "absent unless given"
_PHASE_DOC = {
    "fidelity": ("low", "environment tier: low (flat-plate drag of the max thickness) "
                        "or high (panel + BL march)"),
    "mu": (5.5e6, "mean of the Gaussian Reynolds-number state distribution"),
    "sigma": (5e5, "std of the state distribution"),
    "max_episodes": (2000, "episode budget; must be a multiple of episodes_per_update"),
}

_REFERENCE: dict = {
    "schema_version": (SCHEMA_VERSION, "config document schema version"),
    "mode": ("scratch", "scratch | single_fidelity_ctl (source and target share a fidelity) "
                        "| multi_fidelity_ctl (source and target fidelities differ)"),
    "seed": (RunConfig.seed, "global seed; every logged number is a function of (config, seed)"),
    "workers": (RunConfig.workers,
                "episode workers W: the episodes.csv worker column; starts no threads"),
    "episodes_per_update": (RunConfig.episodes_per_update,
                            "episodes pooled per policy update (T_L)"),
    "penalty": (RunConfig.penalty, "reward for invalid or non-converged episodes"),
    "source": dict(_PHASE_DOC),
    "target": dict(_PHASE_DOC),
    "state_reference": {
        "mu": (None, "normalization reference mean; defaults to the source distribution"),
        "sigma": (None, "normalization reference std"),
    },
    "ppo": {
        "learning_rate": (PpoConfig.learning_rate, "Adam step size"),
        "kl_stop": (PpoConfig.kl_stop,
                    "stop an update's epochs when the KL estimate exceeds this"),
    },
    "ctl": {
        "window": (RunConfig.ctl_window, "look-back window k for the reward variance ratio"),
        "gamma_cut": (RunConfig.ctl_gamma_cut,
                      "variance-ratio cut-off for declaring the source task complete"),
        "force_transfer": (RunConfig.force_transfer,
                           "transfer at source budget exhaustion even if incomplete"),
    },
    "agent": {
        "log_std_init": (RunConfig.log_std_init, "initial policy log-std (state-independent)"),
    },
    "geometry": {
        "bounds": {
            "lo": (None, "13 lower geometric bounds (defaults to the built-in design box)"),
            "hi": (None, "13 upper geometric bounds"),
        },
    },
    "evaluation": {
        "tail_episodes": (RunConfig.tail_episodes,
                          "tail window for the final reward distribution"),
        "episodes": (RunConfig.eval_episodes, "default episode count for the evaluate command"),
        "mu": (None, "evaluation distribution mean; defaults to the source (else target) mu"),
        "sigma": (None, "evaluation distribution std"),
        "fidelity": (None, "evaluation fidelity; defaults to the target phase fidelity"),
    },
}

# the sections that may be null: no source phase, no explicit state reference
_NULLABLE_SECTIONS = ("source", "state_reference")


def reference_text() -> str:
    """Human-readable reference of every key, default, and meaning."""
    lines = [f"mflight configuration reference (schema_version {SCHEMA_VERSION})",
             "nested keys are written as dotted paths; values show the default", ""]

    def walk(tree: dict, prefix: str):
        for key, val in tree.items():
            path = f"{prefix}{key}"
            if isinstance(val, dict):
                walk(val, path + ".")
            else:
                default, desc = val
                lines.append(f"{path} = {json.dumps(default)}")
                lines.append(f"    {desc}")

    walk(_REFERENCE, "")
    lines.append("")
    lines.append("source and state_reference may be null; source must be null in scratch mode.")
    return "\n".join(lines) + "\n"


def _merge(ref: dict, given, path: str) -> dict:
    """``given`` with every default of ``ref`` filled in, in ``ref``'s key order.

    Walks the given keys in document order, so the first unknown key or
    non-object section met is the one reported. Only a nullable section, or
    the target (which ``validate_document`` then reports missing), may be null.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    merged = {}
    for key, val in given.items():
        if key not in ref:
            raise ConfigError(f"unknown config key {path}{key}")
        null = val is None and f"{path}{key}" in (*_NULLABLE_SECTIONS, "target")
        is_section = isinstance(ref[key], dict) and not null
        merged[key] = _merge(ref[key], val, f"{path}{key}.") if is_section else val
    return {key: merged[key] if key in merged
            else _merge(val, {}, "") if isinstance(val, dict) else val[0]
            for key, val in ref.items()}


def validate_document(doc: dict) -> dict:
    """Fill defaults, reject unknown keys, and sanity-check the document."""
    merged = _merge(_REFERENCE, doc, "")
    # as an integer key: JSON true would pass an == 1 test
    if as_int(doc.get("schema_version"), "config schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    for section in _NULLABLE_SECTIONS:
        if section not in doc:
            merged[section] = None
    if "target" not in doc or doc["target"] is None:
        raise ConfigError("config must define a target phase")
    return merged


def load_document(path) -> dict:
    text = read_text(path, ConfigError, "config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_document(doc)


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON, else strings."""
    doc = copy.deepcopy(doc)
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return validate_document(doc)


def as_int(value, key: str) -> int:
    """An integer config value; a boolean or a number with a fraction raises ConfigError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def as_float(value, key: str) -> float:
    """A float config value; a boolean (float(True) would be 1.0) or NaN raises ConfigError."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if not math.isnan(number):
                return number
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _phase(name: str, section: dict | None) -> PhaseSpec | None:
    if section is None:
        return None
    return PhaseSpec(name=name, fidelity=section["fidelity"],
                     dist=StateDistribution(as_float(section["mu"], f"{name}.mu"),
                                            as_float(section["sigma"], f"{name}.sigma")),
                     max_episodes=as_int(section["max_episodes"], f"{name}.max_episodes"))


def build_run_config(doc: dict) -> RunConfig:
    """Turn a validated document into the orchestrator's RunConfig; bad values raise ConfigError."""
    try:
        bounds_doc = doc["geometry"]["bounds"]
        if bounds_doc["lo"] is None and bounds_doc["hi"] is None:
            bounds = GeometryBounds()
        elif bounds_doc["lo"] is None or bounds_doc["hi"] is None:
            raise ConfigError("geometry.bounds needs both lo and hi")
        else:
            lo, hi = ([as_float(v, f"geometry.bounds.{end}") for v in bounds_doc[end]]
                      for end in ("lo", "hi"))
            bounds = GeometryBounds(lo=np.array(lo), hi=np.array(hi))

        ref_doc = doc.get("state_reference")
        state_ref = None
        if ref_doc and (ref_doc.get("mu") is not None or ref_doc.get("sigma") is not None):
            if ref_doc.get("mu") is None or ref_doc.get("sigma") is None:
                raise ConfigError("state_reference needs both mu and sigma")
            state_ref = (as_float(ref_doc["mu"], "state_reference.mu"),
                         as_float(ref_doc["sigma"], "state_reference.sigma"))

        force_transfer = doc["ctl"]["force_transfer"]
        if not isinstance(force_transfer, bool):  # bool("False") would be True
            raise ConfigError(f"ctl.force_transfer must be true or false, got {force_transfer!r}")
        ppo_doc = doc["ppo"]
        ev = doc["evaluation"]
        return RunConfig(
            mode=doc["mode"],
            source=_phase("source", doc.get("source")),
            target=_phase("target", doc["target"]),
            ppo=PpoConfig(learning_rate=as_float(ppo_doc["learning_rate"], "ppo.learning_rate"),
                          kl_stop=as_float(ppo_doc["kl_stop"], "ppo.kl_stop")),
            workers=as_int(doc["workers"], "workers"),
            episodes_per_update=as_int(doc["episodes_per_update"], "episodes_per_update"),
            seed=as_int(doc["seed"], "seed"),
            penalty=as_float(doc["penalty"], "penalty"),
            log_std_init=as_float(doc["agent"]["log_std_init"], "agent.log_std_init"),
            ctl_window=as_int(doc["ctl"]["window"], "ctl.window"),
            ctl_gamma_cut=as_float(doc["ctl"]["gamma_cut"], "ctl.gamma_cut"),
            force_transfer=force_transfer,
            bounds=bounds,
            state_ref=state_ref,
            tail_episodes=as_int(ev["tail_episodes"], "evaluation.tail_episodes"),
            eval_episodes=as_int(ev["episodes"], "evaluation.episodes"),
            eval_mu=None if ev["mu"] is None else as_float(ev["mu"], "evaluation.mu"),
            eval_sigma=None if ev["sigma"] is None else as_float(ev["sigma"], "evaluation.sigma"),
            eval_fidelity=ev["fidelity"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


if __name__ == "__main__":
    print(reference_text(), end="")
