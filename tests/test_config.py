import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mflight import config as config_mod
from mflight.aeroenv import StateDistribution
from mflight.errors import ConfigError
from mflight.geometry import GeometryBounds
from mflight.orchestrator import PhaseSpec, RunConfig
from mflight.ppo import PpoConfig

BENCH_CONFIGS = sorted((Path(__file__).parents[1] / "bench" / "configs").glob("*.json"))
README_EXAMPLES = re.findall(r"^```json\n(.*?)^```$",
                             (Path(__file__).parents[1] / "README.md").read_text(),
                             re.DOTALL | re.MULTILINE)


def minimal_doc(**target_overrides):
    target = {"fidelity": "low", "mu": 5.5e6, "sigma": 5e5, "max_episodes": 40}
    target.update(target_overrides)
    return {"schema_version": 1, "mode": "scratch", "target": target}


class TestValidation:
    def test_minimal_document_fills_defaults(self):
        doc = config_mod.validate_document(minimal_doc())
        assert doc["workers"] == 4
        assert doc["episodes_per_update"] == 20
        assert doc["ppo"] == {"learning_rate": 3e-4, "kl_stop": 0.05}
        assert doc["agent"] == {"log_std_init": -0.5}
        assert doc["ctl"]["window"] == 50
        assert doc["ctl"]["gamma_cut"] == 0.3
        assert doc["source"] is None

    def test_unknown_key_rejected(self):
        # every tier prices at zero angle of attack, so there is no environment section
        for key, value in (("learning_rate", 1e-3), ("environment", {"alpha_deg": 0.0})):
            doc = minimal_doc()
            doc[key] = value
            with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
                config_mod.validate_document(doc)

    def test_unknown_nested_key_rejected(self):
        # one-step episodes have no discount factor, so ppo.gamma is no key; a tier's
        # resolution, its nose blend and the 95% threshold are constants, so a document
        # that sets them, even to their own values, is rejected; so is one that sets the
        # fixed network widths or PPO's loss constants
        for path, value in (("ppo.lr", 0.99), ("ppo.gamma", 0.99),
                            ("geometry.n_points_low", 62), ("geometry.n_points_high", 202),
                            ("geometry.blend_fraction", 0.02),
                            ("evaluation.threshold_fraction", 0.95),
                            ("agent.hidden", [64, 64]), ("ppo.clip_epsilon", 0.2),
                            ("ppo.epochs_per_update", 10), ("ppo.entropy_coeff", 0.0),
                            ("ppo.value_coeff", 0.5), ("ppo.max_grad_norm", 0.5)):
            section, key = path.split(".")
            doc = minimal_doc()
            doc[section] = {key: value}
            with pytest.raises(ConfigError, match=f"unknown config key {path}$"):
                config_mod.validate_document(doc)

    @pytest.mark.parametrize("path", ["ppo", "ctl", "agent", "geometry", "geometry.bounds",
                                      "evaluation"])
    def test_null_section_rejected(self, path):
        # a null ppo section used to end in an AttributeError traceback
        doc = minimal_doc()
        *parents, key = path.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = None
        message = f"config section {path} must be an object"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_mod.validate_document(doc)

    @pytest.mark.parametrize("section", ["source", "state_reference"])
    def test_nullable_section_may_be_null(self, section):
        doc = config_mod.validate_document({**minimal_doc(), section: None})
        assert doc[section] is None
        assert config_mod.build_run_config(doc).source is None

    def test_null_target_reported_missing(self):
        with pytest.raises(ConfigError, match="must define a target phase"):
            config_mod.validate_document({**minimal_doc(), "target": None})

    def test_wrong_schema_version_rejected(self):
        doc = minimal_doc()
        doc["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            config_mod.validate_document(doc)

    def test_boolean_schema_version_rejected(self):
        # JSON true == 1 in Python, so an equality test alone would accept it
        doc = minimal_doc()
        doc["schema_version"] = True
        with pytest.raises(ConfigError, match="schema_version must be an integer, got True"):
            config_mod.validate_document(doc)

    def test_target_required(self):
        with pytest.raises(ConfigError, match="target"):
            config_mod.validate_document({"schema_version": 1, "mode": "scratch"})

    def test_build_run_config(self):
        cfg = config_mod.build_run_config(config_mod.validate_document(minimal_doc()))
        assert cfg.mode == "scratch"
        assert cfg.target.dist.mu == 5.5e6
        assert cfg.ppo.learning_rate == 3e-4

    def test_documented_defaults_are_the_run_config_defaults(self):
        cfg = config_mod.build_run_config(config_mod.validate_document(minimal_doc()))
        target = PhaseSpec(name="target", fidelity="low", dist=StateDistribution(5.5e6, 5e5),
                           max_episodes=40)
        plain = RunConfig(mode="scratch", target=target)
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert {"eval_episodes", "eval_mu", "eval_sigma", "eval_fidelity"} <= set(names)
        for name in names:
            got, want = getattr(cfg, name), getattr(plain, name)
            if name == "bounds":
                assert got.lo.tobytes() == want.lo.tobytes()
                assert got.hi.tobytes() == want.hi.tobytes()
            else:
                assert got == want and type(got) is type(want), name
        assert cfg.ppo == PpoConfig()

    def test_evaluation_falls_back_to_source_then_target(self):
        doc = minimal_doc()
        cfg = config_mod.build_run_config(config_mod.validate_document(doc))
        assert cfg.evaluation() == (StateDistribution(5.5e6, 5e5), "low")
        doc.update(mode="multi_fidelity_ctl",
                   source={"fidelity": "low", "mu": 4e6, "sigma": 3e5, "max_episodes": 20},
                   target={"fidelity": "high", "mu": 8e6, "sigma": 5e5, "max_episodes": 20},
                   evaluation={"mu": 7e6, "episodes": 0})
        cfg = config_mod.build_run_config(config_mod.validate_document(doc))
        assert cfg.evaluation() == (StateDistribution(7e6, 3e5), "high")
        assert cfg.eval_episodes == 0

    @pytest.mark.parametrize("mode, source_fidelity, target_fidelity", [
        ("single_fidelity_ctl", "low", "high"),
        ("multi_fidelity_ctl", "low", "low"),
    ], ids=["single low to high", "multi low to low"])
    def test_ctl_mode_must_match_its_phases(self, mode, source_fidelity, target_fidelity):
        # the mode labels summary.txt and compare.csv, so a mislabelled transfer is rejected
        doc = minimal_doc(fidelity=target_fidelity)
        doc.update(mode=mode, source={"fidelity": source_fidelity, "mu": 5.5e6, "sigma": 5e5,
                                      "max_episodes": 40})
        with pytest.raises(ConfigError, match=f"mode '{mode}' does not fit a "
                                              f"{source_fidelity} -> {target_fidelity}"):
            config_mod.build_run_config(config_mod.validate_document(doc))

    def test_run_config_is_frozen_and_replace_checks_again(self):
        cfg = config_mod.build_run_config(config_mod.validate_document(minimal_doc()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1
        assert dataclasses.replace(cfg, eval_episodes=5).eval_episodes == 5
        with pytest.raises(ConfigError, match="workers"):
            dataclasses.replace(cfg, workers=3)

    def test_build_rejects_bad_budget(self):
        doc = config_mod.validate_document(minimal_doc(max_episodes=30))
        with pytest.raises(ConfigError):
            config_mod.build_run_config(doc)

    def test_custom_bounds(self):
        doc = minimal_doc()
        lo = list(np.linspace(0.0, 0.5, 13))
        hi = list(np.linspace(0.5, 1.0, 13))
        lo[12], hi[12] = 0.002, 0.05
        doc["geometry"] = {"bounds": {"lo": lo, "hi": hi}}
        cfg = config_mod.build_run_config(config_mod.validate_document(doc))
        assert cfg.bounds.lo[12] == 0.002

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_bounds_with_one_end_rejected(self, end):
        # one end alone must not fall back to the built-in box for the other
        doc = minimal_doc()
        box = GeometryBounds()
        doc["geometry"] = {"bounds": {end: getattr(box, end).tolist()}}
        with pytest.raises(ConfigError, match="^geometry.bounds needs both lo and hi$"):
            config_mod.build_run_config(config_mod.validate_document(doc))

    @pytest.mark.parametrize("index, value", [(0, -0.05), (4, -0.001), (10, 1.0001)])
    def test_bounds_with_an_x_outside_the_chord_rejected(self, index, value):
        lo, hi = GeometryBounds().lo.tolist(), GeometryBounds().hi.tolist()
        (lo if value < 0 else hi)[index] = value
        doc = minimal_doc()
        doc["geometry"] = {"bounds": {"lo": lo, "hi": hi}}
        with pytest.raises(ConfigError, match="x-coordinates"):
            config_mod.build_run_config(config_mod.validate_document(doc))

    @pytest.mark.parametrize("edit", [
        {"geometry": {"bounds": {"lo": GeometryBounds().lo.tolist(),
                                 "hi": [True] + GeometryBounds().hi.tolist()[1:]}}},
        {"state_reference": {"mu": True, "sigma": 5e5}},
        {"penalty": -10 ** 400},
    ], ids=["bounds entry true", "state_reference.mu true", "penalty beyond float range"])
    def test_float_keys_reject_booleans_and_overflow(self, edit):
        doc = minimal_doc()
        doc.update(edit)
        with pytest.raises(ConfigError, match="must be a number"):
            config_mod.build_run_config(config_mod.validate_document(doc))

    def test_infinity_means_no_kl_stop(self):
        doc = config_mod.validate_document(minimal_doc())
        doc = config_mod.apply_overrides(doc, ["ppo.kl_stop=Infinity"])
        cfg = config_mod.build_run_config(doc)
        assert cfg.ppo.kl_stop == math.inf

    @pytest.mark.parametrize("seed", [-1, -2**40])
    def test_negative_seed_rejected(self, seed):
        doc = config_mod.validate_document(minimal_doc())
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            config_mod.build_run_config(config_mod.apply_overrides(doc, [f"seed={seed}"]))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70])
    def test_large_seeds_accepted(self, seed):
        doc = config_mod.validate_document(minimal_doc())
        cfg = config_mod.build_run_config(config_mod.apply_overrides(doc, [f"seed={seed}"]))
        assert cfg.seed == seed

    def test_state_reference_needs_both_fields(self):
        doc = minimal_doc()
        doc["state_reference"] = {"mu": 5.5e6}
        with pytest.raises(ConfigError, match="state_reference"):
            config_mod.build_run_config(config_mod.validate_document(doc))


class TestOverrides:
    def test_nested_override(self):
        doc = config_mod.validate_document(minimal_doc())
        out = config_mod.apply_overrides(doc, ["ctl.gamma_cut=0.25", "seed=9"])
        assert out["ctl"]["gamma_cut"] == 0.25
        assert out["seed"] == 9

    def test_override_rejects_unknown_key(self):
        doc = config_mod.validate_document(minimal_doc())
        with pytest.raises(ConfigError):
            config_mod.apply_overrides(doc, ["ppo.nope=1"])

    def test_override_requires_equals(self):
        doc = config_mod.validate_document(minimal_doc())
        with pytest.raises(ConfigError):
            config_mod.apply_overrides(doc, ["seed"])

    def test_string_values_pass_through(self):
        doc = config_mod.validate_document(minimal_doc())
        out = config_mod.apply_overrides(doc, ["mode=single_fidelity_ctl",
                                               "source.mu=5.5e6"])
        assert out["mode"] == "single_fidelity_ctl"
        assert out["source"]["mu"] == 5.5e6


class TestReference:
    def test_reference_text_is_pinned(self):
        # the printed reference is a run artifact; its defaults come from the dataclasses
        pinned = (Path(__file__).parent / "data" / "config_reference.txt").read_bytes()
        assert config_mod.reference_text().encode() == pinned

    def test_reference_documents_every_key(self):
        text = config_mod.reference_text()
        for key in ("mode", "workers", "episodes_per_update", "ppo.learning_rate",
                    "ppo.kl_stop", "ctl.window", "ctl.gamma_cut", "agent.log_std_init",
                    "geometry.bounds.lo", "evaluation.tail_episodes", "penalty"):
            assert key in text
        for key in ("ppo.clip_epsilon", "agent.hidden"):
            assert key not in text

    def test_ppo_settings_are_the_ppo_keys(self):
        # a PpoConfig field no document can set would be a knob only tests turn
        fields = [f.name for f in dataclasses.fields(PpoConfig)]
        assert fields == list(config_mod._REFERENCE["ppo"])

    def test_default_config_round_trips_json(self):
        # validation fills every default in: the reference's every key, and nothing else
        doc = config_mod.validate_document(minimal_doc())

        def leaves(tree, prefix=""):
            for key, val in tree.items():
                yield from leaves(val, f"{prefix}{key}.") if isinstance(val, dict) \
                    else [f"{prefix}{key}"]

        documented = [line.split(" = ")[0] for line in config_mod.reference_text().splitlines()
                      if " = " in line and not line.startswith(" ")]
        assert doc["source"] is None and doc["state_reference"] is None
        filled = {**doc, "source": doc["target"], "state_reference": {"mu": None, "sigma": None}}
        assert sorted(leaves(filled)) == sorted(documented)
        again = json.loads(json.dumps(doc))
        assert again == doc
        assert config_mod.validate_document(again) == doc


@pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda path: path.name)
def test_benchmark_config_builds(path):
    # the benchmark's configs are fixed files; deleting a key they set must fail here
    config_mod.build_run_config(config_mod.load_document(path))


@pytest.mark.parametrize("block", README_EXAMPLES,
                         ids=[f"example {i + 1}" for i in range(len(README_EXAMPLES))])
def test_readme_example_builds(block):
    # a deleted or renamed key must not leave a stale example in the README
    config_mod.build_run_config(config_mod.validate_document(json.loads(block)))
