import json
import os
import warnings

import numpy as np
import pytest

from mflight import cli, orchestrator
from mflight.aeroenv import Environment
from mflight.agent import load_checkpoint
from mflight.errors import CheckpointError, RunError

from conftest import BENCH


def write_config(path, **overrides):
    doc = {
        "schema_version": 1,
        "mode": "scratch",
        "seed": 3,
        "target": {"fidelity": "low", "mu": 5.5e6, "sigma": 5e5, "max_episodes": 40},
        "evaluation": {"episodes": 30},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def scratch_run(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    code = cli.main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return cfg, out


class TestTrain:
    def test_missing_config_exits_2_with_path(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_budget_rows_accounting(self, scratch_run):
        _, out = scratch_run
        lines = (out / "episodes.csv").read_text().splitlines()
        assert lines[0] == "# mflight-episodes v1"
        assert lines[1].startswith("episode,phase,fidelity,worker")
        assert len(lines) == 2 + 40

    def test_artifacts_written(self, scratch_run):
        _, out = scratch_run
        for name in ("episodes.csv", "summary.txt", "checkpoint_target_final.ckpt",
                     "airfoil_target_mean.dat"):
            assert (out / name).exists()

    def test_explicit_default_override_is_byte_identical(self, tmp_path, scratch_run):
        cfg, out = scratch_run
        out2 = tmp_path / "run2"
        code = cli.main(["train", "--config", str(cfg), "--out", str(out2),
                         "--set", "ctl.gamma_cut=0.3"])
        assert code == 0
        assert (out / "episodes.csv").read_bytes() == (out2 / "episodes.csv").read_bytes()
        assert (out / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()

    def test_seed_flag_changes_run(self, tmp_path, scratch_run):
        cfg, out = scratch_run
        out2 = tmp_path / "run_seed"
        cli.main(["train", "--config", str(cfg), "--out", str(out2), "--seed", "4"])
        assert (out / "episodes.csv").read_bytes() != (out2 / "episodes.csv").read_bytes()

    def test_invalid_override_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--set", "ndonexist=1"])
        assert code == 2

    @pytest.mark.parametrize("overrides", [
        ["ctl.window=0"],
        ["ctl.gamma_cut=1.5"],
        ["ctl.force_transfer=False"],
        ["ppo.learning_rate=-1"],
        ["workers=x"],
        ["state_reference.mu=5.5e6", "state_reference.sigma=0"],
        ["state_reference.mu=5.5e6", "state_reference.sigma=-1"],
        ["state_reference.mu=5.5e6", "state_reference.sigma=NaN"],
        ["state_reference.sigma=5e5"],
        ["evaluation.tail_episodes=0"],
        ["evaluation.tail_episodes=-5"],
        ["penalty=0"],
        ["penalty=1"],
        ["penalty=NaN"],
        ["penalty=-Infinity"],
        ["evaluation.episodes=-3"],
        ["evaluation.episodes=x"],
        ["evaluation.episodes=2.5"],
        ["evaluation.fidelity=medium"],
        ["evaluation.sigma=0"],
        ["episodes_per_update=20.9"],
        ["workers=2.5"],
        ["ctl.window=49.99"],
        ["seed=3.9"],
        ["target.max_episodes=40.5"],
        ["seed=true"],
        ["seed=-5"],
        ["workers=true"],
        ["ppo.learning_rate=true"],
        ["ppo.kl_stop=false"],
        ["agent.log_std_init=true"],
        ["target.sigma=true"],
        ["evaluation.mu=true"],
        ["ppo.kl_stop=NaN"],
        ["ppo.kl_stop=-1"],
        ["ppo.kl_stop=0"],
        ["ppo.learning_rate=NaN"],
        ["ppo.learning_rate=Infinity"],
        ["agent.log_std_init=NaN"],
        ["agent.log_std_init=Infinity"],
        ["agent.log_std_init=3"],
        ["agent.log_std_init=-6"],
        ["agent.log_std_init=1e308"],
        ["ctl.window=1e19"],
        # the environment's fixed physics is no key: a stale --set exits 2 as an unknown key
        ["geometry.n_points_low=10"],
        ["geometry.n_points_low=40"],
        ["geometry.blend_fraction=5"],
        ["geometry.blend_fraction=-1"],
        ["geometry.blend_fraction=NaN"],
        ["environment.alpha_deg=1e9"],
        ["environment.alpha_deg=-91"],
        ["environment.alpha_deg=NaN"],
        ["environment.alpha_deg=true"],
        ["geometry.blend_fraction=true"],
        # so are the fixed network widths and PPO's loss constants
        ["ppo.clip_epsilon=0"],
        ["agent.hidden=[0]"],
        ["agent.hidden=[64, -1]"],
        ["agent.hidden=[8.7]"],
        ["ppo.epochs_per_update=3.5"],
        ["ppo.epochs_per_update=0"],
        ["ppo.max_grad_norm=true"],
        ["ppo.max_grad_norm=NaN"],
        ["ppo.max_grad_norm=-Infinity"],
        ["ppo.max_grad_norm=0"],
        ["ppo.entropy_coeff=NaN"],
        ["ppo.value_coeff=-Infinity"],
        ["agent.hidden=[1e30]"],
    ], ids=lambda overrides: " ".join(overrides))
    def test_bad_value_exits_2_before_any_compute(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        args = ["train", "--config", str(cfg), "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        assert cli.main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("x_lo", [-0.05, -0.01, -0.001])
    def test_design_box_off_the_chord_exits_2_before_any_round(self, tmp_path, capsys,
                                                               monkeypatch, x_lo):
        def must_not_run(*args):
            raise AssertionError("a round was collected")

        monkeypatch.setattr(orchestrator, "collect_round", must_not_run)
        doc = json.loads((BENCH / "configs" / "lowfi_transfer.json").read_text())
        doc["geometry"]["bounds"]["lo"][0] = x_lo
        (tmp_path / "c.json").write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 2
        assert "x-coordinates" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_2_before_any_compute(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out), "--seed", "-5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -5\n"
        assert not out.exists()

    def test_seed_beyond_32_bits_trains(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        runs = []
        for seed in (2**32, 2**64 + 3):
            out = tmp_path / f"o{seed}"
            assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                             "--seed", str(seed)]) == 0
            assert f"seed: {seed}" in (out / "summary.txt").read_text()
            runs.append((out / "episodes.csv").read_bytes())
        assert runs[0] != runs[1]

    def test_mean_airfoils_are_built_not_priced(self, tmp_path, monkeypatch):
        calls = []
        evaluate = Environment.evaluate

        def counted(self, shape, re_c):
            calls.append(re_c)
            return evaluate(self, shape, re_c)

        monkeypatch.setattr(Environment, "evaluate", counted)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "airfoil_target_mean.dat").stat().st_size > 0
        assert calls == []

    def test_ctl_mode_writes_source_checkpoint(self, tmp_path):
        cfg = write_config(
            tmp_path / "ctl.json",
            mode="single_fidelity_ctl",
            source={"fidelity": "low", "mu": 5.5e6, "sigma": 5e5, "max_episodes": 60},
            ctl={"window": 20, "force_transfer": True},
        )
        out = tmp_path / "ctl_run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "checkpoint_source_final.ckpt").exists()
        assert (out / "airfoil_source_mean.dat").exists()
        _, extras = load_checkpoint(out / "checkpoint_source_final.ckpt")
        assert "ctl.rewards" in extras


class TestEvaluate:
    def test_histogram_and_exports(self, tmp_path, scratch_run):
        cfg, out = scratch_run
        eval_out = tmp_path / "eval"
        code = cli.main(["evaluate", "--checkpoint",
                         str(out / "checkpoint_target_final.ckpt"),
                         "--config", str(cfg), "--out", str(eval_out)])
        assert code == 0
        lines = (eval_out / "histogram.csv").read_text().splitlines()
        assert lines[0] == "# mflight-histogram v1"
        assert lines[1] == "bin_left,bin_right,count"
        counts = [int(line.split(",")[2]) for line in lines[2:]]
        assert sum(counts) == 30  # the config's evaluation.episodes
        assert (eval_out / "airfoil_mean.dat").exists()
        assert (eval_out / "cp_mean.csv").exists()
        assert (eval_out / "eval_summary.txt").exists()

    def test_evaluate_deterministic(self, tmp_path, scratch_run):
        cfg, out = scratch_run
        a, b = tmp_path / "ev_a", tmp_path / "ev_b"
        for dest in (a, b):
            cli.main(["evaluate", "--checkpoint",
                      str(out / "checkpoint_target_final.ckpt"),
                      "--config", str(cfg), "--out", str(dest)])
        for name in ("histogram.csv", "eval_summary.txt", "airfoil_mean.dat"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_corrupt_checkpoint_exits_4_no_partial_outputs(self, tmp_path, scratch_run):
        cfg, out = scratch_run
        bad = tmp_path / "bad.ckpt"
        text = (out / "checkpoint_target_final.ckpt").read_text()
        bad.write_text(text.replace("MFRL-CKPT v1", "MFRL-CKPT v2"))
        eval_out = tmp_path / "ev_bad"
        code = cli.main(["evaluate", "--checkpoint", str(bad), "--config", str(cfg),
                         "--out", str(eval_out)])
        assert code == 4
        assert not eval_out.exists()

    def test_checkpoints_of_a_zero_episode_source_phase_evaluate(self, tmp_path):
        # the controller saw no reward, so both checkpoints hold an empty ctl.rewards
        doc = json.loads((BENCH / "configs" / "lowfi_transfer.json").read_text())
        doc["evaluation"]["episodes"] = 5
        config = str(tmp_path / "c.json")
        (tmp_path / "c.json").write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--out", str(out), "--seed", "3",
                         "--set", "source.max_episodes=0", "--set", "ctl.force_transfer=true",
                         "--set", "target.max_episodes=20"]) == 0
        for name in ("source_final", "target_final"):
            checkpoint = out / f"checkpoint_{name}.ckpt"
            _, extras = load_checkpoint(checkpoint)
            assert extras["ctl.rewards"].shape == (0,)
            assert extras["ctl.k"].shape == ()
            code = cli.main(["evaluate", "--checkpoint", str(checkpoint), "--config", config,
                             "--out", str(tmp_path / f"ev_{name}")])
            assert code == 0, name

    def test_checkpoint_one_value_short_exits_4(self, tmp_path, capsys):
        lines = (BENCH / "eval.ckpt").read_text().splitlines()
        short = tmp_path / "short.ckpt"
        short.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(short)
        code = cli.main(["evaluate", "--checkpoint", str(short),
                         "--config", str(BENCH / "configs" / "hifi_evaluate.json"),
                         "--out", str(tmp_path / "ev")])
        assert code == 4
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_negative_episode_count_exits_2(self, tmp_path, capsys, monkeypatch):
        def must_not_load(path):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_load)
        doc = json.loads((BENCH / "configs" / "hifi_evaluate.json").read_text())
        doc["evaluation"]["episodes"] = -1
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert cli.main(["evaluate", "--checkpoint", str(BENCH / "eval.ckpt"),
                         "--config", str(tmp_path / "c.json"),
                         "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "episodes must be >= 0" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ev").exists()

    def test_negative_seed_exits_2_before_any_compute(self, tmp_path, capsys, monkeypatch):
        def must_not_load(path):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_load)
        doc = json.loads((BENCH / "configs" / "hifi_evaluate.json").read_text())
        doc["seed"] = -3
        (tmp_path / "c.json").write_text(json.dumps(doc))
        code = cli.main(["evaluate", "--checkpoint", str(BENCH / "eval.ckpt"),
                         "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "ev")])
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -3\n"
        assert not (tmp_path / "ev").exists()

    # numpy rejects an array of 10**30 episodes, so the config check must reject the count first
    @pytest.mark.parametrize("key, value", [("episodes", "x"), ("mu", "abc"), ("sigma", "abc"),
                                            ("fidelity", "medium"), ("episodes", 10**30)])
    def test_non_numeric_evaluation_value_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  key, value):
        def must_not_load(path):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_load)
        doc = json.loads((BENCH / "configs" / "hifi_evaluate.json").read_text())
        doc["evaluation"][key] = value
        (tmp_path / "c.json").write_text(json.dumps(doc))
        code = cli.main(["evaluate", "--checkpoint", str(BENCH / "eval.ckpt"),
                         "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(value) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ev").exists()

    def test_allocation_beyond_the_host_exits_3(self, tmp_path, capsys):
        # 10**15 episodes fit numpy's index range, but their 7 PiB of rewards fit no
        # x86-64 address space, so the allocation fails on any host
        doc = json.loads((BENCH / "configs" / "hifi_evaluate.json").read_text())
        doc["evaluation"]["episodes"] = 10**15
        (tmp_path / "c.json").write_text(json.dumps(doc))
        code = cli.main(["evaluate", "--checkpoint", str(BENCH / "eval.ckpt"),
                         "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "ev")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("dims", ["1 x", "-1"])
    def test_malformed_dimensions_exit_4(self, tmp_path, capsys, dims):
        # a negative count would send the reader back to the declaration line forever
        lines = (BENCH / "eval.ckpt").read_text().splitlines()
        assert lines[1].startswith("array policy.w0 ")
        lines[1] = f"array policy.w0 {dims}"
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="at line 2 of"):
            load_checkpoint(bad)
        code = cli.main(["evaluate", "--checkpoint", str(bad),
                         "--config", str(BENCH / "configs" / "hifi_evaluate.json"),
                         "--out", str(tmp_path / "ev")])
        assert code == 4
        assert "dimension" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("bad_value", ["nan", "inf"])
    def test_non_finite_weight_exits_4(self, tmp_path, capsys, bad_value):
        # nan used to exit 3 once pricing began, and inf to exit 0 on a saturated network
        lines = (BENCH / "eval.ckpt").read_text().splitlines()
        assert lines[1].startswith("array policy.w0 ")
        lines[2] = bad_value
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["evaluate", "--checkpoint", str(bad),
                         "--config", str(BENCH / "configs" / "hifi_evaluate.json"),
                         "--out", str(tmp_path / "ev")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite values in policy.w0" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("bad_value", ["nan", "inf"])
    def test_non_finite_controller_extra_exits_4(self, tmp_path, capsys, short_run, bad_value):
        lines = (short_run / "run" / "checkpoint_target_final.ckpt").read_text().splitlines()
        start = lines.index("array extra.ctl.rewards 40")
        lines[start + 7] = bad_value
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="non-finite values in extra.ctl.rewards"):
            load_checkpoint(bad)
        code = cli.main(["evaluate", "--checkpoint", str(bad),
                         "--config", str(short_run / "config.json"),
                         "--out", str(tmp_path / "ev")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite values in extra.ctl.rewards" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ev").exists()

    def test_campaign_extras_are_finite(self, short_run):
        saved = []
        for name in ("source_final", "target_final"):
            _, extras = load_checkpoint(short_run / "run" / f"checkpoint_{name}.ckpt")
            assert len(extras["ctl.rewards"]) == 40
            assert all(np.isfinite(v).all() for v in extras.values())
            saved.append(extras)
        # the controller is not updated in the target phase: both carry the same state
        source, target = saved
        assert source.keys() == target.keys()
        for key in source:
            np.testing.assert_array_equal(source[key], target[key])
        _, extras = load_checkpoint(BENCH / "eval.ckpt")
        assert len(extras) == 5

    def test_episodes_flag_is_rejected(self, tmp_path, capsys):
        # the episode count is the config's evaluation.episodes
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["evaluate", "--checkpoint", str(BENCH / "eval.ckpt"),
                      "--config", str(BENCH / "configs" / "hifi_evaluate.json"),
                      "--episodes", "5", "--out", str(tmp_path / "ev")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --episodes 5" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @staticmethod
    def _drop_policy_b0(lines):
        start = lines.index("array policy.b0 64")
        return lines[:start] + lines[start + 65:]

    @staticmethod
    def _short_log_std(lines):
        start = lines.index("array log_std 13")
        return lines[:start] + ["array log_std 12"] + lines[start + 1:start + 13] \
            + lines[start + 14:]

    @staticmethod
    def _policy_w2_13_by_64(lines):
        return [("array policy.w2 13 64" if line == "array policy.w2 64 13" else line)
                for line in lines]

    @pytest.mark.parametrize("edit, message", [
        ("_drop_policy_b0", "policy.b0 is missing, expected (64,)"),
        ("_short_log_std", "log_std is (12,), expected (13,)"),
        ("_policy_w2_13_by_64", "policy.w2 is (13, 64), expected (64, 64)"),
    ], ids=["no_policy_b0", "log_std_12", "policy_w2_13x64"])
    def test_layout_it_cannot_run_exits_4(self, tmp_path, capsys, edit, message):
        lines = (BENCH / "eval.ckpt").read_text().splitlines()
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(getattr(self, edit)(lines)) + "\n")
        code = cli.main(["evaluate", "--checkpoint", str(bad),
                         "--config", str(BENCH / "configs" / "hifi_evaluate.json"),
                         "--out", str(tmp_path / "ev")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "ev").exists()


class TestCompare:
    def test_self_comparison_zero_savings(self, tmp_path, scratch_run):
        _, out = scratch_run
        table = tmp_path / "cmp.csv"
        code = cli.main(["compare", str(out), str(out), "--out", str(table)])
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "# mflight-compare v2"
        assert lines[1] == ("run,mode,target_fidelity,target_episodes,episodes_to_threshold,"
                            "tail_mean,tail_var,hifi_calls,savings_pct")
        assert len(lines) == 4
        savings = lines[3].split(",")[-1]
        assert float(savings) == 0.0

    def test_schema_mismatch_exits_4(self, tmp_path, scratch_run):
        _, out = scratch_run
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "summary.txt").write_text((out / "summary.txt").read_text())
        text = (out / "episodes.csv").read_text()
        (broken / "episodes.csv").write_text(
            text.replace("# mflight-episodes v1", "# mflight-episodes v9"))
        code = cli.main(["compare", str(out), str(broken),
                         "--out", str(tmp_path / "t.csv")])
        assert code == 4

    @pytest.mark.parametrize("bad_row", ["7,target,low,0", "x,target,low,0,1.0,-0.1,,0.0"])
    def test_malformed_row_exits_4_naming_the_line(self, tmp_path, scratch_run, capsys,
                                                   bad_row):
        _, out = scratch_run
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "summary.txt").write_text((out / "summary.txt").read_text())
        lines = (out / "episodes.csv").read_text().splitlines()
        lines[4] = bad_row
        (broken / "episodes.csv").write_text("\n".join(lines) + "\n")
        code = cli.main(["compare", str(out), str(broken),
                         "--out", str(tmp_path / "t.csv")])
        assert code == 4
        assert "line 5" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("", "summary has no env_calls_high"),
        ("env_calls_high: x\n", "summary env_calls_high is not a number: 'x'"),
    ], ids=["key missing", "value not a number"])
    def test_malformed_summary_exits_4_naming_file_and_key(self, tmp_path, scratch_run,
                                                           capsys, line, message):
        _, out = scratch_run
        broken = tmp_path / "broken"
        broken.mkdir()
        text = (out / "summary.txt").read_text()
        assert "\nenv_calls_high: 0\n" in text
        (broken / "summary.txt").write_text(text.replace("env_calls_high: 0\n", line))
        (broken / "episodes.csv").write_text((out / "episodes.csv").read_text())
        code = cli.main(["compare", str(out), str(broken), "--out", str(tmp_path / "t.csv")])
        assert code == 4
        assert capsys.readouterr().err == f"error: {broken / 'summary.txt'}: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_run_without_summary_exits_4(self, tmp_path, scratch_run, capsys):
        _, out = scratch_run
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "episodes.csv").write_text((out / "episodes.csv").read_text())
        code = cli.main(["compare", str(out), str(broken), "--out", str(tmp_path / "t.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read summary {broken / 'summary.txt'}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_zero_target_run_compares_without_warnings(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out),
                         "--set", "target.max_episodes=0"]) == 0
        table = tmp_path / "cmp.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["compare", str(out), str(out), "--out", str(table)])
        assert code == 0
        for line in table.read_text().splitlines()[2:]:
            assert line.split(",")[3:7] == ["0", "", "nan", "nan"]

    def test_tail_columns_are_the_summary_values(self, tmp_path, short_run):
        out = short_run / "run"
        summary = orchestrator.read_summary(out / "summary.txt")
        # summary.txt holds the statistics of the last tail_episodes target rewards
        rewards = np.array([r["reward"] for r in orchestrator.read_episodes_csv(
            out / "episodes.csv") if r["phase"] == "target"])
        tail = rewards[-int(summary["tail_episodes"]):]
        assert [summary["tail_mean"], summary["tail_var"]] == [repr(float(tail.mean())),
                                                               repr(float(tail.var()))]
        edited = tmp_path / "edited"
        edited.mkdir()
        (edited / "episodes.csv").write_text((out / "episodes.csv").read_text())
        (edited / "summary.txt").write_text((out / "summary.txt").read_text().replace(
            f"tail_mean: {summary['tail_mean']}\n", "tail_mean: -0.5\n"))
        table = tmp_path / "cmp.csv"
        assert cli.main(["compare", str(out), str(edited), "--out", str(table)]) == 0
        rows = [line.split(",") for line in table.read_text().splitlines()[2:]]
        assert rows[0][5:7] == [summary["tail_mean"], summary["tail_var"]]
        assert rows[1][5:7] == ["-0.5", summary["tail_var"]]

    def test_needs_two_dirs(self, tmp_path, scratch_run):
        _, out = scratch_run
        code = cli.main(["compare", str(out), "--out", str(tmp_path / "t.csv")])
        assert code == 2


class TestAtomicity:
    def test_no_tmp_files_left_behind(self, scratch_run):
        _, out = scratch_run
        leftovers = [p for p in os.listdir(out) if p.endswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("fail_target", [False, True],
                             ids=["source_budget_runs_out", "target_phase_raises"])
    def test_failed_train_creates_no_directory(self, tmp_path, monkeypatch, fail_target):
        doc = json.loads((BENCH / "configs" / "lowfi_transfer.json").read_text())
        doc["source"]["max_episodes"] = 40
        doc["target"]["max_episodes"] = 20
        doc["ctl"]["force_transfer"] = fail_target   # False: no transfer in 40 episodes
        if fail_target:
            run_phase = orchestrator.run_phase

            def failing(phase, *args):
                if phase.name == "target":
                    raise RunError("injected target-phase failure")
                return run_phase(phase, *args)

            monkeypatch.setattr(orchestrator, "run_phase", failing)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 3
        assert not out.exists()
