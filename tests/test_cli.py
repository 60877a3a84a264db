"""CLI commands, sweep statistics, CSV schema, exit codes, golden files."""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import stat
import tempfile
import threading

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from wpcn_sched import (GenConfig, StmSolution, SystemParams, UserProfile, instance_from_dict,
                        instance_to_dict, mrsa, sample, stm, validate)
from wpcn_sched import cli as cli_module
from wpcn_sched.cli import (
    AXES,
    CSV_COLUMNS,
    PROBLEMS,
    ConfigError,
    SweepSpec,
    main,
    run_sweep,
    solve_one,
    spec_from_dict,
    write_csv,
    write_jsonl,
)
from wpcn_sched.netgen import MAX_USERS, derive_seed

from helpers import count_model_calls

DATA = pathlib.Path(__file__).parent / "data"


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def base_gen_dict(**kw):
    gen = {"n_users": 3, "seed": 99,
           "system": {"p_h": 1.0, "p_max": 0.1}, "min_distance": 1.0}
    gen.update(kw)
    return gen


def base_spec_dict(**kw):
    spec = {"axis": "hap_power", "values": [1.0, 4.0], "trials": 4,
            "gen": base_gen_dict(), "problems": ["mls", "stm"], "oracle": True}
    spec.update(kw)
    return spec


class TestSpecValidation:
    def test_bad_axis(self):
        with pytest.raises(ValueError, match=re.escape(
                f"axis must be one of {AXES}, got 'frequency'")):
            spec_from_dict(base_spec_dict(axis="frequency"))

    def test_empty_values(self):
        with pytest.raises(ValueError, match="^values must be nonempty$"):
            spec_from_dict(base_spec_dict(values=[]))

    def test_zero_trials(self):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            spec_from_dict(base_spec_dict(trials=0))

    def test_bad_problem(self):
        with pytest.raises(ValueError, match=re.escape(
                f"problems must be a nonempty subset of {PROBLEMS}")):
            spec_from_dict(base_spec_dict(problems=["mls", "tsp"]))

    def test_oracle_with_too_many_users(self):
        with pytest.raises(ValueError, match="^oracle requested with 10 users; limit is 8$"):
            spec_from_dict(base_spec_dict(gen=base_gen_dict(n_users=10)))
        with pytest.raises(ValueError, match="^oracle requested with 12 users; limit is 8$"):
            spec_from_dict(base_spec_dict(axis="n_users", values=[4, 12]))

    def test_rejected_value_raises_at_construction(self):
        # Built in code, not only through spec_from_dict: every point's
        # config is made when the spec is.
        with pytest.raises(ValueError, match="p_h, p_max and bandwidth must be positive"):
            SweepSpec(axis="hap_power", values=(-1.0,), gen=GenConfig(n_users=3, seed=1))

    def test_fractional_user_counts(self):
        with pytest.raises(ValueError, match="^n_users axis values must be positive integers$"):
            spec_from_dict(base_spec_dict(axis="n_users", values=[2.5]))

    @pytest.mark.parametrize("spec, message", [
        (base_spec_dict(values=[-1.0]), "p_h, p_max and bandwidth must be positive"),
        (base_spec_dict(values="abc"), "values must be a list of numbers"),
        (base_spec_dict(gen=base_gen_dict(seed="x")), "seed must be an integer"),
        (base_spec_dict(gen=base_gen_dict(seed=True)), "seed must be an integer"),
        (base_spec_dict(gen=base_gen_dict(seed=-1)), "seed must be >= 0, got -1"),
        (base_spec_dict(oracle="false"), "oracle must be true or false, got 'false'"),
        (base_spec_dict(oracle=0), "oracle must be true or false, got 0"),
        (base_spec_dict(trials=2.7), "trials must be an integer, got 2.7"),
        (base_spec_dict(trials=2.0), "trials must be an integer, got 2.0"),
        (base_spec_dict(trials="4"), "trials must be an integer, got '4'"),
        (base_spec_dict(trials=True), "trials must be an integer, got True"),
        (base_spec_dict(gen=base_gen_dict(n_users=2.5)), "n_users must be an integer, got 2.5"),
        (base_spec_dict(gen=base_gen_dict(fading="no")),
         "fading must be true or false, got 'no'"),
        (base_spec_dict(gen=base_gen_dict(system={"p_h": True, "p_max": 0.1})),
         "p_h must be a number, got True"),
        (base_spec_dict(axis="n_users", values=[float("inf")]),
         "n_users axis values must be positive integers"),
        (base_spec_dict(axis="n_users", values=[float("-inf")]),
         "n_users axis values must be positive integers"),
        (base_spec_dict(values=[10 ** 400]), "values must be a list of numbers"),
        (base_spec_dict(axis="n_users", values=[10 ** 400]), "values must be a list of numbers"),
        (base_spec_dict(axis="n_users", values=[2, 1e300], oracle=False),
         f"n_users must be at most {MAX_USERS}, got {int(1e300)}"),
        (base_spec_dict(gen=base_gen_dict(n_users=MAX_USERS + 1)),
         f"n_users must be at most {MAX_USERS}, got {MAX_USERS + 1}"),
        # dict() would read the pairs as the object {"n_users": 2, "seed": 1}.
        (base_spec_dict(gen=[["n_users", 2], ["seed", 1]]),
         "error: bad sweep spec: 'list' object is not a mapping"),
        # The spec's own rules, prefixed like every other refusal of the file.
        (base_spec_dict(axis="frequency"),
         f"error: bad sweep spec: axis must be one of {AXES}, got 'frequency'\n"),
        (base_spec_dict(values=[]), "error: bad sweep spec: values must be nonempty\n"),
        (base_spec_dict(trials=0), "error: bad sweep spec: trials must be >= 1\n"),
        (base_spec_dict(problems=["mls", "tsp"]),
         f"error: bad sweep spec: problems must be a nonempty subset of {PROBLEMS}\n"),
        (base_spec_dict(axis="n_users", values=[2.5]),
         "error: bad sweep spec: n_users axis values must be positive integers\n"),
        (base_spec_dict(gen=base_gen_dict(n_users=10)),
         "error: bad sweep spec: oracle requested with 10 users; limit is 8\n"),
    ], ids=["negative-hap-power", "values-not-a-list", "seed-not-an-integer",
            "seed-is-a-bool", "seed-negative", "oracle-a-string", "oracle-a-number",
            "trials-fractional", "trials-a-float", "trials-a-string", "trials-a-bool",
            "gen-n-users-fractional", "gen-fading-a-string", "system-p-h-a-bool",
            "n-users-axis-infinity", "n-users-axis-minus-infinity",
            "values-past-the-largest-double", "n-users-axis-past-the-largest-double",
            "n-users-axis-above-the-bound", "gen-n-users-above-the-bound",
            "gen-an-array-of-pairs", "axis-unknown", "values-empty", "trials-zero",
            "problems-unknown", "n-users-axis-fractional", "oracle-above-the-cap"])
    def test_bad_spec_exits_2(self, tmp_path, capsys, spec, message):
        spec_path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["oracel", "value", "seed"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, key):
        # Read leniently, a misspelled "oracle" runs with blank oracle columns.
        spec_path = write_json(tmp_path / "spec.json", {**base_spec_dict(), key: True})
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 2
        assert f"unexpected keyword argument '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_flag_still_checks_the_specs_trials(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json", base_spec_dict(trials="x"))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out), "--trials", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: bad sweep spec: trials must be an integer, got 'x'\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("trials", "x", "trials must be an integer, got 'x'"),
        ("oracle", "yes", "oracle must be true or false, got 'yes'"),
    ], ids=["trials", "oracle"])
    def test_trials_flag_checks_the_specs_types_before_reading_gen(self, tmp_path, capsys,
                                                                  key, value, message):
        # Without the flag the missing gen is reported first.
        spec = base_spec_dict(**{key: value})
        del spec["gen"]
        spec_path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out), "--trials", "1"]) == 2
        assert capsys.readouterr().err == f"error: bad sweep spec: {message}\n"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad sweep spec: 'gen'\n"
        assert not out.exists()

    def test_default_grid_when_values_omitted(self):
        data = base_spec_dict(oracle=False)
        del data["values"]
        spec = spec_from_dict(data)
        assert spec.values == (0.5, 1.0, 2.0, 4.0, 8.0)

    def test_trials_override(self, tmp_path):
        spec_path = write_json(tmp_path / "spec.json",
                               base_spec_dict(values=[1.0], problems=["stm"], oracle=False))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out), "--trials", "7"]) == 0
        header, row = out.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["trials"] == "7"


class TestRunSweep:
    def test_battery_rich_single_user_point(self):
        # huge battery: schedule length is tau_min, throughput is the rate,
        # and the heuristic ties the oracle exactly
        spec = spec_from_dict({
            "axis": "n_users", "values": [1], "trials": 1,
            "gen": base_gen_dict(n_users=1, battery_max=1e9),
            "problems": ["mls", "stm"], "oracle": True,
        })
        rows, raw = run_sweep(spec)
        assert len(rows) == 1 and len(raw) == 1
        row = rows[0]
        assert row["infeasible"] == 0
        assert row["mrsa_opt_ratio_mean"] == pytest.approx(1.0, abs=1e-9)
        assert row["exact_optimal_count"] == 1
        assert row["mlsa_length_mean"] == raw[0]["mlsa_length"]
        from wpcn_sched import sample, tau_min, rate
        import dataclasses
        config = dataclasses.replace(spec.gen, seed=raw[0]["seed"], n_users=1)
        instance = sample(config)
        assert row["mlsa_length_mean"] == tau_min(instance.params, instance.users[0])
        assert row["mrsa_throughput_mean"] == rate(instance.params, instance.users[0])

    def test_seed_matching_across_points(self):
        spec = spec_from_dict(base_spec_dict(trials=3, oracle=False))
        _, raw = run_sweep(spec)
        seeds = {}
        for record in raw:
            seeds.setdefault(record["trial"], set()).add(record["seed"])
        assert all(len(s) == 1 for s in seeds.values())

    def test_pdo_never_below_mlsa(self):
        spec = spec_from_dict(base_spec_dict(trials=20, oracle=False))
        _, raw = run_sweep(spec)
        for record in raw:
            assert record["pdo_length"] >= record["mlsa_length"] * (1 - 1e-12)

    def test_oracle_columns_blank_without_oracle(self):
        spec = spec_from_dict(base_spec_dict(oracle=False, trials=2))
        rows, _ = run_sweep(spec)
        assert rows[0]["opt_throughput_mean"] is None
        assert rows[0]["exact_optimal_count"] is None

    def test_single_problem_subset(self):
        spec = spec_from_dict(base_spec_dict(problems=["mls"], trials=2,
                                             oracle=False))
        rows, raw = run_sweep(spec)
        assert rows[0]["mrsa_throughput_mean"] is None
        assert "mrsa_throughput" not in raw[0]


class TestSweepPoints:
    """Each point's generator config is built once, with the spec, and each
    trial's draw config once, with the sweep."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The GenConfigs constructed from here on."""
        configs = []
        post_init = GenConfig.__post_init__

        def counted(config):
            post_init(config)
            configs.append(config)
        monkeypatch.setattr(GenConfig, "__post_init__", counted)
        return configs

    def test_main_builds_the_spec_points_and_trials(self, tmp_path, built):
        spec_path = write_json(tmp_path / "spec.json", base_spec_dict(trials=3, oracle=False))
        assert main(["sweep", "--spec", spec_path, "--out", str(tmp_path / "out.csv")]) == 0
        assert len(built) == 1 + 2 + 3   # the spec's gen, its points, one per trial

    def test_run_sweep_builds_only_the_trial_configs(self, built, monkeypatch):
        spec = SweepSpec(axis="n_users", values=(2, 3), trials=3, problems=("stm",),
                         gen=GenConfig(n_users=1, seed=7, min_distance=1.0))
        drawn = []
        monkeypatch.setattr(cli_module, "sample",
                            lambda config: drawn.append(config) or sample(config))
        built.clear()
        _, raw = run_sweep(spec)
        assert len(built) == 3   # one per trial, at the widest point
        assert drawn == built
        assert [(c.n_users, c.seed) for c in built] == [(3, r["seed"]) for r in raw[:3]]
        assert [r["seed"] for r in raw[3:]] == [r["seed"] for r in raw[:3]]

    @pytest.mark.parametrize("axis, values, at", [
        ("hap_power", (0.5, 2.0), lambda gen, v: dataclasses.replace(
            gen, system=dataclasses.replace(gen.system, p_h=v))),
        ("user_power", (0.05, 1.0), lambda gen, v: dataclasses.replace(
            gen, system=dataclasses.replace(gen.system, p_max=v))),
        ("n_users", (2, 5), lambda gen, v: dataclasses.replace(gen, n_users=v)),
    ], ids=["hap_power", "user_power", "n_users"])
    def test_points_set_the_axis_field(self, axis, values, at):
        gen = GenConfig(n_users=3, seed=4)
        spec = SweepSpec(axis=axis, values=values, gen=gen)
        assert spec.points == tuple(at(gen, value) for value in values)
        twin = SweepSpec(axis=axis, values=list(values), gen=gen)
        assert twin == spec and hash(twin) == hash(spec)
        assert "points" not in repr(spec)


class TestTrialUsers:
    """A sweep draws each trial's users once and lays every point over them."""

    # Unsorted grids; the n_users one repeats a point and goes below the
    # spec's own n_users.
    GRIDS = {"hap_power": (2.0, 0.5, 8.0), "user_power": (0.05, 1.0, 0.01),
             "n_users": (5, 2, 7, 2, 1)}

    @pytest.mark.parametrize("axis", AXES)
    def test_each_point_runs_the_instance_its_config_draws(self, monkeypatch, axis):
        seen = []
        monkeypatch.setattr(cli_module, "run_trial",
                            lambda instance, problems, oracle:
                            seen.append(instance) or {"infeasible": False})
        gen = GenConfig(n_users=4, seed=21, battery_max=0.001, min_distance=1.0)
        spec = SweepSpec(axis=axis, values=self.GRIDS[axis], trials=3, gen=gen)
        run_sweep(spec)
        assert seen == [sample(dataclasses.replace(point, seed=derive_seed(gen.seed, t)))
                        for point in spec.points for t in range(spec.trials)]


class TestCsv:
    def test_header_is_pinned(self):
        assert CSV_COLUMNS == (
            "axis_value", "trials", "infeasible",
            "mlsa_length_mean", "mlsa_length_std",
            "pdo_length_mean", "pdo_length_std",
            "mrsa_throughput_mean", "mrsa_throughput_std",
            "opt_throughput_mean", "opt_throughput_std",
            "mrsa_opt_ratio_mean", "exact_optimal_count")

    def test_sweep_csv_reproducible(self, tmp_path):
        spec_path = write_json(tmp_path / "spec.json", base_spec_dict(trials=3))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        raw1, raw2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["sweep", "--spec", spec_path, "--out", str(out1),
                     "--raw", str(raw1)]) == 0
        assert main(["sweep", "--spec", spec_path, "--out", str(out2),
                     "--raw", str(raw2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert raw1.read_bytes() == raw2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


class TestGen:
    def test_gen_writes_instance_with_provenance(self, tmp_path):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict())
        out = tmp_path / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["generator"] == "numpy-pcg64"
        assert payload["provenance"]["config"]["seed"] == 99
        instance = instance_from_dict(payload)
        assert instance.n_users == 3

    @pytest.mark.parametrize("config, flags", [
        (base_gen_dict(seed=-1), []),
        (base_gen_dict(), ["--seed", "-1"]),
    ], ids=["in-config", "by-flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, config, flags):
        config_path = write_json(tmp_path / "gen.json", config)
        out = tmp_path / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out), *flags]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config", [[], [1.0], "x", 3, True, None])
    def test_seed_flag_on_a_non_object_config_exits_2(self, tmp_path, capsys, config):
        config_path = write_json(tmp_path / "gen.json", config)
        out = tmp_path / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad generator config: ")
        assert not out.exists()

    def test_config_as_an_array_of_pairs_exits_2(self, tmp_path, capsys):
        # dict() would read the pairs as the object {"n_users": 2, "seed": 1}.
        config_path = write_json(tmp_path / "gen.json", [["n_users", 2], ["seed", 1]])
        out = tmp_path / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: bad generator config: 'list' object is not a mapping\n")
        assert not out.exists()

    def test_seed_flag_still_checks_the_configs_seed(self, tmp_path, capsys):
        config_path = write_json(tmp_path / "gen.json", {"n_users": 2, "seed": "x"})
        out = tmp_path / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out), "--seed", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: bad generator config: seed must be an integer, got 'x'\n")
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--config", config_path, "--out", str(out1), "--seed", "7"])
        main(["gen", "--config", config_path, "--out", str(out2), "--seed", "7"])
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["provenance"]["config"]["seed"] == 7


class TestSolve:
    def test_golden_mlsa(self, capsys):
        assert main(["solve", "--instance", str(DATA / "golden_instance.json"),
                     "--problem", "mls", "--alg", "mlsa"]) == 0
        result = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA / "golden_mlsa.json").read_text())
        assert result == golden

    def test_golden_mrsa(self, capsys):
        assert main(["solve", "--instance", str(DATA / "golden_instance.json"),
                     "--problem", "stm", "--alg", "mrsa"]) == 0
        result = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA / "golden_mrsa.json").read_text())
        assert result == golden

    def test_pdo_dominates_on_golden(self, capsys):
        main(["solve", "--instance", str(DATA / "golden_instance.json"),
              "--problem", "mls", "--alg", "pdo"])
        pdo_result = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA / "golden_mlsa.json").read_text())
        assert pdo_result["length"] >= golden["length"] * (1 - 1e-12)

    def test_mrsa_vs_opt_ratio_on_golden(self, capsys):
        main(["solve", "--instance", str(DATA / "golden_instance.json"),
              "--problem", "stm", "--alg", "opt"])
        opt_result = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA / "golden_mrsa.json").read_text())
        assert golden["throughput"] <= opt_result["throughput"] * (1 + 1e-9)

    def test_opt_at_large_energies_replays(self, tmp_path, capsys):
        # The LP's vertex spends all of user 2's 6e4 J: one ulp of it,
        # 7.3e-12 J, lies below ENERGY_TOL, and the schedule must replay.
        instance_path = write_json(tmp_path / "instance.json", {
            "params": {"p_h": 100.0, "p_max": 100000.0},
            "users": [{"uplink_gain": 1.0, "downlink_gain": 1.0, "initial_energy": 100.0},
                      {"uplink_gain": 1.0, "downlink_gain": 0.001, "initial_energy": 60000.0}]})
        results = {}
        for alg in ("opt", "mrsa"):
            assert main(["solve", "--instance", instance_path, "--problem", "stm",
                         "--alg", alg]) == 0
            results[alg] = json.loads(capsys.readouterr().out)
            assert results[alg]["feasibility"]["ok"]
        assert results["opt"]["throughput"] >= results["mrsa"]["throughput"] * (1 - 1e-9)

    def test_solve_one_rejects_bad_combo(self):
        instance = instance_from_dict(
            json.loads((DATA / "golden_instance.json").read_text()))
        with pytest.raises(ConfigError):
            solve_one(instance, "mls", "mrsa")
        with pytest.raises(ConfigError):
            solve_one(instance, "stm", "pdo")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json",
                               base_spec_dict(gen=base_gen_dict(n_users=10)))
        code = main(["sweep", "--spec", spec_path, "--out",
                     str(tmp_path / "out.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--instance", str(bad),
                     "--problem", "mls", "--alg", "mlsa"]) == 2
        capsys.readouterr()

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["solve", "--instance", str(tmp_path / "nope.json"),
                     "--problem", "mls", "--alg", "mlsa"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("problem", ["mls", "stm"])
    @pytest.mark.parametrize("gain", [None, 1e308])
    def test_too_many_users_for_opt_is_2(self, tmp_path, capsys, problem, gain):
        # The size cap is checked before any closed form, so a gain whose
        # rate overflows still reports the cap.
        payload = instance_to_dict(sample(GenConfig(n_users=9, seed=1)))
        if gain is not None:
            payload["users"][1]["uplink_gain"] = gain
        instance_path = write_json(tmp_path / "instance.json", payload)
        code = main(["solve", "--instance", instance_path, "--problem", problem, "--alg", "opt"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: 9 users; permutation search is capped at 8\n"

    def test_lp_the_solver_cannot_resolve_is_2(self, tmp_path, capsys):
        # Rates and harvest rates over some twenty decades: one order's
        # throughput LP has only a pivot below lp.PIVOT_TOL to take.
        payload = {
            "params": {"p_h": 3.283559369970951, "p_max": 0.14051220473143405,
                       "bandwidth": 0.7712120096762217,
                       "noise_density": 7.663165535084854e-18,
                       "self_interference": 7.557273505831642e-08,
                       "eh_saturation": 0.06639797851972555, "eh_slope": 44.51186432183628,
                       "eh_threshold": 0.0},
            "users": [{"uplink_gain": u, "downlink_gain": d, "initial_energy": e,
                       "demand_bits": bits} for u, d, e, bits in [
                (9.892352124063548e-08, 3.356471574232808e-13, 0.0, 6.182392262015497),
                (1.4890343423094819e-15, 4.317218618923532e-08, 0.0, 335.31060480674716),
                (1.7318086427344236e-08, 72.01378871703646, 0.0, 30284358450.85997),
                (44.972361655131095, 1.714684613880096, 7.970608342982443e-06,
                 12.005055719584925),
                (0.11687381343877624, 0.00027865069469780224, 2190.753838908373,
                 671.2469477817141)]],
        }
        instance_path = write_json(tmp_path / "instance.json", payload)
        code = main(["solve", "--instance", instance_path, "--problem", "stm", "--alg", "opt"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "pivot below" in captured.err
        assert main(["solve", "--instance", instance_path,
                     "--problem", "stm", "--alg", "mrsa"]) == 0

    def test_infeasible_solve_is_3(self, tmp_path, capsys):
        payload = {
            "params": {"p_h": 1.0, "p_max": 0.1, "bandwidth": 1e6,
                       "noise_density": 4e-21, "self_interference": 1e-7,
                       "eh_saturation": 0.02337, "eh_slope": 150.0,
                       "eh_threshold": 0.014},
            "users": [{"uplink_gain": 1e-6, "downlink_gain": 0.25,
                       "initial_energy": 0.0, "demand_bits": 100.0,
                       "eh_slope": 5e-324}],
        }
        instance_path = write_json(tmp_path / "infeasible.json", payload)
        code = main(["solve", "--instance", instance_path,
                     "--problem", "mls", "--alg", "mlsa"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err


class TestNonFiniteInput:
    """NaN and Infinity parse as JSON numbers; they must end as exit code 2,
    as must a boolean or a fraction where a number or an integer belongs,
    and an integer too large for a float.

    A return value from ``main`` (rather than an escaping exception) is what
    rules out a traceback.
    """

    @pytest.mark.parametrize("problem,alg",
                             [("mls", "mlsa"), ("stm", "mrsa"), ("stm", "opt")])
    @pytest.mark.parametrize("section,key,bad,message", [
        pytest.param("users", "uplink_gain", float("inf"), "uplink_gain must be finite",
                     id="users-uplink_gain-inf"),
        pytest.param("users", "initial_energy", float("nan"), "initial_energy must be finite",
                     id="users-initial_energy-nan"),
        pytest.param("params", "p_h", float("inf"), "p_h must be finite", id="params-p_h-inf"),
        pytest.param("params", "noise_density", float("nan"), "noise_density must be finite",
                     id="params-noise_density-nan"),
        pytest.param("users", "demand_bits", True,
                     "bad instance file: demand_bits must be a number, got True",
                     id="users-demand_bits-true"),
        pytest.param("params", "bandwidth", False,
                     "bad instance file: bandwidth must be a number, got False",
                     id="params-bandwidth-false"),
        pytest.param("users", "initial_energy", 10 ** 400,
                     f"bad instance file: initial_energy must be a number, got {10 ** 400}",
                     id="users-initial_energy-past-the-largest-double"),
        pytest.param("params", "p_max", -10 ** 400,
                     f"bad instance file: p_max must be a number, got {-10 ** 400}",
                     id="params-p_max-past-the-largest-double"),
    ])
    def test_solve_rejects(self, tmp_path, capsys, problem, alg, section, key, bad, message):
        payload = json.loads((DATA / "golden_instance.json").read_text())
        target = payload["users"][0] if section == "users" else payload["params"]
        target[key] = bad
        instance_path = write_json(tmp_path / "instance.json", payload)
        code = main(["solve", "--instance", instance_path,
                     "--problem", problem, "--alg", alg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    # Settings that pass the config checks but draw a link gain out of range.
    OUT_OF_RANGE_DRAWS = [
        pytest.param({"shadow_sigma_db": 1e300}, "shadow_sigma_db 1e+300 is out of range",
                     id="shadow-sigma-db-huge"),
        pytest.param({"path_loss_exp": 1e300}, "path_loss_exp 1e+300 or",
                     id="path-loss-exp-huge"),
    ]

    @pytest.mark.parametrize("override, message", [
        pytest.param({"radius": float("inf")}, "must be finite", id="override0"),
        pytest.param({"battery_max": float("nan")}, "must be finite", id="override1"),
        pytest.param({"system": {"p_h": 1.0, "p_max": float("-inf")}}, "must be finite",
                     id="override2"),
        pytest.param({"n_users": 2.5},
                     "error: bad generator config: n_users must be an integer, got 2.5",
                     id="n-users-fractional"),
        pytest.param({"fading": "no"},
                     "error: bad generator config: fading must be true or false, got 'no'",
                     id="fading-a-string"),
        pytest.param({"system": {"p_h": True, "p_max": 0.1}},
                     "error: bad generator config: p_h must be a number, got True",
                     id="system-p-h-a-bool"),
        pytest.param({"radius": 10 ** 400},
                     f"error: bad generator config: radius must be a number, got {10 ** 400}",
                     id="radius-past-the-largest-double"),
        pytest.param({"system": {"p_h": 10 ** 400, "p_max": 0.1}},
                     f"error: bad generator config: p_h must be a number, got {10 ** 400}",
                     id="system-p-h-past-the-largest-double"),
        pytest.param({"n_users": 10 ** 400},
                     f"error: bad generator config: n_users must be at most {MAX_USERS}, "
                     f"got {10 ** 400}",
                     id="n-users-past-the-largest-double"),
        pytest.param({"n_users": MAX_USERS + 1},
                     f"error: bad generator config: n_users must be at most {MAX_USERS}, "
                     f"got {MAX_USERS + 1}",
                     id="n-users-above-the-bound"),
        pytest.param({"radius": 1e300},
                     "error: bad generator config: radius must be at most 1e+150 m, got 1e+300",
                     id="radius-whose-square-overflows"),
        *OUT_OF_RANGE_DRAWS,
        pytest.param({"system": {"p_h": 1.0, "p_max": 0.1, "noise_density": 0.0,
                                 "self_interference": 0.0}},
                     "error: bad generator config: noise_density * bandwidth",
                     id="no-receiver-noise"),
    ])
    def test_gen_rejects(self, tmp_path, capsys, override, message):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict(**override))
        out = tmp_path / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        pytest.param({"ref_loss_db": float("nan")}, "ref_loss_db must be finite",
                     id="ref-loss-db-nan"),
        # drawn from the widest point's config, at the first trial's first point
        *OUT_OF_RANGE_DRAWS,
    ])
    def test_sweep_rejects(self, tmp_path, capsys, override, message):
        spec_path = write_json(tmp_path / "spec.json",
                               base_spec_dict(gen=base_gen_dict(**override)))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


    def test_solve_rejects_no_receiver_noise(self, tmp_path, capsys):
        # With no noise the SNR would divide by zero.
        payload = json.loads((DATA / "golden_instance.json").read_text())
        payload["params"].update(noise_density=0.0, self_interference=0.0)
        instance_path = write_json(tmp_path / "instance.json", payload)
        code = main(["solve", "--instance", instance_path, "--problem", "stm", "--alg", "mrsa"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert ("error: bad instance file: noise_density * bandwidth + self_interference"
                in captured.err)


class TestUnderflowedRate:
    """``p_h`` = 1e308 is finite, but the self-interference it adds makes the
    SNR, and so every rate, underflow to exactly 0."""

    @pytest.fixture
    def instance_path(self, tmp_path):
        payload = json.loads((DATA / "golden_instance.json").read_text())
        payload["params"]["p_h"] = 1e308
        return write_json(tmp_path / "instance.json", payload)

    @pytest.mark.parametrize("alg", ["mlsa", "pdo", "opt"])
    def test_mls_is_infeasible(self, instance_path, capsys, alg):
        code = main(["solve", "--instance", instance_path,
                     "--problem", "mls", "--alg", alg])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "infeasible: rate 0.0 bit/s" in captured.err

    def test_mrsa_schedules_nobody(self, instance_path):
        instance = instance_from_dict(json.loads(pathlib.Path(instance_path).read_text()))
        solution = mrsa(instance)
        assert solution.scheduled_users == ()
        assert solution.throughput == 0.0
        assert solution.schedule.slots == ()
        assert validate(instance, solution.schedule).ok

    @pytest.mark.parametrize("alg", ["mrsa", "opt"])
    def test_stm_carries_nothing(self, instance_path, capsys, alg):
        code = main(["solve", "--instance", instance_path,
                     "--problem", "stm", "--alg", alg])
        result = json.loads(capsys.readouterr().out)
        assert code == 0
        assert result["throughput"] == 0.0
        assert result["feasibility"]["ok"] is True


class TestRateOverflow:
    """An uplink gain or a transmit power near the largest double makes the
    rate overflow to infinity: a configuration error, never a traceback."""

    @pytest.mark.parametrize("problem, alg", [
        ("mls", "mlsa"), ("mls", "pdo"), ("mls", "opt"), ("stm", "mrsa"), ("stm", "opt"),
    ])
    @pytest.mark.parametrize("section, key", [("params", "p_max"), ("users", "uplink_gain")])
    def test_solve_exits_2(self, tmp_path, capsys, problem, alg, section, key):
        payload = json.loads((DATA / "golden_instance.json").read_text())
        target = payload["users"][1] if section == "users" else payload["params"]
        target[key] = 1e308
        instance_path = write_json(tmp_path / "instance.json", payload)
        code = main(["solve", "--instance", instance_path,
                     "--problem", problem, "--alg", alg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: rate overflows" in captured.err

    def test_sweep_exits_2(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json",
                               base_spec_dict(axis="user_power", values=[0.1, 1e308]))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 2
        assert "error: rate overflows" in capsys.readouterr().err
        assert not out.exists()


class TestErrorPrecedence:
    """An instance with two faults, user 1 unable to afford its slot (``s_min``
    raises Infeasible) and user 3's rate overflowing: each algorithm reports
    the fault it meets first, mlsa the first user's, the others the rate."""

    OVERFLOW = "error: rate overflows for uplink_gain 1e+308, p_max 0.1, bandwidth 1000000.0\n"

    @pytest.mark.parametrize("problem, alg, code, message", [
        ("mls", "mlsa", 3, "infeasible: user harvests nothing and battery 0.0 J "
                           "< required 3.648295297890907e-05 J\n"),
        ("mls", "pdo", 2, OVERFLOW),
        ("mls", "opt", 2, OVERFLOW),
        ("stm", "mrsa", 2, OVERFLOW),
        ("stm", "opt", 2, OVERFLOW),
    ])
    def test_first_fault_is_reported(self, tmp_path, capsys, problem, alg, code, message):
        payload = json.loads((DATA / "golden_instance.json").read_text())
        payload["users"][0].update(downlink_gain=5e-324, initial_energy=0.0)
        payload["users"][2]["uplink_gain"] = 1e308
        instance_path = write_json(tmp_path / "instance.json", payload)
        assert main(["solve", "--instance", instance_path,
                     "--problem", problem, "--alg", alg]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


class TestLargeValues:
    """Sweeps whose lengths or demands are far from the studied range still
    end in a finite CSV and exit code 0; solves whose results pass the
    largest double exit 2 or 3."""

    def test_lengths_near_the_largest_double(self, tmp_path):
        # Lengths near 1e299 whose squared deviations overflow a double
        spec_path = write_json(tmp_path / "spec.json",
                               base_spec_dict(axis="user_power", values=[1e300], trials=2,
                                              oracle=False))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        mlsa_mean, mlsa_std = (float(v) for v in row[3:5])
        assert 1e298 < mlsa_mean < 1e301
        assert 0.0 < mlsa_std < mlsa_mean

    def test_mean_std_scales_past_an_overflow(self):
        mean, std = cli_module._mean_std([1.5e300, 0.5e300])
        assert mean == pytest.approx(1e300, rel=1e-15)
        assert std == pytest.approx(0.5e300, rel=1e-15)
        assert cli_module._mean_std([1.5, 0.5]) == (1.0, 0.5)

    @pytest.mark.parametrize("alg", ["mlsa", "pdo", "opt"])
    def test_demands_summing_past_the_largest_double(self, tmp_path, capsys, alg):
        # Each demand is finite, but the minimum-length throughput, their
        # sum, is not.
        data = json.loads((DATA / "golden_instance.json").read_text())
        for user in data["users"][1:]:
            user["demand_bits"] = 1e308
        path = write_json(tmp_path / "instance.json", data)
        assert main(["solve", "--instance", path, "--problem", "mls", "--alg", alg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: throughput overflows" in captured.err

    @pytest.mark.parametrize("alg", ["mlsa", "pdo", "opt"])
    def test_frame_past_the_largest_double(self, tmp_path, capsys, alg):
        # Three minimum times of 3.6e307 s after a 1.2e308 s harvest: the
        # frame cannot end at any representable time.
        data = json.loads((DATA / "golden_instance.json").read_text())
        for user in data["users"]:
            user.update(uplink_gain=1e-21, downlink_gain=1.0, demand_bits=5.8e298,
                        initial_energy=0.0)
        path = write_json(tmp_path / "instance.json", data)
        assert main(["solve", "--instance", path, "--problem", "mls", "--alg", alg]) == 3
        assert "would end past the largest double" in capsys.readouterr().err

    def test_mrsa_replays_at_large_energies(self, tmp_path, capsys):
        # User 2's balance was an ulp of 6e4 J short, below ENERGY_TOL, and
        # the solve ended in a RuntimeError traceback.
        payload = {"params": {"p_h": 100.0, "p_max": 100000.0},
                   "users": [{"uplink_gain": 1.0, "downlink_gain": 1.0,
                              "initial_energy": 100.0},
                             {"uplink_gain": 1.0, "downlink_gain": 0.001,
                              "initial_energy": 60000.0}]}
        path = write_json(tmp_path / "instance.json", payload)
        assert main(["solve", "--instance", path, "--problem", "stm", "--alg", "mrsa"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["feasibility"]["ok"]
        assert result["scheduled_users"] == [1, 2]

    @pytest.mark.parametrize("demand", [1e7, 1e8, 1e12])
    def test_large_demands_replay(self, tmp_path, demand):
        # An ulp of a length-1e9 s frame's energy balance or of a 1e8-bit
        # demand exceeds ENERGY_TOL or TRAFFIC_TOL; every schedule must
        # still replay as feasible.
        spec = {"axis": "hap_power", "values": [4], "trials": 50,
                "gen": {"n_users": 6, "seed": 3, "demand_bits": demand, "min_distance": 1.0}}
        spec_path = write_json(tmp_path / "spec.json", spec)
        out, raw = tmp_path / "out.csv", tmp_path / "raw.jsonl"
        assert main(["sweep", "--spec", spec_path, "--out", str(out), "--raw", str(raw)]) == 0
        for text in (out.read_text(), raw.read_text()):
            assert "nan" not in text.lower() and "infinity" not in text.lower()


class TestAtomicWrites:
    """An error partway through writing leaves the old file and no temp file."""

    @pytest.mark.parametrize("write, bad", [
        (write_csv, [{col: 1.0 for col in CSV_COLUMNS}, {"axis_value": 2.0}]),
        (write_jsonl, [{"trial": 0}, {"trial": object()}]),
    ], ids=["csv", "jsonl"])
    def test_failed_write_keeps_old_file(self, tmp_path, write, bad):
        out = tmp_path / "out"
        out.write_text("old\n")
        with pytest.raises((KeyError, TypeError)):
            write(bad, str(out))
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failed_gen_keeps_old_file(self, tmp_path, monkeypatch):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict())
        out = tmp_path / "instance.json"
        out.write_text("old\n")
        monkeypatch.setattr(cli_module, "to_dict", lambda config: {"x": float("nan")})
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["gen", "--config", config_path, "--out", str(out)])
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json", "instance.json"]

    def test_write_replaces_old_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("old\n")
        write_jsonl([{"trial": 0}], str(out))
        assert out.read_text() == '{"trial": 0}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_write_through_symlink_keeps_link_and_mode(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.jsonl"
        link.symlink_to(target.name)
        write_jsonl([{"trial": 0}], str(link))
        assert link.is_symlink()
        assert target.read_text() == '{"trial": 0}\n'
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "target.jsonl"]

    def test_non_regular_target_is_written_directly(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        write_jsonl([{"trial": 0}], str(fifo))
        reader.join(timeout=10)
        assert received == ['{"trial": 0}\n']
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


class TestInfeasibleCounting:
    def test_infeasible_trials_reported_not_dropped(self, monkeypatch):
        from wpcn_sched import cli as cli_module
        from wpcn_sched.model import Infeasible

        calls = {"n": 0}
        real_mlsa = cli_module.mls.mlsa

        def flaky_mlsa(instance):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise Infeasible("synthetic")
            return real_mlsa(instance)

        monkeypatch.setattr(cli_module.mls, "mlsa", flaky_mlsa)
        spec = spec_from_dict(base_spec_dict(values=[1.0], trials=4,
                                             oracle=False, problems=["mls"]))
        rows, raw = run_sweep(spec)
        assert rows[0]["infeasible"] == 2
        assert rows[0]["trials"] == 4
        assert sum(1 for r in raw if r["infeasible"]) == 2
        assert rows[0]["mlsa_length_mean"] is not None


class TestInternalBug:
    def test_unaffordable_schedule_is_a_runtime_error(self, monkeypatch):
        # Every schedule is replayed; one the solver should never emit is a
        # bug, not a configuration error or an infeasible instance.
        config = GenConfig(n_users=2, seed=1)   # empty batteries
        unaffordable = StmSolution(tau0=0.0, pairs=((1, 1.0),), throughput=1.0)
        monkeypatch.setattr(stm, "mrsa", lambda instance: unaffordable)
        instance = sample(config)
        assert not validate(instance, unaffordable.schedule).ok
        with pytest.raises(RuntimeError, match="solver emitted an infeasible schedule"):
            cli_module.run_trial(instance, ("stm",), False)


class TestClosedFormsPerTrial:
    """The instance keeps each user's closed forms: its rates and harvest
    rates once, tau_min once, s_min once, which calls tau_min (and so rate)
    and harvest_rate again. The oracle's ``lp_coefficients`` computes its
    own rate and harvest rate once more per user."""

    @staticmethod
    def calls_per_trial(monkeypatch, n: int, oracle: bool) -> list[int]:
        """The calls of rate, harvest_rate, tau_min and s_min made by one
        sweep trial of ``n`` users."""
        calls = count_model_calls(monkeypatch, "rate", "harvest_rate", "tau_min", "s_min")
        config = GenConfig(n_users=n, seed=1, battery_max=0.001, min_distance=1.0)
        record = cli_module.run_trial(sample(config), ("mls", "stm"), oracle)
        assert not record["infeasible"]
        assert ("opt_throughput" in record) == oracle
        return list(calls.values())

    def test_each_closed_form_is_computed_at_most_pinned_times(self, monkeypatch):
        n = 10
        rate, harvest, tau, start = self.calls_per_trial(monkeypatch, n, oracle=False)
        assert rate <= 3 * n
        assert harvest <= 2 * n
        assert tau <= 2 * n
        assert start <= n

    def test_the_oracle_adds_one_rate_and_harvest_rate_per_user(self, monkeypatch):
        n = 6
        rate, harvest, tau, start = self.calls_per_trial(monkeypatch, n, oracle=True)
        assert rate <= 4 * n
        assert harvest <= 3 * n
        assert tau <= 2 * n
        assert start <= n


class TestOutputTarget:
    """An output that cannot be written is a configuration error named
    after the target, found before any instance is drawn or trial run."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_module, "sample", lambda config: calls.append(config))
        return calls

    @pytest.mark.parametrize("flag", ["--out", "--raw"])
    def test_sweep_into_missing_directory(self, tmp_path, capsys, no_work, flag):
        spec_path = write_json(tmp_path / "spec.json", base_spec_dict())
        paths = {"--out": str(tmp_path / "out.csv"), "--raw": str(tmp_path / "raw.jsonl")}
        paths[flag] = str(tmp_path / "nodir" / "x")
        code = main(["sweep", "--spec", spec_path, "--out", paths["--out"],
                     "--raw", paths["--raw"]])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {paths[flag]}: directory "
            f"{os.path.realpath(tmp_path / 'nodir')} does not exist\n")
        assert no_work == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_gen_into_missing_directory(self, tmp_path, capsys, no_work):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict())
        out = tmp_path / "nodir" / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out)]) == 2
        assert f"error: cannot write {out}: directory" in capsys.readouterr().err
        assert no_work == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json"]

    def test_directory_as_target(self, tmp_path, capsys, no_work):
        spec_path = write_json(tmp_path / "spec.json", base_spec_dict())
        assert main(["sweep", "--spec", spec_path, "--out", str(tmp_path)]) == 2
        assert f"error: cannot write {tmp_path}: it is a directory" in capsys.readouterr().err
        assert no_work == []

    def test_dangling_symlink_names_the_missing_directory(self, tmp_path, capsys, no_work):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict())
        link = tmp_path / "instance.json"
        link.symlink_to(tmp_path / "nodir" / "instance.json")
        assert main(["gen", "--config", config_path, "--out", str(link)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {link}: directory "
            f"{os.path.realpath(tmp_path / 'nodir')} does not exist\n")
        assert no_work == []

    @pytest.mark.parametrize("raw", ["same.txt", "./same.txt", "absolute"])
    def test_sweep_out_and_raw_the_same_file(self, tmp_path, capsys, monkeypatch,
                                              no_work, raw):
        # The JSONL would silently overwrite the CSV.
        spec_path = write_json(tmp_path / "spec.json", base_spec_dict())
        monkeypatch.chdir(tmp_path)
        if raw == "absolute":
            raw = str(tmp_path / "same.txt")
        assert main(["sweep", "--spec", spec_path, "--out", "same.txt", "--raw", raw]) == 2
        assert capsys.readouterr().err == (
            f"error: --out and --raw name the same file {raw}\n")
        assert no_work == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_relative_target_in_working_directory(self, tmp_path, monkeypatch):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict())
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--config", config_path, "--out", "instance.json"]) == 0
        assert (tmp_path / "instance.json").exists()


# -- arbitrary JSON at the input boundary ------------------------------------

# Wrong types, non-finite and extreme numbers, and small values that pass
# the type checks; integers stay small so that no draw asks for a long run.
JSON_ODDITIES = (None, True, False, float("nan"), float("inf"), float("-inf"),
                 1e308, -1e308, 1e-300, -1e-300, 10 ** 400, -(10 ** 400), 0, -1, 0.0, -0.0,
                 "1", "", [], [1.0], {})
json_values = st.one_of(st.sampled_from(JSON_ODDITIES), st.integers(-2, 6),
                        st.floats(-10.0, 10.0))
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def field_names(cls) -> list[str]:
    return [field.name for field in dataclasses.fields(cls)]


@st.composite
def overridden(draw, data: dict, names: list[str], max_size: int = 3) -> dict:
    """``data`` with up to ``max_size`` of the fields ``names`` set to odd JSON."""
    return {**data, **draw(st.dictionaries(st.sampled_from(names), json_values,
                                           max_size=max_size))}


@st.composite
def gen_dicts(draw) -> dict:
    system = draw(overridden({"p_h": 1.0, "p_max": 0.1}, field_names(SystemParams), 2))
    gen = draw(overridden({"n_users": 3, "seed": 5, "min_distance": 1.0},
                          [name for name in field_names(GenConfig) if name != "system"]))
    # One draw in four replaces the whole system object.
    return {**gen, "system": draw(json_values) if draw(st.integers(0, 3)) == 0 else system}


@st.composite
def instance_dicts(draw) -> dict:
    golden = json.loads((DATA / "golden_instance.json").read_text())
    params = draw(overridden(golden["params"], field_names(SystemParams), 2))
    users = [draw(overridden(user, field_names(UserProfile), 2)) for user in golden["users"]]
    return {"params": params, "users": users}


@st.composite
def sweep_specs(draw) -> dict:
    """A one-trial spec on an axis's default grid, with up to one field, or
    a misspelled key, set to odd JSON; the trial count is left alone."""
    spec = {"axis": draw(st.sampled_from(AXES)), "trials": 1, "gen": draw(gen_dicts()),
            "oracle": draw(st.booleans())}
    names = [name for name in field_names(SweepSpec) if name != "trials"]
    return draw(overridden(spec, [*names, "oracel"], max_size=1))


def run_cli(argv: list[str], outputs: list[pathlib.Path]) -> None:
    """cli.main ends in exit code 0, 2 or 3, without a traceback, and writes
    no NaN or Infinity to standard output or to ``outputs``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    event(f"exit code {code}")
    assert code in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    texts = [stdout.getvalue()] + [path.read_text() for path in outputs if path.exists()]
    for text in texts:
        assert not NON_FINITE.search(text), text


class TestArbitraryJson:
    @given(gen_dicts())
    def test_gen(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "instance.json"
            run_cli(["gen", "--config", write_json(pathlib.Path(tmp) / "gen.json", config),
                     "--out", str(out)], [out])

    @given(instance_dicts(),
           st.sampled_from([("mls", "mlsa"), ("mls", "pdo"), ("mls", "opt"),
                            ("stm", "mrsa"), ("stm", "opt")]))
    def test_solve(self, instance, solver):
        problem, alg = solver
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(pathlib.Path(tmp) / "instance.json", instance)
            run_cli(["solve", "--instance", path, "--problem", problem, "--alg", alg], [])

    @given(gen_dicts(), st.sampled_from(AXES),
           st.lists(st.one_of(st.integers(1, 6), st.floats(0.01, 10.0), json_values),
                    min_size=1, max_size=2),
           st.sampled_from([[p] for p in PROBLEMS] + [list(PROBLEMS)]), st.booleans())
    def test_sweep(self, gen, axis, values, problems, oracle):
        spec = {"axis": axis, "values": values, "trials": 2, "gen": gen,
                "problems": problems, "oracle": oracle}
        with tempfile.TemporaryDirectory() as tmp:
            out, raw = pathlib.Path(tmp) / "sweep.csv", pathlib.Path(tmp) / "sweep.jsonl"
            run_cli(["sweep", "--spec", write_json(pathlib.Path(tmp) / "spec.json", spec),
                     "--out", str(out), "--raw", str(raw)], [out, raw])

    @given(st.one_of(gen_dicts(), json_values), st.none() | st.integers(-1, 6))
    def test_gen_any_top_level_with_seed_flag(self, config, seed):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "instance.json"
            flags = [] if seed is None else ["--seed", str(seed)]
            run_cli(["gen", "--config", write_json(pathlib.Path(tmp) / "gen.json", config),
                     "--out", str(out), *flags], [out])

    @given(st.one_of(sweep_specs(), json_values), st.none() | st.integers(-1, 2))
    def test_sweep_any_top_level_with_trials_flag(self, spec, trials):
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "sweep.csv"
            flags = [] if trials is None else ["--trials", str(trials)]
            run_cli(["sweep", "--spec", write_json(pathlib.Path(tmp) / "spec.json", spec),
                     "--out", str(out), *flags], [out])
