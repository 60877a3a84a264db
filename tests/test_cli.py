"""CLI commands, sweep statistics, CSV schema, exit codes, golden files."""

import json
import os
import pathlib
import stat
import threading

import pytest

from wpcn_sched import instance_from_dict, mrsa, validate
from wpcn_sched import cli as cli_module
from wpcn_sched.cli import (
    CSV_COLUMNS,
    ConfigError,
    main,
    run_sweep,
    solve_one,
    spec_from_dict,
    write_csv,
    write_jsonl,
)
from wpcn_sched.netgen import MAX_USERS

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
        with pytest.raises(ConfigError):
            spec_from_dict(base_spec_dict(axis="frequency"))

    def test_empty_values(self):
        with pytest.raises(ConfigError):
            spec_from_dict(base_spec_dict(values=[]))

    def test_zero_trials(self):
        with pytest.raises(ConfigError):
            spec_from_dict(base_spec_dict(trials=0))

    def test_bad_problem(self):
        with pytest.raises(ConfigError):
            spec_from_dict(base_spec_dict(problems=["mls", "tsp"]))

    def test_oracle_with_too_many_users(self):
        with pytest.raises(ConfigError):
            spec_from_dict(base_spec_dict(gen=base_gen_dict(n_users=10)))
        with pytest.raises(ConfigError):
            spec_from_dict(base_spec_dict(axis="n_users", values=[4, 12]))

    def test_fractional_user_counts(self):
        with pytest.raises(ConfigError):
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
    ], ids=["negative-hap-power", "values-not-a-list", "seed-not-an-integer",
            "seed-is-a-bool", "seed-negative", "oracle-a-string", "oracle-a-number",
            "trials-fractional", "trials-a-float", "trials-a-string", "trials-a-bool",
            "gen-n-users-fractional", "gen-fading-a-string", "system-p-h-a-bool",
            "n-users-axis-infinity", "n-users-axis-minus-infinity",
            "values-past-the-largest-double", "n-users-axis-past-the-largest-double",
            "n-users-axis-above-the-bound", "gen-n-users-above-the-bound"])
    def test_bad_spec_exits_2(self, tmp_path, capsys, spec, message):
        spec_path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_default_grid_when_values_omitted(self):
        data = base_spec_dict(oracle=False)
        del data["values"]
        spec = spec_from_dict(data)
        assert spec.values == (0.5, 1.0, 2.0, 4.0, 8.0)

    def test_trials_override(self):
        spec = spec_from_dict(base_spec_dict(oracle=False), trials_override=7)
        assert spec.trials == 7


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
    ])
    def test_gen_rejects(self, tmp_path, capsys, override, message):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict(**override))
        out = tmp_path / "instance.json"
        assert main(["gen", "--config", config_path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json",
                               base_spec_dict(gen=base_gen_dict(ref_loss_db=float("nan"))))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", spec_path, "--out", str(out)]) == 2
        assert "ref_loss_db must be finite" in capsys.readouterr().err
        assert not out.exists()


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
        monkeypatch.setattr(cli_module, "config_to_dict", lambda config: {"x": float("nan")})
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

    def test_relative_target_in_working_directory(self, tmp_path, monkeypatch):
        config_path = write_json(tmp_path / "gen.json", base_gen_dict())
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--config", config_path, "--out", "instance.json"]) == 0
        assert (tmp_path / "instance.json").exists()
