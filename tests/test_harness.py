import concurrent.futures
import csv
import dataclasses
import functools
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from dualora import cli, errors
from dualora import harness
from dualora import numerics as nm
from dualora import streams as st
from dualora.cli import main as cli_main
from dualora.errors import ConfigError, DataError, GraphError, InvalidRankError

# a config small enough that a full run takes well under a second
FAST = dict(
    num_blocks=2,
    width=16,
    heads=2,
    image_side=8,
    patch_side=4,
    rank=2,
    position_l=1,
    num_classes=4,
    num_tasks=2,
    train_per_class=5,
    test_per_class=3,
    epochs=2,
    batch_size=4,
)


def without_timings(report) -> dict:
    """A report's dict without ``timings``, the one part that varies between runs."""
    return {k: v for k, v in report.to_dict().items() if k != "timings"}


class TestConfig:
    def test_unknown_keys_fail_closed(self):
        with pytest.raises(ConfigError, match="lern_rate"):
            harness.resolve_config({"lern_rate": 0.1})

    def test_preset_merge(self):
        cfg = harness.resolve_config({"rank": 7})
        assert cfg["rank"] == 7
        assert cfg["num_blocks"] == harness.DESK_PRESET["num_blocks"]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            harness.resolve_config(None, preset="mega")

    def test_position_beyond_depth_rejected(self):
        with pytest.raises(ConfigError):
            harness.split_config(harness.resolve_config({"num_blocks": 2, "position_l": 3}))

    def test_paper_preset_documented_shape(self):
        cfg = harness.resolve_config(None, preset="paper")
        bcfg, tcfg, _ = harness.split_config(cfg)
        assert bcfg.num_blocks == 12 and bcfg.width == 768
        assert tcfg.rank == 10 and tcfg.position_l == 6

    def test_split_config_converts_to_field_types(self):
        overrides = {"rank": 3.0, "mlp_ratio": 4, "attach_set": ["v", "q"], "kd": 0}
        overrides |= {"num_classes": 6.0, "noise_std": 0, "class_shuffle": 1, "dataset_path": "d"}
        bcfg, tcfg, scfg = harness.split_config(harness.resolve_config(overrides))
        assert tcfg.rank == 3 and type(tcfg.rank) is int
        assert bcfg.mlp_ratio == 4.0 and type(bcfg.mlp_ratio) is float
        assert bcfg.attach_set == ("q", "v")
        assert tcfg.kd is False
        assert scfg["num_classes"] == 6 and type(scfg["num_classes"]) is int
        assert scfg["noise_std"] == 0.0 and type(scfg["noise_std"]) is float
        assert scfg["class_shuffle"] is True and scfg["dataset_path"] == "d"

    @pytest.mark.parametrize("preset", sorted(harness.PRESETS))
    def test_preset_keys_split_into_disjoint_parts(self, preset):
        cfg = harness.resolve_config(None, preset=preset)
        bcfg, tcfg, scfg = harness.split_config(cfg)
        parts = [{f.name for f in dataclasses.fields(c)} for c in (bcfg, tcfg)] + [set(scfg)]
        assert sum(len(p) for p in parts) == len(cfg)
        assert set().union(*parts) == set(cfg)

    def test_readme_configuration_table_names_every_key(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        documented = [key for cell in rows for key in re.findall(r"`(\w+)`", cell)]
        assert sorted(documented) == sorted(harness.DESK_PRESET)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"kd": "false"},
            {"fix_b": "no"},
            {"epochs": 2.7},
            {"epochs": "ten"},
            {"rank": True},
            {"class_shuffle": "false"},
            {"num_classes": 10.7},
            {"num_tasks": 2.5},
            {"noise_std": "0.3"},
            {"dataset_path": 5},
        ],
    )
    def test_split_config_rejects_values_a_field_cannot_hold(self, overrides):
        key = next(iter(overrides))
        with pytest.raises(ConfigError, match=key):
            harness.split_config(harness.resolve_config(overrides))

    def test_missing_config_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json"):
            harness.load_config_file(tmp_path / "missing.json")

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rank": 3}))
        assert harness.load_config_file(path) == {"rank": 3}
        path.write_text("not json")
        with pytest.raises(ConfigError):
            harness.load_config_file(path)


class TestRunExperiment:
    def test_single_task_degeneracy(self):
        report = harness.run_experiment({**FAST, "num_tasks": 1, "num_classes": 4}, seed=0)
        acc = report.accuracy
        assert acc.average == acc.final == acc.per_task[0]

    def test_average_accuracy_formula(self):
        rec = harness.AccuracyRecord(per_task=[1.0, 0.5])
        assert rec.average == 0.75 and rec.final == 0.5

    def test_same_seed_byte_identical_report_modulo_timings(self, tmp_path):
        a = harness.run_experiment(FAST, seed=3, out_dir=tmp_path / "a")
        b = harness.run_experiment(FAST, seed=3, out_dir=tmp_path / "b")
        assert without_timings(a) == without_timings(b)
        log_a = (tmp_path / "a" / "loss_log.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "loss_log.jsonl").read_bytes()
        assert log_a == log_b

    def test_report_files_exist_and_parse(self, tmp_path):
        report = harness.run_experiment(FAST, seed=1, out_dir=tmp_path)
        on_disk = json.loads((tmp_path / "run_report.json").read_text())
        assert on_disk["seed"] == 1
        assert on_disk["accuracy"]["per_task"] == report.accuracy.per_task
        lines = (tmp_path / "loss_log.jsonl").read_text().strip().splitlines()
        assert len(lines) == FAST["epochs"] * FAST["num_tasks"]
        assert all(set(json.loads(l)) >= {"task", "epoch", "loss_ce"} for l in lines)

    def test_param_accounting_matches_closed_form(self):
        report = harness.run_experiment(FAST, seed=0)
        n, l, d, r = FAST["num_blocks"], FAST["position_l"], FAST["width"], FAST["rank"]
        tasks = FAST["num_tasks"]
        attach, patch_dim, hidden = 2, 4 * 4, 4 * d  # q and v; one channel; mlp_ratio 4
        shared = l * attach * r * d  # the down-projections are fixed
        specific = (n - l) * attach * 2 * r * d
        weights = n - l
        total = shared + tasks * (specific + weights)
        backbone = d * patch_dim + d + n * (4 * d * d + 2 * d * hidden + hidden + 9 * d) + 2 * d
        assert report.param_counts == {
            "shared": shared,
            "specific_per_task": specific,
            "block_weights_per_task": weights,
            "total": total,
            "backbone": backbone,
            "backbone_ratio": total / backbone,
        }

    def test_accuracy_over_seen_tasks_only(self):
        # after task 1 the evaluation set contains only task-1 classes, so a
        # degenerate 1-class-per-task stream must score well there even if
        # later accuracy drops
        report = harness.run_experiment(FAST, seed=2)
        assert len(report.accuracy.per_task) == FAST["num_tasks"]
        assert all(0.0 <= a <= 1.0 for a in report.accuracy.per_task)

    def test_dataset_path_round_trip(self, tmp_path):
        from dualora import numerics as nm
        from dualora import streams as st

        ds = st.gen_synthetic(4, 5, 3, 8, 1, 0.05, nm.make_rng(0))
        st.save_dataset(tmp_path / "d.clld", ds)
        report = harness.run_experiment(
            {**FAST, "dataset_path": str(tmp_path / "d.clld")}, seed=0
        )
        assert len(report.accuracy.per_task) == 2


    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_classes": 2},
            {"train_per_class": 4},
            {"test_per_class": 2},
            {"channels": 3},
            {"image_side": 16},
        ],
    )
    def test_dataset_file_must_match_config(self, tmp_path, overrides):
        path = tmp_path / "d.clld"
        st.save_dataset(path, st.gen_synthetic(4, 5, 3, 8, 1, 0.05, nm.make_rng(0)))
        cfg = harness.resolve_config({**FAST, "dataset_path": str(path), **overrides})
        ((key, want),) = overrides.items()
        with pytest.raises(DataError, match=rf"d\.clld .*'{key}' is {want}$") as exc:
            harness.build_run(cfg, 0)
        assert str(path) in str(exc.value)


class TestRunAblation:
    def test_axis_cross_product_row_count(self, tmp_path):
        reports, summary = harness.run_ablation(
            FAST, {"kd": [True, False], "bw": [True, False]}, seeds=[0], out_dir=tmp_path
        )
        rows = list(csv.DictReader(io.StringIO(summary)))
        assert len(rows) == 4 == len(reports)
        assert (tmp_path / "summary.csv").exists()

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            harness.run_ablation(FAST, ["mystery"], seeds=[0])

    def test_default_l_sweep_values(self):
        reports, summary = harness.run_ablation(FAST, ["l-sweep"], seeds=[0])
        rows = list(csv.DictReader(io.StringIO(summary)))
        assert [int(r["l-sweep"]) for r in rows] == [0, 1, 2]
        by_l = {int(r["l-sweep"]): int(r["pass_count"]) for r in rows}
        assert by_l[0] == 2 * 2  # no sharing: N*T
        assert by_l[2] == 2  # fully shared: N

    def test_toggle_axis_changes_only_that_key(self):
        reports, _ = harness.run_ablation(FAST, ["kd"], seeds=[0])
        assert reports[0].config["kd"] != reports[1].config["kd"]
        a = {k: v for k, v in reports[0].config.items() if k != "kd"}
        b = {k: v for k, v in reports[1].config.items() if k != "kd"}
        assert a == b

    def test_multi_seed_rows(self):
        _, summary = harness.run_ablation(FAST, {"fixB": [True, False]}, seeds=[0, 1])
        rows = list(csv.DictReader(io.StringIO(summary)))
        assert len(rows) == 4
        assert {r["seed"] for r in rows} == {"0", "1"}

    def test_bs_init_axis_present(self):
        _, summary = harness.run_ablation(FAST, ["bs-init"], seeds=[0])
        rows = list(csv.DictReader(io.StringIO(summary)))
        assert [r["bs-init"] for r in rows] == ["orthogonal", "random"]

    def test_explicit_value_lists_cross_product(self):
        reports, _ = harness.run_ablation(
            FAST, {"fixB": [True, False], "rank": [1, 5, 10]}, seeds=[0]
        )
        assert len(reports) == 6

    def test_pool_matches_serial_runs(self, tmp_path):
        axes = {"kd": [True, False], "l-sweep": [0, 2]}
        reports, summary = harness.run_ablation(FAST, axes, seeds=[0, 1], out_dir=tmp_path / "pool")
        expected_rows, serial = [], []
        for kd in axes["kd"]:
            for l in axes["l-sweep"]:
                for seed in (0, 1):
                    name = f"kd={kd}_l-sweep={l}_seed{seed}"
                    report = harness.run_experiment(
                        {**FAST, "kd": kd, "position_l": l}, seed, tmp_path / "serial" / name
                    )
                    serial.append((name, report))
                    expected_rows.append(
                        {
                            "kd": str(kd),
                            "l-sweep": str(l),
                            "seed": str(seed),
                            "A_T": str(report.accuracy.final),
                            "A_bar": str(report.accuracy.average),
                            "params_pct": str(100.0 * report.param_counts["backbone_ratio"]),
                            "pass_count": str(report.adapter_pass_count),
                        }
                    )
        assert [without_timings(r) for r in reports] == [without_timings(r) for _, r in serial]
        assert list(csv.DictReader(io.StringIO(summary))) == expected_rows
        assert (tmp_path / "pool" / "summary.csv").read_bytes() == summary.encode()
        for name, _ in serial:
            pool_dir, serial_dir = tmp_path / "pool" / name, tmp_path / "serial" / name
            log = "loss_log.jsonl"
            assert (pool_dir / log).read_bytes() == (serial_dir / log).read_bytes()
            on_disk = [
                {k: v for k, v in json.loads((d / "run_report.json").read_text()).items() if k != "timings"}
                for d in (pool_dir, serial_dir)
            ]
            assert on_disk[0] == on_disk[1]

    def test_pool_has_one_forked_worker_per_usable_cpu(self, monkeypatch):
        made = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                made.append((max_workers, mp_context.get_start_method()))
                super().__init__(max_workers, mp_context=mp_context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        harness.run_ablation(FAST, {"kd": [True]}, seeds=[0])
        harness.run_ablation(FAST, ["l-sweep"], seeds=[0])
        cpus = len(os.sched_getaffinity(0))
        assert made == [(1, "fork"), (min(3, cpus), "fork")]

    @pytest.mark.parametrize(
        "axes, error, message",
        [
            ({"rank": [0]}, InvalidRankError, "rank must be"),
            ({"l-sweep": [9]}, ConfigError, "exceeds num_blocks"),
        ],
    )
    def test_worker_error_reaches_caller_with_its_type(self, axes, error, message):
        with pytest.raises(error, match=message):
            harness.run_ablation(FAST, axes, seeds=[0])

    def test_empty_seed_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no runs"):
            harness.run_ablation(FAST, ["kd"], seeds=[], out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "axes, seeds", [(["kd"], [0, 0]), ({"rank": [2, 2]}, [0])], ids=["seeds", "values"]
    )
    def test_repeated_run_rejected_before_any_run(self, tmp_path, axes, seeds):
        with pytest.raises(ConfigError, match="repeats"):
            harness.run_ablation(FAST, axes, seeds=seeds, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def gradcheck_seed3():
    """``harness.gradcheck(None, seed=3)``; treat as read-only."""
    return harness.gradcheck(None, seed=3)


class TestGradcheck:
    def test_micro_run_verifies_all_terms(self, gradcheck_seed3):
        report = gradcheck_seed3
        assert report["terms_checked"] == ["ce", "kd", "orth"]
        assert report["max_rel_error"] <= 1e-4

    def test_toggles_off_single_task_checks_only_ce(self):
        report = harness.gradcheck(
            {"kd": False, "bw": False, "gr": False, "num_tasks": 2}, seed=0
        )
        assert report["terms_checked"] == ["ce"]

    @pytest.mark.parametrize("seed", [4, 8])
    def test_default_step_within_tolerance(self, seed):
        # at a step of 1e-5, finite-difference rounding alone put the kd error
        # of these seeds above 1e-4
        report = harness.gradcheck(None, seed)
        for term, info in report["terms"].items():
            assert info["max_rel_error"] <= 1e-4, (term, info["max_rel_error"])

    def test_stream_keys_reach_the_checked_model(self, tmp_path):
        default = harness.gradcheck(None, seed=0)["terms"]
        path = tmp_path / "micro.clld"
        st.save_dataset(path, st.gen_synthetic(4, 4, 2, 8, 1, 0.08, nm.make_rng(123)))
        loaded = harness.gradcheck({"dataset_path": str(path)}, seed=0)["terms"]
        shuffled = harness.gradcheck({"class_shuffle": True}, seed=0)["terms"]
        assert loaded != default
        assert shuffled != default

    def test_reports_per_parameter_group(self, gradcheck_seed3):
        report = gradcheck_seed3
        groups = report["terms"]["kd"]["per_group"]
        assert {"shared-up", "specific-up", "specific-down", "block-weight", "head"} <= set(groups)
        # the kd term cannot reach past the transition block
        assert groups["specific-up"] == 0.0
        assert groups["block-weight"] == 0.0


class TestCli:
    def test_import_leaves_multiprocessing_unloaded(self):
        # only a sweep needs the process pool; every other command starts without it
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        probe = (
            "import sys, dualora.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_run_and_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        assert (out / "run_report.json").exists()
        assert cli_main(["report", str(out / "run_report.json")]) == 0
        text = capsys.readouterr().out
        assert "final" in text and "A_T" in text

    def test_gen_data(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out = tmp_path / "d.clld"
        assert cli_main(["gen-data", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
        from dualora import streams as st

        ds = st.load_dataset(out)
        assert ds.num_classes == FAST["num_classes"]

    def test_ablate(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out = tmp_path / "sweep"
        code = cli_main(
            ["ablate", "--config", str(cfg), "--axes", "kd", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader((out / "summary.csv").read_text().splitlines()))
        assert len(rows) == 2

    @pytest.mark.parametrize("command", ["run", "ablate", "gradcheck"])
    def test_preset_reaches_harness(self, tmp_path, monkeypatch, command):
        received = []

        def stub(*args, preset="desk", **kwargs):
            received.append(preset)
            if command == "run":
                return types.SimpleNamespace(accuracy=harness.AccuracyRecord([1.0]))
            if command == "ablate":
                return [], ""
            return {"terms_checked": [], "terms": {}, "max_rel_error": 0.0}

        target = {"run": "run_experiment", "ablate": "run_ablation", "gradcheck": "gradcheck"}
        monkeypatch.setattr(harness, target[command], stub)
        argv = [command, "--preset", "paper", "--out", str(tmp_path / "out")]
        if command == "ablate":
            argv += ["--axes", "kd"]
        assert cli_main(argv) == 0
        assert received == ["paper"]

    def test_report_without_accuracy_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"seed": 0}))
        assert cli_main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    def test_report_not_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("not json")
        assert cli_main(["report", str(path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("seeds", ["0,x", "0,,1", ""])
    def test_ablate_bad_seeds_exit_2(self, tmp_path, capsys, seeds):
        argv = ["ablate", "--axes", "kd", "--seeds", seeds, "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "ablate", "report"])
    def test_missing_file_exits_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.json")
        argv = {
            "run": ["run", "--config", missing],
            "ablate": ["ablate", "--axes", "kd", "--config", missing],
            "report": ["report", missing],
        }[command]
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "missing.json" in captured.err

    @pytest.mark.parametrize("command", ["gen-data", "report", "gradcheck"])
    def test_missing_output_directory_exits_2(self, tmp_path, capsys, command):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"accuracy": {"per_task": [1.0], "average": 1.0, "final": 1.0}}))
        out = str(tmp_path / "missing" / "out")
        argv = [str(report)] if command == "report" else []
        assert cli_main([command, "--out", out, *argv]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "missing" in captured.err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "option", [["--config", "cfg.json"], ["--preset", "paper"], ["--seed", "9"]]
    )
    def test_report_rejects_run_options(self, tmp_path, capsys, option):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"accuracy": {"per_task": [1.0], "average": 1.0, "final": 1.0}}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["report", *option, str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_tasks": 0},
            {"num_tasks": 3},
            {"num_classes": 0},
            {"train_per_class": 0},
            {"test_per_class": 0},
            {"noise_std": -1},
            {"rank": 0},
            {"rank": 100},
            {"num_tasks": -1},
            {"num_tasks": 1e30},
            {"train_per_class": -1},
            {"test_per_class": -1},
            {"mlp_ratio": -1},
            {"mlp_ratio": 0},
            '{"noise_std": 1e400}',  # JSON reads an out-of-range number as infinity
            '{"learning_rate": -1e400}',
        ],
    )
    def test_rejected_input_exits_2_in_one_line(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(overrides if isinstance(overrides, str) else json.dumps(overrides))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert not (out / "run_report.json").exists()

    def test_gen_data_rejects_a_negative_count_in_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_per_class": -1}))
        out = tmp_path / "d.clld"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "train_per_class" in captured.err
        assert not out.exists()

    def test_dataset_file_of_other_image_size_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.clld"
        st.save_dataset(path, st.gen_synthetic(10, 20, 10, 8, 1, 0.05, nm.make_rng(0)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset_path": str(path)}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "image_side" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--seed", "-1"],
            ["gen-data", "--seed", "-1"],
            ["gradcheck", "--seed", "-1"],
            ["ablate", "--axes", "kd", "--seed", "-1"],
            ["ablate", "--axes", "kd", "--seeds", "0,-1"],
        ],
    )
    def test_negative_seed_exits_2_before_any_run(self, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out = tmp_path / "out"
        assert cli_main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "-1" in captured.err
        assert not out.exists()

    def test_bug_error_keeps_its_type(self, monkeypatch):
        def broken(*args, **kwargs):
            raise GraphError("inconsistent tape")

        monkeypatch.setattr(harness, "run_experiment", broken)
        with pytest.raises(GraphError, match="inconsistent tape"):
            cli_main(["run"])

    def test_every_error_class_is_input_or_bug(self):
        input_errors = {
            "ConfigError", "FormatError", "DataError", "InvalidInputError", "InvalidRankError"
        }
        bug_errors = {
            "GraphError", "DeterminismError", "ShapeError", "ProtocolError", "MissingAdapterError"
        }
        defined = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
        assert defined == input_errors | bug_errors | {"InputError"}
        for name in input_errors:
            assert issubclass(getattr(errors, name), errors.InputError), name
        for name in bug_errors:
            assert not issubclass(getattr(errors, name), errors.InputError), name

    def test_bad_config_key_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        assert cli_main(["run", "--config", str(cfg)]) == 2

    def test_gradcheck_cli(self, tmp_path, capsys):
        out = tmp_path / "grad.json"
        assert cli_main(["gradcheck", "--seed", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["max_rel_error"] <= 1e-4

    def test_gradcheck_cli_fails_above_tolerance(self, tmp_path, monkeypatch, capsys):
        # a step this small leaves only rounding in the central differences
        monkeypatch.setattr(harness, "gradcheck", functools.partial(harness.gradcheck, step=1e-12))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kd": False, "bw": False, "gr": False}))
        out = tmp_path / "grad.json"
        assert cli_main(["gradcheck", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["max_rel_error"] > cli.GRADCHECK_TOLERANCE
        assert "exceeds" in capsys.readouterr().err
