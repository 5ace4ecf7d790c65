import concurrent.futures
import csv
import ctypes
import dataclasses
import functools
import io
import itertools
import json
import multiprocessing
import os
import platform
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from dualora import autodiff as ad
from dualora import cli, errors
from dualora import backbone as bb
from dualora import classifier as clf
from dualora import harness
from dualora import trainer as tr
from dualora import numerics as nm
from dualora import streams as st
from dualora.cli import main as cli_main
from dualora.errors import (
    ConfigError,
    DataError,
    DeterminismError,
    FormatError,
    GraphError,
    InvalidRankError,
)

from conftest import recording_adapter_blocks


def _report_blas_threads(overrides, seed, run_dir):
    """Stands in for ``run_experiment`` in a pool worker: the worker's BLAS
    thread count, reported as its accuracy."""
    threads = harness._openblas("get_num_threads")()
    return {
        "accuracy": {"final": threads, "average": threads},
        "params": {"backbone_ratio": 0.0},
        "adapter_pass_count": 0,
    }


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


def without_timings(report: dict) -> dict:
    """A report without ``timings``, the one part that varies between runs."""
    return {k: v for k, v in report.items() if k != "timings"}


README = Path(__file__).parents[1] / "README.md"


def readme_section(title: str) -> str:
    """The text of README's ``## <title>`` section."""
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_paper_config() -> dict:
    """The full-size layout, as README's Configuration section gives it."""
    return json.loads(readme_section("Configuration").split("```json\n", 1)[1].split("```", 1)[0])


class TestConfig:
    def test_unknown_keys_fail_closed(self):
        with pytest.raises(ConfigError, match="lern_rate"):
            harness.resolve_config({"lern_rate": 0.1})

    def test_preset_merge(self):
        cfg = harness.resolve_config({"rank": 7})
        assert cfg["rank"] == 7
        assert cfg["num_blocks"] == harness.DESK_PRESET["num_blocks"]

    def test_position_beyond_depth_rejected(self):
        with pytest.raises(ConfigError):
            harness.split_config(harness.resolve_config({"num_blocks": 2, "position_l": 3}))

    def test_paper_preset_documented_shape(self):
        # README's paper layout is a config file that `--config` takes
        cfg = harness.resolve_config(readme_paper_config())
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

    @pytest.mark.parametrize("paper", [False, True], ids=["desk", "paper"])
    def test_preset_keys_split_into_disjoint_parts(self, paper):
        cfg = harness.resolve_config(readme_paper_config() if paper else None)
        bcfg, tcfg, scfg = harness.split_config(cfg)
        parts = [{f.name for f in dataclasses.fields(c)} for c in (bcfg, tcfg)] + [set(scfg)]
        assert sum(len(p) for p in parts) == len(cfg)
        assert set().union(*parts) == set(cfg)

    def test_readme_configuration_table_names_every_key(self):
        section = readme_section("Configuration")
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
            {"width": 10**400},  # an integer JSON holds, but no float does
            {"attach_set": ["q", {}]},
        ],
    )
    def test_split_config_rejects_values_a_field_cannot_hold(self, overrides):
        key = next(iter(overrides))
        with pytest.raises(ConfigError, match=key):
            harness.split_config(harness.resolve_config(overrides))

    def test_missing_config_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json"):
            harness.read_json_object(tmp_path / "missing.json", ConfigError, "config")

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rank": 3}))
        assert harness.read_json_object(path, ConfigError, "config") == {"rank": 3}
        path.write_text("not json")
        with pytest.raises(ConfigError):
            harness.read_json_object(path, ConfigError, "config")


def _right_kind(key: str) -> hs.SearchStrategy:
    """JSON values of the kind ``key`` takes; many lie outside the key's
    domain, and huge finite numbers are among them."""
    default = harness.DESK_PRESET[key]
    huge = hs.floats(min_value=1e300, allow_infinity=False) | hs.integers(10**300, 10**400)
    if key == "attach_set":
        return hs.text("qkvx", max_size=4) | hs.lists(hs.sampled_from("qkvx"), max_size=4)
    if isinstance(default, bool):
        return hs.booleans() | hs.sampled_from([0, 1])
    if isinstance(default, int):
        return hs.integers(-2, 40) | hs.integers(-2, 40).map(float) | huge
    if isinstance(default, float):
        return hs.floats(allow_nan=False) | hs.integers(-2, 40) | huge | huge.map(lambda v: -v)
    if isinstance(default, str):
        names = ["adaptive-moments", "plain-gradient-descent", "orthogonal", "random"]
        return hs.sampled_from(names) | hs.text("ab-", max_size=3)
    return hs.none() | hs.text("ab/", max_size=3)  # dataset_path


def _wrong_kind(key: str) -> hs.SearchStrategy:
    """JSON values that ``key`` does not take: objects, lists of other things,
    numbers for strings, and for numbers and booleans strings, null and
    (integer keys) fractions."""
    default = harness.DESK_PRESET[key]
    objects = hs.dictionaries(hs.sampled_from("qkv"), hs.integers(0, 1), max_size=2)
    lists = hs.lists(hs.integers(0, 3) | objects, min_size=1, max_size=2)
    if key == "attach_set" or isinstance(default, (str, type(None))):
        return objects | lists | hs.integers() | hs.booleans()
    wrong = objects | lists | hs.none() | hs.sampled_from(["false", "3", "0.3", "1e308"])
    if type(default) is int:
        return wrong | hs.floats(-1e6, 1e6).filter(lambda v: v != int(v))
    return wrong


def _overrides() -> hs.SearchStrategy:
    """Override dicts of up to three schema keys, two values in three of the
    right kind."""
    items = [
        hs.tuples(hs.just(key), hs.one_of(_right_kind(key), _right_kind(key), _wrong_kind(key)))
        for key in sorted(harness.DESK_PRESET)
    ]
    return hs.lists(hs.one_of(items), max_size=3).map(dict)


# finite sizes whose backbone or dataset would not fit in memory
HUGE_SIZES = [
    {"num_blocks": 1e200},
    {"mlp_ratio": 1e200},
    {"width": 2**40, "heads": 1},
    {"train_per_class": 10**15},
]


class TestSplitConfigProperty:
    @settings(max_examples=300)
    @given(_overrides())
    @example(HUGE_SIZES[0])
    @example(HUGE_SIZES[1])
    @example(HUGE_SIZES[2])
    @example(HUGE_SIZES[3])
    def test_returns_typed_parts_or_raises_config_error(self, overrides):
        try:
            bcfg, tcfg, scfg = harness.split_config(harness.resolve_config(overrides))
        except ConfigError:
            return
        for part, cls in ((bcfg, bb.BackboneConfig), (tcfg, tr.TrainConfig)):
            for f in dataclasses.fields(cls):
                assert type(getattr(part, f.name)) is type(f.default), f.name
        for key, value in scfg.items():
            default = harness.DESK_PRESET[key]
            assert type(value) is type(default) or (default is None and type(value) is str), key


class TestRunExperiment:
    def test_single_task_degeneracy(self):
        report = harness.run_experiment({**FAST, "num_tasks": 1, "num_classes": 4}, seed=0)
        acc = report["accuracy"]
        assert acc["average"] == acc["final"] == acc["per_task"][0]

    def test_average_accuracy_formula(self, monkeypatch):
        scores = iter([1.0, 0.5])
        monkeypatch.setattr(harness.clf, "evaluate", lambda *args: next(scores))
        acc = harness.run_experiment(FAST, seed=0)["accuracy"]
        assert acc == {"per_task": [1.0, 0.5], "average": 0.75, "final": 0.5}

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
        assert on_disk["accuracy"]["per_task"] == report["accuracy"]["per_task"]
        lines = (tmp_path / "loss_log.jsonl").read_text().strip().splitlines()
        assert len(lines) == FAST["epochs"] * FAST["num_tasks"]
        assert all(set(json.loads(l)) >= {"task", "epoch", "loss_ce"} for l in lines)

    def test_returns_the_report_it_writes(self, tmp_path):
        report = harness.run_experiment(FAST, seed=0, out_dir=tmp_path)
        text = (tmp_path / "run_report.json").read_text(encoding="utf-8")
        assert report == json.loads(text)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"

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
        assert report["params"] == {
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
        assert len(report["accuracy"]["per_task"]) == FAST["num_tasks"]
        assert all(0.0 <= a <= 1.0 for a in report["accuracy"]["per_task"])

    def test_plain_gradient_descent_is_the_optimizer_it_names(self, tmp_path):
        logs = []
        for name, optimizer in (("a", "plain-gradient-descent"), ("b", "plain-gradient-descent"),
                                ("c", "adaptive-moments")):
            harness.run_experiment({**FAST, "optimizer": optimizer}, 0, out_dir=tmp_path / name)
            logs.append((tmp_path / name / "loss_log.jsonl").read_bytes())
        assert logs[0] == logs[1] != logs[2]

    def test_dataset_path_round_trip(self, tmp_path):
        from dualora import numerics as nm
        from dualora import streams as st

        ds = st.gen_synthetic(4, 5, 3, 8, 1, 0.05, nm.make_rng(0))
        st.save_dataset(tmp_path / "d.clld", ds)
        report = harness.run_experiment(
            {**FAST, "dataset_path": str(tmp_path / "d.clld")}, seed=0
        )
        assert len(report["accuracy"]["per_task"]) == 2


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


def evaluations_of_run(config, seed):
    """The report of a run, the ``(block, images)`` record of the
    adapter-bearing block applications its evaluations ran, and for each
    evaluation the model and store as they stood, the tasks seen, and the
    column ids, scores and labels it computed its accuracy from."""
    seen, scored = [], []
    train_task, accuracy = tr.train_task, clf.accuracy
    with recording_adapter_blocks() as calls, pytest.MonkeyPatch.context() as mp:

        def training(model, store, task, cfg, rng):
            start = len(calls)
            log = train_task(model, store, task, cfg, rng)
            del calls[start:]
            seen.append((model, store, task))
            return log

        def scoring(columns, scores, labels):
            model, store, _ = seen[-1]
            model = dataclasses.replace(model, tasks=list(model.tasks))
            store = clf.PrototypeStore(list(store.tasks))
            tasks = [task for _, _, task in seen]
            scored.append((model, store, tasks, columns, scores, labels))
            return accuracy(columns, scores, labels)

        mp.setattr(tr, "train_task", training)
        mp.setattr(clf, "accuracy", scoring)
        report = harness.run_experiment(config, seed)
    return report, calls, scored


class TestEvaluationReuse:
    """With no shared-role block a run keeps each finished task's features of
    the seen test sets; it scores as :func:`classifier.evaluate` does anew."""

    CONFIG = {**FAST, "num_classes": 6, "num_tasks": 3, "epochs": 1}

    @pytest.mark.parametrize(
        "overrides, kept",
        [
            ({"position_l": 0}, True),
            ({"position_l": 2, "flip_positions": True}, True),
            ({"position_l": 1}, False),
            ({"position_l": 2}, False),
        ],
        ids=["l=0", "flipped l=N", "l=1", "l=N"],
    )
    def test_scores_and_block_applications(self, overrides, kept):
        report, calls, scored = evaluations_of_run({**self.CONFIG, **overrides}, seed=0)
        n, per_set = self.CONFIG["num_blocks"], 2 * self.CONFIG["test_per_class"]
        l = overrides["position_l"]
        if kept:  # the last task on the union, the others on the last test set
            want = sum(n * (t * per_set + (t - 1) * per_set) for t in (1, 2, 3))
        else:  # every task on the union
            want = sum(t * per_set * (l + (n - l) * t) for t in (1, 2, 3))
        assert sum(images for _, images in calls) == want
        assert len(scored) == 3
        for acc, (model, store, tasks, columns, scores, labels) in zip(
            report["accuracy"]["per_task"], scored, strict=True
        ):
            union = np.concatenate([task.test_images for task in tasks])
            want_columns, want_scores = clf.score_batch(model, store, union)
            assert columns.tolist() == want_columns.tolist()
            assert scores.tobytes() == want_scores.tobytes()
            assert acc == clf.evaluate(model, store, union, labels)


@pytest.fixture
def pools(monkeypatch):
    """``(max_workers, start method)`` of each process pool made while the test runs."""
    made = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context, initializer):
            made.append((max_workers, mp_context.get_start_method()))
            super().__init__(max_workers, mp_context=mp_context, initializer=initializer)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


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
        assert reports[0]["config"]["kd"] != reports[1]["config"]["kd"]
        a = {k: v for k, v in reports[0]["config"].items() if k != "kd"}
        b = {k: v for k, v in reports[1]["config"].items() if k != "kd"}
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
                            "A_T": str(report["accuracy"]["final"]),
                            "A_bar": str(report["accuracy"]["average"]),
                            "params_pct": str(100.0 * report["params"]["backbone_ratio"]),
                            "pass_count": str(report["adapter_pass_count"]),
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

    def test_pool_has_one_forked_worker_per_usable_cpu(self, pools):
        harness.run_ablation(FAST, {"kd": [True]}, seeds=[0])
        harness.run_ablation(FAST, ["l-sweep"], seeds=[0])
        assert pools == [(1, "fork"), (min(3, harness._usable_cpus()), "fork")]

    def test_pool_sized_by_cpu_count_without_affinity(self, pools, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        harness.run_ablation(FAST, ["l-sweep"], seeds=[0])
        assert pools == [(2, "fork")]

    def test_workers_run_one_blas_thread(self, monkeypatch):
        get_threads = harness._openblas("get_num_threads")
        if get_threads is None:
            pytest.skip("no OpenBLAS thread getter in this build")
        set_threads = harness._openblas("set_num_threads")
        monkeypatch.setattr(harness, "run_experiment", _report_blas_threads)
        before = get_threads()
        set_threads(2)  # so the workers inherit more than one thread
        try:
            _, summary = harness.run_ablation(FAST, {"rank": [1, 2]}, seeds=[0, 1])
            assert get_threads() == 2  # the parent keeps its own setting
        finally:
            set_threads(before)
        assert [row["A_T"] for row in csv.DictReader(io.StringIO(summary))] == ["1"] * 4

    def test_openblas_found_under_a_path_with_a_space(self, monkeypatch, tmp_path):
        get_threads = harness._openblas("get_num_threads")
        if get_threads is None:
            pytest.skip("no OpenBLAS thread getter in this build")
        with open("/proc/self/maps", encoding="utf-8") as f:
            loaded = next(
                line.split(maxsplit=5)[5].strip()
                for line in f
                if "openblas" in line.lower() and ".so" in line
            )
        (tmp_path / "a b").mkdir()
        link = tmp_path / "a b" / Path(loaded).name
        link.symlink_to(loaded)  # dlopen hands back the copy already loaded
        maps = (
            f"7f00-7f01 r-xp 00000000 08:01 1 {link}\n"
            # sorts first, so it is tried and skipped
            f"7f01-7f02 r-xp 00000000 08:01 2 {tmp_path}/0/libopenblas.so (deleted)\n"
        )
        monkeypatch.setattr(harness, "open", lambda *a, **k: io.StringIO(maps), raising=False)
        assert harness._openblas("get_num_threads")() == get_threads()

    def test_default_l_sweep_on_one_block_runs_each_position_once(self):
        _, summary = harness.run_ablation({**FAST, "num_blocks": 1}, ["l-sweep"], seeds=[0])
        assert [row["l-sweep"] for row in csv.DictReader(io.StringIO(summary))] == ["0", "1"]

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

    def test_empty_axis_list_rejected(self):
        with pytest.raises(ConfigError, match="no ablation axes"):
            harness.run_ablation(None, [], seeds=[0])

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

    def test_shares_balance_scalars_largest_first_onto_the_lightest(self):
        sizes = [1, 32, 2, 32, 32]
        params = [
            ad.Parameter(f"p{i}", np.zeros(n), trainable=True, tag="head")
            for i, n in enumerate(sizes)
        ]
        names = lambda shares: [[p.name for p in share] for share in shares]
        assert names(harness._shares(params, 1)) == [["p1", "p3", "p4", "p2", "p0"]]
        assert names(harness._shares(params, 2)) == [["p1", "p4"], ["p3", "p2", "p0"]]
        assert names(harness._shares(params, 3)) == [["p1", "p2"], ["p3", "p0"], ["p4"]]

    @pytest.mark.parametrize("config", [None, {"flip_positions": True}])
    def test_report_does_not_depend_on_the_cpu_count(self, monkeypatch, config):
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            report = harness.gradcheck(config, seed=3)
            # the unsorted text also keeps each term's per_group order
            reports.append((report, json.dumps(report, sort_keys=True), json.dumps(report)))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_one_forked_worker_per_usable_cpu_but_the_first(self, pools, monkeypatch):
        # the micro preset trains 9 parameters, so 20 CPUs take 9 shares
        for cpus in (1, 2, 3, 20):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            harness.gradcheck(None, seed=0)
        assert pools == [(1, "fork"), (2, "fork"), (8, "fork")]

    def test_workers_run_one_blas_thread(self, monkeypatch):
        get_threads = harness._openblas("get_num_threads")
        if get_threads is None:
            pytest.skip("no OpenBLAS thread getter in this build")
        set_threads = harness._openblas("set_num_threads")
        parent = os.getpid()

        def report_blas_threads(forward, params, step):
            # a worker's BLAS thread count as every error of its share; 0 here
            threads = 0 if os.getpid() == parent else get_threads()
            return {"ce": {p.name: float(threads) for p in params}}

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(ad, "finite_difference_check", report_blas_threads)
        before = get_threads()
        set_threads(2)  # so the workers inherit more than one thread
        try:
            report = harness.gradcheck(None, seed=0)
            assert get_threads() == 2  # the parent keeps its own setting
        finally:
            set_threads(before)
        assert report["max_rel_error"] == 1.0

    def test_worker_error_reaches_caller_with_its_type(self, monkeypatch):
        # the closure drops a term on its second call in share 1's worker only
        parent, seen = os.getpid(), {}
        check, make_shares = ad.finite_difference_check, harness._shares

        def recorded_shares(params, k):
            seen["params"] = params
            return make_shares(params, k)

        def flaky_in_workers(forward, params, step):
            if os.getpid() == parent:
                seen["before"] = [p.value.copy() for p in seen["params"]]
                return check(forward, params, step)
            calls = itertools.count()

            def flaky():
                out = dict(forward())
                if next(calls) == 1:
                    del out["orth"]
                return out

            return check(flaky, params, step)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_shares", recorded_shares)
        monkeypatch.setattr(ad, "finite_difference_check", flaky_in_workers)
        with pytest.raises(DeterminismError, match="terms"):
            harness.gradcheck(None, seed=3)
        assert len(seen["before"]) == 9
        for p, before in zip(seen["params"], seen["before"]):
            assert p.value.tobytes() == before.tobytes(), p.name
        assert multiprocessing.active_children() == []


def _fresh_python(code):
    """Standard output of ``code`` run by a fresh interpreter that imports
    this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def _second_run_faults(work: Path, call: str) -> int:
    """Minor page faults of the second of two desk runs (2 epochs) made by
    ``call`` in a fresh interpreter that has imported the CLI module."""
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2}))
    code = (
        "import contextlib, io, resource\n"
        "from pathlib import Path\n"
        "from dualora import cli, harness\n"
        "from dualora.errors import ConfigError\n"
        f"cfg, work = Path({str(cfg)!r}), Path({str(work)!r})\n"
        "faults = []\n"
        "for i in range(2):\n"
        "    out = work / f'run{i}'\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        {call}\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(faults[1])"
    )
    return int(_fresh_python(code))


class TestFreedHeap:
    """``cli.main`` keeps freed heap memory mapped on glibc; a library caller
    keeps glibc's defaults."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc allocator setting")
    def test_cli_run_refaults_far_less_than_a_library_run(self, tmp_path):
        (tmp_path / "cli").mkdir()
        (tmp_path / "lib").mkdir()
        cli_faults = _second_run_faults(
            tmp_path / "cli",
            "cli.main(['run', '--config', str(cfg), '--seed', '0', '--out', str(out)])",
        )
        lib_faults = _second_run_faults(
            tmp_path / "lib",
            "harness.run_experiment("
            "harness.read_json_object(cfg, ConfigError, 'config'), 0, out_dir=out)",
        )
        assert 10 * cli_faults <= lib_faults, (cli_faults, lib_faults)

    @pytest.mark.parametrize("libc", [("", ""), ("musl", "1.2")])
    def test_off_glibc_no_c_library_is_loaded(self, monkeypatch, libc):
        def refuse(*args, **kwargs):
            raise AssertionError("a C library was loaded")

        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: libc)
        monkeypatch.setattr(ctypes, "CDLL", refuse)
        cli._keep_freed_heap()


class TestCli:
    def test_import_leaves_multiprocessing_unloaded(self):
        # only ablate and gradcheck make a process pool, and they import it
        # when they make it; every command starts without it
        probe = (
            "import sys, dualora.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))))"
        )
        assert _fresh_python(probe) == "[]"

    def test_import_adds_no_package_but_numpy(self):
        # the package depends on numpy alone: past what the interpreter and
        # numpy load, importing the CLI brings in dualora and the standard
        # library only
        probe = (
            "import sys\n"
            "tops = lambda: {m.partition('.')[0] for m in sys.modules}\n"
            "import numpy\n"
            "before = tops()\n"
            "import dualora.cli\n"
            "print(sorted(tops() - before - set(sys.stdlib_module_names)))"
        )
        assert _fresh_python(probe) == "['dualora']"

    def test_module_entry_point_lists_every_command(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "dualora", "--help"], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        (commands,) = re.findall(r"\{([a-z,-]+)\}", out.stdout)[:1]
        assert commands.split(",") == ["gen-data", "run", "ablate", "gradcheck", "report"]

    def test_run_and_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        assert (out / "run_report.json").exists()
        assert cli_main(["report", str(out / "run_report.json")]) == 0
        text = capsys.readouterr().out
        assert "final" in text and "A_T" in text

    @pytest.mark.parametrize(
        "position_l, message",
        [(0, "task 2's prototypes are not finite: training diverged"),
         (1, "logits contains non-finite entries")],
    )
    def test_diverged_run_exits_2_and_writes_nothing(self, tmp_path, capsys, position_l, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST, "position_l": position_l, "learning_rate": 1e300}))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = cli_main(["run", "--config", str(cfg), "--seed", "0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"dualora run: {message}"]
        assert not out.exists()

    def test_gen_data(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out = tmp_path / "d.clld"
        assert cli_main(["gen-data", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
        from dualora import streams as st

        ds = st.load_dataset(out)
        assert ds.num_classes == FAST["num_classes"]

    def test_gen_data_onto_a_directory_exits_2_and_leaves_no_temp_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out = tmp_path / "taken"
        out.mkdir()
        assert cli_main(["gen-data", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("class_shuffle", [False, True])
    def test_gen_data_writes_the_dataset_a_run_of_its_seed_draws(self, tmp_path, class_shuffle):
        config, data = {**FAST, "class_shuffle": class_shuffle}, tmp_path / "d.clld"
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["gen-data", "--config", str(tmp_path / "cfg.json"), "--seed", "5"]
        assert cli_main([*argv, "--out", str(data)]) == 0
        reports, logs = [], []
        for name, overrides in (("drawn", {}), ("loaded", {"dataset_path": str(data)})):
            report = harness.run_experiment({**config, **overrides}, 5, out_dir=tmp_path / name)
            del report["config"]["dataset_path"]
            reports.append(without_timings(report))
            logs.append((tmp_path / name / "loss_log.jsonl").read_bytes())
        assert reports[0] == reports[1]
        assert logs[0] == logs[1]

    def test_gen_data_keeps_a_file_named_like_a_temp_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST))
        out, kept = tmp_path / "out.clld", tmp_path / "out.clld.tmp"
        kept.write_bytes(b"precious")
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert kept.read_bytes() == b"precious"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["cfg.json", "out.clld", "out.clld.tmp"]

    def test_written_file_has_the_mode_open_gives(self, tmp_path):
        mask = os.umask(0o027)
        try:
            harness.atomic_write(tmp_path / "a.json", "{}\n")
        finally:
            os.umask(mask)
        assert stat.S_IMODE((tmp_path / "a.json").stat().st_mode) == 0o666 & ~0o027

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

    def test_preset_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--preset", "paper"])
        assert exc.value.code == 2
        assert "--preset" in capsys.readouterr().err

    def test_report_without_accuracy_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"seed": 0}))
        assert cli_main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "accuracy",
        [
            {"per_task": [True, False], "average": True, "final": False},
            {"per_task": [], "average": 1.0, "final": 1.0},
        ],
        ids=["booleans", "no-tasks"],
    )
    def test_report_with_malformed_accuracy_exits_2(self, tmp_path, capsys, accuracy):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"seed": 0, "accuracy": accuracy}))
        with pytest.raises(FormatError, match="no run report accuracy record"):
            cli._load_report(path)
        assert cli_main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"params": []}, "params"),
            ({"params": {"total": 1, "backbone_ratio": "x"}}, "params"),
            ({"params": {"total": 1, "backbone_ratio": None}}, "params"),
            ({"params": {"total": True, "backbone_ratio": 0.1}}, "params"),
            ({"params": {"backbone_ratio": 0.1}}, "params"),
            ({"adapter_pass_count": 2.5}, "adapter_pass_count"),
            ({"adapter_pass_count": "4"}, "adapter_pass_count"),
        ],
        ids=["list", "ratio-string", "ratio-null", "total-bool", "no-total", "passes-float",
             "passes-string"],
    )
    def test_report_with_malformed_fields_exits_2(self, tmp_path, capsys, fields, message):
        path = tmp_path / "r.json"
        accuracy = {"per_task": [1.0], "average": 1.0, "final": 1.0}
        path.write_text(json.dumps({"seed": 0, "accuracy": accuracy, **fields}))
        with pytest.raises(FormatError, match=message):
            cli._load_report(path)
        assert cli_main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "fields, lines",
        [
            ({}, []),
            ({"adapter_pass_count": 6}, ["  adapter passes per query: 6"]),
            (
                {"params": {"total": 12, "backbone_ratio": 0.5}},
                ["  trainable params: 12 (50.000% of backbone)"],
            ),
        ],
        ids=["neither", "passes", "params"],
    )
    def test_report_prints_only_the_fields_it_holds(self, tmp_path, capsys, fields, lines):
        path = tmp_path / "r.json"
        accuracy = {"per_task": [1.0], "average": 1.0, "final": 1.0}
        path.write_text(json.dumps({"seed": 0, "accuracy": accuracy, **fields}))
        assert cli_main(["report", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[4:] == lines and "None" not in "".join(out)

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_file_of_a_json_array_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "f.json"
        path.write_text("[1, 2]")
        argv = ["run", "--config", str(path)] if command == "run" else ["report", str(path)]
        assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must hold a JSON object" in captured.err

    def test_ablate_without_axis_names_exits_2(self, tmp_path, capsys):
        assert cli_main(["ablate", "--axes", ",", "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--axes requires" in captured.err

    def test_negative_noise_with_a_dataset_file_exits_2(self, tmp_path, capsys):
        cfg, data, out = tmp_path / "cfg.json", tmp_path / "d.clld", tmp_path / "out"
        cfg.write_text(json.dumps(FAST))
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        cfg.write_text(json.dumps({**FAST, "dataset_path": str(data), "noise_std": -1}))
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "noise_std" in err
        assert not out.exists()

    def test_config_key_given_twice_exits_2(self, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text('{"kd": true, "kd": false}')
        with pytest.raises(ConfigError, match="'kd' twice"):
            harness.read_json_object(cfg, ConfigError, "config")
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'kd'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"seed": 0, "seed": 1, "accuracy": {ACC}}', "seed"),
            ('{"seed": 0, "accuracy": {"final": 0.5, ACC}}', "final"),
        ],
        ids=["top-level", "nested"],
    )
    def test_report_key_given_twice_exits_2(self, tmp_path, capsys, text, key):
        path = tmp_path / "r.json"
        path.write_text(text.replace("ACC", '"per_task": [1.0], "average": 1.0, "final": 1.0'))
        with pytest.raises(FormatError, match=f"'{key}' twice"):
            cli._load_report(path)
        assert cli_main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert f"'{key}'" in captured.err

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
            {"position_l": 0, "rank": 100},  # every block per-task: no shared adapter
            {"num_tasks": -1},
            {"num_tasks": 1e30},
            {"train_per_class": -1},
            {"test_per_class": -1},
            {"mlp_ratio": -1},
            {"mlp_ratio": 0},
            '{"noise_std": 1e400}',  # JSON reads an out-of-range number as infinity
            '{"learning_rate": -1e400}',
            {"mlp_ratio": 1e308},  # finite, but 1e308 * width is not
            {"attach_set": {"q": 1, "v": 0}},  # an object, not a string or list
            {"patch_side": 16},  # one patch per image
            *HUGE_SIZES,
            {"learning_rate": -1},
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

    @pytest.mark.parametrize(
        "overrides",
        [{"mlp_ratio": 1e308}, {"attach_set": {"q": 1, "v": 0}}],
        ids=["mlp_ratio-overflows", "attach_set-object"],
    )
    def test_gen_data_rejects_a_value_outside_the_schema(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        out = tmp_path / "d.clld"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert next(iter(overrides)) in captured.err
        assert not out.exists()

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
        bug_errors = {"GraphError", "DeterminismError", "ShapeError", "ProtocolError"}
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

    def test_gradcheck_cli_fails_on_a_nan_error(self, tmp_path, monkeypatch, capsys):
        # the overlap term's gradient turns NaN during the check only, after
        # the settle steps; a NaN error must fail, not fold away as 0.0
        check, orth, checking = ad.finite_difference_check, tr.orth_loss, []

        def checked(*args, **kwargs):
            checking.append(True)
            return check(*args, **kwargs)

        def nan_orth(mu, previous):
            out = orth(mu, previous)
            if not checking:
                return out
            return ad.node(out.value, (mu,), lambda g, needs: (np.full(mu.value.shape, np.nan),))

        monkeypatch.setattr(ad, "finite_difference_check", checked)
        monkeypatch.setattr(tr, "orth_loss", nan_orth)
        out = tmp_path / "grad.json"
        assert cli_main(["gradcheck", "--seed", "3", "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        assert np.isnan(data["terms"]["orth"]["max_rel_error"])
        assert np.isnan(data["terms"]["orth"]["per_group"]["block-weight"])
        assert np.isnan(data["max_rel_error"])
        assert "exceeds" in capsys.readouterr().err
