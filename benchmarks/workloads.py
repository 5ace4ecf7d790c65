"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``prepare``, runs
one closed-loop operation in ``operate`` (one client, the next operation
starts when the last completes) and checks that operation's output in
``check``. Only ``operate`` is timed. Program functions are looked up through
their modules at call time, so the tracer's wrappers see every call.

The README next to this file says why each workload is here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from dualora import adapters, autodiff, backbone, classifier, cli, harness, model, streams, trainer

PKG = SimpleNamespace(
    adapters=adapters,
    autodiff=autodiff,
    backbone=backbone,
    classifier=classifier,
    cli=cli,
    harness=harness,
    model=model,
    streams=streams,
    trainer=trainer,
)


class Workload:
    """``prepare`` is timed as set-up; ``reference`` runs once after it,
    untimed; ``named`` gives the workload's own figures by their names."""

    name = ""
    alias = ""  # name of the median operation time for this workload

    def reference(self) -> None:
        pass

    def named(self, op_s: list[float]) -> dict:
        return {}


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class DeskRun(Workload):
    """``dualora run`` with the desk preset, in process, into a fresh directory."""

    name = "desk_run"
    alias = "run_s"

    def prepare(self, seed: int, work: Path) -> None:
        self.work = work
        self.argv = ["run", "--seed", str(seed)]
        self.first: str | None = None
        self.final_acc: list[float] = []

    def inputs(self) -> dict:
        return {"argv": self.argv + ["--out", "<dir>"]}

    def operate(self, i: int):
        out = self.work / f"run{i}"
        code = _quiet_cli(self.argv + ["--out", str(out)])
        return code, out

    def check(self, result) -> list[str]:
        code, out = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
        report.pop("timings")
        cfg = report["config"]
        l, n, t = cfg["position_l"], cfg["num_blocks"], cfg["num_tasks"]
        if report["adapter_pass_count"] != l + (n - l) * t:
            problems.append(f"adapter_pass_count {report['adapter_pass_count']}")
        lines = (out / "loss_log.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != cfg["epochs"] * t:
            problems.append(f"loss log has {len(lines)} lines")
        text = json.dumps(report, sort_keys=True)
        if self.first is None:
            self.first = text
        elif text != self.first:
            problems.append("run_report.json differs from the first repeat's")
        self.final_acc.append(report["accuracy"]["final"])
        shutil.rmtree(out)
        return problems

    def named(self, op_s: list[float]) -> dict:
        return {"final_acc": (float(np.mean(self.final_acc)), "1")}


# 8 tasks of 2 classes with 16 test images each: 256 queries in the union.
QUERY_STREAM_CONFIG = {
    "num_classes": 16,
    "num_tasks": 8,
    "train_per_class": 10,
    "test_per_class": 16,
    "epochs": 2,
}
QUERY_BATCH = 32


class QueryStream(Workload):
    """Batches of queries to ``classifier.evaluate`` on an 8-task model trained
    in set-up; the timed part is inference only."""

    name = "query_stream"
    alias = "eval_batch_ms"

    def prepare(self, seed: int, work: Path) -> None:
        cfg = harness.resolve_config(QUERY_STREAM_CONFIG)
        bcfg, tcfg, scfg = harness.split_config(cfg)
        root = np.random.SeedSequence(seed)
        s_data, s_backbone, s_model, s_train, s_queries = root.spawn(5)
        gen = lambda s: np.random.Generator(np.random.PCG64(s))
        dataset = streams.gen_synthetic(
            scfg["num_classes"],
            scfg["train_per_class"],
            scfg["test_per_class"],
            bcfg.image_side,
            bcfg.channels,
            scfg["noise_std"],
            gen(s_data),
        )
        stream = streams.split_tasks(dataset, scfg["num_tasks"])
        net = model.build_model(
            backbone.init_backbone(bcfg, gen(s_backbone)),
            tcfg.position_l,
            tcfg.rank,
            gen(s_model),
            fixed_down=tcfg.fix_b,
            shared_down_init=tcfg.shared_down_init,
        )
        store = classifier.PrototypeStore()
        for task, s_task in zip(stream.tasks, s_train.spawn(scfg["num_tasks"])):
            trainer.train_task(net, store, task, tcfg, gen(s_task))
        images = np.concatenate([t.test_images for t in stream.tasks])
        labels = np.concatenate([t.test_labels for t in stream.tasks])
        order = gen(s_queries).permutation(len(labels))
        self.batches = [
            (images[order[i : i + QUERY_BATCH]], labels[order[i : i + QUERY_BATCH]])
            for i in range(0, len(order), QUERY_BATCH)
        ]
        self.model, self.store = net, store
        self.expected: list[float] | None = None
        self.acc: list[float] = []

    def reference(self) -> None:
        """Per-batch accuracy from per-image ``classifier.predict``, the
        path acceptance test 08 pins; computed once, outside set-up time."""
        self.expected = [
            sum(
                classifier.predict(self.model, self.store, img).class_id == int(y)
                for img, y in zip(images, labels)
            )
            / images.shape[0]
            for images, labels in self.batches
        ]

    def inputs(self) -> dict:
        return {
            "config": QUERY_STREAM_CONFIG,
            "batches": len(self.batches),
            "batch_size": QUERY_BATCH,
        }

    def operate(self, i: int):
        b = i % len(self.batches)
        images, labels = self.batches[b]
        return b, classifier.evaluate(self.model, self.store, images, labels)

    def check(self, result) -> list[str]:
        b, acc = result
        self.acc.append(acc)
        if acc != self.expected[b]:
            return [f"batch {b} accuracy {acc!r}, per-image reference {self.expected[b]!r}"]
        return []

    def named(self, op_s: list[float]) -> dict:
        ms = sorted(1000.0 * s for s in op_s)
        out = {"eval_queries_per_s": (QUERY_BATCH * len(ms) / (sum(ms) / 1000.0), "1/s")}
        if len(ms) >= 11:
            # the highest percentile with at least ten samples beyond it
            pct = 100.0 * (len(ms) - 10) / len(ms)
            out["eval_batch_ms_tail"] = (ms[-11], "ms")
            out["eval_batch_ms_tail_pct"] = (pct, "%")
        out["eval_batch_samples"] = (len(ms), "count")
        out["batch_acc"] = (float(np.mean(self.acc)), "1")
        return out


# At the package default step of 1e-5, rounding sets the largest relative
# error on about a third of seeds and it exceeds the tolerance; 3e-4 is where
# the error is least (README, "Gradcheck step"). The cost does not depend on it.
GRADCHECK_STEP = 3e-4
GRADCHECK_TOLERANCE = 1e-4


class Gradcheck(Workload):
    """``harness.gradcheck`` on its micro preset: many tiny forwards."""

    name = "gradcheck"
    alias = "gradcheck_s"

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed

    def inputs(self) -> dict:
        return {"config": None, "seed": self.seed, "step": GRADCHECK_STEP}

    def operate(self, i: int):
        return harness.gradcheck(None, self.seed, step=GRADCHECK_STEP)

    def check(self, report) -> list[str]:
        problems = []
        if report["terms_checked"] != ["ce", "kd", "orth"]:
            problems.append(f"terms_checked {report['terms_checked']}")
        for term, info in report["terms"].items():
            if not info["max_rel_error"] <= GRADCHECK_TOLERANCE:
                problems.append(f"{term} max_rel_error {info['max_rel_error']:.3e}")
            if info["num_checked"] <= 0:
                problems.append(f"{term} checked no scalars")
        return problems


NOISY_SWEEP_CONFIG = {
    "noise_std": 0.6,
    "train_per_class": 8,
    "test_per_class": 10,
    "epochs": 4,
}


class NoisySweep(Workload):
    """``dualora ablate --axes l-sweep`` on a noisy stream: l = 0, 2, 4."""

    name = "noisy_sweep"
    alias = "sweep_s"
    pass_counts = ["20", "12", "4"]

    def prepare(self, seed: int, work: Path) -> None:
        self.work = work
        config = work / "noisy_sweep.json"
        config.write_text(json.dumps(NOISY_SWEEP_CONFIG), encoding="utf-8")
        self.argv = ["ablate", "--axes", "l-sweep", "--config", str(config), "--seed", str(seed)]
        self.first: bytes | None = None
        self.final_acc: list[float] = []

    def inputs(self) -> dict:
        return {"argv": self.argv + ["--out", "<dir>"], "config": NOISY_SWEEP_CONFIG}

    def operate(self, i: int):
        out = self.work / f"sweep{i}"
        return _quiet_cli(self.argv + ["--out", str(out)]), out

    def check(self, result) -> list[str]:
        code, out = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        summary = (out / "summary.csv").read_bytes()
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            problems.append("summary.csv differs from the first repeat's")
        rows = list(csv.DictReader(io.StringIO(summary.decode("utf-8"))))
        passes = [r["pass_count"] for r in rows]
        if passes != self.pass_counts:
            problems.append(f"pass counts {passes}")
        self.final_acc.append(float(np.mean([float(r["A_T"]) for r in rows])))
        shutil.rmtree(out)
        return problems

    def named(self, op_s: list[float]) -> dict:
        return {"final_acc": (float(np.mean(self.final_acc)), "1")}


WORKLOADS = {w.name: w for w in (DeskRun, QueryStream, Gradcheck, NoisySweep)}
