"""Experiment runner: config handling, metrics, sweeps, and reports.

A run is fully described by a flat JSON config plus a seed. Unknown config
keys are rejected outright; a silent typo in a sweep is worse than a loud
failure. Reports are written atomically (temp file, then rename) and are
byte-identical across repeated runs of the same (config, seed) apart from
the ``timings`` block.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import classifier as clf
from . import model as mdl
from . import streams
from . import trainer as tr
from .errors import ConfigError, DataError


def _defaults(cls) -> dict:
    """The field defaults of a config dataclass, as a JSON config writes them:
    a tuple of letters as one string, so ``("q", "v")`` is ``"qv"``."""
    return {
        f.name: "".join(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(cls)
    }


DESK_PRESET: dict = {
    **_defaults(bb.BackboneConfig),
    **_defaults(tr.TrainConfig),
    # data stream
    "num_classes": 10,
    "num_tasks": 5,
    "train_per_class": 20,
    "test_per_class": 10,
    "noise_std": 0.08,
    "class_shuffle": False,
    "dataset_path": None,
}

# Full-size layout for reference; nothing in the test suite runs it.
PAPER_PRESET: dict = {
    **DESK_PRESET,
    "num_blocks": 12,
    "width": 768,
    "heads": 12,
    "image_side": 224,
    "patch_side": 16,
    "channels": 3,
    "rank": 10,
    "position_l": 6,
    "num_classes": 100,
    "num_tasks": 20,
}

PRESETS = {"desk": DESK_PRESET, "paper": PAPER_PRESET}

def resolve_config(overrides: Mapping | None = None, preset: str = "desk") -> dict:
    """Merge overrides onto a preset, rejecting unknown keys."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
    cfg = dict(PRESETS[preset])
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(cfg))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    cfg.update(overrides)
    return cfg


def load_config_file(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror or e}") from e
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return raw


def _convert(key: str, value, kind: type):
    """``value`` converted to ``kind``, so ``"qv"`` becomes ``("q", "v")`` and
    ``3.0`` becomes ``3``. A number field takes only a number that it holds
    exactly and a boolean field only ``true``, ``false``, 0 or 1; anything
    else raises ConfigError rather than being read as something else
    (``bool("false")`` is true), and a float field only a finite number (JSON
    ``1e400`` parses as infinity). A key whose preset default is null takes a
    string or null."""
    if kind is type(None):
        if value is None or isinstance(value, str):
            return value
        raise ConfigError(f"config key {key!r} expects a string or null, got {value!r}")
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if kind is bool:
        exact = isinstance(value, numbers.Integral) and value in (0, 1)
    elif kind in (int, float):
        exact = isinstance(value, numbers.Real) and not isinstance(value, bool) and converted == value
        exact = exact and (kind is int or np.isfinite(converted))
    else:
        exact = converted is not None
    if not exact:
        raise ConfigError(f"config key {key!r} expects {kind.__name__}, got {value!r}")
    return converted


def _typed(cls, cfg: Mapping):
    """``cls`` from the ``cfg`` values of its fields, each converted to the type
    of the field's default."""
    return cls(**{f.name: _convert(f.name, cfg[f.name], type(f.default)) for f in fields(cls)})


def split_config(cfg: Mapping) -> tuple[bb.BackboneConfig, tr.TrainConfig, dict]:
    """Validate a resolved config into typed pieces: the fields of
    ``BackboneConfig`` and ``TrainConfig`` name their keys, and every other key
    belongs to the data stream, converted to the type of its preset default."""
    bcfg = _typed(bb.BackboneConfig, cfg)
    tcfg = _typed(tr.TrainConfig, cfg)
    if tcfg.position_l > bcfg.num_blocks:
        raise ConfigError(
            f"position_l ({tcfg.position_l}) exceeds num_blocks ({bcfg.num_blocks})"
        )
    typed = {f.name for part in (bcfg, tcfg) for f in fields(part)}
    scfg = {
        k: _convert(k, v, type(DESK_PRESET[k])) for k, v in cfg.items() if k not in typed
    }
    for key in ("num_tasks", "train_per_class", "test_per_class"):
        if scfg[key] < 1:
            raise ConfigError(f"config key {key!r} must be >= 1, got {scfg[key]}")
    if scfg["num_tasks"] > scfg["num_classes"]:
        raise ConfigError(
            f"num_tasks ({scfg['num_tasks']}) exceeds num_classes ({scfg['num_classes']})"
        )
    return bcfg, tcfg, scfg


def synthetic_dataset(bcfg: bb.BackboneConfig, scfg: Mapping, rng) -> streams.Dataset:
    """The synthetic dataset a config's stream keys describe, drawn from ``rng``."""
    return streams.gen_synthetic(
        scfg["num_classes"],
        scfg["train_per_class"],
        scfg["test_per_class"],
        bcfg.image_side,
        bcfg.channels,
        scfg["noise_std"],
        rng,
    )


def atomic_write(path, data: str | bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as f:
        f.write(data)
    os.replace(tmp, path)


@dataclass
class AccuracyRecord:
    per_task: list[float]

    @property
    def average(self) -> float:
        return float(np.mean(self.per_task))

    @property
    def final(self) -> float:
        return self.per_task[-1]


@dataclass
class RunReport:
    config: dict
    seed: int
    accuracy: AccuracyRecord
    param_counts: dict
    adapter_pass_count: int
    epoch_log: list[dict]
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "accuracy": {
                "per_task": self.accuracy.per_task,
                "average": self.accuracy.average,
                "final": self.accuracy.final,
            },
            "params": self.param_counts,
            "adapter_pass_count": self.adapter_pass_count,
            "loss_log": "loss_log.jsonl",
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _spawn_generators(seed: int, num_tasks: int):
    root = np.random.SeedSequence(seed)
    s_data, s_backbone, s_model, s_train = root.spawn(4)
    task_seqs = s_train.spawn(num_tasks)
    gen = lambda s: np.random.Generator(np.random.PCG64(s))
    return gen(s_data), gen(s_backbone), gen(s_model), [gen(s) for s in task_seqs]


def build_run(cfg: Mapping, seed: int):
    """The training config, data stream, model and per-task generators of a
    resolved config and seed.

    Every seeded run starts here, so a config key means the same thing to
    :func:`run_experiment` and :func:`gradcheck`.
    """
    bcfg, tcfg, scfg = split_config(cfg)
    rng_data, rng_backbone, rng_model, task_rngs = _spawn_generators(seed, scfg["num_tasks"])
    if scfg["dataset_path"] is not None:
        dataset = streams.load_dataset(scfg["dataset_path"])
        for attr, key, want in (
            ("num_classes", "num_classes", scfg["num_classes"]),
            ("train_per_class", "train_per_class", scfg["train_per_class"]),
            ("test_per_class", "test_per_class", scfg["test_per_class"]),
            ("channels", "channels", bcfg.channels),
            ("height", "image_side", bcfg.image_side),
            ("width", "image_side", bcfg.image_side),
        ):
            got = getattr(dataset, attr)
            if got != want:
                raise DataError(
                    f"dataset file {scfg['dataset_path']} has {attr} {got}, "
                    f"but the config's {key!r} is {want}"
                )
    else:
        dataset = synthetic_dataset(bcfg, scfg, rng_data)
    stream = streams.split_tasks(
        dataset,
        scfg["num_tasks"],
        class_order_rng=rng_data if scfg["class_shuffle"] else None,
    )
    model = mdl.build_model(
        bb.init_backbone(bcfg, rng_backbone),
        tcfg.position_l,
        tcfg.rank,
        rng_model,
        flip_positions=tcfg.flip_positions,
        fixed_down=tcfg.fix_b,
        shared_down_init=tcfg.shared_down_init,
    )
    return tcfg, stream, model, task_rngs


def run_experiment(
    config: Mapping | None,
    seed: int,
    out_dir=None,
    *,
    preset: str = "desk",
) -> RunReport:
    """Train the full task sequence and evaluate after every task.

    Accuracy after task t is measured over the union of test sets of tasks
    1..t. Writes the report JSON and the per-epoch loss log (JSON lines)
    into ``out_dir`` when given.
    """
    cfg = resolve_config(config, preset)
    started = time.perf_counter()
    tcfg, stream, model, task_rngs = build_run(cfg, seed)
    store = clf.PrototypeStore()

    per_task_acc: list[float] = []
    epoch_log: list[dict] = []
    task_times: list[float] = []
    for task, rng_task in zip(stream.tasks, task_rngs):
        result = tr.train_task(model, store, task, tcfg, rng_task)
        epoch_log.extend(result.epoch_log)
        task_times.append(result.duration_s)
        seen = stream.tasks[: task.task_id]
        images = np.concatenate([t.test_images for t in seen])
        labels = np.concatenate([t.test_labels for t in seen])
        per_task_acc.append(clf.evaluate(model, store, images, labels))

    report = RunReport(
        config=cfg,
        seed=seed,
        accuracy=AccuracyRecord(per_task=per_task_acc),
        param_counts=mdl.param_counts(model),
        adapter_pass_count=clf.adapter_pass_count(
            model.shared_prefix, model.num_blocks, len(stream.tasks)
        ),
        epoch_log=epoch_log,
        timings={
            "total_s": time.perf_counter() - started,
            "per_task_s": task_times,
        },
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = "".join(json.dumps(e, sort_keys=True) + "\n" for e in epoch_log)
        atomic_write(out_dir / "loss_log.jsonl", lines)
        atomic_write(out_dir / "run_report.json", report.to_json())
    return report


# ---------------------------------------------------------------------------
# ablation sweeps
# ---------------------------------------------------------------------------

# axis name -> (config key, default value list); position and rank defaults
# depend on the base config and are resolved per sweep
ABLATION_AXES = {
    "kd": ("kd", [True, False]),
    "gr": ("gr", [True, False]),
    "bw": ("bw", [True, False]),
    "l-sweep": ("position_l", None),
    "fixB": ("fix_b", [True, False]),
    "flip": ("flip_positions", [False, True]),
    "rank": ("rank", [1, 2, 4]),
    "attach": ("attach_set", ["v", "qv", "kv", "qkv"]),
    "bs-init": ("shared_down_init", ["orthogonal", "random"]),
}


def run_ablation(
    config: Mapping | None,
    axes: Sequence[str] | Mapping[str, list],
    seeds: Sequence[int],
    out_dir=None,
    *,
    preset: str = "desk",
) -> tuple[list[RunReport], str]:
    """Cross-product sweep over the requested axes at fixed seeds.

    Every (combination, seed) run is one job of a fork-based process pool with
    one worker per usable CPU, at most one per job. Each worker writes its own
    run directory; reports come back in job order, so the summary does not
    depend on the pool. A sweep without runs, or with two runs of the same
    name (and so the same directory), raises ConfigError before any worker
    starts.

    Returns the reports and the summary CSV text (one row per combination per
    seed: axis columns, seed, A_T, A_bar, params_pct, pass_count).
    """
    base = resolve_config(config, preset)
    if isinstance(axes, Mapping):
        requested = {str(k): list(v) for k, v in axes.items()}
    else:
        requested = {str(k): None for k in axes}
    unknown = sorted(set(requested) - set(ABLATION_AXES))
    if unknown:
        raise ConfigError(f"unknown ablation axes: {unknown}")
    if not requested:
        raise ConfigError("no ablation axes requested")

    axis_names = list(requested)
    axis_values: list[list] = []
    for name in axis_names:
        values = requested[name]
        if values is None:
            _, values = ABLATION_AXES[name]
            if name == "l-sweep":
                n = int(base["num_blocks"])
                values = [0, n // 2, n]
        axis_values.append(list(values))

    combos: list[tuple] = [()]
    for values in axis_values:
        combos = [c + (v,) for c in combos for v in values]

    jobs: list[tuple[dict, int, Path | None]] = []
    rows: list[dict] = []
    names: list[str] = []
    for combo in combos:
        overrides = dict(base)
        for name, value in zip(axis_names, combo):
            overrides[ABLATION_AXES[name][0]] = value
        tag = "_".join(f"{n}={v}" for n, v in zip(axis_names, combo))
        for seed in seeds:
            names.append(f"{tag}_seed{seed}".replace("/", "-"))
            run_dir = None if out_dir is None else Path(out_dir) / names[-1]
            jobs.append((overrides, seed, run_dir))
            rows.append({**dict(zip(axis_names, combo)), "seed": seed})
    if not jobs:
        raise ConfigError("the ablation has no runs: give at least one seed and one value per axis")
    repeated = sorted(n for n, count in Counter(names).items() if count > 1)
    if repeated:
        raise ConfigError(f"the ablation repeats runs {repeated}; give each value and seed once")

    # Imported here, so that commands without a sweep do not load multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers inherit the parent's imported modules, so one starts in
    # milliseconds where a spawned worker would import numpy and dualora again.
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        reports = list(pool.map(run_experiment, *zip(*jobs)))
    for row, report in zip(rows, reports):
        row.update(
            {
                "A_T": report.accuracy.final,
                "A_bar": report.accuracy.average,
                "params_pct": 100.0 * report.param_counts["backbone_ratio"],
                "pass_count": report.adapter_pass_count,
            }
        )

    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=axis_names + ["seed", "A_T", "A_bar", "params_pct", "pass_count"]
    )
    writer.writeheader()
    writer.writerows(rows)
    summary = buf.getvalue()
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        atomic_write(Path(out_dir) / "summary.csv", summary)
    return reports, summary


# ---------------------------------------------------------------------------
# gradient verification entry point
# ---------------------------------------------------------------------------

GRADCHECK_PRESET: dict = {
    "num_blocks": 2,
    "width": 16,
    "heads": 2,
    "image_side": 8,
    "patch_side": 4,
    "rank": 2,
    "position_l": 1,
    "num_classes": 4,
    "num_tasks": 2,
    "train_per_class": 4,
    "test_per_class": 2,
    "epochs": 2,
    "batch_size": 4,
}

# optimizer steps taken on the checked task before the check, so the
# distillation term is away from its stationary initialization
GRADCHECK_SETTLE_STEPS = 5


def gradcheck(
    config: Mapping | None,
    seed: int,
    *,
    step: float = 3e-4,
    preset: str = "desk",
) -> dict:
    """Verify analytic gradients of every active loss term on a micro run.

    Trains the first task, enters the second, takes a few optimizer steps so
    the distillation term is away from its stationary initialization, then
    compares every trainable scalar against central finite differences. The
    distillation target is pinned at the linearization point, matching its
    constant-target semantics.
    """
    cfg = resolve_config({**GRADCHECK_PRESET, **(config or {})}, preset)
    tcfg, stream, model, task_rngs = build_run(cfg, seed)
    store = clf.PrototypeStore()
    check_task_idx = 1 if len(stream.tasks) > 1 else 0
    for task, rng_task in zip(stream.tasks[:check_task_idx], task_rngs[:check_task_idx]):
        tr.train_task(model, store, task, tcfg, rng_task)

    task = stream.tasks[check_task_idx]
    session = tr.TaskSession(model, task, tcfg, task_rngs[check_task_idx])
    rows = np.arange(min(tcfg.batch_size, task.num_train))
    optimizer = tr.make_optimizer(tcfg)
    for _ in range(GRADCHECK_SETTLE_STEPS):
        session.step(rows, optimizer)

    pinned = None
    if session.kd_active:
        pinned = tr.kd_target(session.head, session.teacher_cls[rows], tcfg.temperature)

    tag_of = {p.name: p.tag for p in session.params}
    reports = ad.finite_difference_check(
        lambda: session.losses(rows, pinned_kd_target=pinned), session.params, step
    )
    terms: dict[str, dict] = {}
    overall = 0.0
    for term, rep in reports.items():
        per_group: dict[str, float] = {}
        for name, err in rep.per_param.items():
            tag = tag_of[name]
            per_group[tag] = max(per_group.get(tag, 0.0), err)
        terms[term] = {
            "max_rel_error": rep.max_rel_error,
            "num_checked": rep.num_checked,
            "per_group": per_group,
        }
        overall = max(overall, rep.max_rel_error)
    return {
        "seed": seed,
        "step": step,
        "task_checked": task.task_id,
        "terms_checked": sorted(terms),
        "max_rel_error": overall,
        "terms": terms,
    }
