"""Experiment runner: config handling, metrics, sweeps, and reports.

A run is fully described by a flat JSON config plus a seed. Unknown config
keys are rejected outright; a silent typo in a sweep is worse than a loud
failure. Reports are written atomically (temp file, then rename) and are
byte-identical across repeated runs of the same (config, seed) apart from
the ``timings`` block.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import classifier as clf
from . import model as mdl
from . import streams
from . import trainer as tr
from .errors import ConfigError, DataError, InputError
from .numerics import make_rng


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

# the most pixels a dataset may hold (4 GiB as float32; README's full-size layout has 452M)
MAX_DATASET_PIXELS = 2**30


def resolve_config(overrides: Mapping | None = None) -> dict:
    """Merge overrides onto the desk defaults, rejecting unknown keys."""
    cfg = dict(DESK_PRESET)
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(cfg))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    cfg.update(overrides)
    return cfg


def read_json_object(path, error: type[InputError], kind: str) -> dict:
    """The JSON object in the ``kind`` file at ``path``; ``error`` when the file
    cannot be read, is not JSON, repeats a key in one object at any depth
    (``json`` would keep the last) or holds something other than an object."""
    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{kind} file {path} gives key {key!r} twice in one object")
            obj[key] = value
        return obj

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except OSError as e:
        raise error(f"cannot read {kind} file {path}: {e.strerror or e}") from e
    except InputError:  # a repeated key, raised by unique_keys
        raise
    except ValueError as e:  # not UTF-8, or not JSON
        raise error(f"{kind} file {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise error(f"{kind} file {path} must hold a JSON object")
    return data


def _convert(key: str, value, kind: type):
    """``value`` converted to ``kind``, so ``"qv"`` becomes ``("q", "v")`` and
    ``3.0`` becomes ``3``. A number field takes only a number that it holds
    exactly and a boolean field only ``true``, ``false``, 0 or 1; anything
    else raises ConfigError rather than being read as something else
    (``bool("false")`` is true). A number must also be finite as a float (JSON
    ``1e400`` parses as infinity). A string field takes a string, a tuple field
    a string or a list of strings (not an object, whose keys ``tuple`` would
    read), and a key whose default is null a string or null."""
    if kind is type(None):
        if value is None or isinstance(value, str):
            return value
        raise ConfigError(f"config key {key!r} expects a string or null, got {value!r}")
    try:
        converted = kind(value)
        finite = kind not in (int, float) or math.isfinite(converted)
    except (TypeError, ValueError, OverflowError):
        converted, finite = None, False
    if kind is bool:
        exact = isinstance(value, numbers.Integral) and value in (0, 1)
    elif kind in (int, float):
        exact = isinstance(value, numbers.Real) and not isinstance(value, bool)
        exact = exact and finite and converted == value
    else:
        items = value if kind is tuple and isinstance(value, list) else [value]
        exact = all(isinstance(v, str) for v in items)
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
    belongs to the data stream, converted to the type of its default."""
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
    for key, least in (("num_tasks", 1), ("train_per_class", 1), ("test_per_class", 1),
                       ("noise_std", 0)):
        if scfg[key] < least:
            raise ConfigError(f"config key {key!r} must be >= {least}, got {scfg[key]}")
    if scfg["num_tasks"] > scfg["num_classes"]:
        raise ConfigError(
            f"num_tasks ({scfg['num_tasks']}) exceeds num_classes ({scfg['num_classes']})"
        )
    images = scfg["num_classes"] * (scfg["train_per_class"] + scfg["test_per_class"])
    if images * bcfg.channels * bcfg.image_side**2 > MAX_DATASET_PIXELS:
        raise ConfigError(f"the dataset's images would hold over {MAX_DATASET_PIXELS} pixels")
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
    with streams.replacing(path) as f:
        f.write(data if isinstance(data, bytes) else data.encode())


def seeded_generators(seed: int, num_tasks: int):
    """A run's generators, from the children of ``SeedSequence(seed)`` in
    order: data, backbone, model, one per task (spawned from the fourth) and
    the class order. ``gen-data`` draws from the same data generator."""
    s_data, s_backbone, s_model, s_train, s_order = np.random.SeedSequence(seed).spawn(5)
    task_rngs = [make_rng(s) for s in s_train.spawn(num_tasks)]
    return make_rng(s_data), make_rng(s_backbone), make_rng(s_model), task_rngs, make_rng(s_order)


def build_run(cfg: Mapping, seed: int):
    """The training config, data stream, model and per-task generators of a
    resolved config and seed.

    Every seeded run starts here, so a config key means the same thing to
    :func:`run_experiment` and :func:`gradcheck`.
    """
    bcfg, tcfg, scfg = split_config(cfg)
    rng_data, rng_backbone, rng_model, task_rngs, rng_order = seeded_generators(
        seed, scfg["num_tasks"]
    )
    if scfg["dataset_path"] is not None:
        dataset = streams.load_dataset(scfg["dataset_path"])
        side = bcfg.image_side
        config = {**scfg, "channels": bcfg.channels, "height": side, "width": side}
        for attr in streams.HEADER_FIELDS:
            got, want = getattr(dataset, attr), config[attr]
            if got != want:
                key = "image_side" if attr in ("height", "width") else attr
                raise DataError(
                    f"dataset file {scfg['dataset_path']} has {attr} {got}, "
                    f"but the config's {key!r} is {want}"
                )
    else:
        dataset = synthetic_dataset(bcfg, scfg, rng_data)
    stream = streams.split_tasks(
        dataset,
        scfg["num_tasks"],
        class_order_rng=rng_order if scfg["class_shuffle"] else None,
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


def _extend_features(model: mdl.ContinualModel, kept: list[np.ndarray], new_set, union) -> None:
    """Extend ``kept``, task j's features of the test sets seen before task t
    at j - 1, to ``union``, the seen test sets through task t's ``new_set``.

    With no shared-role block, a finished task's features of an image never
    change, so tasks 1..t-1 run on the new set alone and task t on the union:
    N * (n_union + (t - 1) * n_new) block applications, against the
    N * t * n_union of scoring the union anew. The rows are bit for bit those
    :func:`classifier.task_features` gives for the union.
    """
    older = clf.task_features(model, new_set, model.tasks[:-1])
    kept[:] = [np.concatenate([feats, more]) for feats, more in zip(kept, older)]
    kept.extend(clf.task_features(model, union, model.tasks[-1:]))


def run_experiment(config: Mapping | None, seed: int, out_dir=None) -> dict:
    """Train the full task sequence and evaluate after every task.

    Accuracy after task t is measured over the union of test sets of tasks
    1..t; a model with no shared-role block keeps each task's features of the
    seen test sets (:func:`_extend_features`). Returns the report as the dict
    ``run_report.json`` holds, and writes that file and the per-epoch loss log
    (JSON lines) into ``out_dir`` when given.
    """
    cfg = resolve_config(config)
    started = time.perf_counter()
    tcfg, stream, model, task_rngs = build_run(cfg, seed)
    store = clf.PrototypeStore()

    per_task_acc: list[float] = []
    epoch_log: list[dict] = []
    task_times: list[float] = []
    kept: list[np.ndarray] = []  # see _extend_features
    for task, rng_task in zip(stream.tasks, task_rngs):
        task_started = time.perf_counter()
        epoch_log.extend(tr.train_task(model, store, task, tcfg, rng_task))
        task_times.append(time.perf_counter() - task_started)
        seen = stream.tasks[: task.task_id]
        images = np.concatenate([t.test_images for t in seen])
        labels = np.concatenate([t.test_labels for t in seen])
        if model.shared_blocks:
            per_task_acc.append(clf.evaluate(model, store, images, labels))
        else:
            _extend_features(model, kept, task.test_images, images)
            per_task_acc.append(clf.accuracy(*clf.score_features(store, kept), labels))

    report = {
        "config": cfg,
        "seed": seed,
        "accuracy": {
            "per_task": per_task_acc,
            "average": float(np.mean(per_task_acc)),
            "final": per_task_acc[-1],
        },
        "params": mdl.param_counts(model),
        "adapter_pass_count": clf.adapter_pass_count(
            model.shared_prefix, model.num_blocks, len(stream.tasks)
        ),
        "loss_log": "loss_log.jsonl",
        "timings": {
            "total_s": time.perf_counter() - started,
            "per_task_s": task_times,
        },
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = "".join(json.dumps(e, sort_keys=True) + "\n" for e in epoch_log)
        atomic_write(out_dir / "loss_log.jsonl", lines)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        atomic_write(out_dir / "run_report.json", text)
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


def _openblas(name: str):
    """OpenBLAS's ``name`` function (``"set_num_threads"``, ``"get_num_threads"``)
    from the library this process has loaded, or None when none is found."""
    import ctypes

    signatures = {"set_num_threads": ([ctypes.c_int], None), "get_num_threads": ([], ctypes.c_int)}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            # the path is the whole sixth field: it may hold spaces
            paths = sorted(
                {line.split(maxsplit=5)[5].strip() for line in f if "openblas" in line.lower()}
            )
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was deleted
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = signatures[name]
                return fn
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (Linux), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_blas_thread() -> None:
    """Pool initializer: the pool's workers already fill the usable CPUs, so
    each worker's BLAS takes one thread, not one per core."""
    set_threads = _openblas("set_num_threads")
    if set_threads is not None:
        set_threads(1)


def _fork_pool(workers: int):
    """A pool of ``workers`` forked workers with one BLAS thread each. A forked
    worker inherits the parent's modules and state, so it starts in
    milliseconds where a spawned one would import numpy and dualora again.
    Imported here, so that commands without a pool do not load multiprocessing."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_one_blas_thread
    )


def run_ablation(
    config: Mapping | None,
    axes: Sequence[str] | Mapping[str, list],
    seeds: Sequence[int],
    out_dir=None,
) -> tuple[list[dict], str]:
    """Cross-product sweep over the requested axes at fixed seeds.

    Every (combination, seed) run is one job of a fork-based process pool with
    one worker per usable CPU, at most one per job, and one BLAS thread per
    worker. Each worker writes its own run directory; reports come back in
    job order, so the summary does not depend on the pool. A sweep without
    runs, or with two runs of the same name (and so the same directory),
    raises ConfigError before any worker starts.

    Returns the reports and the summary CSV text (one row per combination per
    seed: axis columns, seed, A_T, A_bar, params_pct, pass_count).
    """
    base = resolve_config(config)
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
                values = list(dict.fromkeys([0, n // 2, n]))  # [0, 1] when n is 1
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

    with _fork_pool(min(len(jobs), _usable_cpus())) as pool:
        reports = list(pool.map(run_experiment, *zip(*jobs)))
    for row, report in zip(rows, reports):
        row.update(
            {
                "A_T": report["accuracy"]["final"],
                "A_bar": report["accuracy"]["average"],
                "params_pct": 100.0 * report["params"]["backbone_ratio"],
                "pass_count": report["adapter_pass_count"],
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


# the running gradcheck's closure, shares and step, inherited by its forked workers
_checking: tuple | None = None


def _check_share(i: int) -> dict:
    """Pool job: the finite-difference check of the running gradcheck's share ``i``."""
    forward, shares, step = _checking
    return ad.finite_difference_check(forward, shares[i], step)


def _shares(params: list, k: int) -> list[list]:
    """``params`` in ``k`` shares balanced by scalar count, largest first onto the lightest."""
    shares, loads = [[] for _ in range(k)], [0] * k
    for p in sorted(params, key=lambda p: p.size, reverse=True):
        i = loads.index(min(loads))
        shares[i].append(p)
        loads[i] += p.size
    return shares


def gradcheck(config: Mapping | None, seed: int, *, step: float = 3e-4) -> dict:
    """Verify analytic gradients of every active loss term on a micro run.

    Trains the first task, enters the second, takes a few optimizer steps so
    the distillation term is away from its stationary initialization, then
    compares every trainable scalar against central finite differences. The
    distillation target is pinned at the linearization point, matching its
    constant-target semantics.

    This process checks share 0 of the trainable parameters (:func:`_shares`,
    one per usable CPU) and a worker forked from the settled session each
    other share, so the report does not depend on the CPU count.
    """
    cfg = resolve_config({**GRADCHECK_PRESET, **(config or {})})
    tcfg, stream, model, task_rngs = build_run(cfg, seed)
    store = clf.PrototypeStore()
    check_task_idx = 1 if len(stream.tasks) > 1 else 0
    for task, rng_task in zip(stream.tasks[:check_task_idx], task_rngs[:check_task_idx]):
        tr.train_task(model, store, task, tcfg, rng_task)

    task = stream.tasks[check_task_idx]
    session = tr.TaskSession(model, task, tcfg, task_rngs[check_task_idx])
    rows = np.arange(min(tcfg.batch_size, task.num_train))
    for _ in range(GRADCHECK_SETTLE_STEPS):
        session.step(rows)

    pinned = None
    if session.kd_active:
        pinned = tr.kd_target(session.head, session.teacher_cls[rows], tcfg.temperature)

    trainable = [p for p in session.params if p.trainable]
    shares = _shares(trainable, min(_usable_cpus(), len(trainable)))
    global _checking
    _checking = (lambda: session.losses(rows, pinned_kd_target=pinned), shares, step)
    try:
        # the workers fork at the first submit, before share 0 is perturbed
        with _fork_pool(len(shares) - 1) if len(shares) > 1 else contextlib.nullcontext() as pool:
            futures = [pool.submit(_check_share, i) for i in range(1, len(shares))]
            results = [_check_share(0), *(f.result() for f in futures)]
    finally:
        _checking = None
    found = {(t, name): e for r in results for t, errs in r.items() for name, e in errs.items()}
    num_checked = sum(p.size for p in trainable)
    terms: dict[str, dict] = {}
    overall = 0.0
    for term in results[0]:
        per_group: dict[str, float] = {}
        for p in trainable:  # in session.params order, whatever share checked it
            # np.maximum keeps a NaN error, which max(0.0, nan) would drop
            per_group[p.tag] = float(np.maximum(per_group.get(p.tag, 0.0), found[term, p.name]))
        worst = float(np.max([0.0, *per_group.values()]))
        terms[term] = {"max_rel_error": worst, "num_checked": num_checked, "per_group": per_group}
        overall = float(np.maximum(overall, worst))
    return {
        "seed": seed,
        "step": step,
        "task_checked": task.task_id,
        "terms_checked": sorted(terms),
        "max_rel_error": overall,
        "terms": terms,
    }
