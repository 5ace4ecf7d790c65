"""Spans and counters recorded around dualora's public functions, from outside.

Callers inside the package resolve these functions through module globals
(``tr.train_task``, ``bb.block_forward``, bare ``predict`` inside
``classifier``), so replacing a module or class attribute puts a span around
every call without editing the package. ``Tracer.install`` does that and
``Tracer.uninstall`` restores the originals.

A span records its name, start, end, parent span and operation id. Spans
stay in memory and are written once, when the run ends. A span's self time is
its duration minus the part covered by its child spans. Spans whose names
start with ``bench.`` are the benchmark's own work (the operation wrapper and
the tape walk); their time is left out of every enclosing layer's inclusive
time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# Contexts a forward can run in. The highest-ranked enclosing span names it:
# a finite-difference closure runs training losses, and a teacher readout runs
# inside the training losses.
_CONTEXT_OF = {
    "trainer.losses": (1, "train"),
    "classifier.compute_prototypes": (2, "infer"),
    "classifier.evaluate": (2, "infer"),
    "classifier.predict": (2, "infer"),
    "trainer.teacher_readout": (3, "teacher"),
    "autodiff.finite_difference_check": (4, "fd"),
}
_NO_CONTEXT = (0, "other")

# Orchestration spans: their self time is glue that no layer below accounts for.
ENTRY_SPANS = (
    "bench.op",
    "cli.main",
    "harness.run_ablation",
    "harness.run_experiment",
    "harness.gradcheck",
)


class _Frame:
    __slots__ = ("id", "name", "parent", "ctx", "start", "child", "excluded")

    def __init__(self, span_id, name, parent, ctx):
        self.id, self.name, self.parent, self.ctx = span_id, name, parent, ctx
        self.child = 0.0  # time covered by child spans
        self.excluded = 0.0  # time of bench.* spans anywhere below
        self.start = 0.0


def _tape_size(roots) -> int:
    """Distinct tape nodes reachable from the roots through ``Tensor.parents``."""
    seen: set[int] = set()
    stack = [r for r in roots if r is not None]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # inclusive seconds, bench.* time excluded
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._evals: list[dict] = []
        self._teacher_seen: set[bytes] = set()
        self._op_start: Counter = Counter()

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, contextual: bool = False) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        ctx = parent.ctx if parent is not None else _NO_CONTEXT
        own = _CONTEXT_OF.get(name)
        if own is not None and own[0] > ctx[0]:
            ctx = own
        if contextual:
            name = f"{name}.{ctx[1]}"
        frame = _Frame(self._next_id, name, parent.id if parent is not None else -1, ctx)
        self._next_id += 1
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed while {top.name} was open")
        dur = end - frame.start
        bench = frame.name.startswith("bench.")
        inclusive = dur - frame.excluded
        self.spans.append((frame.id, frame.name, frame.start, end, frame.parent, self.op))
        self.calls[frame.name] += 1
        self.total[frame.name] += inclusive
        self.self_s[frame.name] += dur - frame.child
        if self._stack:
            parent = self._stack[-1]
            parent.child += dur
            parent.excluded += dur if bench else frame.excluded
        return inclusive

    def _wrap(self, owner, attr, name, *, contextual=False, before=None, after=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs) or args
            frame = self._enter(name, contextual)
            try:
                return fn(*args, **kwargs)
            finally:
                inclusive = self._exit(frame)
                if after is not None:
                    after(args, kwargs, inclusive)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    # -- operations -------------------------------------------------------

    def begin_op(self) -> _Frame:
        self.op += 1
        self._teacher_seen = set()
        self._op_start = Counter(self.counts) + Counter(
            {f"calls:{k}": v for k, v in self.calls.items()}
        )
        return self._enter("bench.op")

    def end_op(self, frame: _Frame) -> dict:
        """Close the operation and return its exact counts."""
        self._exit(frame)
        self.counts["teacher_distinct"] += len(self._teacher_seen)
        now = Counter(self.counts) + Counter({f"calls:{k}": v for k, v in self.calls.items()})
        d = {k: now[k] - self._op_start[k] for k in now}
        return {
            "autodiff.tape_nodes_per_step": _ratio(d.get("tape_nodes", 0), d.get("tape_steps", 0)),
            "classifier.adapter_passes_per_query": _ratio(
                d.get("eval_adapter_rows", 0), d.get("eval_queries", 0)
            ),
            "backbone.block_forward.calls": sum(
                v for k, v in d.items() if k.startswith("calls:backbone.block_forward.")
            ),
            "trainer.teacher_rows_per_unique": _ratio(
                d.get("teacher_rows", 0), d.get("teacher_distinct", 0)
            ),
            "eval_formula_mismatches": d.get("eval_formula_mismatch", 0),
        }

    # -- counters fed by hooks ---------------------------------------------

    def _walk_tape(self, args, kwargs):
        losses = args[0] if args else kwargs["losses"]
        frame = self._enter("bench.tape_walk")
        try:
            self.counts["tape_nodes"] += _tape_size(losses.values())
            self.counts["tape_steps"] += 1
        finally:
            self._exit(frame)

    def _teacher_rows(self, args, kwargs):
        images = args[1] if len(args) > 1 else kwargs["images"]
        self.counts["teacher_rows"] += len(images)
        self._teacher_seen.update(img.tobytes() for img in images)

    def _count_fd_closure(self, args, kwargs):
        forward = args[0]

        def counted():
            self.counts["fd_closure_calls"] += 1
            return forward()

        return (counted,) + tuple(args[1:])

    def _write_bytes(self, args, kwargs):
        data = args[1] if len(args) > 1 else kwargs["data"]
        self.counts["atomic_write_bytes"] += len(
            data if isinstance(data, bytes) else data.encode()
        )

    def _eval_begin(self, args, kwargs):
        model, images = args[0], args[2]
        t = len(model.tasks)
        l, n = model.position_l, model.num_blocks
        # a flipped layout puts the per-task adapters first, so nothing is shared
        expected = n * t if model.flip_positions else l + (n - l) * t
        self._evals.append({"queries": images.shape[0], "expected": expected, "rows": 0})
        self.counts["eval_queries"] += images.shape[0]

    def _eval_end(self, args, kwargs, inclusive):
        acc = self._evals.pop()
        self.counts["eval_adapter_rows"] += acc["rows"]
        if acc["rows"] != acc["expected"] * acc["queries"]:
            self.counts["eval_formula_mismatch"] += 1

    def _block_forward(self, args, kwargs):
        if self._evals:
            state = args[1]
            deltas = args[3] if len(args) > 3 else kwargs.get("deltas")
            if deltas:
                value = state.tokens.value
                self._evals[-1]["rows"] += value.shape[0] if value.ndim == 3 else 1
            self.counts["eval_block_forward"] += 1

    def _block_time(self, args, kwargs, inclusive):
        self.total[f"backbone.block_forward.b{args[2]}"] += inclusive

    # -- installation -------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap the public functions of every dualora layer; ``pkg`` is a
        namespace holding the imported modules by their short names."""
        w = self._wrap
        tr = pkg.trainer
        w(pkg.cli, "main", "cli.main")
        w(pkg.harness, "run_experiment", "harness.run_experiment")
        w(pkg.harness, "run_ablation", "harness.run_ablation")
        w(pkg.harness, "gradcheck", "harness.gradcheck")
        w(pkg.harness, "atomic_write", "harness.atomic_write", before=self._write_bytes)
        w(pkg.streams, "gen_synthetic", "streams.gen_synthetic")
        w(tr, "train_task", "trainer.train_task")
        w(tr.TaskSession, "step", "trainer.step")
        w(tr.TaskSession, "losses", "trainer.losses")
        w(tr.TaskSession, "teacher_readout", "trainer.teacher_readout", before=self._teacher_rows)
        w(tr, "total_step_gradient", "trainer.total_step_gradient")
        w(tr.AdaptiveMoments, "step", "trainer.optimizer_step")
        w(tr.PlainGradientDescent, "step", "trainer.optimizer_step")
        w(pkg.autodiff, "backward_per_term", "autodiff.backward_per_term", before=self._walk_tape)
        w(
            pkg.autodiff,
            "finite_difference_check",
            "autodiff.finite_difference_check",
            before=self._count_fd_closure,
        )
        w(
            pkg.classifier,
            "evaluate",
            "classifier.evaluate",
            before=self._eval_begin,
            after=self._eval_end,
        )
        w(pkg.classifier, "predict", "classifier.predict")
        w(pkg.classifier, "compute_prototypes", "classifier.compute_prototypes")
        w(pkg.model, "forward_features", "model.forward_features", contextual=True)
        w(pkg.model, "transition_cls_with", "model.transition_cls_with")
        w(
            pkg.backbone,
            "block_forward",
            "backbone.block_forward",
            contextual=True,
            before=self._block_forward,
            after=self._block_time,
        )
        w(pkg.adapters, "specific_delta", "adapters.specific_delta")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics, as (value, unit)."""
        per = lambda c, k: c.get(k, 0) / ops
        out: dict[str, tuple[float, str]] = {}

        def calls(name, metric=None):
            out[(metric or name) + ".calls"] = (per(self.calls, name), "count")

        def secs(name, metric=None):
            out[(metric or name) + ".s"] = (per(self.total, name), "s")

        def self_secs(name, metric=None):
            out[(metric or name) + ".self_s"] = (per(self.self_s, name), "s")

        calls("trainer.step")
        secs("trainer.step")
        secs("trainer.losses")
        secs("trainer.optimizer_step")
        secs("trainer.total_step_gradient")
        calls("trainer.teacher_readout")
        secs("trainer.teacher_readout")
        out["trainer.teacher_rows_per_unique"] = (
            _ratio(self.counts["teacher_rows"], self.counts["teacher_distinct"]),
            "rows/image",
        )
        calls("autodiff.backward_per_term")
        secs("autodiff.backward_per_term")
        out["autodiff.tape_nodes_per_step"] = (
            _ratio(self.counts["tape_nodes"], self.counts["tape_steps"]),
            "count",
        )
        secs("autodiff.finite_difference_check")
        out["autodiff.fd_closure_calls"] = (per(self.counts, "fd_closure_calls"), "count")
        bf = "backbone.block_forward"
        out[bf + ".calls"] = (
            sum(v for k, v in self.calls.items() if k.startswith(bf + ".")) / ops,
            "count",
        )
        self_secs(bf + ".train")
        calls(bf + ".infer")
        self_secs(bf + ".infer")
        self_secs(bf + ".fd")
        for i in range(1, 5):
            secs(f"{bf}.b{i}")
        calls("classifier.predict")
        secs("classifier.predict")
        calls("classifier.evaluate")
        secs("classifier.evaluate")
        out["classifier.block_forward_per_query"] = (
            _ratio(self.counts["eval_block_forward"], self.counts["eval_queries"]),
            "count",
        )
        out["classifier.adapter_passes_per_query"] = (
            _ratio(self.counts["eval_adapter_rows"], self.counts["eval_queries"]),
            "count",
        )
        secs("classifier.compute_prototypes")
        for ctx in ("train", "infer"):
            calls(f"model.forward_features.{ctx}")
            self_secs(f"model.forward_features.{ctx}")
        secs("model.transition_cls_with")
        calls("adapters.specific_delta")
        secs("streams.gen_synthetic")
        calls("harness.run_experiment")
        secs("harness.run_experiment")
        secs("harness.run_ablation")
        out["harness.sweep_parallel_ratio"] = (
            _ratio(self.total["harness.run_experiment"], self.total["harness.run_ablation"])
            if self.calls["harness.run_ablation"]
            else 0.0,
            "ratio",
        )
        calls("harness.atomic_write")
        out["harness.atomic_write.bytes"] = (per(self.counts, "atomic_write_bytes"), "bytes")
        secs("harness.atomic_write")
        secs("cli.main")
        op_time = self.total["bench.op"]
        glue = sum(self.self_s[name] for name in ENTRY_SPANS)
        out["trace.attributed_pct"] = (100.0 * _ratio(op_time - glue, op_time), "%")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write('["id", "name", "start", "end", "parent", "op"]\n')
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _ratio(a, b) -> float:
    return a / b if b else 0.0
