"""Spans around the program's public functions, recorded from outside.

The tracer replaces each traced function with a wrapper, in the module
that defines it and in every ``gspnn`` module that imported it by name, so
``from .neural import forward_batch`` inside ``recsys`` is traced as well.
Methods are wrapped on their class. Spans are kept in memory as
(round, name, start, end, parent) and turned into per-layer metrics when the
run ends; nothing inside the program changes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

# ``cli`` is a thin layer for config and manifests and is not traced.
PROGRAM_MODULES = ("graphs", "filters", "neural", "optim", "recsys",
                   "flocking", "analysis")


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module name, or ``module.Class``."""

    span: str
    owner: str
    attr: str
    # position of the ModelSpec argument; when set, the span name gets the
    # model's filter family as a suffix
    spec_arg: int | None = None


def _family(target: Target, args, kwargs) -> str:
    spec = kwargs["spec"] if "spec" in kwargs else args[target.spec_arg]
    return spec.layers[0].family


TARGETS = (
    Target("graphs.symmetric_eigh", "graphs", "symmetric_eigh"),
    Target("graphs.build_shift", "graphs", "build_shift"),
    Target("graphs.eigendecompose", "graphs", "eigendecompose"),
    Target("graphs.gft", "graphs", "gft"),
    Target("graphs.shift_apply", "graphs.ShiftOperator", "apply"),
    Target("filters.pole_margin", "filters", "pole_margin"),
    Target("filters.fir_apply", "filters", "fir_apply"),
    Target("filters.arma_apply_jacobi", "filters", "arma_apply_jacobi"),
    Target("filters.edge_varying_apply", "filters", "edge_varying_apply"),
    Target("filters.jacobi_spectral_radius", "filters", "jacobi_spectral_radius"),
    Target("neural.forward", "neural", "forward_batch", spec_arg=0),
    Target("neural.backward", "neural", "model_backward", spec_arg=1),
    Target("neural.save_checkpoint", "neural", "save_checkpoint"),
    Target("neural.load_checkpoint", "neural", "load_checkpoint"),
    Target("neural.model_forward", "neural", "model_forward"),
    Target("neural.equivariant_forward_check", "neural", "equivariant_forward_check"),
    Target("optim.adam_step", "optim", "adam_step"),
    Target("optim.train", "optim", "train"),
    Target("recsys.ingest_movielens", "recsys", "ingest_movielens"),
    Target("recsys.select_top_items", "recsys", "select_top_items"),
    Target("recsys.build_similarity", "recsys", "build_similarity"),
    Target("recsys.build_item_shift", "recsys", "build_item_shift"),
    Target("recsys.make_samples", "recsys", "make_samples"),
    Target("recsys.batch_loss", "recsys.RatingProblem", "batch_loss"),
    Target("recsys.post_step", "recsys.RatingProblem", "post_step"),
    Target("recsys.evaluate_rmse", "recsys", "evaluate_rmse"),
    Target("flocking.run_expert_trajectory", "flocking", "run_expert_trajectory"),
    Target("flocking.save_dataset", "flocking", "save_dataset"),
    Target("flocking.load_dataset", "flocking", "load_dataset"),
    Target("flocking.delayed_stacks", "flocking.TrajectorySample", "delayed_stacks"),
    Target("flocking.batch_loss", "flocking.ImitationProblem", "batch_loss"),
    Target("flocking.rollout_policy", "flocking", "rollout_policy"),
    Target("analysis.sample_lipschitz_gcnn", "analysis", "sample_lipschitz_gcnn"),
    Target("analysis.stability_experiment", "analysis", "stability_experiment"),
    Target("analysis.integral_lipschitz", "analysis", "integral_lipschitz"),
    Target("analysis.relative_distance", "analysis", "relative_distance"),
)

FAMILY_LABELS = ("fir", "arma", "edge_varying")

# Spans that can enclose another traced span; only these report self time.
PARENT_SPANS = (
    "graphs.build_shift", "graphs.eigendecompose", "filters.pole_margin",
    "filters.fir_apply", "filters.arma_apply_jacobi",
    "filters.jacobi_spectral_radius",
    *(f"neural.forward.{f}" for f in FAMILY_LABELS),
    *(f"neural.backward.{f}" for f in FAMILY_LABELS),
    "neural.model_forward", "neural.equivariant_forward_check", "optim.train",
    "recsys.build_item_shift", "recsys.batch_loss", "recsys.post_step",
    "recsys.evaluate_rmse", "flocking.batch_loss", "flocking.rollout_policy",
    "analysis.sample_lipschitz_gcnn", "analysis.stability_experiment",
    "analysis.relative_distance",
)

# Counters the workloads record at the same boundaries as the spans.
COUNTERS = ("recsys.checkpoint.bytes", "flocking.dataset.bytes",
            "flocking.expert.resampled", "flocking.rollout.diverged")


def span_names() -> list[str]:
    names = []
    for t in TARGETS:
        if t.spec_arg is not None:
            names.extend(f"{t.span}.{f}" for f in FAMILY_LABELS)
        else:
            names.append(t.span)
    return names


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.s", "s"))
        if name in PARENT_SPANS:
            out.append((f"{name}.self_s", "s"))
    for name in COUNTERS:
        out.append((name, "bytes" if name.endswith(".bytes") else "count"))
    return out


class Tracer:
    """In-memory span recorder that wraps the program's functions in place."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.round = 0
        self.active = False     # spans are recorded only while this is set
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = target.span
            if target.spec_arg is not None:
                name = f"{name}.{_family(target, args, kwargs)}"
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((self.round, name, 0.0, 0.0, parent))
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (self.round, name, start, end, parent)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"gspnn.{m}") for m in PROGRAM_MODULES}
        for target in TARGETS:
            mod_name, _, cls_name = target.owner.partition(".")
            if cls_name:
                owner = getattr(modules[mod_name], cls_name)
                self._patch(owner, target.attr, self._wrap(
                    vars(owner)[target.attr], target))
                continue
            original = getattr(modules[mod_name], target.attr)
            wrapper = self._wrap(original, target)
            for mod in modules.values():
                if vars(mod).get(target.attr) is original:
                    self._patch(mod, target.attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def round_metrics(self, round_idx: int) -> dict[str, float]:
        """calls, total and self seconds per span name for one round."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for rnd, name, start, end, parent in self.spans:
            if rnd != round_idx:
                continue
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (rnd, name, start, end, _) in enumerate(self.spans):
            if rnd == round_idx:
                self_time[name] += (end - start) - child.get(idx, 0.0)
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = total.get(name, 0.0)
            if name in PARENT_SPANS:
                out[f"{name}.self_s"] = self_time.get(name, 0.0)
        return out

    def dump(self) -> list[dict]:
        return [{"round": r, "name": n, "start": s, "end": e, "parent": p}
                for r, n, s, e, p in self.spans]
