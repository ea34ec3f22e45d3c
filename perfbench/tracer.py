"""Spans around the public functions of ``aht``, installed from outside.

``Tracer`` replaces each traced function with a timing wrapper in every
``aht.*`` module that holds a reference to it (``from .noise import
ensemble_coherence`` copies the reference into ``cli`` and ``verify``, so
rebinding ``aht.noise`` alone would miss those calls), and restores the
original bindings on exit.  ``aht.cli.main`` is the root span of each
operation.  Spans stay in memory; the caller writes them out at the end
of the run.

The noise wrappers also record *computed* trajectory-step counts, derived
from public scenario fields and the step rule in ``aht.noise``'s module
docstring: ``dt <= min(tau_c / 20, T_c / 20)`` (and ``max_step``), steps
aligned with every pulse interval.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

#: Traced public functions, as ``<module>.<name>`` under ``aht``.
TARGETS = (
    "cli.main",
    "verify.run_suite",
    "scenario.Scenario.from_json",
    "scenario.parse_hamiltonian",
    "noise.build_scenario",
    "noise.ensemble_coherence",
    "noise.propagate_trajectory",
    "universality.lie_closure",
    "universality.transformer_reach",
    "universality.generate_group",
    "operators.expm",
    "operators.logm_effective",
    "operators.pauli_sum",
    "decoupling.builtin_groups",
    "decoupling.close_group",
    "decoupling.project_group",
    "decoupling.average_zeroth",
    "decoupling.cycle_propagator",
    "decoupling.effective_defect",
    "decoupling.named_sequence",
    "codes.build_code",
    "codes.logical_action",
)
MODULES = ("noise", "universality", "operators", "decoupling", "codes", "scenario", "cli", "verify")
ROOT = "cli.main"
_NOISE_RUNS = {"noise.ensemble_coherence", "noise.propagate_trajectory"}


@dataclass
class Span:
    name: str
    start: int               # perf_counter_ns
    end: int
    parent: int | None       # index into Tracer.spans
    op: int                  # operation id, shared by every span of one cli.main call
    error: bool = False
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "op": self.op, "error": self.error, **self.counts}


class Tracer:
    """Context manager that wraps ``TARGETS`` while active.

    With ``memory=True`` each ``ensemble_coherence`` call also records the
    peak of the allocations it makes, traced by ``tracemalloc`` from entry
    to exit; tracemalloc roughly doubles noise time, so such spans are not
    used for timing.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                self._install(target)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install(self, target: str) -> None:
        module_name, _, attr = target.partition(".")
        module = importlib.import_module(f"aht.{module_name}")
        name = f"{module_name}.{attr}"
        if "." in attr:  # a classmethod such as Scenario.from_json
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, classmethod(self._wrap(name, original.__func__)))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "aht" and not mod_name.startswith("aht."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        memory = self.memory and name == "noise.ensemble_coherence"
        counted = name in _NOISE_RUNS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self._op += 1
            span = Span(name, 0, 0, parent, self._op)
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if counted:
                    scenario = args[0] if args else kwargs["scenario"]
                    n_traj = scenario.ensemble_size if name == "noise.ensemble_coherence" else 1
                    span.counts.update(noise_counts(scenario, n_traj))

        return wrapper


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------

def grid_steps(scenario, live_only: bool = False) -> int:
    """Steps on the scenario's grid (computed, not read from ``aht``).

    With ``live_only`` only channels of non-zero amplitude cap ``dt``: the
    steps the run would need if silent channels were dropped.
    """
    taus = [ch.correlation_time for ch in scenario.channels
            if ch.amplitude > 0.0 or not live_only]
    dt = min(taus) / 20 if taus else scenario.total_time
    schedule = scenario.schedule
    if schedule is None:
        dt = min(dt, scenario.total_time / 20)
        lengths = [scenario.total_time / scenario.record_points] * scenario.record_points
    else:
        dt = min(dt, schedule.cycle_time / 20)
        lengths = [tau * schedule.cycle_time for tau in schedule.durations] * scenario.repetitions
    if scenario.max_step is not None:
        dt = min(dt, scenario.max_step)
    return sum(max(1, math.ceil(length / dt - 1e-12)) for length in lengths)


def is_diagonal_path(scenario) -> bool:
    """True when ``h_system`` and every coupling are diagonal."""
    mats = [scenario.h_system.matrix] + [ch.coupling.matrix for ch in scenario.channels]
    return all(np.array_equal(m, np.diag(np.diag(m))) for m in mats)


def noise_counts(scenario, n_traj: int) -> dict:
    return {
        "path": "diagonal" if is_diagonal_path(scenario) else "eigh",
        "steps": grid_steps(scenario),
        "useful_steps": grid_steps(scenario, live_only=True),
        "n_traj": n_traj,
    }


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def check_spans(spans: list[Span]) -> dict[int, list[str]]:
    """Problems with span structure, by operation id: each operation has one
    ``cli.main`` root, children nest inside their parents, and the self
    times of its spans add up to the root's duration."""
    problems: dict[int, list[str]] = {}
    selfs = self_times(spans)
    per_op: dict[int, int] = {}
    for i, s in enumerate(spans):
        per_op[s.op] = per_op.get(s.op, 0) + selfs[i]
        if s.parent is None:
            if s.name != ROOT:
                problems.setdefault(s.op, []).append(f"root span {s.name} is not {ROOT}")
        else:
            p = spans[s.parent]
            if not (p.start <= s.start <= s.end <= p.end and p.op == s.op):
                problems.setdefault(s.op, []).append(f"span {s.name} escapes {p.name}")
    for s in spans:
        if s.parent is None and per_op[s.op] != s.end - s.start:
            problems.setdefault(s.op, []).append(
                f"self times sum to {per_op[s.op]} ns, root is {s.end - s.start} ns")
    return problems


def summarize(spans: list[Span]) -> dict:
    """Per-pass figures: calls, self and total seconds per target, errors per
    module, and the computed noise counts."""
    selfs = self_times(spans)
    out: dict = {t: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for t in TARGETS}
    errors = {m: 0 for m in MODULES}
    noise = {"diagonal": 0, "eigh": 0, "useful": 0, "run": 0, "ensemble_steps": 0,
             "peak_bytes": 0}
    for s, self_ns in zip(spans, selfs):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += self_ns * 1e-9
        row["total_s"] += (s.end - s.start) * 1e-9
        if s.error:
            errors[s.name.split(".")[0]] += 1
        if "steps" in s.counts:
            c = s.counts
            noise[c["path"]] += c["steps"] * c["n_traj"]
            noise["useful"] += c["useful_steps"] * c["n_traj"]
            noise["run"] += c["steps"] * c["n_traj"]
            if s.name == "noise.ensemble_coherence":
                noise["ensemble_steps"] += c["steps"] * c["n_traj"]
        noise["peak_bytes"] = max(noise["peak_bytes"], s.counts.get("peak_bytes", 0))
    out["errors"] = errors
    out["noise"] = noise
    return out
