"""Spans around the calls into paygsim's layers, recorded from outside it.

Each public function is wrapped at the name its caller looks up (for example
`paygsim.montecarlo.simulate_flows`, which `run_simulation`'s chunks call),
and the original is put back afterwards. Spans stay in memory as
[name, start, end, parent, call] and are written out by the caller.
Functions that run inside `ProcessPoolExecutor` workers leave their spans in
the workers, so a parallel run shows only its parent-side spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager


def _count_blocks(tracer, args, kwargs, blocks):
    tracer.count("montecarlo.normals_drawn",
                 blocks.entrants.size + blocks.mortality.size + blocks.returns.size)
    tracer.count("montecarlo.chunks")


def _count_cohort_updates(tracer, args, kwargs, flows):
    system, ne = args[0], args[1]
    tracer.count("engine.cohort_updates", ne.shape[0] * system.n_cohorts * system.n_years)


def _keep_system(tracer, args, kwargs, system):
    tracer.count("engine.cohorts", system.n_cohorts)
    tracer.kept["system"] = system


def _keep_simulation(tracer, args, kwargs, result):
    tracer.kept["simulation"] = (args, kwargs, result)


def _count_bytes(tracer, args, kwargs, written):
    tracer.count("outputs.bytes_written", sum(os.path.getsize(p) for p in written))


# (module, attribute, span name, observer). The observer runs after the span
# closes and turns the call's arguments or result into counts.
TARGETS = (
    ("paygsim.cli", "load_config", "config.load_config", None),
    ("paygsim.cli", "run_deterministic_projection",
     "projection.run_deterministic_projection", None),
    ("paygsim.cli", "run_simulation", "montecarlo.run_simulation", _keep_simulation),
    ("paygsim.cli", "expected_entrants_path", "entrants.expected_entrants_path", None),
    ("paygsim.cli", "simulate_entrants_path", "entrants.simulate_entrants_path", None),
    ("paygsim.outputs", "emit_projection_outputs", "outputs.emit", _count_bytes),
    ("paygsim.outputs", "emit_simulation_outputs", "outputs.emit", _count_bytes),
    ("paygsim.outputs", "emit_entrants_outputs", "outputs.emit", _count_bytes),
    ("paygsim.montecarlo", "build_system", "engine.build_system", _keep_system),
    ("paygsim.montecarlo", "draw_shock_blocks", "montecarlo.draw_shock_blocks", _count_blocks),
    ("paygsim.montecarlo", "entrants_matrix", "engine.entrants_matrix", None),
    ("paygsim.montecarlo", "simulate_flows", "engine.simulate_flows", _count_cohort_updates),
    ("paygsim.montecarlo", "return_rates", "engine.return_rates", None),
    ("paygsim.montecarlo", "ledger_columns", "cashflows.ledger_columns", None),
    ("paygsim.montecarlo", "percentile_bands", "montecarlo.percentile_bands", None),
    ("paygsim.montecarlo", "distribution_moments", "montecarlo.distribution_moments", None),
    ("paygsim.projection", "build_system", "engine.build_system", _keep_system),
    ("paygsim.projection", "entrants_matrix", "engine.entrants_matrix", None),
    ("paygsim.projection", "simulate_flows", "engine.simulate_flows", _count_cohort_updates),
    ("paygsim.projection", "return_rates", "engine.return_rates", None),
    ("paygsim.projection", "stepwise_projection", "projection.stepwise_projection", None),
    ("paygsim.cashflows", "ledger_columns", "cashflows.ledger_columns", None),
)

# Called 82 times per replication by the scalar entrant sampler: counted,
# not spanned, to keep the tracing overhead small.
COUNTED = (("paygsim.stochastic", "NormalSource", "standard_normal",
            "stochastic.standard_normal_calls"),)


class Tracer:
    """Span and count recorder for one sample process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, call]
        self.counts: dict = {}        # call -> Counter
        self.kept: dict = {}          # objects observers keep for later counts
        self.call = None              # id of the `cli.main` call under way
        self._stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.call, Counter())[key] += n

    def _spanned(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.call]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.

        A target the program no longer has is skipped, and its layer then
        reads 0, as for a layer the workload does not call.
        """
        saved = []
        try:
            for module, attr, name, observe in TARGETS:
                owner = importlib.import_module(module)
                if hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self._spanned(saved[-1][2], name, observe))
            for module, cls, attr, key in COUNTED:
                owner = getattr(importlib.import_module(module), cls, None)
                if owner is not None and attr in owner.__dict__:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, self._counted(saved[-1][2], key))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_times(self, call) -> tuple[dict, dict]:
        """Self and inclusive seconds per span name within one call.

        Self time is a span's duration minus the part of it that its child
        spans cover.
        """
        children: dict[int, list] = {}
        for span in self.spans:
            if span[4] == call and span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        own, total = Counter(), Counter()
        for index, (name, start, end, _, c) in enumerate(self.spans):
            if c != call:
                continue
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(index, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own[name] += (end - start) - covered
            total[name] += end - start
        return dict(own), dict(total)
