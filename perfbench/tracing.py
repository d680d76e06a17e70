"""In-memory span tracer for the traced benchmark run.

The tracer wraps plcsim's public entry points at the places where their
callers look them up (``plcsim.simulator.*``, ``plcsim.gridgen.build_*``,
``plcsim.cli.*``), records one span per call, and derives each layer's
self time (span minus the part covered by child spans).  Counters are
taken from the wrapped calls' arguments and results in "bookkeeping"
spans: they are children of the calling span, so their cost never lands
in a layer's self time and shows up in ``trace.unattributed_s`` instead.

Nothing here draws random numbers or mutates plcsim's inputs, so traced
outputs stay byte-identical to untraced ones.  An entry point that no
longer exists is reported as absent; a counter whose inputs changed shape
is reported the same way.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# span name -> "module:attribute" sites where plcsim's own callers find it
SITES = {
    "deployment.deploy": ("plcsim.simulator:deploy", "plcsim.cli:deploy"),
    "gridgen.build_grid": ("plcsim.simulator:build_grid", "plcsim.cli:build_grid"),
    "gridgen.build_bus": ("plcsim.gridgen:build_bus",),
    "gridgen.build_tree": ("plcsim.gridgen:build_tree",),
    "gridgen.build_chain": ("plcsim.gridgen:build_chain",),
    "gridgen.mark_served": ("plcsim.simulator:mark_served", "plcsim.cli:mark_served"),
    "traffic.from_config": ("plcsim.traffic:TrafficModel.from_config",),
    "simulator.generate_traffic": ("plcsim.simulator:generate_traffic",),
    "simulator.aggregate_rate_series": ("plcsim.simulator:aggregate_rate_series",),
    "simulator.compute_metrics": ("plcsim.simulator:compute_metrics",),
    "simulator.run_replication": (
        "plcsim.simulator:run_replication",
        "plcsim.cli:run_replication",
    ),
    "simulator.run_sweep": ("plcsim.cli:run_sweep",),
    "svgplot.line_plot": ("plcsim.cli:line_plot",),
    "cli.parse_config": ("plcsim.cli:parse_config",),
    "cli.layout_dict": ("plcsim.cli:layout_dict",),
}

BOOKKEEPING = "trace.bookkeeping"

# Per-layer metrics: (name, unit, better, which end-to-end metric it should
# move, on which workload).  Times and counts are means per traced
# operation (one CLI call); ratios are taken over the whole traced run.
LAYER_METRICS = (
    ("deployment.deploy.self_s", "s", "lower", "wall_s by ~2% on every workload"),
    ("deployment.deploy.calls", "count", "lower", "wall_s by ~2% on every workload"),
    ("deployment.cells", "count", "lower", "wall_s by ~2% on every workload"),
    ("gridgen.build_chain.self_s", "s", "lower", "wall_s on reach-sweep only"),
    ("gridgen.build_tree.self_s", "s", "lower", "wall_s on reach-sweep only"),
    ("gridgen.build_bus.self_s", "s", "lower", "wall_s on layout-generate and load-simulate"),
    ("gridgen.build_grid.self_s", "s", "lower", "wall_s on layout-generate and load-simulate (merge only)"),
    ("gridgen.sector_builds", "count", "lower", "wall_s on layout-generate and load-simulate"),
    ("gridgen.edges", "count", "lower", "wall_s on layout-generate and load-simulate"),
    ("gridgen.forced_crossings", "count", "lower", "wall_s on layout-generate and load-simulate"),
    ("gridgen.mark_served.self_s", "s", "lower", "regression guard (<1% of wall_s everywhere)"),
    ("gridgen.served_ratio", "ratio", "higher", "regression guard (<1% of wall_s everywhere)"),
    ("traffic.from_config.self_s", "s", "lower", "setup_s"),
    ("traffic.from_config.calls", "count", "lower", "setup_s"),
    ("simulator.generate_traffic.self_s", "s", "lower", "wall_s and peak_rss_mb on load-simulate; wall_s on reach-sweep"),
    ("simulator.sessions", "count", "lower", "wall_s and peak_rss_mb on load-simulate; wall_s on reach-sweep"),
    ("simulator.sessions_kept_ratio", "ratio", "higher", "wall_s on reach-sweep"),
    ("simulator.aggregate_rate_series.self_s", "s", "lower", "wall_s and peak_rss_mb on load-simulate"),
    ("simulator.aggregate_rate_series.calls", "count", "lower", "wall_s and peak_rss_mb on load-simulate"),
    ("simulator.steps", "count", "lower", "wall_s and peak_rss_mb on load-simulate"),
    ("simulator.compute_metrics.self_s", "s", "lower", "wall_s and peak_rss_mb on load-simulate"),
    ("simulator.run_replication.self_s", "s", "lower", "per-replication glue: wall_s on reach-sweep and load-simulate"),
    ("simulator.run_replication.p50_s", "s", "lower", "per-replication latency: wall_s on reach-sweep and load-simulate"),
    ("simulator.run_replication.p90_s", "s", "lower", "per-replication latency spread: wall_s on reach-sweep and load-simulate"),
    ("simulator.run_sweep.self_s", "s", "lower", "per-sweep glue: wall_s on reach-sweep"),
    ("svgplot.line_plot.self_s", "s", "lower", "wall_s on reach-sweep, by a small amount"),
    ("svgplot.bytes", "bytes", "lower", "wall_s on reach-sweep, by a small amount"),
    ("cli.parse_config.self_s", "s", "lower", "wall_s on layout-generate"),
    ("cli.layout_dict.self_s", "s", "lower", "wall_s on layout-generate"),
    ("cli.main.self_s", "s", "lower", "wall_s on layout-generate (JSON/CSV encoding and writes)"),
    ("cli.bytes_written", "bytes", "lower", "wall_s on layout-generate"),
    ("trace.wall_s", "s", "lower", "traced wall time per operation: the sum of every self_s plus trace.unattributed_s"),
    ("trace.unattributed_s", "s", "lower", "traced wall time minus the sum of all layer self times"),
    ("trace.overhead_frac", "ratio", "lower", "traced over untraced wall time, minus 1"),
    ("trace.absent", "count", "lower", "wrapped entry points or counters no longer found"),
)

# Relative tolerance of the bit-conservation check: both sides sum the
# same float64 products in different orders, so they agree to ~1e-13.
_CONSERVATION_RTOL = 1e-9


class Tracer:
    """Span stack, per-layer totals and counters for one traced run."""

    # The benchmark calls plcsim.cli.main itself, inside a span of this name.
    MAIN_SPAN = "cli.main"

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, child time]
        self._next_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.violations: list[str] = []  # conservation failures, this op
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None):
        parent = self._stack[-1][0] if self._stack else -1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, name, 0.0])
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            _, _, child = self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][2] += dur
            self.self_s[name] += dur - child
            self.calls[name] += 1
            self.spans.append((span_id, parent, self.op, name, t0, t1))

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in SITES; record missing ones as absent."""
        for name, sites in SITES.items():
            for site in sites:
                module_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    raw = inspect.getattr_static(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.add(site)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                elif callable(raw):
                    wrapped = self._wrap(name, raw)
                else:
                    self.absent.add(site)
                    continue
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                self.call(BOOKKEEPING, self._count, (name, after, signature, args, kwargs, result))
            return result

        return wrapper

    def _count(self, name, after, signature, args, kwargs, result) -> None:
        """Run a counter; one that no longer fits plcsim is reported absent."""
        try:
            if signature is None:
                raise TypeError("no signature")
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(self, bound.arguments, result)
        except (AttributeError, TypeError, KeyError, ValueError, IndexError):
            self.absent.add("counter:" + name)

    # -- results -----------------------------------------------------------

    def layer_names(self) -> list[str]:
        return [n for n in self.self_s if not n.startswith("trace.")]

    def metrics(self, n_ops: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics as {name: value}; see LAYER_METRICS."""
        per_op = 1.0 / max(n_ops, 1)
        out: dict[str, float] = {}
        for name, _unit, _better, _moves in LAYER_METRICS:
            if name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0) * per_op
            elif name.endswith(".calls"):
                out[name] = self.calls.get(name[: -len(".calls")], 0) * per_op
        c = self.counts
        out["deployment.cells"] = c["cells"] * per_op
        out["gridgen.sector_builds"] = per_op * sum(
            self.calls.get("gridgen.build_" + t, 0) for t in ("bus", "tree", "chain")
        )
        out["gridgen.edges"] = c["edges"] * per_op
        out["gridgen.forced_crossings"] = c["forced_crossings"] * per_op
        out["gridgen.served_ratio"] = _ratio(c["served"], c["served_of"])
        out["simulator.sessions"] = c["sessions"] * per_op
        out["simulator.sessions_kept_ratio"] = _ratio(c["kept"], c["sessions"])
        out["simulator.steps"] = c["steps"] * per_op
        reps = [t1 - t0 for _, _, _, n, t0, t1 in self.spans if n == "simulator.run_replication"]
        out["simulator.run_replication.p50_s"] = _quantile(reps, 0.5)
        out["simulator.run_replication.p90_s"] = _quantile(reps, 0.9)
        out["svgplot.bytes"] = c["svg_bytes"] * per_op
        out["cli.bytes_written"] = c["bytes_written"] * per_op
        layer_total = sum(self.self_s[n] for n in self.layer_names())
        out["trace.wall_s"] = traced_wall * per_op
        out["trace.unattributed_s"] = (traced_wall - layer_total) * per_op
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0
        out["trace.absent"] = float(len(self.absent))
        return out

    def layer_self_s(self, n_ops: int) -> dict[str, float]:
        """Self time per operation of every layer span seen, by span name."""
        per_op = 1.0 / max(n_ops, 1)
        return {n: self.self_s[n] * per_op for n in sorted(self.layer_names())}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    return float(np.percentile(values, 100.0 * q)) if values else 0.0


# ---------------------------------------------------------------------------
# counters, keyed by span name: (tracer, bound arguments, result) -> None


def _after_deploy(tr: Tracer, _args, dep) -> None:
    tr.counts["cells"] += len(dep.cells)


def _after_build_grid(tr: Tracer, _args, grid) -> None:
    tr.counts["edges"] += len(grid.edges)
    tr.counts["forced_crossings"] += grid.forced_crossings


def _served_mask(grid) -> np.ndarray:
    """Boolean served flag per cell id, from the grid's served mapping."""
    served = grid.served
    if isinstance(served, dict):
        lut = np.zeros(max(served, default=-1) + 1, dtype=bool)
        lut[np.fromiter(served.keys(), dtype=np.int64, count=len(served))] = list(served.values())
        return lut
    return np.asarray(served, dtype=bool)


def _after_mark_served(tr: Tracer, _args, grid) -> None:
    mask = _served_mask(grid)
    tr.counts["served"] += int(mask.sum())
    tr.counts["served_of"] += mask.size


def _after_generate_traffic(tr: Tracer, _args, sessions) -> None:
    tr.counts["sessions"] += np.size(sessions.start_s)


def _after_aggregate(tr: Tracer, args, series) -> None:
    """Count steps and kept sessions; check bit conservation on this call.

    Kept sessions are those aggregated: served (unless include_unserved)
    and starting inside [0, H).  Σ hub·dt must equal
    Σ rate·(min(end, H) − start) over them, and the branch series must sum
    to the hub series.
    """
    ss = args["sessions"]
    horizon = float(args["horizon_s"])
    dt = float(args["dt_s"])
    hub = np.asarray(series.hub)
    branches = np.asarray(series.branches)
    tr.counts["steps"] += hub.size

    cell = np.asarray(ss.cell_id)
    start = np.asarray(ss.start_s)
    keep = (start >= 0.0) & (start < horizon)
    if not args.get("include_unserved", False):
        served = _served_mask(args["grid"])
        in_lut = cell < served.size
        keep &= in_lut & served[np.where(in_lut, cell, 0)]
        tr.counts["kept"] += int(keep.sum())
    end = np.minimum(start + np.asarray(ss.duration_s), horizon)
    delivered = float(np.sum((np.asarray(ss.rate_bps) * (end - start))[keep]))
    carried = float(hub.sum()) * dt
    scale = max(abs(delivered), float(np.abs(hub).max(initial=0.0)) * dt, 1.0)
    if abs(carried - delivered) > _CONSERVATION_RTOL * scale:
        tr.violations.append(
            "bit conservation: sum(hub)*dt=%r, delivered=%r" % (carried, delivered)
        )
    hub_scale = max(float(np.abs(hub).max(initial=0.0)), 1.0)
    if branches.shape[-1:] != hub.shape or not np.allclose(
        branches.sum(axis=0), hub, rtol=0.0, atol=_CONSERVATION_RTOL * hub_scale
    ):
        tr.violations.append("branch series do not sum to the hub series")


def _after_line_plot(tr: Tracer, _args, svg) -> None:
    tr.counts["svg_bytes"] += len(svg.encode("utf-8"))


_AFTER = {
    "deployment.deploy": _after_deploy,
    "gridgen.build_grid": _after_build_grid,
    "gridgen.mark_served": _after_mark_served,
    "simulator.generate_traffic": _after_generate_traffic,
    "simulator.aggregate_rate_series": _after_aggregate,
    "svgplot.line_plot": _after_line_plot,
}
