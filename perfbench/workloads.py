"""The benchmark's workloads: the CLI call each operation makes, and the
exact output check run on its files afterwards.

Every check holds exactly on any seed: none is statistical.  A check
returns (failed operations, messages), where an operation is one
replication or one ``generate`` call.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from plcsim import SimulationConfig, derive_seed, run_replication

SWEEP_DENSITIES = (0.1, 0.25, 0.5, 1.0)
# `sweep` runs every topology, in the documented order
TOPOLOGIES = ("bus", "tree", "chain")

SWEEP_FILES = (
    "sweep.csv",
    "sweep.manifest.json",
    "reachability_vs_density.svg",
    "traffic_vs_density.svg",
)

Check = Callable[[Path, int], tuple[int, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: int  # distinct CLI calls per run, each repeated round-robin
    replications: int  # operations per CLI call
    args: tuple[str, ...]  # CLI arguments besides --out and --seed
    check: Check

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        return [*self.args, "--out", str(out_dir), "--seed", str(seed)]


def _same(csv_text: str, value) -> bool:
    """A CSV field equals a report value; None is written as nan."""
    got = float(csv_text)
    if value is None:
        return math.isnan(got)
    return got == float(value)


def check_reach_sweep(out: Path, seed: int) -> tuple[int, list[str]]:
    """Rebuild every (density, topology) row from derive_seed alone.

    The sweep runs one replication per cell, so each CSV row must equal the
    replication rebuilt with run_replication, and its stderr columns are
    undefined (nan).
    """
    n_cells = len(SWEEP_DENSITIES) * len(TOPOLOGIES)
    missing = [name for name in SWEEP_FILES if not (out / name).is_file()]
    if missing:
        return n_cells, ["missing output %s" % ", ".join(missing)]
    try:
        bad, seen = _sweep_rows_problems(out, seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return n_cells, ["malformed sweep output: %r" % exc]
    bad += ["missing sweep row %r" % (key,) for key in sorted(
        {(d, t) for d in SWEEP_DENSITIES for t in TOPOLOGIES} - seen
    )]
    return min(len(bad), n_cells), bad


def _sweep_rows_problems(out: Path, seed: int) -> tuple[list[str], set]:
    with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    base = SimulationConfig(horizon_s=1.0, dt_s=1.0, master_seed=seed)
    bad: list[str] = []
    seen = set()
    for row in rows:
        key = (float(row["density"]), row["topology"])
        if key in seen or key[0] not in SWEEP_DENSITIES or key[1] not in TOPOLOGIES:
            bad.append("unexpected sweep row %r" % (key,))
            continue
        seen.add(key)
        i = SWEEP_DENSITIES.index(key[0])
        j = TOPOLOGIES.index(key[1])
        scenario = dataclasses.replace(base, density=key[0], topology=key[1])
        rep = run_replication(scenario, derive_seed(seed, i, j, 0))
        ok = (
            row["replications"] == "1"
            and rep.reachability is not None
            and 0.0 <= rep.reachability <= 1.0
            and _same(row["reachability_mean"], rep.reachability)
            and _same(row["avg_rate_bps_mean"], rep.avg_rate_bps)
            and _same(row["max_rate_bps_mean"], rep.max_rate_bps)
            and _same(row["mean_wait_s_mean"], rep.mean_wait_s)
            and _same(row["forced_crossings_mean"], rep.forced_crossings)
            and all(math.isnan(float(v)) for k, v in row.items() if k.endswith("_stderr"))
        )
        if not ok:
            bad.append("row %r does not match its rebuilt replication" % (key,))
    return bad, seen


def check_load_simulate(out: Path, seed: int) -> tuple[int, list[str]]:
    """One finite row for the single replication, reachability in [0, 1]."""
    try:
        json.loads((out / "metrics.manifest.json").read_text(encoding="utf-8"))
        with open(out / "metrics.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        (row,) = rows
        values = {k: float(v) for k, v in row.items() if k != "topology"}
        ok = (
            row["topology"] == "bus"
            and values["density"] == 1.0
            and int(row["seed"]) == derive_seed(seed, 0, 0, 0)
            and all(math.isfinite(v) for v in values.values())
            and 0.0 <= values["reachability"] <= 1.0
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 1, ["malformed simulate output: %r" % exc]
    return (0, []) if ok else (1, ["metrics row fails its check: %r" % row])


def check_layout(out: Path, seed: int) -> tuple[int, list[str]]:
    """Spanning tree rooted at the hub; wire distance = tree path length;
    served flags = nearest-first within reach, up to the branch cap."""
    try:
        layout = json.loads((out / "layout.json").read_text(encoding="utf-8"))
        problems = layout_problems(layout, SimulationConfig())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = ["malformed layout: %r" % exc]
    return (1 if problems else 0), problems


def layout_problems(layout: dict, config: SimulationConfig) -> list[str]:
    nodes = layout["nodes"]
    edges = layout["edges"]
    cells = layout["cells"]
    problems: list[str] = []
    if [n["id"] for n in nodes] != list(range(len(nodes))) or nodes[0]["kind"] != "hub":
        return ["node ids are not 0..m-1 with the hub at 0"]
    if len(edges) != len(nodes) - 1:
        return ["%d edges for %d nodes: not a tree" % (len(edges), len(nodes))]

    adjacency: list[list[tuple[int, float]]] = [[] for _ in nodes]
    for e in edges:
        a, b, length = e["a"], e["b"], e["length_m"]
        if not (0 <= a < len(nodes) and 0 <= b < len(nodes)):
            return problems + ["edge %r-%r names a missing node" % (a, b)]
        pa, pb = nodes[a], nodes[b]
        if not math.isclose(
            length, math.hypot(pa["x_m"] - pb["x_m"], pa["y_m"] - pb["y_m"]),
            rel_tol=1e-9, abs_tol=1e-9,
        ):
            problems.append("edge %d-%d length differs from its endpoints' distance" % (a, b))
        adjacency[a].append((b, length))
        adjacency[b].append((a, length))

    path = [math.nan] * len(nodes)
    path[0] = 0.0
    stack = [0]
    while stack:
        u = stack.pop()
        for v, length in adjacency[u]:
            if math.isnan(path[v]):
                path[v] = path[u] + length
                stack.append(v)
    if any(math.isnan(p) for p in path):
        return problems + ["grid is not connected to the hub"]

    node_of = {n["cell_id"]: n["id"] for n in nodes if n["kind"] == "cell"}
    if sorted(node_of) != [c["id"] for c in cells]:
        problems.append("cells and cell nodes do not match one to one")
        return problems
    eligible: dict[int, list[tuple[float, int]]] = {}
    for c in cells:
        wire = c["wire_distance_m"]
        if not math.isclose(wire, path[node_of[c["id"]]], rel_tol=1e-9, abs_tol=1e-9):
            problems.append("cell %d wire distance differs from its path length" % c["id"])
        if wire <= config.max_wire_m:
            eligible.setdefault(c["sector"], []).append((wire, c["id"]))
    expected = {
        cid
        for ranked in eligible.values()
        for _, cid in sorted(ranked)[: config.max_cells_per_branch]
    }
    served = {c["id"] for c in cells if c["served"]}
    if served != expected:
        problems.append(
            "served flags break reach or branch cap on %d cells" % len(served ^ expected)
        )
    return problems


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # criterion-1 shape: gridgen-bound (chain), plus unused traffic draws
        Workload(
            "reach-sweep",
            6,
            len(SWEEP_DENSITIES) * len(TOPOLOGIES),
            (
                "sweep", "--horizon", "1", "--dt", "1",
                "--densities", ",".join(str(d) for d in SWEEP_DENSITIES),
                "--plots", "on",
            ),
            check_reach_sweep,
        ),
        # default 3600 s horizon: traffic generation and aggregation bound
        Workload(
            "load-simulate",
            10,
            1,
            ("simulate", "--density", "1.0", "--topology", "bus"),
            check_load_simulate,
        ),
        # no traffic: JSON encoding and bus grid building
        Workload(
            "layout-generate",
            10,
            1,
            ("generate", "--density", "1.0", "--topology", "bus"),
            check_layout,
        ),
    )
}
