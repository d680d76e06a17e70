"""Command line front end: generate | simulate | sweep.

Precedence for every scenario knob: command-line flag beats config-file
key beats the SIM_SEED environment variable (seed only) beats built-in
defaults.  All file writes are whole-file atomic (write to a temp name,
then rename), outputs are deterministic for a fixed seed, and every data
file embeds or sits next to a run manifest.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import TOPOLOGIES, SimulationConfig, config_fields
from .deployment import Cell, CellDeployment, deploy
from .errors import ConfigError
from .gridgen import GridEdge, GridNode, PowerGrid, build_grid, mark_served
from .simulator import derive_seed, run_replication, run_sweep
from .svgplot import PlotSeries, line_plot
from .traffic import TrafficModel

TOPOLOGY_COLORS = {"bus": "blue", "tree": "red", "chain": "green"}

SIMULATE_COLUMNS = (
    "seed",
    "topology",
    "density",
    "reachability",
    "avg_rate_bps",
    "max_rate_bps",
    "mean_wait_s",
    "forced_crossings",
)

SWEEP_COLUMNS = (
    "density",
    "topology",
    "replications",
    "reachability_mean",
    "reachability_stderr",
    "avg_rate_bps_mean",
    "avg_rate_bps_stderr",
    "max_rate_bps_mean",
    "max_rate_bps_stderr",
    "mean_wait_s_mean",
    "mean_wait_s_stderr",
    "forced_crossings_mean",
    "forced_crossings_stderr",
)

# command-line destination -> config field
_FLAG_FIELDS = {
    "density": "density",
    "topology": "topology",
    "side": "side_m",
    "cell_area": "cell_area_m2",
    "max_wire": "max_wire_m",
    "branches": "n_branches",
    "branch_cap": "max_cells_per_branch",
    "interarrival": "mean_interarrival_s",
    "horizon": "horizon_s",
    "dt": "dt_s",
    "seed": "master_seed",
    "reps": "replications",
}


@dataclass
class RunManifest:
    """Provenance block written into or alongside every output file."""

    version: str
    master_seed: int
    config: dict
    traffic: dict
    created_utc: str | None = None

    @classmethod
    def for_config(cls, config: SimulationConfig, timestamp: bool = True) -> "RunManifest":
        model = TrafficModel.from_config(config)
        traffic = {
            "pareto_alpha": model.pareto_alpha,
            "pareto_xm_bits": model.pareto_xm_bits,
            "lognorm_mu": model.lognorm_mu,
            "lognorm_sigma": model.lognorm_sigma,
            "data_fraction": model.data_fraction,
            "voice_rate_bps": model.voice_rate_bps,
            "voice_mean_duration_s": model.voice_mean_duration_s,
            "mean_interarrival_s": model.mean_interarrival_s,
            "volume_cap_bits": model.volume_cap_bits,
        }
        created = (
            datetime.now(timezone.utc).isoformat(timespec="seconds")
            if timestamp
            else None
        )
        return cls(__version__, config.master_seed, config.as_dict(), traffic, created)

    def as_dict(self) -> dict:
        out = {
            "version": self.version,
            "master_seed": self.master_seed,
            "config": self.config,
            "traffic": self.traffic,
        }
        if self.created_utc is not None:
            out["created_utc"] = self.created_utc
        return out


# ---------------------------------------------------------------------------
# config assembly

def parse_config(
    path: str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> SimulationConfig:
    """Merge defaults <- SIM_SEED <- config file <- flag overrides."""
    env = dict(os.environ) if env is None else env
    values: dict = {}

    sim_seed = env.get("SIM_SEED")
    if sim_seed is not None:
        try:
            values["master_seed"] = int(sim_seed)
        except ValueError:
            raise ConfigError("SIM_SEED must be an integer, got %r" % sim_seed) from None

    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        if text.strip():
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError("config file %s is not valid JSON: %s" % (path, exc))
        else:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("config file %s must hold a JSON object" % path)
        valid = config_fields()
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise ConfigError(
                "unknown config key(s): %s; valid keys: %s"
                % (", ".join(unknown), ", ".join(valid))
            )
        for key, value in data.items():
            values[key] = _coerce_field(key, value)

    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _coerce_field(key, value)

    config = SimulationConfig(**values)
    config.validate()
    return config


_DEFAULTS = SimulationConfig()


def _coerce_field(field: str, value):
    default = getattr(_DEFAULTS, field)
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigError("%s must be a boolean, got %r" % (field, value))
    if isinstance(default, int):
        if isinstance(value, bool):
            raise ConfigError("%s must be an integer, got %r" % (field, value))
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError("%s must be an integer, got %r" % (field, value))
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError("%s must be an integer, got %r" % (field, value)) from None
    if isinstance(default, float):
        if isinstance(value, bool):
            raise ConfigError("%s must be a number, got %r" % (field, value))
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError("%s must be a number, got %r" % (field, value)) from None
    if not isinstance(value, str):
        raise ConfigError("%s must be a string, got %r" % (field, value))
    return value


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    overrides = {
        field: getattr(args, dest)
        for dest, field in _FLAG_FIELDS.items()
        if hasattr(args, dest)
    }
    return parse_config(args.config, overrides)


# ---------------------------------------------------------------------------
# serialization

def _write_atomic(path: Path, text: str) -> None:
    """Write through a uniquely named temporary file in the target
    directory, then rename it into place, so concurrent runs writing to
    one directory never share a temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        # mkstemp creates the file private (0600); give it the mode a plain
        # open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(columns: tuple[str, ...], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _num(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def layout_dict(
    deployment: CellDeployment, grid: PowerGrid, manifest: RunManifest
) -> dict:
    return {
        "manifest": manifest.as_dict(),
        "hub": {"x_m": deployment.hub_x_m, "y_m": deployment.hub_y_m},
        "forced_crossings": grid.forced_crossings,
        "cells": [
            {
                "id": c.id,
                "x_m": c.x_m,
                "y_m": c.y_m,
                "radius_m": c.radius_m,
                "sector": c.sector,
                "wire_distance_m": grid.wire_distance_m[c.id],
                "served": grid.served[c.id],
            }
            for c in deployment.cells
        ],
        "nodes": [
            {
                "id": n.id,
                "x_m": n.x_m,
                "y_m": n.y_m,
                "kind": n.kind,
                "cell_id": n.cell_id,
                "sector": n.sector,
            }
            for n in grid.nodes
        ],
        "edges": [{"a": e.a, "b": e.b, "length_m": e.length_m} for e in grid.edges],
    }


def load_layout(path: str | Path) -> tuple[CellDeployment, PowerGrid]:
    """Re-parse a layout file written by `generate` into live objects."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    config = SimulationConfig(**data["manifest"]["config"])
    cells = [
        Cell(c["id"], c["x_m"], c["y_m"], c["radius_m"], c["sector"])
        for c in data["cells"]
    ]
    deployment = CellDeployment(
        cells=cells,
        hub_x_m=data["hub"]["x_m"],
        hub_y_m=data["hub"]["y_m"],
        config=config,
    )
    grid = PowerGrid(
        nodes=[
            GridNode(n["id"], n["x_m"], n["y_m"], n["kind"], n["cell_id"], n["sector"])
            for n in data["nodes"]
        ],
        edges=[GridEdge(e["a"], e["b"], e["length_m"]) for e in data["edges"]],
        hub_node=0,
        n_branches=config.n_branches,
        wire_distance_m={c["id"]: c["wire_distance_m"] for c in data["cells"]},
        branch_of={c["id"]: c["sector"] for c in data["cells"]},
        served={c["id"]: c["served"] for c in data["cells"]},
        forced_crossings=data["forced_crossings"],
    )
    return deployment, grid


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rng = np.random.default_rng(config.master_seed)
    deployment = deploy(config, rng)
    grid = build_grid(deployment, config)
    mark_served(grid, config.max_wire_m, config.max_cells_per_branch)
    manifest = RunManifest.for_config(config, timestamp=False)
    payload = layout_dict(deployment, grid, manifest)
    out = Path(args.out) / "layout.json"
    _write_atomic(out, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    print("wrote %s" % out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = []
    for k in range(config.replications):
        seed = derive_seed(config.master_seed, 0, 0, k)
        report = run_replication(config, seed)
        rows.append(
            [
                str(seed),
                config.topology,
                _num(config.density),
                _num(report.reachability),
                _num(report.avg_rate_bps),
                _num(report.max_rate_bps),
                _num(report.mean_wait_s),
                str(report.forced_crossings),
            ]
        )
    out = Path(args.out) / "metrics.csv"
    _write_atomic(out, _csv_text(SIMULATE_COLUMNS, rows))
    manifest = RunManifest.for_config(config, timestamp=True)
    _write_atomic(
        Path(args.out) / "metrics.manifest.json",
        json.dumps(manifest.as_dict(), indent=2, allow_nan=False) + "\n",
    )
    print("wrote %s" % out)
    return 0


def _parse_densities(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError("--densities must be a comma-separated list of numbers") from None
    if not values:
        raise ConfigError("--densities must name at least one density")
    for v in values:
        if v < 0 or math.isnan(v) or math.isinf(v):
            raise ConfigError("density must be >= 0 and finite (got %r)" % v)
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    densities = (
        _parse_densities(args.densities) if args.densities else [config.density]
    )
    topologies = [args.topology] if args.topology else list(TOPOLOGIES)
    result = run_sweep(config, densities, topologies, config.replications)

    rows = []
    for r in result.rows:
        rows.append(
            [
                _num(r.density),
                r.topology,
                str(r.replications),
                _num(r.reachability_mean),
                _num(r.reachability_stderr),
                _num(r.avg_rate_bps_mean),
                _num(r.avg_rate_bps_stderr),
                _num(r.max_rate_bps_mean),
                _num(r.max_rate_bps_stderr),
                _num(r.mean_wait_s_mean),
                _num(r.mean_wait_s_stderr),
                _num(r.forced_crossings_mean),
                _num(r.forced_crossings_stderr),
            ]
        )
    out_dir = Path(args.out)
    out = out_dir / "sweep.csv"
    _write_atomic(out, _csv_text(SWEEP_COLUMNS, rows))
    manifest = RunManifest.for_config(config, timestamp=True)
    _write_atomic(
        out_dir / "sweep.manifest.json",
        json.dumps(manifest.as_dict(), indent=2, allow_nan=False) + "\n",
    )
    written = [str(out)]

    if args.plots == "on":
        by_cell = {(row.density, row.topology): row for row in result.rows}
        reach_series = []
        avg_series = []
        for topo in topologies:
            color = TOPOLOGY_COLORS[topo]
            reach = [
                None
                if by_cell[(d, topo)].reachability_mean is None
                else 100.0 * by_cell[(d, topo)].reachability_mean
                for d in densities
            ]
            reach_series.append(PlotSeries(topo, color, list(densities), reach))
            avg_series.append(
                PlotSeries(
                    "%s avg" % topo,
                    color,
                    list(densities),
                    [by_cell[(d, topo)].avg_rate_bps_mean for d in densities],
                )
            )
            avg_series.append(
                PlotSeries(
                    "%s max" % topo,
                    color,
                    list(densities),
                    [by_cell[(d, topo)].max_rate_bps_mean for d in densities],
                    dash="6,4",
                )
            )
        reach_svg = line_plot(
            reach_series,
            "Reachability vs cell density",
            "cell density",
            "reachable cells [%]",
        )
        traffic_svg = line_plot(
            avg_series,
            "Hub traffic vs cell density",
            "cell density",
            "aggregate rate [bps]",
            y_si=True,
        )
        reach_path = out_dir / "reachability_vs_density.svg"
        traffic_path = out_dir / "traffic_vs_density.svg"
        _write_atomic(reach_path, reach_svg)
        _write_atomic(traffic_path, traffic_svg)
        written += [str(reach_path), str(traffic_path)]

    for path in written:
        print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are config errors here
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--density", type=float, help="cell density (coverage fraction)")
    common.add_argument("--topology", choices=TOPOLOGIES)
    common.add_argument("--side", type=float, help="square side length [m]")
    common.add_argument("--cell-area", dest="cell_area", type=float, help="cell footprint [m^2]")
    common.add_argument("--max-wire", dest="max_wire", type=float, help="wire reach limit [m]")
    common.add_argument("--branches", type=int, help="number of feeder branches")
    common.add_argument("--branch-cap", dest="branch_cap", type=int, help="max served cells per branch")
    common.add_argument("--interarrival", type=float, help="mean request inter-arrival [s]")
    common.add_argument("--horizon", type=float, help="simulated horizon [s]")
    common.add_argument("--dt", type=float, help="aggregation step [s]")
    common.add_argument("--reps", type=int, help="Monte Carlo replications")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--out", default=".", help="output directory")

    parser = _Parser(
        prog="plcsim",
        description="Power-line-fed small-cell front-haul feasibility simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[common], help="write one grid layout as JSON")
    p_gen.set_defaults(func=cmd_generate)

    p_sim = sub.add_parser("simulate", parents=[common], help="run replications, write metrics CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep densities x topologies")
    p_sweep.add_argument("--densities", metavar="D1,D2,...", help="comma-separated density list")
    p_sweep.add_argument("--plots", choices=("on", "off"), default="on")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        print("internal error: %r" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
