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
import dataclasses
import functools
import io
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import TOPOLOGIES, SimulationConfig, config_fields
from .deployment import CellDeployment, deploy
from .errors import ConfigError
from .gridgen import PowerGrid, build_grid, mark_served
from .simulator import METRICS, SweepRow, run_cell, run_sweep
from .svgplot import PlotSeries, line_plot
from .traffic import TrafficModel

TOPOLOGY_COLORS = {"bus": "blue", "tree": "red", "chain": "green"}

SIMULATE_COLUMNS = ("seed", "topology", "density") + METRICS

SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))

# records per chunk of layout.json text, so that writing holds one chunk's
# pieces, not the whole file's
_RECORDS = 512


def run_manifest(config: SimulationConfig, timestamp: bool) -> dict:
    """Provenance block written into or alongside every output file."""
    manifest = {
        "version": __version__,
        "master_seed": config.master_seed,
        "config": config.as_dict(),
        "traffic": dataclasses.asdict(TrafficModel.from_config(config)),
    }
    if timestamp:
        manifest["created_utc"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return manifest


# ---------------------------------------------------------------------------
# config assembly

def parse_config(
    path: str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> SimulationConfig:
    """Merge defaults <- SIM_SEED <- config file <- flag overrides; only
    the merged values are checked, so a flag overrides a bad file value."""
    env = dict(os.environ) if env is None else env
    values: dict = {}

    sim_seed = env.get("SIM_SEED")
    if sim_seed is not None:
        try:
            values["master_seed"] = int(sim_seed)
        except ValueError:
            raise ConfigError("SIM_SEED must be an integer, got %r" % sim_seed) from None

    values.update(_file_values(path))
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return SimulationConfig(**values).validate()


def _file_values(path: str | None) -> dict:
    """The keys and values of the JSON config file at path, {} for none."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("config file %s is not valid UTF-8: %s" % (path, exc)) from None
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
    return data


def _config_from_args(args: argparse.Namespace) -> tuple[SimulationConfig, dict]:
    """The config, and the values that the config file, read once, and the flags name."""
    named = _file_values(args.config)
    named.update((f, v) for f in config_fields() if (v := getattr(args, f, None)) is not None)
    return parse_config(None, named), named


# ---------------------------------------------------------------------------
# serialization

def _write_atomic(path: Path, pieces: Iterable[str]) -> None:
    """Write the text pieces in order through a uniquely named temporary
    file in the target directory, then rename it into place, so concurrent
    runs writing to one directory never share a temporary file.  The file
    is created as a plain open() creates it, so the umask sets its mode.
    A str is an iterable of characters: pass one text as a one-piece list."""
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _write_atomic(path, [json.dumps(payload, indent=2, allow_nan=False) + "\n"])


def _csv_text(columns: tuple[str, ...], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _num(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _texts(column: np.ndarray, text=json.dumps) -> np.ndarray:
    """text(v) for every entry v of a column, called once per distinct v."""
    values, at = np.unique(column, return_inverse=True)
    return np.array([text(v) for v in values.tolist()], dtype=object)[at]


def _block(name: str, keys: str, texts: Callable[[], tuple[list[str], ...]]) -> Iterator[str]:
    """The text of the layout.json block `name` in chunks of at most
    _RECORDS records: an array whose record j holds each of the
    space-separated keys with text j of its column, laid out as
    json.dumps(indent=2) lays it out.  Each key and each column fills one
    slice of a chunk's pieces.  ``texts()`` gives the columns when the first
    chunk is asked for, so they live only while the block is written."""
    columns = texts()
    width, rows = 2 * len(columns), len(columns[0])
    if not rows:
        yield ',\n  "%s": []' % name
        return
    for lo in range(0, rows, _RECORDS):
        n = min(rows - lo, _RECORDS)
        text = [""] * (width * n)
        for i, (key, column) in enumerate(zip(keys.split(), columns)):
            lead = ",\n      " if i else "\n    },\n    {\n      "
            text[2 * i :: width] = [lead + '"%s": ' % key] * n
            text[2 * i + 1 :: width] = column[lo : lo + n]
        if not lo:  # record 0 opens the block rather than closing a record
            text[0] = text[0].replace("\n    },", ',\n  "%s": [' % name)
        yield "".join(text)
    yield "\n    }\n  ]"


def layout_json(deployment: CellDeployment, grid: PowerGrid, manifest: dict) -> Iterator[str]:
    """The text of layout.json as an iterator of chunks: the header through
    json.dumps, then the cells, nodes and edges blocks, each chunk pieced
    together from at most _RECORDS records of columns of text.  Coordinates
    are formatted on the call, each float once (a cell node reuses its
    cell's text), a block's other columns as it is written, and ids come
    from one table of int text whose last entry, "null", is where -1 ids
    land.  The joined chunks are the bytes of ``json.dumps(document,
    indent=2, allow_nan=False) + "\n"``, and a
    non-finite float raises ValueError on the call, as that call does."""
    # coordinates of the cells, the hub and the junctions; node i's is row at[i]
    xy = np.concatenate((deployment.xy, [deployment.hub], grid.junction_xy))
    if not all(np.isfinite(c).all() for c in (xy, deployment.radius_m, grid.wire_m, grid.length_m)):
        raise ValueError("Out of range float values are not JSON compliant")
    n, node_cell, m = len(deployment.q), grid.node_cell, len(grid.node_cell)
    # their text, and the sectors'; the floats' list dies once the map is
    # drained
    at = grid.node_rows()
    xy = map(repr, xy.ravel().tolist())
    x, y = np.array(list(xy), dtype=object).reshape(-1, 2).T
    ints = np.array([*map(str, range(max(n, m))), "null"], dtype=object)
    # a sector is bounded by n_branches, not by the node count
    sectors = np.concatenate((deployment.sector, [-1], grid.junction_sector))
    sector = _texts(sectors, lambda k: json.dumps(k if k >= 0 else None))
    kind = np.array(['"junction"', '"cell"'], dtype=object)[(node_cell >= 0).view(np.int8)]
    kind[0] = '"hub"'
    hub = {"x_m": deployment.hub[0], "y_m": deployment.hub[1]}
    header = {"manifest": manifest, "hub": hub, "forced_crossings": grid.forced_crossings}
    return itertools.chain(
        [json.dumps(header, indent=2, allow_nan=False)[: -len("\n}")]],
        _block("cells", "id x_m y_m radius_m sector wire_distance_m served", lambda: (
            ints[:n].tolist(), x[:n].tolist(), y[:n].tolist(),
            [repr(float(deployment.radius_m))] * n, sector[:n].tolist(),
            list(map(repr, grid.wire_m.tolist())), _texts(grid.served).tolist(),
        )),
        _block("nodes", "id x_m y_m kind cell_id sector", lambda: (
            ints[:m].tolist(), x[at].tolist(), y[at].tolist(), kind.tolist(),
            ints[node_cell].tolist(), sector[at].tolist(),
        )),
        _block("edges", "a b length_m", lambda: (
            ints[grid.edges[:, 0]].tolist(), ints[grid.edges[:, 1]].tolist(),
            list(map(repr, grid.length_m.tolist())),
        )),
        ["\n}\n"],
    )


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args: argparse.Namespace) -> int:
    config, _ = _config_from_args(args)
    rng = np.random.default_rng(config.master_seed)
    deployment = deploy(config, rng)
    grid = build_grid(deployment, config)
    mark_served(grid, config.max_wire_m, config.max_cells_per_branch)
    out = Path(args.out) / "layout.json"
    _write_atomic(out, layout_json(deployment, grid, run_manifest(config, timestamp=False)))
    print("wrote %s" % out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config, _ = _config_from_args(args)
    # the replications of sweep cell (0, 0)
    reports = run_cell(config, config.master_seed, 0, 0, config.replications)
    rows = [
        [_num(report.seed), config.topology, _num(config.density)]
        + [_num(getattr(report, c)) for c in METRICS]
        for report in reports
    ]
    out = Path(args.out) / "metrics.csv"
    _write_atomic(out, [_csv_text(SIMULATE_COLUMNS, rows)])
    _write_json(Path(args.out) / "metrics.manifest.json", run_manifest(config, timestamp=True))
    print("wrote %s" % out)
    return 0


def _parse_densities(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError("--densities must be a comma-separated list of numbers") from None
    if not values:
        raise ConfigError("--densities must name at least one density")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    config, named = _config_from_args(args)
    densities = (
        [config.density] if args.densities is None else _parse_densities(args.densities)
    )
    topologies = [config.topology] if "topology" in named else list(TOPOLOGIES)
    result = run_sweep(config, densities, topologies, config.replications)

    rows = [[_num(getattr(r, c)) for c in SWEEP_COLUMNS] for r in result.rows]
    out_dir = Path(args.out)
    out = out_dir / "sweep.csv"
    _write_atomic(out, [_csv_text(SWEEP_COLUMNS, rows)])
    _write_json(out_dir / "sweep.manifest.json", run_manifest(config, timestamp=True))
    written = [str(out)]

    if args.plots == "on":
        reach_series, traffic_series = [], []
        for j, t in enumerate(topologies):
            # rows are density-major: topology j's row for each density
            cells = result.rows[j :: len(topologies)]
            color = TOPOLOGY_COLORS[t]
            reach = [
                None if r.reachability_mean is None else 100.0 * r.reachability_mean
                for r in cells
            ]
            reach_series.append(PlotSeries(t, color, densities, reach))
            traffic_series += [
                PlotSeries(t + " avg", color, densities, [r.avg_rate_bps_mean for r in cells]),
                PlotSeries(
                    t + " max", color, densities, [r.max_rate_bps_mean for r in cells], dash="6,4"
                ),
            ]
        plots = {
            "reachability_vs_density.svg": line_plot(
                reach_series,
                "Reachability vs cell density",
                "cell density",
                "reachable cells [%]",
            ),
            "traffic_vs_density.svg": line_plot(
                traffic_series,
                "Hub traffic vs cell density",
                "cell density",
                "aggregate rate [bps]",
                y_si=True,
            ),
        }
        for name, svg in plots.items():
            _write_atomic(out_dir / name, [svg])
            written.append(str(out_dir / name))

    for path in written:
        print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are config errors here
        raise ConfigError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    # each scenario flag's dest is its SimulationConfig field
    common.add_argument("--density", type=float, help="cell density (coverage fraction)")
    common.add_argument("--topology", choices=TOPOLOGIES)
    common.add_argument("--side", dest="side_m", type=float, help="square side length [m]")
    common.add_argument("--cell-area", dest="cell_area_m2", type=float, help="cell footprint [m^2]")
    common.add_argument("--max-wire", dest="max_wire_m", type=float, help="wire reach limit [m]")
    common.add_argument("--branches", dest="n_branches", type=int, help="number of feeder branches")
    common.add_argument("--branch-cap", dest="max_cells_per_branch", type=int, help="max served cells per branch")
    common.add_argument("--interarrival", dest="mean_interarrival_s", type=float, help="mean request inter-arrival [s]")
    common.add_argument("--horizon", dest="horizon_s", type=float, help="simulated horizon [s]")
    common.add_argument("--dt", dest="dt_s", type=float, help="aggregation step [s]")
    common.add_argument("--reps", dest="replications", type=int, help="Monte Carlo replications")
    common.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    common.add_argument("--out", default=".", help="output directory")

    parser = _Parser(
        prog="plcsim",
        description="Power-line-fed small-cell front-haul feasibility simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", parents=[common], help="write one grid layout as JSON")
    sub.add_parser("simulate", parents=[common], help="run replications, write metrics CSV")
    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep densities x topologies")
    p_sweep.add_argument("--densities", metavar="D1,D2,...", help="comma-separated density list")
    p_sweep.add_argument("--plots", choices=("on", "off"), default="on")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so the one parser serves a patched command too
        return globals()["cmd_" + args.command](args)
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
