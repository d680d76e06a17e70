import ast
import importlib
import json
import math
import os
import re
import resource
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import layout_dict
from plcsim import cli
from plcsim.cli import (
    SIMULATE_COLUMNS,
    SWEEP_COLUMNS,
    _num,
    layout_json,
    main,
    parse_config,
    run_manifest,
)
from plcsim.config import _MIN_DATA_DURATION_S, SimulationConfig, config_fields
from plcsim.deployment import CellDeployment, assign_sectors, deploy
from plcsim.errors import ConfigError
from plcsim.gridgen import build_grid, mark_served
from plcsim.simulator import derive_seed, run_replication


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("SIM_SEED", raising=False)


# ---------------------------------------------------------------------------
# configuration assembly

def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = parse_config(str(path))
    assert cfg.side_m == 700.0
    assert cfg.density == 0.25
    assert cfg.max_wire_m == 300.0
    assert cfg.n_branches == 6
    assert cfg.max_cells_per_branch == 35
    assert cfg.mean_interarrival_s == 10.0


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"density": 0.25}))
    cfg = parse_config(str(path), {"density": 0.5})
    assert cfg.density == 0.5


def test_file_overrides_env():
    cfg = parse_config(None, {}, env={"SIM_SEED": "77"})
    assert cfg.master_seed == 77


def test_env_beaten_by_file_and_flag(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"master_seed": 5}))
    cfg = parse_config(str(path), {}, env={"SIM_SEED": "77"})
    assert cfg.master_seed == 5
    cfg = parse_config(str(path), {"master_seed": 9}, env={"SIM_SEED": "77"})
    assert cfg.master_seed == 9


def test_bad_env_seed_rejected():
    with pytest.raises(ConfigError, match="SIM_SEED"):
        parse_config(None, {}, env={"SIM_SEED": "not-a-number"})


def test_unknown_key_lists_valid_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"densty": 0.5}))
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "densty" in str(err.value)
    assert "density" in str(err.value)
    assert "max_wire_m" in str(err.value)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(str(path))


def test_non_utf8_config_reported(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'\xff\xfe{"density": 0.1}')
    with pytest.raises(ConfigError, match="cfg.json"):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_config_type_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_branches": 2.5}))
    with pytest.raises(ConfigError, match="n_branches"):
        parse_config(str(path))
    path.write_text(json.dumps({"density": "lots"}))
    with pytest.raises(ConfigError, match="density"):
        parse_config(str(path))


def test_flag_overrides_bad_file_value(tmp_path):
    """Only the merged values are checked: a flag that replaces a bad file
    value leaves nothing to reject."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_branches": 2.5}))
    assert parse_config(str(path), {"n_branches": 3}).n_branches == 3


def test_validation_error_names_field():
    with pytest.raises(ConfigError, match="dt_s"):
        parse_config(None, {"dt_s": 0.0})


# ---------------------------------------------------------------------------
# exit codes

def test_exit_zero_on_success(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), "--density", "0.02"]) == 0
    assert "layout.json" in capsys.readouterr().out


def test_exit_one_on_config_error(tmp_path, capsys):
    assert main(["simulate", "--dt", "0", "--out", str(tmp_path)]) == 1
    assert "dt_s" in capsys.readouterr().err


def test_exit_one_on_unknown_flag(capsys):
    assert main(["generate", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_exit_one_on_missing_command(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_exit_one_on_bool_config_value(tmp_path, capsys):
    """A JSON true is never read as a number."""
    path = tmp_path / "cfg.json"
    path.write_text('{"n_branches": true}')
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "n_branches" in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["side_m", "volume_cap_bits"])
def test_exit_one_on_non_finite_config_value(tmp_path, capsys, field):
    path = tmp_path / "cfg.json"
    path.write_text('{"%s": Infinity}' % field)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, fields",
    [
        (["generate"], {"side_m": 1e200}, ["density", "side_m", "cell_area_m2"]),
        (["generate"], {"cell_area_m2": 1e-300}, ["cell_area_m2"]),
        (
            ["simulate", "--horizon", "1e300", "--dt", "1e-300", "--density", "0"],
            {},
            ["horizon_s", "dt_s"],
        ),
        (
            ["simulate", "--interarrival", "1e-300", "--density", "0.01", "--horizon", "1"],
            {},
            ["mean_interarrival_s"],
        ),
        (["simulate", "--density", "1e15"], {}, ["density", "mean_interarrival_s"]),
        (["sweep", "--densities", "1e300", "--reps", "1"], {}, ["density"]),
        (["generate", "--density", "0.01"], {"n_branches": 2**70, "topology": "tree"}, ["n_branches"]),
        (
            ["simulate", "--density", "0"],
            {"n_branches": 2**40, "horizon_s": 2**30, "dt_s": 1},
            ["n_branches", "horizon_s", "dt_s"],
        ),
        # finite, but 10 kb in bits overflows to inf
        (["generate"], {"kb_bits": 1e308}, ["kb_bits"]),
        # within the index range, but each per-branch array would need 8 TiB
        (
            ["simulate", "--density", "0.05"],
            {"n_branches": 2**40, "horizon_s": 1, "dt_s": 1},
            ["n_branches"],
        ),
        # a sum of voice rates could overflow to inf; the plot step then
        # failed after sweep.csv was written
        (
            ["sweep", "--densities", "0.1", "--reps", "2", "--horizon", "200"],
            {"voice_rate_bps": 1e308},
            ["voice_rate_bps"],
        ),
        # a capped volume over the shortest duration numpy draws could
        # overflow a data rate to inf: the sweep wrote nan rates, then its
        # plot step failed
        (
            ["sweep", "--densities", "0.1", "--reps", "2", "--horizon", "200", "--topology", "bus"],
            {"volume_cap_bits": 1.7e308, "kb_bits": 1.7e306},
            ["volume_cap_bits"],
        ),
        # rates whose sums fit a float but whose squares do not: the sweep
        # wrote inf rate standard errors, with numpy warnings on stderr
        (
            ["sweep", "--densities", "0.1", "--reps", "2", "--horizon", "200", "--topology", "bus"],
            {"voice_rate_bps": 1e280, "data_fraction": 0.0},
            ["voice_rate_bps"],
        ),
        (
            ["sweep", "--densities", "0.1", "--reps", "2", "--horizon", "200", "--topology", "bus"],
            {"volume_cap_bits": 1e160, "kb_bits": 1e158},
            ["volume_cap_bits"],
        ),
    ],
    ids=[
        "side",
        "cell-area",
        "steps",
        "arrivals",
        "sessions",
        "sweep-density",
        "branches",
        "branch-series",
        "kb-bits",
        "branch-bytes",
        "voice-rate",
        "data-rate",
        "voice-rate-square",
        "data-rate-square",
    ],
)
def test_exit_one_on_unallocatable_size(tmp_path, capsys, argv, config, fields):
    """Finite values whose array sizes exceed what numpy can index, or whose
    10 kb threshold in bits overflows a float, fail as config errors that
    name the fields, before anything is allocated."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    for field in fields:
        assert field in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, fields",
    [
        # 1.2e12 cells: each per-cell array would need 9.8 TB
        (["generate", "--topology", "bus"], {"density": 1e9, "horizon_s": 1}, ["density"]),
        # 1e12 steps: the rate series would need 56 TB
        (
            ["simulate", "--topology", "bus", "--reps", "1"],
            {"density": 0.05, "horizon_s": 1e12, "dt_s": 1},
            ["horizon_s", "dt_s"],
        ),
    ],
    ids=["cell-bytes", "series-bytes"],
)
def test_exit_one_over_memory_budget(tmp_path, capsys, argv, config, fields):
    """Sizes numpy could index but no run could hold fail as config errors
    that name the fields, before anything is allocated; both exited 3 with
    a MemoryError under a 1.5 GB address-space limit."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bytes" in err
    for field in fields:
        assert field in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--reps", "100000000", "--horizon", "1", "--density", "0.01"],
        ["sweep", "--reps", "30000000", "--horizon", "1", "--density", "0.01", "--plots", "off"],
        # within validate()'s bound, but not times 2 densities and 3 topologies
        ["sweep", "--reps", "30000", "--horizon", "1", "--densities", "0.01,0.02"],
    ],
    ids=["simulate", "sweep", "sweep-cells"],
)
def test_exit_one_on_replications_over_budget(tmp_path, argv):
    """Under a 1.5 GB address-space limit, replication counts whose reports
    could not be held fail as config errors naming `replications` before
    anything runs; the first two exited 3 with a MemoryError."""
    limit = (1_500_000_000, 1_500_000_000)
    # one BLAS thread, so that numpy's start-up fits the limit on any core count
    env = dict(_fresh_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "plcsim.cli", *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 1, proc.stderr
    assert "config error: replications" in proc.stderr
    assert elapsed < 5.0  # about 0.2 s: interpreter and numpy start-up
    assert not (tmp_path / "out").exists()


def test_exit_one_on_load_work_over_bound(tmp_path):
    """Density 213 on 7,490 branches at a 2e6 s horizon and a 1 s gap
    expects 5.2e11 sessions, about a day of drawing: it fails as a config
    error naming the fields of the work bound before anything runs."""
    argv = ["simulate", "--density", "213", "--branches", "7490", "--horizon", "2e6",
            "--interarrival", "1", "--dt", "1e4", "--out", str(tmp_path / "out")]
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "plcsim.cli", *argv], env=_fresh_env(), capture_output=True, text=True, timeout=60
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 1, proc.stderr
    assert "horizon_s / mean_interarrival_s * replications (expected sessions)" in proc.stderr
    assert elapsed < 5.0  # about 0.2 s: interpreter and numpy start-up
    assert not (tmp_path / "out").exists()


def test_cell_limit_replications_fit_in_memory(tmp_path):
    """Under a 600 MB address-space limit, twelve bus replications at the
    cell limit (262,137 cells) run: a batch holds the layouts that fit its
    byte budget, not all twelve.  Holding all twelve, at 46 MB each with
    the grid's node tables stored, exited 3 with a MemoryError."""
    limit = (600_000_000, 600_000_000)
    # one BLAS thread, so that numpy's start-up fits the limit on any core count
    env = dict(_fresh_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    argv = ["simulate", "--reps", "12", "--density", "213", "--horizon", "1", "--topology", "bus"]
    proc = subprocess.run(
        [sys.executable, "-m", "plcsim.cli", *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
    )
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "out" / "metrics.csv").read_text().splitlines()) == 1 + 12


def test_huge_data_volumes_warn_nothing(tmp_path, capsys):
    """A 10 kb threshold near the largest float overflows some drawn
    volumes to inf before the cap clips them; the run says nothing of it."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kb_bits": 1.7e307}))
    argv = ["simulate", "--density", "0.05", "--horizon", "10", "--config", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_rates_at_their_bound_warn_nothing(tmp_path, capsys):
    """The largest voice rate, and a volume cap half the largest, that
    validate() admits give a sweep with finite columns and plots, and the
    run says nothing."""
    cap = 2.0**437 * _MIN_DATA_DURATION_S
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"voice_rate_bps": 2.0**438, "volume_cap_bits": cap, "kb_bits": cap / 100}))
    argv = ["sweep", "--densities", "0.1,1.0", "--reps", "3", "--horizon", "200", "--config", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 6 and all(math.isfinite(float(v)) for row in rows for v in row[2:])


def test_exit_two_on_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["generate", "--config", str(missing), "--out", str(tmp_path)]) == 2
    assert "i/o error" in capsys.readouterr().err


def _fresh_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _outputs(out: Path) -> dict:
    """Every file under out by name, manifests without their timestamp."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith("manifest.json"):
            manifest = json.loads(path.read_text())
            manifest.pop("created_utc")
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


def test_one_process_runs_commands_as_fresh_processes(tmp_path, capsys):
    """main builds its parser once per process: a config error, then a good
    generate, then a sweep in one process give the exit codes, messages and
    files that a fresh process gives for each."""
    runs = [
        ["generate", "--density", "-1"],
        ["generate", "--density", "0.05", "--seed", "3"],
        ["sweep", "--densities", "0.02,0.05", "--reps", "2", "--horizon", "20", "--seed", "3"],
    ]
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / "here" / str(i), tmp_path / "fresh" / str(i)
        code = main(argv + ["--out", str(here)])
        err = capsys.readouterr().err
        proc = subprocess.run(
            [sys.executable, "-m", "plcsim.cli", *argv, "--out", str(fresh)],
            env=_fresh_env(), capture_output=True, text=True,
        )
        assert (code, err) == (proc.returncode, proc.stderr)
        assert here.exists() == fresh.exists() == (code == 0)
        if code == 0:
            assert _outputs(here) == _outputs(fresh)


def test_cached_parser_dispatches_to_the_current_command(tmp_path, monkeypatch, capsys):
    """The one parser looks its command up per call, so a command patched
    after the parser was built is the one that runs."""
    assert main(["generate", "--out", str(tmp_path), "--density", "0"]) == 0
    monkeypatch.setattr(cli, "cmd_generate", lambda args: 7)
    assert main(["generate", "--out", str(tmp_path)]) == 7
    assert cli._parser() is cli._parser()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_default_layout(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), "--seed", "3"]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "layout.json").read_text())
    assert len(data["cells"]) == 306
    assert data["hub"] == {"x_m": 350.0, "y_m": 350.0}
    assert data["manifest"]["master_seed"] == 3
    assert "created_utc" not in data["manifest"]
    assert {"pareto_alpha", "lognorm_mu"} <= set(data["manifest"]["traffic"])
    served = [c for c in data["cells"] if c["served"]]
    assert 0 < len(served) < len(data["cells"])


def test_generate_zero_density_valid_schema(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), "--density", "0"]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "layout.json").read_text())
    assert data["cells"] == []
    assert len(data["nodes"]) == 1
    assert data["edges"] == []


def test_generate_byte_identical_per_seed(tmp_path, capsys):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for out in (a_dir, b_dir):
        assert main(["generate", "--out", str(out), "--seed", "12"]) == 0
    capsys.readouterr()
    assert (a_dir / "layout.json").read_bytes() == (b_dir / "layout.json").read_bytes()


def test_generate_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SIM_SEED", "41")
    assert main(["generate", "--out", str(tmp_path), "--density", "0.02"]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "layout.json").read_text())
    assert data["manifest"]["master_seed"] == 41


def test_layout_round_trip(tmp_path, capsys):
    """Every field of layout.json equals a fresh in-memory build (bus adds
    junction nodes, which have no cell id)."""
    for topology in ("tree", "bus"):
        out = tmp_path / topology
        argv = ["generate", "--out", str(out), "--seed", "8", "--topology", topology]
        assert main(argv) == 0
        capsys.readouterr()
        data = json.loads((out / "layout.json").read_text())

        cfg = parse_config(None, {"master_seed": 8, "topology": topology})
        dep = deploy(cfg, np.random.default_rng(8))
        grid = mark_served(build_grid(dep, cfg), cfg.max_wire_m, cfg.max_cells_per_branch)

        assert data["hub"] == {"x_m": dep.hub[0], "y_m": dep.hub[1]}
        assert data["forced_crossings"] == grid.forced_crossings
        cells = data["cells"]
        assert [c["id"] for c in cells] == list(range(len(dep.xy)))
        assert [[c["x_m"], c["y_m"]] for c in cells] == dep.xy.tolist()
        assert {c["radius_m"] for c in cells} == {dep.radius_m}
        assert [c["sector"] for c in cells] == dep.sector.tolist()
        assert [c["wire_distance_m"] for c in cells] == grid.wire_m.tolist()
        assert [c["served"] for c in cells] == grid.served.tolist()
        assert all(type(c["served"]) is bool for c in cells)

        nodes = data["nodes"]
        assert [n["id"] for n in nodes] == list(range(len(grid.node_xy)))
        assert [[n["x_m"], n["y_m"]] for n in nodes] == grid.node_xy.tolist()
        assert [n["kind"] for n in nodes] == grid.node_kind.tolist()
        assert [n["cell_id"] for n in nodes] == [
            None if c < 0 else c for c in grid.node_cell.tolist()
        ]
        assert nodes[0]["kind"] == "hub" and nodes[0]["sector"] is None
        assert [n["sector"] for n in nodes[1:]] == grid.node_sector[1:].tolist()
        assert [[e["a"], e["b"]] for e in data["edges"]] == grid.edges.tolist()
        assert [e["length_m"] for e in data["edges"]] == grid.length_m.tolist()
    assert any(n["kind"] == "junction" for n in nodes)


def _layout(config):
    """Deployment, served grid and manifest of `generate` for a config."""
    dep = deploy(config, np.random.default_rng(config.master_seed))
    grid = mark_served(build_grid(dep, config), config.max_wire_m, config.max_cells_per_branch)
    return dep, grid, run_manifest(config, timestamp=False)


def _assert_layout_matches_oracle(config):
    dep, grid, manifest = _layout(config)
    document = layout_dict(dep, grid, manifest)
    text = "".join(layout_json(dep, grid, manifest))
    assert text == json.dumps(document, indent=2, allow_nan=False) + "\n"
    assert json.loads(text) == document


@pytest.mark.parametrize("hub_mode", ["center", "uniform"])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.25, 1.0])
@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_layout_json_matches_dict_oracle(topology, density, hub_mode):
    """The columnar writer gives json.dumps' bytes for the dict document."""
    _assert_layout_matches_oracle(
        SimulationConfig(topology=topology, density=density, hub_mode=hub_mode, master_seed=4)
    )


@given(
    topology=st.sampled_from(["bus", "tree", "chain"]),
    density=st.floats(0.0, 0.2),
    n_branches=st.integers(1, 12),
    anchor=st.floats(-10.0, 10.0),
    max_wire_m=st.floats(1.0, 600.0),
    cap=st.integers(1, 60),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_layout_json_matches_dict_oracle_property(
    topology, density, n_branches, anchor, max_wire_m, cap, seed
):
    _assert_layout_matches_oracle(
        SimulationConfig(
            topology=topology,
            density=density,
            n_branches=n_branches,
            sector_anchor_rad=anchor,
            max_wire_m=max_wire_m,
            max_cells_per_branch=cap,
            hub_mode="uniform",
            master_seed=seed,
        ).validate()
    )


def _poison(grid, column, value):
    # the node positions a grid holds itself are its junctions'
    getattr(grid, "junction_xy" if column == "node_xy" else column)[1] = value
    return grid


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["wire_m", "length_m", "node_xy"])
def test_layout_json_rejects_non_finite(column, value):
    """A non-finite float in any column raises ValueError, as json.dumps
    with allow_nan=False does on the dict document."""
    dep, grid, manifest = _layout(SimulationConfig(density=0.1, master_seed=4))
    _poison(grid, column, value)
    with pytest.raises(ValueError):
        json.dumps(layout_dict(dep, grid, manifest), allow_nan=False)
    with pytest.raises(ValueError):
        layout_json(dep, grid, manifest)


@pytest.mark.parametrize("column", ["wire_m", "length_m", "node_xy"])
def test_generate_non_finite_layout_is_internal_error(tmp_path, monkeypatch, capsys, column):
    real = cli.build_grid
    monkeypatch.setattr(cli, "build_grid", lambda *a: _poison(real(*a), column, math.nan))
    assert main(["generate", "--out", str(tmp_path), "--density", "0.1"]) == 3
    assert "ValueError" in capsys.readouterr().err
    assert not (tmp_path / "layout.json").exists()


def _hand_layout(points, topology, n_branches=6, anchor=0.0, hub=(350.0, 350.0)):
    """Deployment, served grid and manifest for cells at the given points."""
    config = SimulationConfig(
        topology=topology, n_branches=n_branches, sector_anchor_rad=anchor
    ).validate()
    xy = np.array(points, dtype=float).reshape(-1, 2)
    dep = CellDeployment(hub, xy, assign_sectors(xy, hub, n_branches, anchor), 11.28)
    grid = mark_served(build_grid(dep, config), config.max_wire_m, config.max_cells_per_branch)
    return dep, grid, run_manifest(config, timestamp=False)


def _assert_matches_oracle(dep, grid, manifest):
    text = "".join(layout_json(dep, grid, manifest))
    assert text == json.dumps(layout_dict(dep, grid, manifest), indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_layout_json_pitfalls_match_dict_oracle(topology):
    """Cases where reused or tabled text could go wrong give json.dumps'
    bytes for the dict document."""
    # one cell, in sector 11 of 12: a sector id above every node id
    dep, grid, manifest = _hand_layout([[450.0, 349.0]], topology, n_branches=12)
    assert dep.sector.tolist() == [11] and len(grid.node_xy) < 11
    _assert_matches_oracle(dep, grid, manifest)
    # an empty deployment: the hub is the only node
    dep, grid, manifest = _hand_layout([], topology)
    assert len(grid.node_xy) == 1 and len(grid.edges) == 0
    _assert_matches_oracle(dep, grid, manifest)
    # a hub off the centre
    _assert_matches_oracle(
        *_layout(SimulationConfig(topology=topology, density=0.05, hub_mode="uniform", master_seed=9))
    )
    # sector 0 of 4 spans [-45, 45) degrees, so the bus spine runs along +x
    # and two cells lie exactly on it; the third drops onto the outer one
    points = [[450.0, 350.0], [400.0, 350.0], [450.0, 360.0]]
    dep, grid, manifest = _hand_layout(points, topology, n_branches=4, anchor=-math.pi / 4)
    if topology == "bus":
        assert grid.node_kind.tolist() == ["hub", "cell", "cell", "cell"]
    _assert_matches_oracle(dep, grid, manifest)


@pytest.mark.parametrize("topology", ["bus", "tree", "chain"])
def test_layout_json_does_not_depend_on_the_chunk_size(topology, monkeypatch):
    """Chunks of 1, 7 and more records than any block holds give
    json.dumps' bytes for the dict document, on an empty, a one-cell and a
    many-cell layout; a block of r records comes in ceil(r / size) chunks
    plus its closing one."""
    configs = [
        SimulationConfig(topology=topology, density=d, master_seed=4) for d in (0.0, 0.25)
    ]
    layouts = (_layout(configs[-1]), _hand_layout([[450.0, 349.0]], topology))
    for records in (1, 7, 10**9):
        monkeypatch.setattr(cli, "_RECORDS", records)
        for config in configs:
            _assert_layout_matches_oracle(config)
        _assert_matches_oracle(*layouts[1])
        for dep, grid, manifest in layouts:
            blocks = (len(dep.xy), len(grid.node_xy), len(grid.edges))
            chunks = sum(-(-r // records) + 1 if r else 1 for r in blocks)
            assert len(list(layout_json(dep, grid, manifest))) == 2 + chunks


def test_writing_a_large_layout_holds_chunks_not_the_file(tmp_path):
    """A density-20 bus layout (24,500 cells, 15 MB of text) is
    formatted and written through _write_atomic a chunk at a time, each
    block's columns built when it is written.  Bound: the traced peak stays
    under 16 MB (about 13 MB); building all three blocks' columns before
    the first chunk peaked at about 19 MB, and joining the whole text first
    at about 40 MB."""
    dep, grid, manifest = _layout(SimulationConfig(topology="bus", density=20.0, master_seed=1))
    out = tmp_path / "layout.json"
    tracemalloc.start()
    try:
        cli._write_atomic(out, layout_json(dep, grid, manifest))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert len(json.loads(out.read_text())["cells"]) == len(dep.xy)


def test_layout_json_int_text_grows_with_ids_not_branches():
    """n_branches = 2**21, which validate() allows, with a few cells: the
    writer's int text grows with the ids present, not with n_branches.
    Bound: the writer's traced peak stays under 5 MB.  The horizon is one
    step, so that the 2**21 branch series fit the rate series budget."""
    config = SimulationConfig(
        topology="tree", density=0.005, n_branches=2**21, horizon_s=1.0, master_seed=3
    ).validate()
    dep, grid, manifest = _layout(config)
    assert 0 < len(dep.xy) < 10 and dep.sector.max() > 1000 * len(grid.node_xy)
    tracemalloc.start()
    try:
        text = "".join(layout_json(dep, grid, manifest))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert text == json.dumps(layout_dict(dep, grid, manifest), indent=2, allow_nan=False) + "\n"


def _refuse(*args):
    raise AssertionError("called")


def test_write_atomic_leaves_the_umask_alone(tmp_path, monkeypatch):
    """The temporary file is created with mode 0o666 for the kernel to
    apply the umask to, as a plain open() is: the process umask is never
    switched, and no chmod follows."""
    umask = os.umask(0)
    os.umask(umask)
    monkeypatch.setattr(os, "umask", _refuse)
    monkeypatch.setattr(os, "chmod", _refuse)
    cli._write_atomic(tmp_path / "out.txt", ["text\n"])
    monkeypatch.undo()
    assert (tmp_path / "out.txt").read_text() == "text\n"
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o666 & ~umask


def test_write_atomic_retries_a_taken_name_and_cleans_up_on_failure(tmp_path, monkeypatch):
    taken = tmp_path / ("out.txt.%s.tmp" % ("00" * 6))
    taken.write_text("not ours")
    real = os.urandom
    tokens = iter([bytes(6), bytes(6), b"\x01" * 6])
    monkeypatch.setattr(os, "urandom", lambda k: next(tokens, None) or real(k))
    cli._write_atomic(tmp_path / "out.txt", ["ours"])
    assert taken.read_text() == "not ours"
    assert (tmp_path / "out.txt").read_text() == "ours"

    def fail(*args):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        cli._write_atomic(tmp_path / "other.txt", ["lost"])
    monkeypatch.undo()

    def chunks():  # fails after its first piece is written
        yield "first"
        raise ValueError("chunk failed")

    with pytest.raises(ValueError, match="chunk failed"):
        cli._write_atomic(tmp_path / "third.txt", chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([taken.name, "out.txt"])


# ---------------------------------------------------------------------------
# simulate

def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_simulate_csv_schema(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--out", str(tmp_path),
            "--reps", "3",
            "--horizon", "50",
            "--density", "0.05",
        ]
    )
    assert code == 0
    capsys.readouterr()
    header, rows = _read_csv(tmp_path / "metrics.csv")
    assert header == list(SIMULATE_COLUMNS)
    assert len(rows) == 3
    for row in rows:
        assert row[1] == "bus"
        assert float(row[2]) == 0.05
        assert 0.0 <= float(row[3]) <= 1.0
        float(row[4]), float(row[5])  # rates parse as numbers
        int(row[7])


def test_simulate_rows_are_sweep_cell_zero(tmp_path, capsys):
    """Row k of metrics.csv is replication k of sweep cell (0, 0): the
    report of run_replication under derive_seed(master, 0, 0, k), seed
    column included."""
    argv = ["simulate", "--reps", "3", "--horizon", "50", "--density", "0.05",
            "--topology", "chain", "--seed", "9"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(tmp_path / "metrics.csv")
    assert header == list(SIMULATE_COLUMNS)
    cfg = parse_config(
        None,
        {"replications": 3, "horizon_s": 50.0, "density": 0.05, "topology": "chain", "master_seed": 9},
    )
    expected = []
    for k in range(3):
        seed = derive_seed(9, 0, 0, k)
        report = run_replication(cfg, seed)
        expected.append(
            [
                _num(seed),
                "chain",
                _num(0.05),
                _num(report.reachability),
                _num(report.avg_rate_bps),
                _num(report.max_rate_bps),
                _num(report.mean_wait_s),
                _num(report.forced_crossings),
            ]
        )
    assert rows == expected


def test_simulate_rerun_byte_identical(tmp_path, capsys):
    args = ["simulate", "--reps", "2", "--horizon", "30", "--density", "0.05", "--seed", "4"]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert main(args + ["--out", str(a_dir)]) == 0
    assert main(args + ["--out", str(b_dir)]) == 0
    capsys.readouterr()
    assert (a_dir / "metrics.csv").read_bytes() == (b_dir / "metrics.csv").read_bytes()


def test_simulate_ignores_stale_tmp_entry(tmp_path, capsys):
    """Outputs go through unique temporary files, so a leftover entry
    named like a fixed temporary file is neither used nor disturbed."""
    (tmp_path / "metrics.csv.tmp").mkdir()
    args = ["simulate", "--out", str(tmp_path), "--horizon", "20", "--density", "0.02"]
    assert main(args) == 0
    capsys.readouterr()
    assert (tmp_path / "metrics.csv").is_file()
    assert (tmp_path / "metrics.csv.tmp").is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "metrics.csv",
        "metrics.csv.tmp",
        "metrics.manifest.json",
    ]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE((tmp_path / "metrics.csv").stat().st_mode) == 0o666 & ~umask


def test_simulate_manifest_sibling(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--horizon", "20", "--density", "0.02"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "metrics.manifest.json").read_text())
    assert "created_utc" in manifest
    assert manifest["config"]["horizon_s"] == 20.0


def test_simulate_zero_density_nan_metrics(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--density", "0", "--horizon", "20"]) == 0
    capsys.readouterr()
    header, rows = _read_csv(tmp_path / "metrics.csv")
    assert rows[0][header.index("reachability")] == "nan"
    assert math.isnan(float(rows[0][header.index("mean_wait_s")]))


# a small scenario, and for every config field a value off both its
# default and this base
_BASE = {"density": 0.1, "horizon_s": 50.0, "replications": 2}
_OFF_DEFAULT = {
    "side_m": 600.0,
    "cell_area_m2": 300.0,
    "density": 0.2,
    "n_branches": 4,
    "topology": "tree",
    "max_wire_m": 150.0,
    "max_cells_per_branch": 3,
    "hub_mode": "uniform",
    "sector_anchor_rad": 0.3,
    "mean_interarrival_s": 5.0,
    "horizon_s": 40.0,
    "dt_s": 2.0,
    "data_fraction": 0.5,
    "voice_rate_bps": 64000.0,
    "voice_mean_duration_s": 50.0,
    "volume_cap_bits": 1e4,
    "kb_bits": 8000.0,
    "replications": 3,
    "master_seed": 1,
}


def _data_outputs(tmp_path, name: str, values: dict):
    """layout.json without its manifest, and metrics.csv, of one config."""
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(values))
    out = tmp_path / name
    for command in ("generate", "simulate"):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    layout = json.loads((out / "layout.json").read_text())
    del layout["manifest"]
    return layout, (out / "metrics.csv").read_text()


def test_every_config_field_changes_a_data_output(tmp_path, capsys):
    """No dead knobs: moving any one config field off its value changes
    the layout or the metrics, not just the manifest."""
    defaults = SimulationConfig()
    base = _data_outputs(tmp_path, "base", _BASE)
    dead = []
    for field in config_fields():
        value = _OFF_DEFAULT[field]
        assert value not in (getattr(defaults, field), _BASE.get(field)), field
        if _data_outputs(tmp_path, field, {**_BASE, field: value}) == base:
            dead.append(field)
    capsys.readouterr()
    assert dead == []


# ---------------------------------------------------------------------------
# sweep

def test_sweep_csv_and_plots(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--out", str(tmp_path),
            "--densities", "0.02,0.05",
            "--reps", "2",
            "--horizon", "20",
        ]
    )
    assert code == 0
    capsys.readouterr()
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 6  # 2 densities x 3 topologies
    assert [r[1] for r in rows[:3]] == ["bus", "tree", "chain"]

    svg = (tmp_path / "reachability_vs_density.svg").read_text()
    assert svg.count("<polyline") == 3
    assert 'stroke="blue"' in svg
    assert 'stroke="red"' in svg
    assert 'stroke="green"' in svg

    traffic = (tmp_path / "traffic_vs_density.svg").read_text()
    polylines = [ln for ln in traffic.splitlines() if ln.startswith("<polyline")]
    assert len(polylines) == 6
    assert sum("stroke-dasharray" in ln for ln in polylines) == 3


def test_sweep_plots_off(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--out", str(tmp_path),
            "--densities", "0.02",
            "--reps", "1",
            "--horizon", "10",
            "--plots", "off",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "reachability_vs_density.svg").exists()


def test_sweep_single_rep_stderr_nan(tmp_path, capsys):
    assert main(
        [
            "sweep",
            "--out", str(tmp_path),
            "--densities", "0.02",
            "--reps", "1",
            "--horizon", "10",
            "--plots", "off",
        ]
    ) == 0
    capsys.readouterr()
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert rows[0][header.index("reachability_stderr")] == "nan"


def test_sweep_topology_narrows(tmp_path, capsys):
    assert main(
        [
            "sweep",
            "--out", str(tmp_path),
            "--densities", "0.02",
            "--topology", "tree",
            "--reps", "1",
            "--horizon", "10",
            "--plots", "off",
        ]
    ) == 0
    capsys.readouterr()
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 1
    assert rows[0][1] == "tree"


def test_sweep_config_file_topology_narrows(tmp_path, capsys):
    """A config file's topology narrows a sweep as the flag does, and the
    manifest records the topology that ran."""
    config = tmp_path / "t.json"
    config.write_text(json.dumps({"topology": "tree"}))
    argv = ["sweep", "--config", str(config), "--densities", "0.02", "--reps", "1"]
    assert main(argv + ["--horizon", "10", "--plots", "off", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[1] for row in rows] == ["tree"]
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["config"]["topology"] == "tree"


def test_sweep_reads_its_config_file_once(tmp_path, capsys, monkeypatch):
    """The sweep learns whether the file names a topology from the one read
    that gives its values."""
    config = tmp_path / "t.json"
    config.write_text(json.dumps({"topology": "chain"}))
    reads, read_text = [], Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    argv = ["sweep", "--config", str(config), "--densities", "0.02", "--reps", "1"]
    assert main(argv + ["--horizon", "10", "--plots", "off", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert reads.count(config) == 1
    _, rows = _read_csv(tmp_path / "out" / "sweep.csv")
    assert [row[1] for row in rows] == ["chain"]


def test_sweep_bad_densities_rejected(tmp_path, capsys):
    assert main(["sweep", "--densities", "a,b", "--out", str(tmp_path)]) == 1
    assert "densities" in capsys.readouterr().err


@pytest.mark.parametrize("densities", ["", ","])
def test_sweep_empty_densities_rejected(tmp_path, capsys, densities):
    out = tmp_path / "out"
    argv = ["sweep", "--densities", densities, "--horizon", "1", "--out", str(out)]
    assert main(argv) == 1
    assert "at least one density" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_plots_a_repeated_density_twice(tmp_path, capsys):
    """A density named twice gives two rows with their own seeds, and the
    plot draws both."""
    assert main(
        [
            "sweep",
            "--out", str(tmp_path),
            "--densities", "0.1,0.1",
            "--topology", "bus",
            "--reps", "1",
            "--horizon", "1",
        ]
    ) == 0
    capsys.readouterr()
    header, rows = _read_csv(tmp_path / "sweep.csv")
    reach = [float(r[header.index("reachability_mean")]) for r in rows]
    assert reach[0] != reach[1]
    svg = (tmp_path / "reachability_vs_density.svg").read_text()
    (points,) = re.findall(r'<polyline[^>]* points="([^"]*)"', svg)
    ys = [float(p.split(",")[1]) for p in points.split()]
    assert len(ys) == 2 and ys[0] != ys[1]
    # a higher reachability is drawn higher up, at a smaller y
    assert (ys[0] > ys[1]) == (reach[0] < reach[1])


def test_sweep_csv_lf_line_endings(tmp_path, capsys):
    assert main(
        [
            "sweep",
            "--out", str(tmp_path),
            "--densities", "0.02",
            "--reps", "1",
            "--horizon", "10",
            "--plots", "off",
        ]
    ) == 0
    capsys.readouterr()
    raw = (tmp_path / "sweep.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


# ---------------------------------------------------------------------------
# tooling

def test_import_loads_no_third_party_module_but_numpy():
    """`import plcsim` (what every command pays for at start-up) pulls in
    the standard library and numpy only; scipy and hypothesis are for the
    tests."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # modules the interpreter's own start-up loaded are not plcsim's
    code = (
        "import sys; before = set(sys.modules); import plcsim; "
        "print(plcsim.__file__); print(*(set(sys.modules) - before))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    origin, modules = run.stdout.splitlines()
    assert origin.startswith(src)
    top = {name.partition(".")[0] for name in modules.split()}
    assert "numpy" in top
    assert top - set(sys.stdlib_module_names) - {"numpy", "plcsim"} == set()


# the layers a call loads only when it uses them
_LAZY_LAYERS = (
    "plcsim.deployment", "plcsim.gridgen", "plcsim.chain", "plcsim.nearest",
    "plcsim.simulator", "statistics",
)


def test_calls_load_only_the_layers_they_use(tmp_path):
    """`import plcsim` and a TrafficModel (the start-up every command pays)
    load no deployment, grid or simulation module and no `statistics`; a
    bus `generate` loads no chain code.  Every public name is listed by
    dir() before it is first used."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys; import plcsim; "
        "undir = sorted(set(plcsim.__all__) - set(dir(plcsim))); "
        "plcsim.TrafficModel.from_config(plcsim.SimulationConfig()); "
        "start = sorted(set(sys.argv[2:]) & set(sys.modules)); "
        "import plcsim.cli; "
        "plcsim.cli.main(['generate', '--topology', 'bus', '--density', '0.05', '--out', sys.argv[1]]); "
        "bus = sorted(set(sys.argv[2:]) & set(sys.modules)); "
        "print(json.dumps([plcsim.__file__, undir, start, bus]))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *_LAZY_LAYERS],
        env=env, capture_output=True, text=True, check=True,
    )
    origin, undir, start, bus = json.loads(run.stdout.splitlines()[-1])
    assert origin.startswith(src)
    assert undir == []
    assert start == []
    assert not {"plcsim.chain", "plcsim.nearest"} & set(bus)


def test_lazy_names_are_their_home_modules_own():
    """Each public name of the package is the object of the module that
    defines it; `gridgen._crosses_any` is `chain.crosses_any`; an unknown
    name raises AttributeError."""
    import plcsim
    from plcsim import chain
    from plcsim.gridgen import _crosses_any

    for name in set(plcsim.__all__) - {"__version__"}:
        value = getattr(plcsim, name)
        assert value.__module__.startswith("plcsim.")
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert _crosses_any is chain.crosses_any
    with pytest.raises(AttributeError, match="no_such_name"):
        plcsim.no_such_name
    with pytest.raises(AttributeError, match="_no_such_name"):
        plcsim.gridgen._no_such_name


def test_no_private_name_imported_across_modules():
    """A module's `_`-prefixed names are its own: no other package module
    imports them."""
    src = Path(__file__).resolve().parents[1] / "src" / "plcsim"
    crossings = [
        "%s imports %s from .%s" % (path.name, alias.name, node.module or "")
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert crossings == []
