import json
import math
import os
import stat

import pytest

from plcsim.cli import (
    SIMULATE_COLUMNS,
    SWEEP_COLUMNS,
    load_layout,
    main,
    parse_config,
)
from plcsim.errors import ConfigError


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


def test_config_type_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_branches": 2.5}))
    with pytest.raises(ConfigError, match="n_branches"):
        parse_config(str(path))
    path.write_text(json.dumps({"density": "lots"}))
    with pytest.raises(ConfigError, match="density"):
        parse_config(str(path))


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


@pytest.mark.parametrize("field", ["side_m", "volume_cap_bits"])
def test_exit_one_on_non_finite_config_value(tmp_path, capsys, field):
    path = tmp_path / "cfg.json"
    path.write_text('{"%s": Infinity}' % field)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not out.exists()


def test_exit_two_on_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["generate", "--config", str(missing), "--out", str(tmp_path)]) == 2
    assert "i/o error" in capsys.readouterr().err


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
    assert main(["generate", "--out", str(tmp_path), "--seed", "8", "--topology", "tree"]) == 0
    capsys.readouterr()
    deployment, grid = load_layout(tmp_path / "layout.json")

    import numpy as np
    from plcsim.deployment import deploy
    from plcsim.gridgen import build_grid, mark_served

    cfg = parse_config(None, {"master_seed": 8, "topology": "tree"})
    ref_dep = deploy(cfg, np.random.default_rng(8))
    ref_grid = build_grid(ref_dep, cfg)
    mark_served(ref_grid, cfg.max_wire_m, cfg.max_cells_per_branch)

    assert deployment.cells == ref_dep.cells
    assert (deployment.hub_x_m, deployment.hub_y_m) == (ref_dep.hub_x_m, ref_dep.hub_y_m)
    assert grid.nodes == ref_grid.nodes
    assert grid.edges == ref_grid.edges
    assert grid.wire_distance_m == ref_grid.wire_distance_m
    assert grid.served == ref_grid.served
    assert grid.branch_of == ref_grid.branch_of
    assert grid.forced_crossings == ref_grid.forced_crossings


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


def test_sweep_bad_densities_rejected(tmp_path, capsys):
    assert main(["sweep", "--densities", "a,b", "--out", str(tmp_path)]) == 1
    assert "densities" in capsys.readouterr().err


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
