"""Golden outputs: the bytes of a few small CLI runs, pinned by sha256.

A refactor that should not touch the random stream, the output formats or
the package version (the manifests carry it) must leave these hashes
alone.  A deliberate change to any of them updates the hashes here and
says so in CHANGES.md.  Manifests are hashed without their `created_utc`
timestamp, re-encoded the way the CLI writes them.

    PYTHONPATH=src python tests/test_golden.py

prints the current digest of every file the calls write, in GOLDEN's
format, for a deliberate re-record.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from plcsim.cli import main

CALLS = {
    "generate": ["generate", "--topology", "chain", "--density", "0.25", "--seed", "5"],
    "generate-bus": ["generate", "--topology", "bus", "--density", "1.0", "--seed", "5"],
    "generate-tree": ["generate", "--topology", "tree", "--density", "0.25", "--seed", "5"],
    "generate-empty": ["generate", "--density", "0", "--seed", "5"],
    "simulate": ["simulate", "--reps", "2", "--horizon", "50", "--seed", "5"],
    "sweep": ["sweep", "--densities", "0.1,0.25", "--reps", "2", "--horizon", "1", "--seed", "5"],
}

GOLDEN = {
    "generate/layout.json": "f9c03ddb782d439ae6099f2951102f1c1553279e5506251878a44b8827000b22",
    "generate-bus/layout.json": "8aee0816d2338f7b7f96841c01b520c2e0c89a354e5942fc38bcfdeebab0138f",
    "generate-empty/layout.json": "df7b60b167ea5206e4488f00f11dd86e09114b42a16191de8190b7420d9fb4c4",
    "generate-tree/layout.json": "d232f9f95ce7453ada273b377dc99689f325d51acf7e9e074b428625e2bef847",
    "simulate/metrics.csv": "6c7fb98842605bff3a4d3422ea34e340810fd540a40744ece531fd4994e163a7",
    "simulate/metrics.manifest.json": "e0893d5c1fdb544e7bf5621b1c21785605a9fff7d1482352cf8c3472654605e3",
    "sweep/reachability_vs_density.svg": "b2229dfb71b69a40bd4333536e15060d7661d7b3db8be130c1d0164dd855e803",
    "sweep/sweep.csv": "d01fa13b67575bd038561d657861f7f8a0b9491d924d77fe12e5da3e5cdc771b",
    "sweep/sweep.manifest.json": "3e7523534308f48331ce69a290e33989008a522100d8e0fe4c705db893aeabb2",
    "sweep/traffic_vs_density.svg": "50da827cbd531872d124869b8f8d808804e0fd0ecb12ad0d848201375a1986dc",
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        del manifest["created_utc"]
        data = (json.dumps(manifest, indent=2, allow_nan=False) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def _write_outputs(root: Path) -> None:
    for name, argv in CALLS.items():
        assert main(argv + ["--out", str(root / name)]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _write_outputs(root)
    return root


def test_golden_files_are_exactly_these(outputs):
    written = sorted(
        p.relative_to(outputs).as_posix() for p in outputs.rglob("*") if p.is_file()
    )
    assert written == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(outputs, name):
    assert _digest(outputs / name) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with contextlib.redirect_stdout(sys.stderr):
            _write_outputs(root)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            print('    "%s": "%s",' % (path.relative_to(root).as_posix(), _digest(path)))
