"""Golden outputs: the bytes of a few small CLI runs, pinned by sha256.

A refactor that should not touch the random stream, the output formats or
the package version (the manifests carry it) must leave these hashes
alone.  A deliberate change to any of them updates the hashes here and
says so in CHANGES.md.  Manifests are hashed without their `created_utc`
timestamp, re-encoded the way the CLI writes them.
"""

import hashlib
import json

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
    "generate/layout.json": "be2b5184da99463b5f44117bb81d317541ae4317269910c1470b438a4577612d",
    "generate-bus/layout.json": "7b9d5c1fc385d96d463bf1ad76a6870893ae96db1a71295715e7809b4ebfea95",
    "generate-empty/layout.json": "5da17b0908d2f68618851651dab6eb5ded5836754a5854c5cefa5414760de6bd",
    "generate-tree/layout.json": "233b6273c7d335bc0979e39927f0ddcce5728d8c6a91369453e27ed5af97c03e",
    "simulate/metrics.csv": "08ad18ed2d79df65632097d8510aae4cf9f9e94549d8f0da7f7c67efb4248685",
    "simulate/metrics.manifest.json": "87c4deb25c7a3bd4d9da68e99501501d7a0da91501d03aa9a66a549185e94ec0",
    "sweep/reachability_vs_density.svg": "b2229dfb71b69a40bd4333536e15060d7661d7b3db8be130c1d0164dd855e803",
    "sweep/sweep.csv": "c93e74708e5ef98cc032110d553682046aac8a42674884c77f00ea7ad4de19f8",
    "sweep/sweep.manifest.json": "455da0bda856db9ea8b49457e7e770781f7bb9ce456622855f2ae6cd57bcc4f6",
    "sweep/traffic_vs_density.svg": "a1d747d840907b530ce2a0985115fff872fd5e5afcb8511d3fab67b32ae2f7dd",
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(data)
        del manifest["created_utc"]
        data = (json.dumps(manifest, indent=2, allow_nan=False) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, argv in CALLS.items():
        assert main(argv + ["--out", str(root / name)]) == 0
    return root


def test_golden_files_are_exactly_these(outputs):
    written = sorted(
        p.relative_to(outputs).as_posix() for p in outputs.rglob("*") if p.is_file()
    )
    assert written == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(outputs, name):
    assert _digest(outputs / name) == GOLDEN[name]
