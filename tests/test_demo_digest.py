"""Byte oracle for ``ganitprep run``, the bundled demo chain: sha256 pins of everything it writes,
its stdout included.

The pins hold any change to the pipeline's per-record paths (extraction,
grading, decomposition rendering, feature scoring, splitting, export) to
byte-identical output. The two manifests carry a ``created_at`` taken from
the fixture files' mtimes, so for them only the header's record checksum is
pinned.
"""

import hashlib
import json

import pytest

from ganitprep.cli import main

FILE_SHA256 = {
    "grades.jsonl": "cce55b8c3d41be6d16c4920b33ffa790e18b0cefeba1e32ae3a9c111b3b2c301",
    "report.txt": "fec0cb8ee92786e82f1027c5cbbe92568dd51c3f721424f175c883263a75abd0",
    "report.csv": "c9a6ea14cc97a9324e54811192ee1692ab75272a2be103be05e0f6c7a1bd728e",
    "split.json": "5d3ac0c578a8be0ad063ebfe19613920a1d556a683b5a43137e908c8029f158a",
    "curriculum.json": "e7263a4b1602f5920c2dee3f5dd6c248be50c7cfc9d02d1d0ef4159ba3df7b80",
    "train_SFT_easy.jsonl": "b6890e056b05e43a7862a81b9a31e2ddede5f739dd399638819b6545dd5097fd",
    "train_SFT_easy_medium.jsonl":
        "1159acb57c5593316d48a90bc417e21606194d7e4910557d9a6500c1759e3d64",
    "training_config.txt": "e5c69029ca9ab01fe1daf1a6185b3470aab4bc37dda3a2914a77363feed03339",
}

MANIFEST_CHECKSUM = {
    "hawp_decomposed.jsonl":
        "sha256:47ddd912256cf75266b09d40936da10a1b659384e45eea344fefa6dac4c6c3d9",
    "merged.jsonl": "sha256:7c0b0710c7ffb705f61917a6acd2a6de7ecaf09e05b8a9d4b96bc16194534fde",
}

# One stage line per stage command, each after the text its command prints
# (the report table goes to report.txt only), in order; nothing in it depends
# on the checkout.
STDOUT_SHA256 = "35a36497868542aacf92259e84b2d1878d3477e8cf0762dd598d86f763e054a9"


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("demo-digest")
    assert main(["run", "--out", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("name", sorted(FILE_SHA256))
def test_file_bytes_pinned(demo_out, name):
    assert hashlib.sha256((demo_out / name).read_bytes()).hexdigest() == FILE_SHA256[name]


@pytest.mark.parametrize("name", sorted(MANIFEST_CHECKSUM))
def test_manifest_checksum_pinned(demo_out, name):
    with open(demo_out / name, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    assert header["checksum"] == MANIFEST_CHECKSUM[name]


def test_stdout_pinned(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == STDOUT_SHA256
