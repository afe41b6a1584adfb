"""The take-off and the ten-travel sizing comparison write, bit for bit,
the files whose SHA-256 the benchmark's goldens record."""

import hashlib
import json
from pathlib import Path

import pytest

from tetherlaunch.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["takeoff", "spring-compare-10"])
def test_outputs_match_goldens(tmp_path, workload):
    golden = GOLDENS[workload]
    assert main(golden["argv"] + ["--out", str(tmp_path), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == golden["files"]
