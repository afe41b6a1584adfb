"""The take-off, the ten-travel sizing comparison and the 10x10 sweep
write, bit for bit, the files whose SHA-256 the benchmark's goldens
record, and every function the benchmark's tracer wraps can still be
looked up."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from tetherlaunch.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload",
                         ["takeoff", "spring-compare-10", "sweep-10x10"])
def test_outputs_match_goldens(tmp_path, workload):
    golden = GOLDENS[workload]
    assert main(golden["argv"] + ["--out", str(tmp_path), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == golden["files"]


def test_instrumented_names_resolve():
    """perfbench/worker.py replaces each (module, attribute) it instruments
    by getattr and setattr; a missing name crashes every traced pass."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    names = [(module, attr) for module, attr, _ in worker.INSTRUMENTED]
    names += [("properties", attr) for attr in worker.PROPERTY_CHECKS]
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(
                   importlib.import_module(f"tetherlaunch.{module}"),
                   attr, None))]
    assert missing == []
