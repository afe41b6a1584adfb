"""The take-off, the ten-travel sizing comparison and the 10x10 sweep
write, bit for bit, the files whose SHA-256 the benchmark's goldens
record, through the point functions the benchmark times, and every
function the benchmark's tracer wraps can still be looked up."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import re
import sys
import types
from pathlib import Path

import pytest

import tetherlaunch
from tetherlaunch import csvio, takeoff
from tetherlaunch.cli import main
from tetherlaunch.integrator import rk4_step
from tetherlaunch.model import LINE, rk4_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src" / "tetherlaunch"
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))


def load_perfbench(name: str):
    """perfbench/`name`.py as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_worker():
    return load_perfbench("worker")


# Seven rows a block divide neither the take-off's 3,000 rows nor most of
# the prefixes that spring-compare's travels share, so the writer also
# reuses part of a block.
@pytest.mark.parametrize("workload, block", [
    ("takeoff", csvio.BLOCK), ("spring-compare-10", csvio.BLOCK),
    ("sweep-10x10", csvio.BLOCK), ("takeoff", 7), ("spring-compare-10", 7),
], ids=["takeoff", "spring-compare-10", "sweep-10x10", "takeoff-block7",
        "spring-compare-10-block7"])
def test_outputs_match_goldens(tmp_path, monkeypatch, workload, block):
    """Also each of the workload's points, the functions the benchmark
    times a call of, is called through the name it wraps, once per
    operation; a pass that calls none has no point time to report. The
    bytes do not depend on csvio.BLOCK."""
    monkeypatch.setattr(csvio, "BLOCK", block)
    # perfbench/run.py imports the worker under the name `worker`.
    monkeypatch.setitem(sys.modules, "worker", load_worker())
    inputs = load_perfbench("run").workload_inputs(workload, 0, False,
                                                   tmp_path)
    calls = dict.fromkeys(inputs["points"], 0)
    for point in calls:
        module_name, attr = point.rsplit(".", 1)
        module = importlib.import_module(f"tetherlaunch.{module_name}")
        fn = getattr(module, attr)

        def counted(*args, point=point, fn=fn, **kwargs):
            calls[point] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    golden = GOLDENS[workload]
    assert main(golden["argv"] + ["--out", str(tmp_path), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == golden["files"]
    assert calls == dict.fromkeys(inputs["points"], inputs["ops"])


@pytest.mark.parametrize(
    "workload, evaluations, steps, crossings, substeps", [
        ("sweep-10x10", 100, 162_816, 90, 0),
        ("takeoff", 120_000, 0, 0, 30_000),
    ], ids=["sweep-10x10", "takeoff"])
def test_plant_evaluations(tmp_path, monkeypatch, workload, evaluations,
                           steps, crossings, substeps):
    """Plant evaluations of the seed-0 workload: calls of the closures
    that airborne_plant returns, and of the fused kernels, which evaluate
    the plant inline. A sizing run calls the plant once, at its start or
    resume state (100 runs on the sweep), and each of its steps evaluates
    stages 2-4 and the new state, which is the next step's first stage.
    90 of the sweep's 162,816 steps stop at a stage crossing (see
    spring_design._run_sizing): 46 before stage 2 and 44 before stage 4,
    which skip 4 and 2 of a step's evaluations. So the sweep makes
    100 + 4 * 162,816 - 272 = 651,092 plant evaluations, as many as when
    each stage was a plant call.

    The take-off calls no plant closure: its 3,000 control steps (3 s at
    the 1 ms sample period) each run 10 substeps of 0.1 ms in one call of
    the fused control step, and each substep evaluates its own four
    stages, on the slide or in flight, before it checks its state once.
    So its finiteness check counts 30,000 substeps and 120,000 stage
    evaluations, as many as when each stage was a plant call."""
    from tetherlaunch import spring_design

    count = {"evaluations": 0, "steps": 0, "crossings": 0, "substeps": 0}

    def counting(plant):
        def counted_plant(*args):
            derivs = plant(*args)

            def counted(*state):
                count["evaluations"] += 1
                return derivs(*state)

            return counted

        return counted_plant

    def counting_stepper(params, dt):
        step = stepper(params, dt)

        def counted(*args):
            count["steps"] += 1
            try:
                return step(*args)
            except spring_design._Crossing:
                count["crossings"] += 1
                raise

        return counted

    def counting_kernel(filename, name, parameters, body, constants):
        isfinite = constants["isfinite"]

        def counted(value):
            count["substeps"] += 1
            count["evaluations"] += 4  # the stages run before the check
            return isfinite(value)

        return kernel(filename, name, parameters, body,
                      {**constants, "isfinite": counted})

    monkeypatch.setattr(spring_design, "airborne_plant",
                        counting(spring_design.airborne_plant))
    stepper = spring_design._sizing_stepper
    monkeypatch.setattr(spring_design, "_sizing_stepper", counting_stepper)
    kernel = takeoff.kernel
    monkeypatch.setattr(takeoff, "kernel", counting_kernel)
    golden = GOLDENS[workload]
    assert main(golden["argv"] + ["--out", str(tmp_path), "--quiet"]) == 0
    assert count == {"evaluations": evaluations, "steps": steps,
                     "crossings": crossings, "substeps": substeps}


def test_instrumented_names_resolve():
    """perfbench/worker.py replaces each (module, attribute) it instruments
    by getattr and setattr; a missing name crashes every traced pass."""
    worker = load_worker()
    names = [(module, attr) for module, attr, _ in worker.INSTRUMENTED]
    names += [("properties", attr) for attr in worker.PROPERTY_CHECKS]
    missing = [f"{module}.{attr}" for module, attr in names
               if not callable(getattr(
                   importlib.import_module(f"tetherlaunch.{module}"),
                   attr, None))]
    assert missing == []


def test_unused_imports_are_instrumented():
    """A module imports a name it never reads only for the benchmark's
    tracer to find; once perfbench stops looking it up, it must go. The
    package __init__ is left out: its imports are its exports, which
    tests/test_readme.py checks."""
    looked_up: dict[str, set] = {}
    for module, attr, _ in load_worker().INSTRUMENTED:
        looked_up.setdefault(module, set()).add(attr)
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        # Only reads count: an annotated dataclass field of the same name
        # (TakeoffTrace.slide_torque) is a Store.
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        extra = imported - loaded - looked_up.get(path.stem, set())
        if extra:
            unused[path.stem] = sorted(extra)
    assert unused == {}


def test_every_definition_is_used():
    """A top-level function or class under src/ is read by name somewhere
    in src/ outside its own body, looked up by perfbench/worker.py,
    exported by the package, or is the CLI's `main`. Anything else is
    kept for the tests alone, which should hold it themselves."""
    worker = load_worker()
    kept = {attr for _, attr, _ in worker.INSTRUMENTED}
    kept |= set(worker.PROPERTY_CHECKS) | {"main"}
    kept |= {name for name, value in vars(tetherlaunch).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    # Each top-level statement of src/ and the names it reads. An import
    # reads nothing, and an attribute is not counted: `trace.slide_torque`
    # does not read controller.slide_torque.
    statements = [
        (node, {sub.id for sub in ast.walk(node)
                if isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)})
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body]
    unused = sorted(
        node.name for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in kept
        and not any(node.name in names for other, names in statements
                    if other is not node))
    assert unused == []


def test_deployed_length_is_written_once():
    """The deployed line's expression occurs once in src/, whitespace
    aside: in model.LINE, the text that both kernels are compiled from and
    that returns the length the runs log."""
    expression = "radius*winch_angle+2.0*spring_pos"
    found = {path.name: "".join(path.read_text(encoding="utf-8").split())
             .count(expression) for path in sorted(SRC.glob("*.py"))}
    assert {name: count for name, count in found.items() if count} == {
        "model.py": 1}
    assert expression in "".join(LINE.split())


def test_empty_slide_is_written_once():
    """The empty slide's acceleration after lift-off occurs once in src/,
    whitespace aside: in takeoff._control_step_text, which generates its
    four RK4 stages e1, ..., e4 from it."""
    expression = "(u_slide-slide_friction*"
    found = {path.name: "".join(path.read_text(encoding="utf-8").split())
             .count(expression) for path in sorted(SRC.glob("*.py"))}
    assert {name: count for name, count in found.items() if count} == {
        "takeoff.py": 1}
    text = takeoff._control_step_text()
    for i, speed in enumerate(("slide_speed", "s2", "s3", "s4"), 1):
        assert (f"e{i} = (u_slide - slide_friction * {speed})"
                " / empty_inertia\n") in text


def test_rk4_update_is_written_once():
    """The RK4 update, (k1 + 2.0 * (k2 + k3) + k4) over any operands,
    occurs in src/ four times, whitespace aside: once in
    integrator.rk4_step, the generic reference; once in model.rk4_text,
    which writes it for the states of both fused kernels; and twice in
    takeoff._control_step_text, for the empty slide's angle and speed
    after lift-off. The empty slide is the one hand-written copy: written
    through rk4_text as two more flight states, its unused stage values
    made run_takeoff about 4 % slower, bit-identical otherwise."""
    update = re.compile(
        r"\([^()+]+\+2\.0\*\([^()+]+\+[^()+]+\)\+[^()+]+\)")

    def stripped(text):
        return "".join(text.split())

    found = {path.name: len(update.findall(
        stripped(path.read_text(encoding="utf-8"))))
        for path in sorted(SRC.glob("*.py"))}
    assert {name: count for name, count in found.items() if count} == {
        "integrator.py": 1, "model.py": 1, "takeoff.py": 2}
    assert update.search(stripped(inspect.getsource(rk4_step)))
    assert update.search(stripped(inspect.getsource(rk4_text)))
    assert len(update.findall(stripped(
        inspect.getsource(takeoff._control_step_text)))) == 2


def test_no_module_imports_numpy():
    """numpy is a test dependency alone: pyproject.toml lists it only in
    the `test` extra, so no module under src/ may import it, not even
    inside a function (test_cli.py checks each command's run too)."""
    importing = sorted(
        path.name for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import)
        and any(alias.name.partition(".")[0] == "numpy"
                for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] == "numpy")
    assert importing == []
