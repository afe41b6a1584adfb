"""One benchmark pass in a fresh interpreter: `tetherlaunch.cli.main(argv)`.

Usage: python3 worker.py SPEC_JSON, with `src` on PYTHONPATH. SPEC_JSON
holds `argv` (the CLI arguments), `trace` (bool), `points` (the
"module.name" functions whose calls each count as one result point) and
`cpus` (the CPUs to run on). The pass prints one JSON object on stdout:
exit code, wall time of cli.main, peak RSS, the captured CLI
stdout/stderr, point latencies (untraced) or the span table (traced).

All times are at reference speed (see CAL_REF_S). Untraced, only the
point functions are timed. Traced, every public function the program
looks up at call time in a module namespace is replaced by a wrapper that
records a span; spans are aggregated in memory per (name, parent) as
count, total time, child time and errors, because a validate pass alone
makes over a million controller calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

# (module the program looks the name up in, attribute, span name). A
# function imported by name into several modules is wrapped in each, under
# the name of the layer that defines it, so the span's parent tells the
# callers apart.
INSTRUMENTED = [
    ("cli", "load_config", "config.load_config"),
    ("cli", "simulate_design", "spring_design.simulate_design"),
    ("cli", "assess_trace", "spring_design.assess_trace"),
    ("cli", "run_takeoff", "takeoff.run_takeoff"),
    ("csvio", "write_rows", "csvio.write_rows"),
    ("spring_design", "evaluate_spring", "spring_design.evaluate_spring"),
    ("spring_design", "simulate_design", "spring_design.simulate_design"),
    ("spring_design", "assess_trace", "spring_design.assess_trace"),
    ("spring_design", "count_compression_cycles",
     "spring_design.count_compression_cycles"),
    ("spring_design", "simulate", "integrator.simulate"),
    ("integrator", "rk4_step", "integrator.rk4_step"),
    ("integrator", "design_derivatives", "model.design_derivatives"),
    ("model", "tether_stiffness", "model.tether_stiffness"),
    ("model", "spring_friction", "model.spring_friction"),
    ("takeoff", "rk4_step", "integrator.rk4_step"),
    ("takeoff", "tether_stiffness", "model.tether_stiffness"),
    ("takeoff", "spring_friction", "model.spring_friction"),
    ("takeoff", "slide_torque", "controller.slide_torque"),
    ("takeoff", "winch_torque", "controller.winch_torque"),
    ("takeoff", "winch_fbck", "controller.winch_fbck"),
    ("takeoff", "winch_ffwd", "controller.winch_ffwd"),
    ("takeoff", "combine_refs", "controller.combine_refs"),
    ("properties", "slide_torque", "controller.slide_torque"),
    ("properties", "winch_torque", "controller.winch_torque"),
    ("properties", "winch_fbck", "controller.winch_fbck"),
    ("properties", "combine_refs", "controller.combine_refs"),
    ("properties", "rk4_step", "integrator.rk4_step"),
    ("properties", "evaluate_spring", "spring_design.evaluate_spring"),
    ("properties", "simulate_design", "spring_design.simulate_design"),
]

# The validate suite's check functions and the names they report.
PROPERTY_CHECKS = {
    "check_fbck_reference_bounded": "fbck-reference-bounded",
    "check_zone_b_holds": "zone-b-holds-reference",
    "check_zone_entry_resaturation": "zone-entry-resaturation",
    "check_combine_refs": "combine-refs-arbitration",
    "check_torque_saturation": "torque-saturation",
    "check_rk4_order": "rk4-observed-order",
    "check_step_convergence": "step-convergence",
    "check_trace_bounds": "trace-bounds",
}


class Tracer:
    """Span aggregation per (name, parent): [count, total_s, child_s, errors]."""

    def __init__(self) -> None:
        self.rows: dict[str, dict[str, list]] = {}
        self._stack = [["", 0.0]]
        self.trace_bytes = 0

    def wrap(self, name: str, fn):
        rows = self.rows.setdefault(name, {})
        stack = self._stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            push(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = clock() - start
                pop()
                parent[1] += elapsed
                row = rows.get(parent[0])
                if row is None:
                    row = rows[parent[0]] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += frame[1]
                row[3] += failed

        return traced

    def wrap_simulate(self, fn):
        """integrator.simulate, also summing the bytes of the traces it keeps."""
        traced = self.wrap("integrator.simulate", fn)

        def simulate(*args, **kwargs):
            trace = traced(*args, **kwargs)
            self.trace_bytes += sum(a.nbytes for a in (
                trace.times, trace.states, trace.force, trace.length))
            return trace

        return simulate

    def table(self, scale: float) -> list[list]:
        """[name, parent, count, total, child time, errors], times * scale."""
        return [[name, parent, count, total * scale, child * scale, errors]
                for name, by_parent in self.rows.items()
                for parent, (count, total, child, errors) in by_parent.items()]


def instrument(tracer: Tracer) -> None:
    modules = {name: importlib.import_module(f"tetherlaunch.{name}")
               for name in ("cli", "csvio", "spring_design", "integrator",
                            "model", "takeoff", "properties")}
    originals = [(modules[m], attr, getattr(modules[m], attr), span)
                 for m, attr, span in INSTRUMENTED]
    for module, attr, fn, span in originals:
        if span == "integrator.simulate":
            setattr(module, attr, tracer.wrap_simulate(fn))
        else:
            setattr(module, attr, tracer.wrap(span, fn))
    properties = modules["properties"]
    for attr, check in PROPERTY_CHECKS.items():
        setattr(properties, attr,
                tracer.wrap(f"properties.{check}", getattr(properties, attr)))


# Shared hosts change a CPU's speed by up to 2x, for a fraction of a second
# to a minute at a time. Every time the benchmark reports is therefore
# given at reference speed: the host time multiplied by CAL_REF_S over the
# mean host time of a fixed probe kernel run on the same CPU meanwhile.
CAL_REF_S = 0.001
PROBE_PERIOD_S = 0.05


def _probe_step(state: tuple, dt: float) -> tuple:
    x, v = state
    return (x + dt * v, v - dt * x)


def probe() -> float:
    """Host time of a fixed pure-Python kernel: calls, tuple packing and
    float arithmetic, the mix of the model's inner loops."""
    start = time.perf_counter()
    state = (1.0, 0.0)
    for _ in range(5000):
        state = _probe_step(state, 1e-3)
    return time.perf_counter() - start


class SpeedMonitor:
    """Probes the CPU's speed, also every PROBE_PERIOD_S from a timer
    signal while active, and keeps the host time the probes took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedMonitor":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def time_point(point: str, monitor: SpeedMonitor,
               latencies: list[tuple]) -> None:
    """Replace `module.name` by a wrapper that records each call's host
    latency, without the probes in it, and the mean probe around it."""
    module_name, attr = point.rsplit(".", 1)
    module = importlib.import_module(f"tetherlaunch.{module_name}")
    fn = getattr(module, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        monitor.sample()
        first = len(monitor.samples) - 1
        spent = monitor.spent
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            latency = clock() - start - (monitor.spent - spent)
            monitor.sample()
            latencies.append((latency, statistics.mean(monitor.samples[first:])))

    setattr(module, attr, timed)


def main() -> None:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, spec["cpus"])
    from tetherlaunch import cli

    tracer = Tracer() if spec["trace"] else None
    monitor = SpeedMonitor()
    latencies: list[tuple] = []
    entry = cli.main
    if tracer is not None:
        instrument(tracer)
        entry = tracer.wrap("cli.main", cli.main)
    else:
        for point in spec["points"]:
            time_point(point, monitor, latencies)

    out, err = io.StringIO(), io.StringIO()
    for _ in range(3):
        monitor.sample()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # Traced passes are not interrupted, so that no probe lands in a span.
        with contextlib.nullcontext() if tracer else monitor:
            spent = monitor.spent
            start = time.perf_counter()
            code = entry(spec["argv"])
            host_wall = time.perf_counter() - start - (monitor.spent - spent)
    for _ in range(3):
        monitor.sample()
    probe_s = statistics.mean(monitor.samples)
    scale = CAL_REF_S / probe_s
    # Each point at the speed measured during it, the rest of the pass at
    # the pass's mean speed.
    points = [t * CAL_REF_S / speed for t, speed in latencies]
    in_points = sum(t for t, _ in latencies)
    wall = sum(points) + (host_wall - in_points) * scale

    json.dump({
        "exit": code,
        "host_wall_s": host_wall,
        "probe_s": probe_s,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "points_s": points,
        "spans": None if tracer is None else tracer.table(scale),
        "trace_bytes": None if tracer is None else tracer.trace_bytes,
    }, sys.stdout)


if __name__ == "__main__":
    main()
