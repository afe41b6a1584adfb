"""End-to-end and per-layer benchmark of the four tetherlaunch CLI workflows.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Workloads (closed loop, one client: the next pass starts when the previous
one returns; every pass is `tetherlaunch.cli.main(argv)` in a fresh
interpreter, so its peak RSS is its own):

    takeoff            default take-off: 3 s simulated, 30,000 RK4 substeps,
                       3,000 controller updates, a 3,000-row CSV
    sweep-10x10        serial sweep, 10 travels x 10 stiffness values
    spring-compare-10  the same 10 travels at the default stiffness, every
                       integration step kept and written as CSV
    validate           the property suite; the seed has no effect

Inputs come from --seed. Seed 0 is the canonical set: travels evenly
spaced over 0.05-0.35 m, stiffness 40-130 N/m in steps of 10, the default
initial slack. Other seeds draw each axis value uniformly within its own
tenth of the range (stratified, so the work per pass varies little from
seed to seed) and the initial slack uniformly over 0.2-1.5 m.

--trace 0 reports the end-to-end metrics:
    setup_s        fresh interpreter -> import tetherlaunch.cli + load_config(None),
                   median of several spawns spread over the run
    wall_s         median over the passes of the wall time of cli.main
    point_p50_ms   median and 90th percentile, over the workload's points, of
    point_p90_ms   a point's median latency over the passes; a point is a grid
                   point (evaluate_spring) on sweep, a travel (simulate_design)
                   on spring-compare, the take-off (run_takeoff), a check
    peak_rss_mb    median peak RSS of a pass process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: per-pass counts, total self times (not per call), and
trace.overhead (traced / untraced wall - 1) and trace.coverage (self time
of all spans below cli.main / traced wall).

Times are at reference speed. The run is pinned to one CPU, and a fixed
pure-Python probe kernel is timed on it before and after each set-up spawn
and pass, around each point and every 50 ms during an untraced pass; each
host time is multiplied by CAL_REF_S (the probe's time at reference speed)
over the mean probe time measured meanwhile, and the probes' own time is
left out. On a shared host a CPU's speed swings by up to 2x for seconds at
a time, which moved unscaled run medians by 15-45% between runs; the
unscaled medians are printed on a comment line before the result.

Correctness: at seed 0 every output file must match its SHA-256 in
goldens.json (outputs_mismatched); at other seeds the passes of a run must
write byte-identical files; the written traces must keep tether force >= 0
and spring compression within [0, travel]; traced passes must write what
untraced ones do, and the 2-worker sweep what the serial one does.
Failed operations (a sweep point with an error, a take-off that raises
TakeoffError, a FAIL check) count in `failed`, not as a crash.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import CAL_REF_S, PROPERTY_CHECKS, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
GOLDENS = HERE / "goldens.json"

WORKLOADS = ("takeoff", "sweep-10x10", "spring-compare-10", "validate")
TRAVEL_RANGE = (0.05, 0.35)        # [m]
STIFFNESS_RANGE = (40.0, 130.0)    # [N/m]
SLACK_RANGE = (0.2, 1.5)           # [m], the README's sensible range
MAX_TRAVEL = 0.35                  # default spring travel [m]
SETUP_SPAWNS = 21
MIN_PASSES = 2                     # seeds != 0 compare two passes' files
PASS_TIMEOUT_S = 120
SETUP_CODE = ("import tetherlaunch.cli\n"
              "from tetherlaunch.config import load_config\n"
              "load_config(None)\n")


# ---------------------------------------------------------------- inputs

def axis(lo: float, hi: float, n: int, rng: random.Random | None) -> list[float]:
    if rng is None:
        return [round(lo + i * (hi - lo) / (n - 1), 6) for i in range(n)]
    return [round(lo + (i + rng.random()) * (hi - lo) / n, 6) for i in range(n)]


def _csv_floats(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


def trace_file(travel: float) -> str:
    """File name under which spring-compare writes a travel's trace."""
    return f"spring_compare_travel_{f'{travel:g}'.replace('.', 'p')}.csv"


def workload_inputs(name: str, seed: int, tiny: bool, rundir: Path) -> dict:
    """CLI argv (without --out), point functions, operations per pass and
    the traces whose invariants are checked, with their spring travel."""
    rng = None if seed == 0 else random.Random(seed)
    n = 2 if tiny else 10
    if name == "takeoff":
        argv = ["takeoff"]
        if rng is not None:
            config = rundir / "takeoff_config.json"
            config.write_text(json.dumps(
                {"simulation": {"initial_slack": rng.uniform(*SLACK_RANGE)}}))
            argv += ["--config", str(config.relative_to(ROOT))]
        if tiny:
            argv += ["--duration", "0.5"]  # lift-off comes at 0.38 s
        return {"argv": argv, "points": ["cli.run_takeoff"], "ops": 1,
                "op": "take-offs", "traces": {"takeoff_trace.csv": MAX_TRAVEL}}
    travels = axis(*TRAVEL_RANGE, n, rng)
    if name == "sweep-10x10":
        stiffness = axis(*STIFFNESS_RANGE, n, rng)
        return {"argv": ["sweep", "--travels", _csv_floats(travels),
                         "--stiffness", _csv_floats(stiffness),
                         "--workers", "1"],
                "points": ["spring_design.evaluate_spring"],
                "ops": n * n, "op": "grid points", "traces": {}}
    if name == "spring-compare-10":
        return {"argv": ["spring-compare", "--travels", _csv_floats(travels)],
                "points": ["cli.simulate_design"], "ops": n, "op": "travels",
                "traces": {trace_file(t): t for t in travels}}
    if name == "validate":
        return {"argv": ["validate"],
                "points": [f"properties.{f}" for f in PROPERTY_CHECKS],
                "ops": len(PROPERTY_CHECKS), "op": "checks", "traces": {}}
    raise ValueError(name)


# ---------------------------------------------------------------- passes

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def time_setup() -> tuple[float, float]:
    """One set-up spawn: its host time and its time at reference speed."""
    probes = [probe() for _ in range(5)]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                   check=True, timeout=PASS_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    probes += [probe() for _ in range(5)]
    return elapsed, elapsed * CAL_REF_S / statistics.mean(probes)


def run_pass(argv: list[str], points: list[str], trace: bool,
             out: Path | None, cpus: list[int]) -> dict:
    """One pass in a fresh worker process on `cpus`; `crash` is set when
    the worker failed."""
    if out is not None:
        argv = argv + ["--out", str(out.relative_to(ROOT))]
    spec = json.dumps({"argv": argv, "trace": trace, "points": points,
                       "cpus": cpus})
    try:
        proc = subprocess.run([sys.executable, str(WORKER), spec], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return {"crash": True}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"crash": True}
    result = json.loads(proc.stdout)
    result["crash"] = False
    return result


def digest(out: Path | None, stdout: str) -> dict[str, str]:
    """SHA-256 of every output file; validate's output is its stdout."""
    if out is None:
        return {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def mismatches(got: dict[str, str], want: dict[str, str]) -> int:
    return sum(got.get(k) != want.get(k) for k in set(got) | set(want))


def failed_ops(name: str, res: dict, out: Path | None, ops: int) -> int:
    """Operations of one pass that failed (not crashes)."""
    if name == "sweep-10x10" and res["exit"] == 0:
        with open(out / "sweep.csv", newline="") as handle:
            return sum(1 for row in csv.DictReader(handle) if row["error"])
    if name == "validate":
        return sum(line.startswith("FAIL ") for line in res["stdout"].splitlines())
    if name == "spring-compare-10" and res["exit"] != 0:
        return ops - len(list(out.glob("spring_compare_travel_*.csv")))
    return ops if res["exit"] != 0 else 0


def expected_exit(name: str, res: dict) -> bool:
    """Exit 0, or the CLI's one-line error for a failed operation."""
    if res["exit"] == 0:
        return True
    if name == "validate":
        return res["exit"] == 1
    lines = res["stderr"].splitlines()
    return (res["exit"] == 1 and len(lines) == 1
            and lines[0].startswith("error: simulation: "))


def invariant_violations(out: Path, traces: dict[str, float]) -> list[str]:
    """Tether force >= 0 and spring compression within [0, travel]."""
    bad = []
    for file, travel in traces.items():
        path = out / file
        if not path.exists():
            continue  # a failed operation writes no trace
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                if not (float(row["tether_force"]) >= 0.0
                        and 0.0 <= float(row["spring_compression"]) <= travel):
                    bad.append(f"{file}: t={row['t']}")
                    break
    return bad


class Run:
    """State of one benchmark invocation: output dirs and the check log."""

    def __init__(self, name: str, seed: int, tiny: bool,
                 cpus: list[int]) -> None:
        self.name = name
        self.cpus = cpus
        self.rundir = ROOT / ".perfbench" / f"run-{os.getpid()}-{name}"
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)
        self.inputs = workload_inputs(name, seed, tiny, self.rundir)
        self.writes_files = name != "validate"
        self.reference = None
        if seed == 0 and not tiny:
            golden = json.loads(GOLDENS.read_text())[name]
            if golden["argv"] != self.inputs["argv"]:
                raise SystemExit(f"goldens.json argv for {name} is stale")
            self.reference = golden["files"]
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.rundir, ignore_errors=True)
        try:
            self.rundir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def run(self, trace: bool, extra: list[str] = (), all_cpus: bool = False,
            keep: bool = False) -> tuple[dict, Path | None]:
        """One checked pass on the run's first CPU (or all of them); returns
        the worker's result and its out dir."""
        self.count += 1
        out = self.rundir / f"pass-{self.count}" if self.writes_files else None
        res = run_pass(self.inputs["argv"] + list(extra), self.inputs["points"],
                       trace, out, self.cpus if all_cpus else self.cpus[:1])
        if res["crash"]:
            self.problems.append(f"pass {self.count} crashed")
            return res, out
        if not expected_exit(self.name, res):
            self.problems.append(f"pass {self.count}: exit {res['exit']}: "
                                 f"{res['stderr'].strip()[:200]}")
        res["digest"] = digest(out, res["stdout"])
        if self.reference is None:
            self.reference = res["digest"]
            if out is not None:
                for bad in invariant_violations(out, self.inputs["traces"]):
                    self.problems.append(f"invariant violated in {bad}")
        ops = self.inputs["ops"]
        self.attempted += ops
        self.failed += failed_ops(self.name, res, out, ops)
        self.mismatched += mismatches(res["digest"], self.reference)
        if out is not None and not keep:
            shutil.rmtree(out)
        return res, out


# ---------------------------------------------------------------- metrics

def until(seconds: float, start: float, durations: list[float],
          minimum: int) -> bool:
    """True while another step of the median duration fits in the run."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, seconds: float) -> dict:
    """Passes until the run's time is up, with the set-up spawns spread over
    the run. A point's latency is its median over the passes (every pass
    repeats the same points in the same order)."""
    start = time.perf_counter()
    time_setup()  # warm-up: byte-compiles the package on a fresh checkout
    setup, passes, steps = [], [], []
    while until(seconds, start, steps, MIN_PASSES):
        began = time.perf_counter()
        due = 1
        if steps:
            expected_steps = max(1.0, seconds / steps[0])
            due = math.ceil(SETUP_SPAWNS * (len(steps) + 1) / expected_steps)
        while len(setup) < min(due, SETUP_SPAWNS):
            setup.append(time_setup())
        res, _ = run.run(trace=False)
        steps.append(time.perf_counter() - began)
        if res["crash"]:
            continue
        passes.append(res)
    while len(setup) < SETUP_SPAWNS:
        setup.append(time_setup())
    if not passes:
        return {}
    points = [statistics.median(p) for p in zip(*(r["points_s"] for r in passes))]
    print(f"# host time: probe median "
          f"{1e3 * statistics.median(r['probe_s'] for r in passes):.4g} ms "
          f"(reference {1e3 * CAL_REF_S:g} ms), wall_s median "
          f"{statistics.median(r['host_wall_s'] for r in passes):.6g} s, "
          f"setup_s median {statistics.median(s for s, _ in setup):.6g} s")
    return {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "point_p50_ms": (1e3 * quantile(points, 50), "ms"),
        "point_p90_ms": (1e3 * quantile(points, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in passes)
                        / 1024.0, "MB"),
    }


class Spans:
    """Queries over one traced pass's span table."""

    def __init__(self, table: list[list]) -> None:
        self.rows = table

    def _sum(self, name: str, pick, parent: str | None = None) -> float:
        return sum(pick(r) for r in self.rows
                   if r[0] == name and (parent is None or r[1] == parent))

    def calls(self, name: str, parent: str | None = None) -> int:
        return self._sum(name, lambda r: r[2], parent)

    def total(self, name: str) -> float:
        return self._sum(name, lambda r: r[3])

    def self_time(self, *names: str) -> float:
        return sum(self._sum(n, lambda r: r[3] - r[4]) for n in names)

    def errors(self, name: str) -> int:
        return self._sum(name, lambda r: r[5])


def layer_metrics(res: dict, csv_stats: tuple[int, int], pool2_s: float) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    s = Spans(res["spans"])
    m = {}
    for layer, unit, scale in (("model.design_derivatives", "us", 1e6),
                               ("model.tether_stiffness", "us", 1e6),
                               ("model.spring_friction", "us", 1e6),
                               ("integrator.rk4_step", "us", 1e6),
                               ("integrator.simulate", "ms", 1e3)):
        m[f"{layer}.calls"] = (s.calls(layer), "count")
        m[f"{layer}.self_{unit}"] = (scale * s.self_time(layer), unit)
    m["integrator.trace_bytes"] = (res["trace_bytes"], "bytes")
    m["integrator.errors"] = (s.errors("integrator.simulate"), "count")
    m["controller.updates"] = (s.calls("controller.winch_fbck"), "count")
    m["controller.winch_fbck.self_us"] = (
        1e6 * s.self_time("controller.winch_fbck"), "us")
    m["controller.torque_laws.self_us"] = (1e6 * s.self_time(
        "controller.slide_torque", "controller.winch_torque"), "us")
    m["controller.arbitration.self_us"] = (1e6 * s.self_time(
        "controller.winch_ffwd", "controller.combine_refs"), "us")
    m["takeoff.run_takeoff.self_s"] = (s.self_time("takeoff.run_takeoff"), "s")
    m["takeoff.substeps"] = (
        s.calls("integrator.rk4_step", "takeoff.run_takeoff"), "count")
    m["takeoff.failed"] = (s.errors("takeoff.run_takeoff"), "count")
    m["spring_design.points"] = (s.calls("spring_design.simulate_design"), "count")
    m["spring_design.assess_trace.self_ms"] = (
        1e3 * s.self_time("spring_design.assess_trace"), "ms")
    m["spring_design.count_compression_cycles.self_ms"] = (
        1e3 * s.self_time("spring_design.count_compression_cycles"), "ms")
    m["spring_design.points_failed"] = (
        s.errors("spring_design.simulate_design"), "count")
    m["spring_design.pool2_s"] = (pool2_s, "s")
    m["csvio.rows"] = (csv_stats[0], "count")
    m["csvio.bytes"] = (csv_stats[1], "bytes")
    m["csvio.write_s"] = (s.total("csvio.write_rows"), "s")
    m["config.load_config_ms"] = (1e3 * s.total("config.load_config"), "ms")
    for check in PROPERTY_CHECKS.values():
        m[f"properties.{check}.s"] = (s.total(f"properties.{check}"), "s")
    m["cli.self_ms"] = (1e3 * s.self_time("cli.main"), "ms")
    m["cli.nonzero_exits"] = (int(res["exit"] != 0), "count")
    below = sum(r[3] - r[4] for r in s.rows if r[0] != "cli.main")
    m["trace.coverage"] = (below / res["wall_s"], "ratio")
    return m


def csv_rows_bytes(out: Path | None) -> tuple[int, int]:
    rows = size = 0
    if out is not None:
        for path in out.glob("*.csv"):
            data = path.read_bytes()
            rows += data.count(b"\n") - 1
            size += len(data)
    return rows, size


def per_layer(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    plain, walls, traced, durations = [], [], [], []
    pool2_s = 0.0
    while until(seconds, start, durations, 1):
        began = time.perf_counter()
        untraced, _ = run.run(trace=False)
        res, out = run.run(trace=True, keep=True)
        if not (untraced["crash"] or res["crash"]):
            plain.append(untraced["wall_s"])
            walls.append(res["wall_s"])
            traced.append(layer_metrics(res, csv_rows_bytes(out), pool2_s))
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        if run.name == "sweep-10x10" and pool2_s == 0.0:
            pool, _ = run.run(trace=False, extra=["--workers", "2"],
                              all_cpus=True)
            pool2_s = 0.0 if pool["crash"] else pool["wall_s"]
            for m in traced:
                m["spring_design.pool2_s"] = (pool2_s, "s")
        durations.append(time.perf_counter() - began)
    if not traced:
        return {}
    metrics = {}
    for key, (value, unit) in traced[0].items():
        values = [m[key][0] for m in traced]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                run.problems.append(f"{key} differs between traced passes: {values}")
            metrics[key] = (value, unit)
        else:
            metrics[key] = (statistics.median(values), unit)
    metrics["trace.overhead"] = (statistics.median(walls)
                                 / statistics.median(plain) - 1.0, "ratio")
    return metrics


# ---------------------------------------------------------------- report

def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    commit = dirty = None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy,
            "commit": commit, "dirty": dirty}


def bench(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
          cpus: list[int]) -> dict:
    run = Run(name, seed, tiny, cpus)
    try:
        metrics = (per_layer if trace else end_to_end)(run, seconds)
    finally:
        run.close()
    if not metrics:
        run.problems.append("no pass completed")
    correct = not run.problems and run.mismatched == 0
    for problem in run.problems:
        print(f"check failed: {problem}")
    print(f"# {name} seed={seed} trace={int(trace)} passes={run.count} "
          f"outputs_mismatched={run.mismatched} "
          f"error_rate={run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed of {run.attempted} attempted "
          f"{run.inputs['op']})")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    return {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test; no goldens)")
    args = parser.parse_args()
    if not (SRC / "tetherlaunch" / "cli.py").is_file():
        print(f"error: no tetherlaunch sources under {SRC}", file=sys.stderr)
        return 2
    # Pin the run, set-up spawns and serial passes included, to one CPU, so
    # that each probe measures the CPU the timed work runs on.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: bench(name, args.seed, args.seconds, bool(args.trace),
                           args.tiny, cpus) for name in names}
    if args.workload == "all":
        print(json.dumps({"env": env, "seed": args.seed, "trace": args.trace,
                          "results": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
