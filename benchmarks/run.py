"""bacforge benchmark: one workload per invocation, end-to-end or traced.

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all      # the three workloads in turn
    python3 benchmarks/run.py --smoke

Run from the root of a source tree; nothing needs installing (the package is
imported from ``src`` through PYTHONPATH).  The last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}`` (with ``all``, one
per workload, each tagged with its ``workload``).  The line before
it holds the details: environment stamp, tail percentile and sample count,
``failed_frac``, set-up probes and any failed checks.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  The
measured work is split over two fresh worker interpreters; set-up time is
the median wall time of fresh interpreters that import bacforge and build
the workload's codes, taken before, between and after them.  Every timing
metric is scaled to the reference host speed by a fixed kernel that every
timed process runs every 10 ms (speed.py); the raw figures are in the
details.  ``--trace 1`` runs half that work twice, plainly and then with
the tracer's wrappers installed, and reports the per-layer metrics plus the
tracing overhead.  ``--smoke`` runs every workload at minimal size in both
modes and checks that each metric named in BENCHMARK.json is printed with
its unit and that no op failed.

See NOTES.md for the reasons behind each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import speed as host_speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEGMENTS = 2
PROBES_PER_POINT = 3
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
RUN_DEADLINE_S = 170  # every child is killed by then, under the 180 s limit


class BenchError(Exception):
    pass


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _numpy_version():
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def percentile(values: list, weights: list, p: float) -> tuple:
    """(value, samples beyond it) at percentile ``p`` by nearest rank, where
    value ``values[i]`` stands for ``weights[i]`` samples."""
    pairs = sorted(zip(values, weights))
    n = sum(weights)
    rank = max(1, math.ceil(n * p / 100))
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value, n - rank
    return pairs[-1][0], 0


def tail(values: list, weights: list) -> tuple:
    """(percentile, value, samples beyond it) at the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it; the maximum when
    there are too few samples for any."""
    best = (100, max(values), 0)
    for p in TAIL_PERCENTILES:
        value, beyond = percentile(values, weights, p)
        if beyond >= 10:
            best = (p, value, beyond)
    return best


class Child:
    """Runs child interpreters in their own process group, so a timeout
    kills every process under them, and waits for each to end."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list) -> tuple:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[1:3]} did not finish before the run deadline") from None
        finally:
            # the group also holds any process the worker left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
        return out, err, dt


def _worker(child: Child, workload, seed, units, workdir, smoke, *extra, python_flags=(), segment=0):
    argv = [sys.executable, *python_flags, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--segment", str(segment), "--units", str(units), "--workdir", str(workdir), *extra]
    if smoke:
        argv.append("--smoke")
    return child.run(argv)


def _segments(units: int) -> list:
    """Split a run's units over up to SEGMENTS fresh workers, as evenly as
    possible."""
    count = min(units, SEGMENTS)
    return [units // count + (i < units % count) for i in range(count)]


def _plain_run(child: Child, workload, seed, segments: list, workdir, smoke, probes: int) -> dict:
    """The measured run as one fresh worker per segment, with set-up probes
    before each segment and after the last, so set-up time is sampled at
    several moments of the run.  Each probe is scaled by its own speed
    samples."""
    probes_at: list = []  # (wall seconds, the probe's speed summary)

    def probe_point():
        for _ in range(probes):
            out, _, wall = _worker(child, workload, seed, 1, workdir, smoke, "--probe")
            probes_at.append((wall, json.loads(out.strip().splitlines()[-1])))

    parts = []
    for segment, units in enumerate(segments):
        probe_point()
        out, _, _ = _worker(child, workload, seed, units, workdir, smoke, segment=segment)
        parts.append(json.loads(out.strip().splitlines()[-1]))
    probe_point()
    run = {key: sum(p[key] for p in parts) for key in ("ops", "failed", "busy_s", "raw_busy_s")}
    for key in ("latencies_s", "raw_latencies_s", "weights", "problems"):
        run[key] = [x for p in parts for x in p[key]]
    run["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    run["kernel_s"] = [p["kernel_s"] for p in parts]
    if probes_at:
        run["raw_probes_s"] = [wall for wall, _ in probes_at]
        run["probes_s"] = [host_speed.at_reference(wall, summary) for wall, summary in probes_at]
    if "affine_no_plan" in parts[0]:
        run["affine_no_plan"] = sum(p["affine_no_plan"] for p in parts)
    if "sweep_s" in parts[0]:
        run["sweep_s"] = {name: [x for p in parts for x in p["sweep_s"][name]] for name in parts[0]["sweep_s"]}
    return run


def measure(workload: str, seed: int, seconds: int, trace: bool, smoke: bool = False) -> tuple:
    """Returns (result line, details line) as dicts."""
    env_start = {"loadavg": _loadavg(), "time": time.time()}
    deadline = time.monotonic() + RUN_DEADLINE_S
    child = Child(deadline)
    units = workloads.units_for(workload, seconds, smoke)
    if trace:
        units = max(1, units // 2)  # run twice, plain and traced, in about the same time
    workdir = WORKDIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    details: dict = {"workload": workload, "seed": seed, "seconds": seconds, "units": units, "trace": int(trace)}
    try:
        if trace:
            # the untraced reference for the overhead: same work, one worker
            run = _plain_run(child, workload, seed, [units], workdir, smoke, probes=0)
            records = WORKDIR / f"trace-{workload}.json"
            out, err, _ = _worker(child, workload, seed, units, workdir, smoke, "--trace", "--records",
                                  str(records), python_flags=("-X", "importtime"))
            traced = json.loads(out.strip().splitlines()[-1])
            details["records"] = str(records.relative_to(ROOT))
        else:
            run = _plain_run(child, workload, seed, _segments(units), workdir, smoke, PROBES_PER_POINT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops_per_s = run["ops"] / run["busy_s"]
    details["kernel_s"] = {"nominal": host_speed.KERNEL_NOMINAL_S, "per_worker": run["kernel_s"]}
    if trace:
        metrics = dict(traced["layers"])
        cli = traced["cli"]
        if cli["numpy_import_s"] is None:
            cli["numpy_import_s"] = tracing.numpy_import_s(err)
        traced_ops_per_s = traced["ops"] / traced["busy_s"]
        details["kernel_s"]["per_worker"].append(traced["kernel_s"])
        process = {
            "cli.import_s": cli["import_s"],
            "cli.numpy_import_s": cli["numpy_import_s"],
            "cli.handler_s": cli["handler_s"],
            "trace.ops_per_s": traced_ops_per_s,
            "trace.untraced_ops_per_s": ops_per_s,
            "trace.overhead_ratio": ops_per_s / traced_ops_per_s,
        }
        for name, unit in tracing.PROCESS_METRICS:
            metrics[name] = {"value": process[name], "unit": unit}
        details["missing_trace_targets"] = traced["missing_targets"]
        checked = (run, traced)
    else:
        def timings(latencies, busy_s, probes_s):
            pct, tail_s, beyond = tail(latencies, run["weights"])
            return {
                "ops_per_s": {"value": run["ops"] / busy_s, "unit": "1/s"},
                "op_p50_ms": {"value": percentile(latencies, run["weights"], 50)[0] * 1e3, "unit": "ms"},
                "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
                "setup_s": {"value": statistics.median(probes_s), "unit": "s"},
            }, (pct, beyond)

        metrics, (pct, beyond) = timings(run["latencies_s"], run["busy_s"], run["probes_s"])
        metrics["peak_rss_mb"] = {"value": run["peak_rss_mb"], "unit": "MB"}
        raw, _ = timings(run["raw_latencies_s"], run["raw_busy_s"], run["raw_probes_s"])
        details["raw"] = {name: m["value"] for name, m in raw.items()}
        details["op_tail"] = {"percentile": pct, "samples": sum(run["weights"]), "beyond": beyond}
        details["setup_probes_s"] = run["probes_s"]
        checked = (run,)

    attempted = sum(r["ops"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    problems = [p for r in checked for p in r["problems"]]
    details["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}
    details["problems"] = problems[:20]
    for key in ("affine_no_plan", "sweep_s"):
        if key in run:
            details[key] = run[key]
    details["env"] = {
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "loadavg_start": env_start["loadavg"],
        "loadavg_end": _loadavg(),
        "wall_s": time.time() - env_start["time"],
    }
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def smoke() -> int:
    """Every workload at minimal size, plain and traced; checks names,
    units and that nothing failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, details = measure(workload, workloads.DEFAULT_SEED, 1, bool(trace), smoke=True)
            got = result["metrics"]
            errors = [f"missing {m['name']}" for m in wanted[trace] if m["name"] not in got]
            errors += [
                f"{m['name']} has unit {got[m['name']]['unit']}, expected {m['unit']}"
                for m in wanted[trace]
                if m["name"] in got and got[m["name"]]["unit"] != m["unit"]
            ]
            extra = set(got) - {m["name"] for m in wanted[trace]}
            errors += [f"unexpected metric {name}" for name in sorted(extra)]
            if details["failed_frac"]["value"] != 0 or not result["correct"]:
                errors.append(f"failed_frac {details['failed_frac']['value']}: {details['problems']}")
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"smoke {workload} trace={trace}: {status} ({details['env']['wall_s']:.1f}s)")
            ok = ok and not errors
    print("smoke: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at minimal size")
    args = parser.parse_args()
    if not (SRC / "bacforge" / "__init__.py").is_file():
        print(f"error: no bacforge sources under {SRC}; run from a full source tree", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, details = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"details": details}))
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
