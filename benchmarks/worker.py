"""One measured run of one workload, in a fresh interpreter.

    PYTHONPATH=src python benchmarks/worker.py --workload NAME --seed N [--segment I]
        --units U --workdir DIR [--trace --records FILE] [--probe] [--smoke]

Times ``import bacforge``, sets the workload up, then (unless ``--probe``)
runs ``U`` units of it and prints one JSON line: ops, failures, per-op
latencies and summed busy time (scaled to the reference host speed by the
kernel samples of ``speed.py``, and raw), peak RSS and, with ``--trace``,
the per-layer statistics.  With ``--probe`` it prints the process's kernel
samples instead.  A fresh process per run keeps the package's
process-global, id-keyed caches from carrying warm state from one run to
the next.
"""

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed as host_speed

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 120


def _cli_launcher(trace: bool, workdir: Path, traces: list, kernel_s: list):
    """Run one CLI command in a fresh process: ``clirun.py`` (the module
    run as ``python -m bacforge.cli`` does), or ``clitrace.py`` under ``-X
    importtime``.  Both report the process's speed samples, which scale its
    wall time to the reference speed."""
    counter = itertools.count()

    def launch(argv, cwd):
        records = workdir / f"cli-{next(counter)}.json"
        if trace:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "clitrace.py"), str(records), *argv]
        else:
            cmd = [sys.executable, str(HERE / "clirun.py"), str(records), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        dt = time.perf_counter() - t0
        summary = json.loads(records.read_text())
        if trace:
            traces.append((records, proc.stderr))
            summary = summary["speed"]
        kernel_s.append(summary["trimmed_mean_s"])
        return proc.returncode, proc.stdout, dt, host_speed.at_reference(dt, summary)

    return launch


def _scale(result: dict, samples) -> None:
    """Scale each in-process op to the reference speed by the kernel
    samples during or around it.  An op stands for ``weight`` equal ops of
    the given latency (one verify call decides ``checked`` multisets)."""
    raw = result["raw_latencies_s"] = result.pop("latencies_s")
    weights = result["weights"] = result.get("weights", [1] * len(raw))
    result["latencies_s"] = [samples.scaled(start, latency * weight) / weight
                             for start, latency, weight in zip(result.pop("starts"), raw, weights)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, default=0, help="which part of a split run; varies the inputs")
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--records", type=Path)
    parser.add_argument("--probe", action="store_true", help="set up and exit")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    # the speed samples cover the whole process, set-up included
    samples = host_speed.Samples()
    samples.start()
    t0 = time.perf_counter()
    import bacforge  # noqa: F401

    import_s = time.perf_counter() - t0
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.segment, args.smoke)
    workload.setup()
    if args.probe:
        samples.stop()
        print(json.dumps(samples.summary()))
        return 0

    if args.workload == "cli-readme":
        traces: list = []
        kernel_s: list = []
        workload.prepare(args.workdir)
        result = workload.run(args.units, _cli_launcher(args.trace, args.workdir, traces, kernel_s))
        samples.stop()
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            resume, pause = tracer.begin_op, tracer.end_op
        else:
            resume = pause = lambda: None
        result = workload.run(args.units, pause, resume)
        samples.stop()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _scale(result, samples)
        if "names" in result:
            # each verify call's time, at the reference speed and raw
            calls = zip(result.pop("names"), result["latencies_s"], result["raw_latencies_s"], result["weights"])
            for name, scaled, raw, weight in calls:
                result.setdefault("sweep_s", {}).setdefault(name, []).append([scaled * weight, raw * weight])
    result["peak_rss_mb"] = peak_kb / 1024.0
    weights = result.setdefault("weights", [1] * len(result["latencies_s"]))
    result["raw_busy_s"] = sum(x * w for x, w in zip(result["raw_latencies_s"], weights))
    result["busy_s"] = sum(x * w for x, w in zip(result["latencies_s"], weights))
    # the kernel's typical time in the processes that ran the ops
    kernels = kernel_s if args.workload == "cli-readme" else [samples.summary()["trimmed_mean_s"]]
    result["kernel_s"] = statistics.median(kernels)

    if args.trace:
        if args.workload == "cli-readme":
            per_command = [json.loads(path.read_text()) for path, _ in traces]
            stats = tracing.merge_stats([tracing.layer_stats(r) for r in per_command])
            records = {"commands": per_command}
            result["cli"] = {
                "import_s": statistics.median(r["import_s"] for r in per_command),
                "numpy_import_s": statistics.median(tracing.numpy_import_s(err) for _, err in traces),
                "handler_s": sum(r["handler_s"] for r in per_command),
            }
        else:
            records = tracer.records()
            stats = tracing.layer_stats(records)
            # numpy's share comes from this process's -X importtime output
            result["cli"] = {"import_s": import_s, "numpy_import_s": None, "handler_s": 0.0}
        result["layers"] = tracing.layer_metrics(stats)
        missing = sorted({m for r in records.get("commands", [records]) for m in r["missing"]})
        result["missing_targets"] = missing
        tracing.write_records(args.records, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
