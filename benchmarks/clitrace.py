"""Run one bacforge CLI command traced, in a process of its own.

    PYTHONPATH=src python -X importtime benchmarks/clitrace.py RECORDS.json ARGV...

Times ``import bacforge.cli``, installs the tracer's wrappers, calls
``bacforge.cli.run(ARGV)`` under one root span, writes the trace records,
the two timings and the speed samples' summary (speed.py) to RECORDS.json
and exits with the command's exit code.  The
CLI's own stdout and stderr pass through unchanged.
"""

import sys
import time

from speed import Samples


def main() -> int:
    records_path, argv = sys.argv[1], sys.argv[2:]
    samples = Samples()
    samples.start()
    t0 = time.perf_counter()
    import bacforge.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer, write_records

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    t1 = time.perf_counter()
    try:
        code = bacforge.cli.run(argv)
    finally:
        handler_s = time.perf_counter() - t1
        tracer.end_op()
        samples.stop()
        sys.stdout.flush()
        records = tracer.records()
        records.update(import_s=import_s, handler_s=handler_s, speed=samples.summary())
        write_records(records_path, records)
    return code


if __name__ == "__main__":
    sys.exit(main())
