"""Run one bacforge CLI command as ``python -m bacforge.cli`` does, sampling
the host's speed (speed.py) while it runs.

    PYTHONPATH=src python benchmarks/clirun.py SPEED.json ARGV...

Runs the ``bacforge.cli`` module as ``__main__`` with ``ARGV``, writes the
speed samples' summary to SPEED.json and exits with the command's exit
code.  The CLI's own stdout and stderr pass through unchanged.
"""

import json
import runpy
import sys

from speed import Samples


def main() -> int:
    speed_path, argv = sys.argv[1], sys.argv[2:]
    samples = Samples()
    samples.start()
    sys.argv = ["bacforge.cli", *argv]
    try:
        runpy.run_module("bacforge.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        samples.stop()
        sys.stdout.flush()
        with open(speed_path, "w") as fh:
            json.dump(samples.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
