"""Entry point for ``python3 benchmarks/perf/run.py --workload W --seed S
--seconds N --trace 0|1`` (the form ``BENCHMARK.json`` declares).

Same as ``python -m benchmarks.perf run ...`` from the repository root.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run"] + sys.argv[1:]))
