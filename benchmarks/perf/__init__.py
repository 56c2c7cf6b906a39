"""End-to-end and per-layer performance benchmark (see ``README.md``).

``python -m benchmarks.perf run --workload NAME --seed S [--trace]`` and
``python -m benchmarks.perf compare DIR [DIR ...]``.
"""
