"""Repository benchmark: served-path throughput/latency and deployed
attack cost, with per-layer attribution.

Run it from the repository root::

    python3 perfbench/run.py --workload point-lookups --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
