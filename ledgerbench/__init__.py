"""Layer-ledger benchmark for the repro serving stack.

Run it with ``python3 ledgerbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  ``BENCHMARK.json``
at the root lists the workloads and metrics; ``metric_map.json`` beside this
file records which end-to-end metric each per-layer metric should move.
"""
