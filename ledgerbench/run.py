"""Layer-ledger benchmark entry point.

    python3 ledgerbench/run.py --workload fleet-thread --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout holding ``src/repro``).  The
entry point pins BLAS/OpenMP to one thread and clears every ``REPRO_*``
switch before NumPy or ``repro`` is imported, so results do not depend on
how the caller's environment was set up; worker processes inherit the same
settings.  It prints one line per metric with its unit, the host fingerprint, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Results go to
stdout only.  The exit code is 0 only when the run's outputs were correct.
"""

import argparse
import json
import os
import sys

_PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_CALLER_ENV = {name: os.environ.get(name) for name in _PINNED}
os.environ.update(_PINNED)
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("ledgerbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"ledgerbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"ledgerbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from ledgerbench.bench import run_workload
    from ledgerbench.host import fingerprint
    from ledgerbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"ledgerbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  ticks behind the timings {result.samples}")
    for name, value in result.metrics.items():
        print(f"  {name:<36} {value:>14.4f} {result.units[name]}")
    for problem in result.problems:
        print(f"  PROBLEM {problem}")
    print("host " + json.dumps(fingerprint(_CALLER_ENV)))
    print(json.dumps(result.record()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
