"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload flood-repeat --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn; ``--quick`` shrinks
every workload to a smoke-test size.  The last line of standard output
is the JSON result of the (last) workload; the exit status is non-zero
when any correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("flood-repeat", "flood-unique", "serve-mix")


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    if name == "serve-mix":
        import servemix

        return servemix.run(seed, seconds, trace, quick)
    import flood

    return flood.run(name, seed, seconds, trace, quick)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    harness.require_source()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        for metric, value in result.metrics.items():
            print(f"{name}  {metric:<32} {value:>16.6g} {result.units[metric]}")
        print(f"{name}  meta {json.dumps(result.meta, sort_keys=True)}")
        for problem in result.problems:
            print(f"{name}  FAILED {problem}", file=sys.stderr)
        document = {"workload": name, **json.loads(result.line()), "meta": result.meta}
        (harness.work_dir() / f"result-{name}.json").write_text(
            json.dumps(document, indent=2, sort_keys=True)
        )
        ok = ok and result.correct
        print(result.line(), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
