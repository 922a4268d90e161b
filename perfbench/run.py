"""kwspot benchmark entry point.

    python3 perfbench/run.py --workload {train,spot,eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports kwspot from its
`src` directory. With --trace 0 it measures the end-to-end metrics with
tracing off; with --trace 1 it makes a separate traced run for the
per-layer metrics and writes every span to .perfbench_work/. The lines
before the last show every metric the workload names, with its unit, and
the environment; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import sys

import env


def result_line(result: dict) -> dict:
    """The last-line object for a run's result."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "spot", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        env.import_kwspot()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import measure

    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = env.describe(args.seed)
    for name, (value, unit) in result["report"].items():
        print(f"{args.workload:5s} {name:34s} {value:14.6g} {unit}")
    for note in result["notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    print("env " + json.dumps(record, sort_keys=True))
    if args.trace:
        path = measure.write_trace(args.workload, args.seed, result, record)
        print(f"trace written to {path}")
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    env.pin_threads()
    sys.exit(main())
