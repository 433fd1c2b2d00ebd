"""Outside-in benchmark of the WhitenRec serving stack and trainer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout: the program is imported and started from
``src/`` there, and everything the benchmark writes (checkpoints, logs,
spans, temporary files) goes under ``.perfbench_work/``.  Workloads and
metrics are declared in ``BENCHMARK.json``; ``workloads.py`` says what each
workload does and why.

With ``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric; with ``--trace 1`` the program runs under the
traced launcher and the line holds every per-layer metric instead.  The
lines before it are a readable report.  ``--all`` runs every workload
untraced and prints every end-to-end metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import sys

from servers import ROOT

WORK = ROOT / ".perfbench_work"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _result_line(spec: dict, outcome, trace: bool) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if trace:
            value = outcome.metrics.get(name, 0.0)
        else:
            value = outcome.metrics[name]
        metrics[name] = {"value": float(value), "unit": metric["unit"]}
    return {"correct": bool(outcome.correct),
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics}


def _run(spec: dict, workload: str, seed: int, seconds: float,
         trace: bool) -> dict:
    from workloads import WORKLOADS

    outcome = WORKLOADS[workload](seed, seconds, trace, WORK)
    print(f"== {workload} (seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}) ==")
    for note in outcome.notes:
        print(note)
    result = _result_line(spec, outcome, trace)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = _spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if not args.all and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)

    if args.all:
        results = {name: _run(spec, name, args.seed, seconds, False)
                   for name in names}
        print(json.dumps(results))
        return 0 if all(result["correct"] for result in results.values()) else 1
    result = _run(spec, args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
