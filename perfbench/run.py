"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload edit_loop --seed 1 --seconds 30 --trace 0

``--trace 0`` measures real ``repro`` processes (and a real ``repro
serve`` daemon) with no tracing anywhere and prints every end-to-end
metric of BENCHMARK.json, times in reference-normalised user CPU
seconds (see ``common.Reference``); ``--trace 1`` runs the same ops
in-process under span wrappers (serve: reads the job records from
outside the daemon) and prints every per-layer metric.  Every verdict is checked
against its known answer.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, SRC, WORK, measure_startup


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    declared = _declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=declared["workloads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import cli_workloads
    import serve_workload
    from oracle import WrongVerdict

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    units = declared["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            from spans import Recorder

            metrics = dict.fromkeys(units, 0.0)
            metrics.update(measure_startup())
            if args.workload == "serve_open":
                result = serve_workload.traced_run(args.seed, args.seconds, work)
            else:
                result = cli_workloads.traced_run(
                    args.workload, args.seed, args.seconds, work, Recorder()
                )
            metrics.update(result.metrics)
        elif args.workload == "serve_open":
            result = serve_workload.timed_run(args.seed, args.seconds, work)
            metrics = result.metrics
        else:
            result = cli_workloads.timed_run(
                args.workload, args.seed, args.seconds, work
            )
            metrics = result.metrics
    except WrongVerdict as error:
        print(f"WRONG VERDICT: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Finish the deletions' disk work here, not under the next run.
        os.sync()

    if set(metrics) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(units))} "
            "disagree with BENCHMARK.json"
        )
    for note in result.notes:
        print(f"# {note}")
    if not args.trace:
        print(f"error_rate {result.failed / result.attempted:.6f} ratio")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
