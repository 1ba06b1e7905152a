"""Benchmark entry point.

    python3 perfbench/run.py --workload cold-short --seed 1 --seconds 40 --trace 0

Runs one workload against hallmark from the ``src`` tree of the checkout
it sits in. Stdout gets one ``metric`` line per metric, a ``meta`` line
with the machine, versions, commit and generator settings, and, as its
last line, the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the result holds the end-to-end metrics listed in
BENCHMARK.json, with ``--trace 1`` the per-layer ones. The exit code is
1 when the output failed the label check (``correct`` is false), 2 when
there is nothing to run, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    manifest = ROOT / "BENCHMARK.json"
    if not (src / "hallmark" / "__init__.py").is_file():
        print(f"error: no hallmark sources in {src}", file=sys.stderr)
        return 2
    spec = json.loads(manifest.read_text(encoding="utf-8"))

    sys.path[:0] = [str(src), str(ROOT)]
    import hallmark

    if not Path(hallmark.__file__).resolve().is_relative_to(src):
        print(f"error: imported hallmark from {hallmark.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.bench import environment, run, unit_of
    from perfbench.workload import WORKLOADS

    settings = WORKLOADS.get(args.workload)
    if settings is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    for entry in listed:
        if unit_of(entry["name"]) != entry["unit"]:
            print(f"error: {entry['name']} is in {unit_of(entry['name'])}, not {entry['unit']}", file=sys.stderr)
            return 2

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, report = run(settings, args.seed, args.seconds, bool(args.trace), workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    computed = report.pop("per_layer" if args.trace else "end_to_end")
    report.pop("end_to_end", None)
    for name, value in computed.items():
        print(f"metric {name} {value!r} {unit_of(name)}")
    for problem in report["problems"]:
        print(f"problem {problem}", file=sys.stderr)
    report["environment"] = environment(ROOT)
    print("meta " + json.dumps(report, ensure_ascii=False, sort_keys=True))

    result["metrics"] = {e["name"]: {"value": computed[e["name"]], "unit": e["unit"]} for e in listed}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
