#!/usr/bin/env python3
"""End-to-end citation benchmark with a layer-attributed traced mode.

Run from the repository root::

    python3 perfbench/run.py --workload cite-comprehensive --seed 1 \\
        --seconds 40 --trace 0

Workloads (rationale in ``perfbench/README.md``):

- ``cite-comprehensive``: a closed loop of library ``cite`` calls over a
  generated 40-query mix on warm engines;
- ``service-portal``: an open loop of HTTP portal traffic against a
  ``repro serve`` child process.

With ``--trace 0`` the run reports end-to-end metrics; with
``--trace 1`` the same run is made with span wrappers installed around
every layer's entry points and reports per-layer metrics, plus the
tracing overhead against the last untraced run of the workload.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cite-comprehensive", "service-portal")
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cites_per_s": "1/s",
    "cite_p50_ms": "ms",
    "cite_p90_ms": "ms",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src`` only."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {source}")
    sys.path[:0] = [str(source), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {source}")


def _overhead(workload: str, traced: dict[str, float],
              outdir: Path) -> list[str]:
    path = outdir / f"{workload}.untraced.json"
    if not path.is_file():
        return ["tracing overhead: no untraced run of this workload "
                "recorded in this checkout yet (run --trace 0 first)"]
    untraced = json.loads(path.read_text())
    lines = [f"tracing overhead (traced - untraced seed "
             f"{untraced['seed']}):"]
    for name, unit in E2E_UNITS.items():
        before = untraced["metrics"][name]
        delta = traced[name] - before
        share = 100.0 * delta / before if before else 0.0
        lines.append(f"  {name:<14} {traced[name]:12.4f} - {before:12.4f} "
                     f"= {delta:+.4f} {unit} ({share:+.1f}%)")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import layers, library

    outdir = ROOT / ".perfbench"
    workdir = outdir / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    if args.workload == library.WORKLOAD:
        result = library.run(args.seed, args.seconds, trace, workdir)
        base_label = "summed cite time"
    else:
        from perfbench import portal

        result = portal.run(args.seed, args.seconds, trace, workdir)
        base_label = "summed server request time"

    for line in result["report"]:
        print(line)
    e2e = result["e2e"]
    print(f"end-to-end ({'traced' if trace else 'untraced'}):")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<14} {e2e[name]:14.4f} {unit}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    if trace:
        print("per-layer:")
        for line in layers.report_lines(result["per_layer"],
                                        result["layer_base_s"], base_label):
            print(line)
        for line in result.get("checks", []):
            print(line)
        for line in _overhead(args.workload, e2e, outdir):
            print(line)
        metrics = {name: {"value": result["per_layer"]["metrics"][name],
                          "unit": unit}
                   for name, unit in layers.metric_units().items()}
    else:
        (outdir / f"{args.workload}.untraced.json").write_text(json.dumps(
            {"seed": args.seed, "metrics": e2e}))
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
