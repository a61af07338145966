"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--output perfbench/out/report.json]

Each workload runs in its own process (``run.py``), one after the other:
first untraced for the end-to-end metrics, then traced for the per-layer
metrics.  The traced pass runs each kind once, so the tracing overhead is
its ``trace.wall_s`` minus the untraced time of the same work, the sum of
the untraced ``op_s.*``.  The full record, environment included, is
written as JSON to ``--output``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--output", type=Path, default=HERE / "out" / "report.json")
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        res = plain["result"]
        e2e = res["metrics"]
        layers = traced["result"]["metrics"]
        same_work = sum(v["value"] for k, v in e2e.items() if k.startswith("op_s."))
        overhead = layers["trace.wall_s"]["value"] - same_work
        report["workloads"][name] = {"why": w["why"], "untraced": plain, "traced": traced,
                                     "tracing_overhead_s": overhead}
        d = plain["detail"]
        print(f"== {name} (seed {args.seed}) ==")
        print(f"   env: {json.dumps(d['env'])}")
        print(f"   gate: correct={res['correct']}  failed {res['failed']} of "
              f"{res['attempted']} (failed_ratio {res['failed'] / res['attempted']:.4g}, "
              f"{d['known_failed']} known defect; {d['check_failures']} of {d['checks']} "
              f"checks over every repeat)")
        for reason, n in d["failure_reasons"].items():
            print(f"     {n} x {reason}")
        print("   end to end (untraced):")
        for k, v in e2e.items():
            print(f"     {k:<22} {_fmt(v['value']):>14} {v['unit']}")
        for kind, stats in d["ops"].items():
            print(f"     {kind:<10} n={stats['n']} trimmed mean {stats['trimmed_mean_s']:.4g} s, "
                  f"iterations {d['iterations'].get(kind, {})}")
        print("   per layer (one traced pass):")
        for k, v in layers.items():
            print(f"     {k:<28} {_fmt(v['value']):>14} {v['unit']}")
        print(f"   tracing overhead: {overhead:+.4g} s "
              f"({overhead / same_work:+.1%} of the untraced sum of op_s.*); "
              f"spans in {traced['detail']['trace_file']}")
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
