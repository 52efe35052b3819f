"""dreidel-lab benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats whole rounds of the workload's operations until its rounds
have taken --seconds (at least one round) and checks every output as it
goes.
With --trace 0 it reports the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); with --trace 1 it wraps the program's public functions and
reports the per-layer metrics instead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload both ways in child processes and
prints one table.  Raw results and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
NAMES = ("sampling", "chains", "exact")


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def typical_round(rounds: list[dict], field: int) -> float:
    """A round's time as the sum over its operations of each one's median
    across the rounds, so one slow stretch of a shared host cannot decide it.
    field 0 is wall time, 1 is CPU time."""
    return sum(statistics.median(r["ops"][name][field] for r in rounds) for name in rounds[0]["ops"])


def run_workload(workload: str, seed: int, seconds: float, tracer=None, setup: list | None = None) -> dict:
    """Whole rounds until `seconds` of rounds have run; with `setup`, one
    set-up sample before each round and at least SETUP_SAMPLES in all."""
    import workloads

    make_inputs, make_ops = workloads.WORKLOADS[workload]
    rounds, errors, wrong = [], [], []
    attempted = failed = 0
    exit_1: list[str] = []
    measured = 0.0
    while not rounds or measured < seconds:
        if setup is not None:
            setup.append(setup_sample(workload, seed))
        inputs = make_inputs(seed, len(rounds))
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            run = workloads.Runner(Path(tmp), tracer)
            ops = make_ops(inputs, run)
            gc.collect()
            op_times = {}
            for name, op in ops:
                attempted += 1
                cpu0, t0 = _cpu(), time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span(f"bench.{name}"):
                            problems = op()
                    else:
                        problems = op()
                except Exception:
                    failed += 1
                    errors.append({"round": len(rounds), "op": name, "error": traceback.format_exc()})
                    continue
                finally:
                    op_times[name] = (time.perf_counter() - t0, _cpu() - cpu0)
                wrong += [{"round": len(rounds), "op": name, "problem": p} for p in problems]
            exit_1 += run.cli_exit_1
        rounds.append({"ops": op_times, "wall_s": sum(w for w, _ in op_times.values()),
                       "cpu_s": sum(c for _, c in op_times.values())})
        measured += rounds[-1]["wall_s"]
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload, seed))
    return {"rounds": rounds, "attempted": attempted, "failed": failed, "errors": errors,
            "wrong": wrong, "cli_exit_1": exit_1, "setup_s": setup or [],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def one(args) -> int:
    if not (SRC / "dreidel_lab" / "__init__.py").is_file():
        print(f"error: no dreidel_lab sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dreidel_lab

    if SRC.resolve() not in Path(dreidel_lab.__file__).resolve().parents:
        print(f"error: dreidel_lab was imported from {dreidel_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import dreidel_lab.cli  # noqa: F401  (every layer, before any wrapping)
    import workloads  # noqa: F401

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = run_workload(args.workload, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(RESULTS / f"{tag}-spans.jsonl")
        values = tracing.layer_metrics(tracer.spans, len(res["rounds"]), typical_round(res["rounds"], 0))
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        res = run_workload(args.workload, args.seed, args.seconds, setup=[])
        metrics = {
            "wall_s": {"value": typical_round(res["rounds"], 0), "unit": "s"},
            "cpu_s": {"value": typical_round(res["rounds"], 1), "unit": "s"},
            "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump(res, fh, indent=1)

    for e in res["errors"]:
        print(f"FAILED {e['op']} (round {e['round']}):\n{e['error']}", file=sys.stderr)
    for w in res["wrong"]:
        print(f"WRONG {w['op']} (round {w['round']}): {w['problem']}", file=sys.stderr)
    correct = not res["wrong"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(res['rounds'])} rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed, "
          f"outputs {'correct' if correct else 'WRONG'}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    table = {}
    for workload in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {workload} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            table[(workload, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload in NAMES:
        base, traced = table[(workload, 0)], table[(workload, 1)]
        print(f"{workload}: {base['attempted']} operations attempted, {base['failed']} failed, "
              f"correct={base['correct'] and traced['correct']}")
        for name, m in base["metrics"].items():
            print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
        wall, traced_wall = base["metrics"]["wall_s"]["value"], traced["metrics"]["trace.wall_s"]["value"]
        print(f"  {'tracing overhead':42s} {100 * (traced_wall / wall - 1):13.2f}% of wall_s")
    print(json.dumps({f"{w}{'.traced' if t else ''}": r for (w, t), r in table.items()}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else one(args)


if __name__ == "__main__":
    sys.exit(main())
