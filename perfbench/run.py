"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload oracle|census|design --seed N --seconds S --trace 0|1

Run it from anywhere in a checkout of the repository; it imports ``nlfsr``
from ``src/``.  Set-up (importing ``nlfsr``, generating registers from the
seed, fixing the known answers and writing register files) is timed, then
one client sends the workload's requests in a closed loop, in the fixed
seed-drawn order, for ``--seconds`` seconds.  Every answer is checked.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A fuller record (machine, seed, per-n latencies, spans) is written to
``.perfbench/records/``.  Exit code 0 when every answer was right, 1 when a
check failed or a request was refused, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"  # scratch register files and result records
# Set-up is repeated and its median reported, so that one slow repetition
# does not decide the figure.
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="oracle, census or design")
    p.add_argument("--seed", type=int, required=True, help="seed for every generated input")
    p.add_argument("--seconds", type=float, required=True, help="how long to send requests")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    return p.parse_args(argv)


def measure(rounds, runner, seconds: float):
    """Send the rounds in turn, starting over after the last, while time is left.

    Runs stop only between rounds and start no round that would not end
    in time (the first always runs), so a run sends whole rounds and a
    percentile falls at the same place in their mix.
    """
    results = []
    start = time.perf_counter()
    for requests in itertools.cycle(rounds):
        round_start = time.perf_counter()
        results += [runner.run(req) for req in requests]
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return results, now - start


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nlfsr" / "cli.py").is_file():
        print(f"error: no nlfsr sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    # Importing nlfsr is part of set-up, so it happens here, timed, before
    # the benchmark's own modules import it.
    t = time.perf_counter()
    import nlfsr.cli  # noqa: F401
    import_s = time.perf_counter() - t

    from perfbench import execute, report, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setups, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            setups.append(workloads.build(spec, workloads.seeded_rng(args.workload, args.seed), workdir))
            setup_times.append(time.perf_counter() - t)
        if any(s.rounds != setups[0].rounds for s in setups):
            raise RuntimeError("the same seed generated different requests")
        setup = setups[0]

        tracer = execute.Tracer() if args.trace else None
        runner = execute.Runner(tracer)
        results, elapsed = measure(setup.rounds, runner, args.seconds)
        probes = []
        if args.trace:
            probe_dir = workdir / "probe"
            probe_dir.mkdir()
            probe_setup = workloads.build(workloads.PROBE, workloads.seeded_rng("probe", args.seed),
                                          probe_dir, label="probe")
            probes = [runner.run(req) for req in probe_setup.rounds[0]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = results + probes
    failed = [r for r in everything if r.error is not None]
    latency = report.latency_summary(results, spec.tail_percentile)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": report.machine(ROOT, args.seed),
        "requests_per_round": len(setup.rounds[0]),
        "rounds": len(results) / len(setup.rounds[0]),
        "elapsed_s": elapsed,
        "attempted": len(everything),
        "failed": len(failed),
        "failed_frac": len(failed) / len(everything),
        "refused": sum(r.refused for r in everything),
        "available_mb": runner.avail_mb,
        "errors": [f"{r.request.kind} n={r.request.n} {r.request.pair}: {r.error}" for r in failed[:20]],
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "latency": latency,
    }
    if args.trace:
        metrics, coverage = report.layer_metrics(results, probes, tracer, setup.lowering_s)
        record.update(coverage=coverage, spans=tracer.spans, counts=tracer.counts)
    else:
        answered = latency["samples"]
        metrics = {
            "latency_p50_ms": (latency.get("p50_ms", 0.0), "ms"),
            "latency_tail_ms": (latency.get("tail_ms", 0.0), "ms"),
            "throughput_ops_per_s": (answered / elapsed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
        }
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (v, u) in metrics.items():
        print(f"{name:24} {v:14.6g} {u}", file=sys.stderr)
    if args.trace:
        print(f"per request: {coverage['request_ms']:.4g} ms untraced = layers "
              f"{coverage['layers_ms']:.4g} + cli overhead {coverage['cli_overhead_ms']:.4g} "
              f"+ uncovered {coverage['uncovered_ms']:.4g}; from the probe round: "
              f"{', '.join(coverage['from_probe']) or 'none'}", file=sys.stderr)
    elif "tail_percentile" in latency:
        print(f"tail is p{latency['tail_percentile']} of {latency['samples']} samples "
              f"({latency['tail_samples_beyond']} beyond)", file=sys.stderr)
    for line in record["errors"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"record: {path}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
