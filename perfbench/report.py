"""Turning results and spans into metrics, and describing the machine.

Latency percentiles use the nearest-rank rule.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
from collections import defaultdict
from pathlib import Path

from .execute import Result, Tracer
from .workloads import LIBRARY_KINDS

# Layer spans of the library chains; together with cli.overhead_ms they
# cover a request.  register.successor is a probe outside that sum.
CHAIN_LAYERS = (
    "anf.parse",
    "register.simulate",
    "transform.lower",
    "statemap.build",
    "statemap.map",
    "verify.equivalence",
    "verify.match",
    "verify.census",
    "verify.bijection",
)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def latency_summary(results: list[Result], tail_percentile: float) -> dict:
    """Median and tail latency, overall and per (kind, n), in milliseconds.

    ``tail_samples_beyond`` counts the samples above the tail percentile;
    it should be at least ten for the tail to mean something.
    """
    answered = sorted(r.latency_s * 1000 for r in results if r.latency_s is not None)
    out = {"samples": len(answered)}
    if answered:
        n = len(answered)
        out.update(p50_ms=statistics.median(answered),
                   tail_ms=nearest_rank(answered, tail_percentile),
                   tail_percentile=tail_percentile,
                   tail_samples_beyond=n - math.ceil(tail_percentile / 100 * n))
    groups: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for r in results:
        if r.latency_s is not None:
            groups[r.request.kind][r.request.n].append(r.latency_s * 1000)
    out["per_n"] = {
        kind: {
            str(n): {
                "count": len(v),
                "p50_ms": statistics.median(v),
                "min_ms": min(v),
                "max_ms": max(v),
                "predicted_mb": next(r.predicted_mb for r in results
                                     if r.request.kind == kind and r.request.n == n),
            }
            for n, v in sorted(by_n.items())
        }
        for kind, by_n in sorted(groups.items())
    }
    return out


def layer_metrics(workload: list[Result], probes: list[Result], tracer: Tracer,
                  lowering_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of the workload's requests, and how they cover the request time.

    Times are milliseconds per workload request, so the chain layers plus
    cli.overhead_ms add up to the traced request time.  A layer the
    workload never calls takes its figure from the probe requests instead,
    per probe request; ``coverage["from_probe"]`` lists those metrics.
    Only requests that passed every check are counted.
    """
    w, p = _Side(), _Side()
    side_of: dict[int, _Side] = {}
    kind_of: dict[int, str] = {}
    for side, results in ((w, workload), (p, probes)):
        for r in results:
            if r.rid is not None and r.error is None:
                side.requests += 1
                side.untraced_s += r.latency_s
                side_of[r.rid] = side
                kind_of[r.rid] = r.request.kind
    layer_s: dict[int, float] = defaultdict(float)
    for rid, _, _, name, start, end in tracer.spans:
        if name in CHAIN_LAYERS:
            layer_s[rid] += end - start
    for rid, _, _, name, start, end in tracer.spans:
        side = side_of.get(rid)
        if side is None:
            continue
        side.time[name] += end - start
        side.calls[name] += 1
        if name == "cli":
            side.cli_overhead_s += (end - start) - layer_s[rid]
            side.traced_s += end - start
        elif name == "chain" and kind_of[rid] in LIBRARY_KINDS:
            side.traced_s += end - start  # library requests have no cli span
    for rid, name, value in tracer.counts:
        if rid in side_of:
            side_of[rid].count[name] += value

    from_probe = []

    def pick(metric: str, *spans: str) -> _Side:
        if any(w.calls[s] for s in spans):
            return w
        from_probe.append(metric)
        return p

    metrics = {}
    for layer in ("anf.parse", "register.successor", "register.simulate", "transform.lower",
                  "statemap.build", "verify.equivalence", "verify.match", "verify.census",
                  "verify.bijection"):
        side = pick(f"{layer}_ms", layer)
        metrics[f"{layer}_ms"] = (_per(side.time[layer] * 1000, side.requests), "ms")
    side = pick("anf.terms", "anf.parse")
    metrics["anf.terms"] = (_per(side.count["anf.terms"], side.requests), "count")
    side = pick("register.states_per_s", "register.successor")
    metrics["register.states_per_s"] = (
        _per(side.count["register.states"], side.time["register.successor"]), "1/s")
    side = pick("register.steps_per_s", "register.simulate")
    metrics["register.steps_per_s"] = (
        _per(side.count["register.steps"], side.time["register.simulate"]), "1/s")
    side = pick("transform.moves", "transform.lower")
    metrics["transform.moves"] = (_per(side.count["transform.moves"], side.requests), "count")
    side = pick("statemap.map_us", "statemap.map")
    metrics["statemap.map_us"] = (_per(side.time["statemap.map"] * 1e6, side.calls["statemap.map"]), "us")
    side = pick("verify.states_scanned", "verify.equivalence", "verify.match", "verify.census",
                "verify.bijection")
    metrics["verify.states_scanned"] = (_per(side.count["verify.states_scanned"], side.requests), "count")
    metrics["generate.lowering_ms"] = (lowering_s * 1000, "ms")
    metrics["cli.overhead_ms"] = (_per(w.cli_overhead_s * 1000, w.requests), "ms")
    metrics["trace.overhead_frac"] = (_per(w.traced_s, w.untraced_s) - 1, "ratio")

    request_ms = _per(w.untraced_s * 1000, w.requests)
    layers_ms = _per(sum(w.time[layer] for layer in CHAIN_LAYERS) * 1000, w.requests)
    overhead_ms = metrics["cli.overhead_ms"][0]
    coverage = {
        "requests": w.requests,
        "request_ms": request_ms,
        "layers_ms": layers_ms,
        "cli_overhead_ms": overhead_ms,
        "uncovered_ms": request_ms - layers_ms - overhead_ms,
        "from_probe": from_probe,
    }
    return metrics, coverage


def _per(total: float, base: float) -> float:
    return total / base if base else 0.0


class _Side:
    def __init__(self):
        self.requests = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.cli_overhead_s = 0.0
        self.time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)


def machine(root: Path, seed: int) -> dict:
    """The machine, interpreter and source the figures were measured on."""
    info = {
        "cpu_model": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ram_mb": None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": None,
        "source_sha256": _source_digest(root / "src"),
        "seed": seed,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["ram_mb"] = int(line.split()[1]) // 1024
    except OSError:
        pass
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            info["git_commit"] = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()
