"""Tests of the benchmark itself: tiny runs of every workload, planted wrong
answers, seed determinism, the memory pre-check and the refusal to run
without the sources.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from nlfsr import random_lowering  # noqa: E402

from perfbench import execute, run, workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "oracle": workloads.Spec(verify_sizes=(5, 6), match_sizes=(5, 6), tail_percentile=90),
    "census": workloads.Spec(census_sizes=(5, 6), bijection_sizes=(6,), tail_percentile=75),
    "design": workloads.Spec(design_sizes=(6, 9), tail_percentile=99),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def bench(capsys, name: str, trace: int = 0, seed: int = 1) -> tuple[int, dict]:
    rc = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, name, trace):
    rc, result = bench(capsys, name, trace)
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    record = json.loads((tiny / "records" / f"{name}-seed1-trace{trace}.json").read_text())
    assert record["failed_frac"] == 0
    assert {"cpu_model", "nproc", "ram_mb", "python", "git_commit", "seed"} <= set(record["machine"])
    assert record["latency"]["per_n"]
    if trace:
        cov = record["coverage"]
        assert cov["layers_ms"] + cov["cli_overhead_ms"] + cov["uncovered_ms"] == pytest.approx(
            cov["request_ms"])


def _plant(kind: str):
    real = workloads.build

    def build(spec, rng, workdir, label="p"):
        setup = real(spec, rng, workdir, label)
        requests = list(setup.rounds[0])
        i = next(i for i, r in enumerate(requests) if r.kind == kind)
        expected = requests[i].expected
        if kind == "verify":
            wrong = (0, "inconclusive")
        elif kind == "match":
            wrong = tuple(1 - b for b in expected)
        elif kind == "bijection":
            wrong = False
        else:  # CLI requests that expect their whole stdout
            wrong = (expected[0], expected[1] + "0")
        requests[i] = dataclasses.replace(requests[i], expected=wrong)
        return dataclasses.replace(setup, rounds=(tuple(requests),) + setup.rounds[1:])

    return build


@pytest.mark.parametrize("name,kind", [
    ("oracle", "verify"), ("oracle", "match"), ("census", "bijection"),
    ("design", "transform"), ("design", "map"), ("design", "simulate"),
])
def test_planted_wrong_answer_fails_the_run(tiny, capsys, monkeypatch, name, kind):
    monkeypatch.setattr(workloads, "build", _plant(kind))
    rc, result = bench(capsys, name)
    assert rc != 0
    assert result["correct"] is False and result["failed"] > 0
    record = json.loads((tiny / "records" / f"{name}-seed1-trace0.json").read_text())
    assert record["failed_frac"] > 0


def test_census_answers_are_checked_against_their_pair():
    runner = execute.Runner()
    req = workloads.Request("census", 4, "p0", argv=("period", "x", "--census"))
    assert runner.check(req, (0, "15: 15, 1: 1\n")) is None
    assert runner.check(req, (0, "15: 15, 1: 1\n")) is None
    assert "differs" in runner.check(req, (0, "6: 12, 3: 3, 1: 1\n"))
    assert "totals" in runner.check(dataclasses.replace(req, pair="p1"), (0, "15: 15\n"))
    assert "tail" in runner.check(dataclasses.replace(req, pair="p2"), (0, "8: 8, tails: 8\n"))
    assert "exited" in runner.check(dataclasses.replace(req, pair="p3"), (2, ""))


def _requests(seed: int, workdir: Path) -> list:
    setup = workloads.build(workloads.WORKLOADS["design"], workloads.seeded_rng("design", seed), workdir)
    prefix = str(workdir)
    return [dataclasses.replace(r, argv=tuple(a.replace(prefix, "") for a in r.argv))
            for requests in setup.rounds for r in requests]


def test_same_seed_generates_same_requests(tmp_path):
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    first, again, other = _requests(7, dirs[0]), _requests(7, dirs[1]), _requests(8, dirs[2])
    assert first == again
    assert first != other
    for name in ("p0-fib.reg", "p0-gal.reg", "p0.prof"):
        assert (dirs[0] / name).read_text() == (dirs[1] / name).read_text()


@pytest.mark.parametrize("n", range(4, 13))
def test_reference_stepper_matches_the_library(n):
    rng = random.Random(n)
    fib, _, galois, _ = random_lowering(rng, n)
    for m in (fib, galois):
        x = rng.getrandbits(n)
        expected = "".join(map(str, m.output_sequence(workloads.unpack(x, n), 3 * n)))
        assert workloads.reference_outputs(m, x, 3 * n) == expected


def test_memory_precheck_refuses_without_starting(monkeypatch):
    def boom(argv):
        raise AssertionError("a refused request was started")

    monkeypatch.setattr(execute.cli, "main", boom)
    req = workloads.Request("verify", 14, "p0", argv=("verify", "a", "b"), expected=(0, "equivalent"))
    result = execute.Runner(avail_mb=execute.predicted_mb("verify", 14) / 2).run(req)
    assert result.refused and result.error and result.latency_s is None


def test_default_workloads_fit_in_memory():
    sizes = [(kind, n) for spec in workloads.WORKLOADS.values()
             for kind, ns in (("verify", spec.verify_sizes), ("match", spec.match_sizes),
                              ("census", spec.census_sizes), ("bijection", spec.bijection_sizes))
             for n in ns]
    assert max(execute.predicted_mb(kind, n) for kind, n in sizes) < 512
    assert execute.predicted_mb("verify", 18) > 8192  # n=18 verify exhausts an 8 GB machine


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
