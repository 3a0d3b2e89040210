import io
import json
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from nlfsr import samples
from nlfsr.anf import Anf
from nlfsr.cli import _parser, build_parser, main
from nlfsr.register import Nlfsr
from strategies import COUNTERS

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def regs(tmp_path):
    """Write the bundled registers out as files and return their paths."""
    paths = {}
    for name, m in {
        "a": samples.GALOIS_A,
        "b": samples.GALOIS_B,
        "f": samples.FIBONACCI,
        "rot": samples.ROTATION,
    }.items():
        p = tmp_path / f"{name}.reg"
        p.write_text(str(m) + "\n")
        paths[name] = str(p)
    return paths


class TestSimulate:
    def test_output_bits(self, regs, capsys):
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", "15"]) == 0
        assert capsys.readouterr().out == "100010110100111\n"

    def test_fibonacci_from_1000(self, regs, capsys):
        assert main(["simulate", regs["f"], "--init", "1000", "--steps", "15"]) == 0
        assert capsys.readouterr().out == "000101101001111\n"

    def test_states_flag(self, regs, capsys):
        assert main(["simulate", regs["b"], "--init", "0101", "--steps", "2", "--states"]) == 0
        assert capsys.readouterr().out == "0101\n1000\n"

    def test_zero_steps(self, regs, capsys):
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", "0"]) == 0
        assert capsys.readouterr().out == "\n"

    @pytest.mark.parametrize("extra, steps", [((), 100_000), (("--states",), 20_000)])
    def test_output_streams_in_bounded_memory(self, regs, monkeypatch, extra, steps):
        # a list of the bits or states would take over 800 KB; the parser,
        # if this call builds it, and one chunk of bits take under 300 KB
        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            code = main(["simulate", regs["a"], "--init", "0001", "--steps", str(steps), *extra])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 512 * 1024

    @pytest.mark.parametrize("extra", [(), ("--states",)], ids=["bits", "states"])
    def test_closed_stdout_exits_141(self, regs, extra):
        # the reader stops after a few bytes, as `| head -c 20` does
        cmd = [sys.executable, "-W", "error", "-m", "nlfsr", "simulate", regs["a"]]
        cmd += ["--init", "0001", "--steps", "10000000", *extra]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                proc.stdout.read(20)
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert proc.returncode == 141
        assert err == b""

    def test_negative_steps(self, regs, capsys):
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "steps must be non-negative" in captured.err

    # int() reads each of the first three as 15
    @pytest.mark.parametrize("steps", ["\u0661\u0665", "+15", "1_5", "-1", "3x", ""])
    def test_steps_must_be_ascii_digits(self, regs, capsys, steps):
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"steps must be non-negative ASCII digits, got {steps!r}" in captured.err

    def test_steps_around_digits_are_stripped(self, regs, capsys):
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", " 15 "]) == 0
        assert capsys.readouterr().out == "100010110100111\n"

    def test_steps_past_4300_digits(self, regs, capsys):
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", "1" * 5000]) == 2
        assert "steps out of range" in capsys.readouterr().err

    def test_bad_init_length(self, regs, capsys):
        assert main(["simulate", regs["a"], "--init", "001", "--steps", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unparsable_file(self, tmp_path, capsys):
        p = tmp_path / "broken.reg"
        p.write_text("n = 4\nf3 = x9\nf2 = x3\nf1 = x2\nf0 = x1\n")
        assert main(["simulate", str(p), "--init", "0001", "--steps", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_index_past_4300_digits_names_the_line(self, tmp_path, capsys):
        p = tmp_path / "long.reg"
        p.write_text("n = 2\nf1 = x" + "1" * 5000 + "\nf0 = x1\n")
        assert main(["period", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: line 2: variable x111")

    def test_missing_file(self, capsys):
        assert main(["simulate", "/nonexistent.reg", "--init", "0001", "--steps", "1"]) == 2

    def test_undecodable_file_is_named(self, tmp_path, capsys):
        p = tmp_path / "binary.reg"
        p.write_bytes(b"n = 2\nf1 = x0\xff\nf0 = x1\n")
        assert main(["simulate", str(p), "--init", "01", "--steps", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {p}: ")


class TestTransform:
    def test_single_move_produces_the_shifted_register(self, regs, capsys):
        assert main(["transform", regs["a"], "--move", "2,1,x1"]) == 0
        captured = capsys.readouterr()
        assert Nlfsr.parse(captured.out) == samples.GALOIS_B
        assert "move: 2 -> 1: x1" in captured.err

    def test_profile_lowering(self, regs, tmp_path, capsys):
        prof = tmp_path / "b.prof"
        prof.write_text("tau = 1\ng3 = x1\ng2 = x0*x1\ng1 = x0\n")
        assert main(["transform", regs["f"], "--profile", str(prof)]) == 0
        captured = capsys.readouterr()
        assert Nlfsr.parse(captured.out) == samples.GALOIS_B
        assert captured.err.count("move:") == 2

    def test_identity_profile_echoes_register(self, regs, tmp_path, capsys):
        prof = tmp_path / "id.prof"
        prof.write_text("tau = 3\ng3 = x1 + x2 + x1*x2\n")
        assert main(["transform", regs["f"], "--profile", str(prof)]) == 0
        captured = capsys.readouterr()
        assert Nlfsr.parse(captured.out) == samples.FIBONACCI
        assert "move:" not in captured.err

    def test_output_reparses_to_the_same_register(self, regs, tmp_path, capsys):
        assert main(["transform", regs["a"], "--move", "2,1,x1"]) == 0
        out = capsys.readouterr().out
        again = tmp_path / "again.reg"
        again.write_text(out)
        assert main(["simulate", str(again), "--init", "0101", "--steps", "15"]) == 0
        assert capsys.readouterr().out == "100010110100111\n"

    def test_profile_errors_name_the_file(self, regs, tmp_path, capsys):
        prof = tmp_path / "bad.prof"
        prof.write_text("tau = 1\ng9 = x0\n")
        assert main(["transform", regs["f"], "--profile", str(prof)]) == 2
        assert capsys.readouterr().err == f"error: {prof}: line 2: bit 9 outside 1..3\n"

    def test_rejected_move_exits_2(self, regs, capsys):
        assert main(["transform", regs["b"], "--move", "1,0,x0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rejected_source_names_each_violation_once(self, tmp_path, capsys):
        reg = tmp_path / "nonsingular.reg"
        reg.write_text("n = 3\nf2 = x0\nf1 = x2 + x1*x2\nf0 = x1\n")
        assert main(["transform", str(reg), "--move", "1,0,x1*x2"]) == 2
        assert capsys.readouterr().err == (
            "error: source register rejected: register is not uniform and well-formed: "
            "bit 1: non-singular x2\n"
        )

    def test_malformed_move_text(self, regs, capsys):
        assert main(["transform", regs["a"], "--move", "2;1;x1"]) == 2

    @pytest.mark.parametrize("move", ["\u0662,\u0661,x1", "+2,1,x1", "2,0_1,x1"])
    def test_move_bits_must_be_ascii_digits(self, regs, capsys, move):
        assert main(["transform", regs["a"], "--move", move]) == 2
        assert "move bits must be integers" in capsys.readouterr().err


    def test_move_bits_past_4300_digits(self, regs, capsys):
        assert main(["transform", regs["a"], "--move", "1" * 5000 + ",1,x1"]) == 2
        assert "move bits out of range" in capsys.readouterr().err


class TestMapState:
    def test_forward(self, regs, capsys):
        assert main(["map-state", regs["b"], "--init", "0001", "--direction", "fib2gal"]) == 0
        assert capsys.readouterr().out == "0101\n"

    def test_backward(self, regs, capsys):
        assert main(["map-state", regs["b"], "--init", "0101", "--direction", "gal2fib"]) == 0
        assert capsys.readouterr().out == "0001\n"

    def test_zero_correction_state(self, regs, capsys):
        assert main(["map-state", regs["a"], "--init", "1000", "--direction", "fib2gal"]) == 0
        assert capsys.readouterr().out == "1000\n"

    def test_non_uniform_register_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.reg"
        p.write_text("n = 4\nf3 = x0 + x1\nf2 = x3 + x2*x0\nf1 = x2 + x0\nf0 = x1\n")
        assert main(["map-state", str(p), "--init", "0001", "--direction", "fib2gal"]) == 2


class TestVerify:
    def test_equivalent_pair(self, regs, capsys):
        assert main(["verify", regs["a"], regs["f"]]) == 0
        assert capsys.readouterr().out == "equivalent\n"

    def test_same_file_twice(self, regs, capsys):
        assert main(["verify", regs["f"], regs["f"]]) == 0
        assert capsys.readouterr().out == "equivalent\n"

    def test_not_equivalent_with_witness(self, regs, capsys):
        assert main(["verify", regs["f"], regs["rot"]]) == 1
        out = capsys.readouterr().out
        assert out.startswith("not-equivalent\n")
        assert "witness" in out

    def test_witness_line_shows_its_window(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        fib, rot = "demos/registers/fibonacci.reg", "demos/registers/rotation.reg"
        assert main(["verify", fib, rot]) == 1
        assert capsys.readouterr().out == (
            "not-equivalent\n"
            f"witness: state 0010 (window 10010) of {fib} has no output match\n"
        )

    def test_witness_line_without_a_window(self, tmp_path, capsys):
        # equal window sets that fail Moore's test: the refinement finds
        # the witness, which has no window to show
        paths = []
        for name, text in zip(("c64", "c32"), COUNTERS):
            paths.append(tmp_path / f"{name}.reg")
            paths[-1].write_text(text + "\n")
        assert main(["verify", *map(str, paths)]) == 1
        assert capsys.readouterr().out == (
            f"not-equivalent\nwitness: state 0000000 of {paths[0]} has no output match\n"
        )

    def test_registers_of_different_sizes_exit_2(self, regs, tmp_path, capsys):
        five = tmp_path / "five.reg"
        five.write_text(str(Nlfsr.fibonacci(5, Anf.parse("x0"))) + "\n")
        assert main(["verify", regs["a"], str(five)]) == 2
        assert capsys.readouterr().err == "error: registers have different sizes 4 and 5\n"

    @pytest.mark.parametrize("command", ["verify", "period"])
    def test_registers_past_the_scan_limit_exit_2(self, tmp_path, capsys, command):
        wide = tmp_path / "wide.reg"
        wide.write_text(str(Nlfsr.fibonacci(21, Anf.parse("x0"))) + "\n")
        argv = [command, str(wide), str(wide)] if command == "verify" else [command, str(wide)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: register has 21 bits, exhaustive scans are capped at 20\n"


class TestPeriod:
    def test_number(self, regs, capsys):
        assert main(["period", regs["a"]]) == 0
        assert capsys.readouterr().out == "15\n"

    def test_census(self, regs, capsys):
        assert main(["period", regs["a"], "--census"]) == 0
        assert capsys.readouterr().out == "15: 15, 1: 1\n"

    def test_rotation(self, regs, capsys):
        assert main(["period", regs["rot"]]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_longest_state_cycle_not_output_period(self, tmp_path, capsys):
        text = "n = 3\nf2 = x0 + x1\nf1 = x0*x1 + x2\nf0 = x0\n"
        p = tmp_path / "constant.reg"
        p.write_text(text)
        m = Nlfsr.parse(text)
        for x in range(8):  # every output stream is constant, so has period 1
            init = tuple((x >> i) & 1 for i in range(3))
            assert len(set(m.output_sequence(init, 12))) == 1
        assert main(["period", str(p)]) == 0
        assert capsys.readouterr().out == "3\n"


class TestDemo:
    def test_matches_golden_table(self, capsys):
        assert main(["demo"]) == 0
        golden = (DATA / "demo_table.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_runs_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nlfsr", "demo"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout == (DATA / "demo_table.txt").read_text()


# Counts the top-level parsers a fresh process builds: after importing
# nlfsr.cli, then after one main call per argv read from stdin.
COUNT_PARSERS = """
import argparse, contextlib, io, json, sys

built = 0
init = argparse.ArgumentParser.__init__

def spy(self, *args, **kwargs):
    global built
    init(self, *args, **kwargs)
    built += self.prog == "nlfsr"

argparse.ArgumentParser.__init__ = spy
from nlfsr.cli import main

after_import = built
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.load(sys.stdin)]
print(json.dumps([after_import, built, codes]))
"""


class TestParser:
    def test_one_parser_per_process(self):
        reg = "demos/registers/"
        calls = [
            (["simulate", reg + "galois_a.reg", "--init", "0001", "--steps", "15"], 0),
            (["simulate", reg + "galois_b.reg", "--init", "0101", "--steps", "3", "--states"], 0),
            (["simulate", reg + "galois_a.reg", "--init", "0001", "--steps", "-1"], 2),
            (["transform", reg + "galois_a.reg", "--move", "2,1,x1"], 0),
            (["transform", reg + "fibonacci.reg", "--profile", reg + "galois_b.prof"], 0),
            (["map-state", reg + "galois_b.reg", "--init", "0001", "--direction", "fib2gal"], 0),
            (["verify", reg + "galois_a.reg", reg + "fibonacci.reg"], 0),
            (["verify", reg + "fibonacci.reg", reg + "rotation.reg"], 1),
            (["period", reg + "galois_a.reg", "--census"], 0),
            (["demo"], 0),
        ] * 5
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_PARSERS],
            input=json.dumps([argv for argv, _ in calls]),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 1, [code for _, code in calls]]

    def test_no_state_carries_between_calls(self, regs, capsys):
        assert main(["period", regs["a"], "--census"]) == 0
        assert main(["period", regs["a"]]) == 0
        assert capsys.readouterr().out == "15: 15, 1: 1\n15\n"
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", "3", "--states"]) == 0
        assert main(["simulate", regs["a"], "--init", "0001", "--steps", "3"]) == 0
        assert capsys.readouterr().out == "0001\n1000\n0100\n100\n"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", regs["a"], "--init", "0001"])
        assert exc.value.code == 2
        assert main(["verify", regs["a"], regs["f"]]) == 0
        assert capsys.readouterr().out == "equivalent\n"

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_shared_parser_under_threads(self):
        # more threads than cores, switching as often as the interpreter
        # allows: a parse that left anything in the shared parser would
        # show in another thread's namespace
        argvs = []
        for k in range(8):
            reg, odd = f"r{k}.reg", k % 2
            argvs.append(["period", reg] + ["--census"] * odd)
            argvs.append(["simulate", reg, "--init", "0001", "--steps", str(k)] + ["--states"] * odd)
        expected = [build_parser().parse_args(argv) for argv in argvs]
        _parser()  # built before the threads start, so that they all share it
        start = threading.Barrier(len(argvs))

        def parse_many(argv):
            start.wait(timeout=60)
            return [_parser().parse_args(argv) for _ in range(300)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(argvs)) as pool:
                results = list(pool.map(parse_many, argvs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(argvs)
        for argv, want, got in zip(argvs, expected, results):
            assert got == [want] * 300, argv
