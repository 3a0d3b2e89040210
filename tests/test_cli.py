import io
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from nlfsr import samples
from nlfsr.cli import main
from nlfsr.register import Nlfsr

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
        # a list of the bits or states would take over 800 KB; argument
        # parsing and one chunk of bits take under 300 KB
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
