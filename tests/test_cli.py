"""Command-line interface: flags, exit codes, schemas, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import drttp
from drttp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpectrum:
    def test_json_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--lambda-o", "0", "--mu-o", "5",
                           "--zt", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["n0"] == 2
        assert doc["levels"][0]["E"] == pytest.approx(
            -(((-6 + math.sqrt(804)) / 16) ** 2)
        )

    def test_empty_spectrum(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--mu-o", "1", "--lambda-o", "0",
                           "--zt", "2")
        assert code == 0
        assert json.loads(out)["levels"] == []

    def test_bad_zt(self, capsys):
        code, _, err = run(capsys, "spectrum", "--zt", "0.5", "--mu-o", "5",
                           "--lambda-o", "0")
        assert code == 2
        assert "z_T" in err

    def test_csv_mirror(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--lambda-o", "0", "--mu-o", "5",
                           "--zt", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,lambda0,lambda1,mu,epsilon,E"
        assert len(lines) == 3

    def test_n_limits_levels(self, capsys):
        # (0.5, 7.3, 2) has 3 levels; --n 0 emits none
        for n, want in (("2", 2), ("0", 0), ("9", 3)):
            code, out, _ = run(capsys, "spectrum", "--lambda-o", "0.5", "--mu-o", "7.3",
                               "--zt", "2", "--n", n)
            assert code == 0
            doc = json.loads(out)
            assert doc["n0"] == want and len(doc["levels"]) == want

    def test_negative_n_rejected(self, capsys):
        # --n -1 used to drop the top level through sols[:-1] and exit 0
        code, out, err = run(capsys, "spectrum", "--lambda-o", "0.5", "--mu-o", "7.3",
                             "--zt", "2", "--n", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--n" in err and err.count("\n") == 1

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_o = 0\nmu_o = 1\nzt = 2\n")
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg),
                           "--mu-o", "5")
        assert code == 0
        assert json.loads(out)["n0"] == 2


class TestTabulate:
    ARGS = ("tabulate", "--lambda-o", "0", "--mu-o", "5", "--zt", "2",
            "--points", "41", "--x-min", "-25", "--x-max", "25")

    def test_asymptotes_and_determinism(self, capsys):
        code, out1, _ = run(capsys, *self.ARGS)
        assert code == 0
        code, out2, _ = run(capsys, *self.ARGS)
        assert out1 == out2          # byte-stable
        rows = [r for r in out1.strip().split("\n") if not r.startswith("#")]
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert abs(float(first[1]) - 0.0) < 1e-8   # lambda_o = 0 asymptote
        assert abs(float(last[1])) < 1e-8

    def test_partner_column(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--partner", "c0")
        assert code == 0
        header = [r for r in out.split("\n") if not r.startswith("#")][0]
        assert "Vpartner_c0" in header

    def test_rejected_pair_exit_code(self, capsys):
        code, _, err = run(capsys, *self.ARGS, "--partner", "d0,c0-pair")
        assert code == 3
        assert "rejected" in err

    def test_psi_columns(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--psi", "0,1")
        assert code == 0
        header = [r for r in out.split("\n") if not r.startswith("#")][0]
        assert "psi0" in header and "psi1" in header

    @pytest.mark.parametrize("level", ["1", "-1"])
    def test_psi_level_out_of_range(self, capsys, level):
        # (0, 3, 2) has one bound state
        code, out, err = run(capsys, "tabulate", "--lambda-o", "0", "--mu-o", "3",
                             "--zt", "2", "--psi", level)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--x-min", "inf"), ("--x-max", "nan"),
                                             ("--points", "-3")])
    def test_bad_grid_rejected_before_linspace(self, capsys, flag, value):
        # numpy used to print RuntimeWarnings for a non-finite bound and its
        # own wording for a negative count
        code, out, err = run(capsys, *self.ARGS, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1


class TestPartnerReport:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "partner", "--lambda-o", "0", "--mu-o", "5",
                           "--zt", "2", "--ff", "c0")
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == 1
        assert doc["expected_spectral_delta"][0] == pytest.approx(-1.95211435,
                                                                  abs=1e-6)

    @pytest.mark.parametrize("mu_o", ["1.0000000000001", "1.000000000001"])
    def test_single_just_above_the_separatrix(self, capsys, mu_o):
        # spectrum has a level here; partner exited 2 on classify_region's band
        code, out, _ = run(capsys, "partner", "--lambda-o", "0", "--mu-o", mu_o,
                           "--zt", "2", "--ff", "c0")
        assert code == 0
        _, levels, _ = run(capsys, "spectrum", "--lambda-o", "0", "--mu-o", mu_o, "--zt", "2")
        assert json.loads(out)["ff"][0]["lambda1"] == json.loads(levels)["levels"][0]["lambda1"]

    def test_double_prints_no_warning(self, capsys):
        # z**(lambda0/2) overflows on (0, 1) at this point
        argv = ("partner", "--lambda-o", "15.3546487410077",
                "--mu-o", "76.0371452423785", "--zt", "2", "--ff", "c0+t0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["steps"] == 2
        assert err == ""

    def test_double(self, capsys):
        code, out, _ = run(capsys, "partner", "--lambda-o", "0", "--mu-o", "5",
                           "--zt", "2", "--ff", "d0+t0")
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == 2
        assert not 0.0 <= doc["outer_pole"] <= 1.0


class TestWlAndCensus:
    def test_wl(self, capsys):
        code, out, _ = run(capsys, "wl", "--lambda-o", "0", "--mu-o", "5",
                           "--zt", "2", "--m", "0")
        assert code == 0
        doc = json.loads(out)
        kinds = {row["kind"] for row in doc["solutions"]}
        assert kinds == {"a", "c", "d"}

    def test_wl_negative_m_rejected(self, capsys):
        code, out, err = run(capsys, "wl", "--lambda-o", "0", "--mu-o", "5",
                             "--zt", "2", "--m", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_census(self, capsys):
        code, out, _ = run(capsys, "census", "--lambda-o", "0", "--mu-o", "5",
                           "--zt", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["m_plus_c0"] < 2.0
        assert doc["mu_cross_slope"] == pytest.approx(math.sqrt(3.0))


class TestVerify:
    def test_filtered_group_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "constants")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        assert all(c["name"].startswith("constants") for c in doc["checks"])
        assert all("tolerance" in c for c in doc["checks"])

    def test_fault_injection_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "cubic",
                           "--inject-fault")
        assert code == 1
        assert not json.loads(out)["all_passed"]

    def test_timings_only_add_stderr_lines(self, capsys):
        argv = ("verify", "--only", "constants")
        code, out, err = run(capsys, *argv)
        assert code == 0 and "[TIME]" not in err
        assert run(capsys, *argv) == (code, out, err)
        code_t, out_t, err_t = run(capsys, *argv, "--timings")
        assert code_t == 0 and out_t == out
        assert err_t.startswith(err)
        extra = err_t[len(err):].splitlines()
        assert len(extra) == 1 and extra[0].startswith("[TIME] constants: ")
        assert float(extra[0].split()[-2]) >= 0.0

    def test_oracle_flags_removed(self, capsys):
        # the oracle has one discretization and fixed gates
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--oracle-method", "fd2"])
        assert exc.value.code == 2


class TestInProcess:
    def test_error_exit_leaves_later_calls_unchanged(self, capsys):
        # main() reuses one parser per process: an argparse error, then a
        # library error, then a good call print what a fresh process prints
        good = ["spectrum", "--lambda-o", "0.5", "--mu-o", "7", "--zt", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--zt", "abc"])
        assert exc.value.code == 2
        bad_parse = capsys.readouterr()
        bad_zt = run(capsys, "spectrum", "--lambda-o", "0", "--mu-o", "5", "--zt", "0.5")
        assert bad_zt[0] == 2
        in_process = run(capsys, *good)
        src = os.path.dirname(os.path.dirname(drttp.__file__))

        def fresh(*argv):
            proc = subprocess.run([sys.executable, "-m", "drttp", *argv], capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONPATH=src))
            return proc.returncode, proc.stdout, proc.stderr

        assert fresh("spectrum", "--zt", "abc") == (2, bad_parse.out, bad_parse.err)
        assert fresh(*good) == in_process
