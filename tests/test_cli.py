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
        # spectrum has a level here; partner once exited 2 on a separatrix band
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


class TestFormats:
    # each command writes the formats it names; any other exits 2 with
    # nothing on stdout and an error that names the command
    PARAMS = ("--lambda-o", "0", "--mu-o", "5", "--zt", "2")

    @pytest.mark.parametrize("command, extra, bad", [
        ("tabulate", ("--points", "5"), "json"),
        ("partner", ("--ff", "c0"), "csv"),
        ("wl", (), "csv"),
        ("census", (), "csv"),
    ])
    def test_unwritable_format_rejected(self, capsys, command, extra, bad):
        argv = (command, *self.PARAMS, *extra)
        code, default_out, _ = run(capsys, *argv)
        assert code == 0
        good = "json" if bad == "csv" else "csv"
        assert run(capsys, *argv, "--format", good) == (0, default_out, "")
        code, out, err = run(capsys, *argv, "--format", bad)
        assert code == 2
        assert out == ""
        assert err == f"error: {command} writes {good}, not {bad}\n"

    def test_format_from_config_file_checked(self, capsys, tmp_path):
        # a format given in the file is given, unlike the json default
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_o = 0\nmu_o = 5\nzt = 2\nformat = json\n")
        code, out, err = run(capsys, "tabulate", "--config", str(cfg), "--points", "5")
        assert code == 2 and out == "" and "tabulate" in err


class TestBadInput:
    # each exits 2 with nothing on stdout and one error line; a parameter
    # from the config file is checked as one from a flag
    PARAMS = ("--lambda-o", "0", "--mu-o", "5", "--zt", "2")

    @pytest.mark.parametrize("argv, config, message", [
        (("spectrum", "--lambda-o", "0", "--zt", "2"), None,
         "missing required parameter mu-o"),
        (("spectrum", "--lambda-o", "-1", "--mu-o", "5", "--zt", "2"), None,
         "lambda_o must be finite and >= 0"),
        (("census", "--lambda-o", "0", "--mu-o", "0", "--zt", "2"), None, "mu_o must be"),
        (("spectrum",), "lambda_o = -1\nmu_o = 5\nzt = 2\n",
         "lambda_o must be finite and >= 0"),
        (("partner", "--ff", "c0"), "lambda_o = 0\nmu_o = -2\nzt = 2\n", "mu_o must be"),
        (("wl", "--lambda-o", "0.5", "--mu-o", "5", "--zt", "2"), None,
         "the levelled-limit solver requires lambda-o = 0"),
        (("wl", "--lambda-o", "0", "--mu-o", "0", "--zt", "2"), None, "mu_o must be"),
        # an infinite mu_o once raised OverflowError out of bound_state_count
        (("wl", "--lambda-o", "0", "--mu-o", "inf", "--zt", "2"), None, "mu_o must be"),
        (("partner", *PARAMS, "--ff", "c0+x0"), None, "unknown factorization function 'x0'"),
        (("spectrum",), "lambda_o = 0\nmu_o 5\nzt = 2\n", "bad config line: 'mu_o 5'"),
        (("spectrum", "--lambda-o", "0", "--mu-o", "5", "--zt", "0.5"), None,
         "z_T must lie outside [0, 1]"),
    ], ids=["missing", "lambda-flag", "mu-flag", "lambda-config", "mu-config", "wl-lambda",
            "wl-mu", "wl-mu-inf", "unknown-ff", "config-line", "zt"])
    def test_rejected(self, capsys, tmp_path, argv, config, message):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv += ("--config", str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestVerify:
    def test_filtered_group_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "constants")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        assert all(c["name"].startswith("constants") for c in doc["checks"])
        assert all("tolerance" in c for c in doc["checks"])

    def test_unknown_group_rejected(self, capsys):
        # a prefix that matches no group runs nothing, so it cannot pass
        code, out, err = run(capsys, "verify", "--only", "nosuch")
        assert (code, out) == (2, "")
        from drttp import verify
        assert err == (f"error: no check group starts with 'nosuch'; the groups are "
                       f"{', '.join(verify.CHECK_GROUPS)}\n")

    def test_fault_injection_detected(self, capsys, monkeypatch):
        # a free term of the lambda1 cubic off by 1e-3 of its largest
        # coefficient fails the cubic group
        from drttp import verify
        cubic_coeffs = verify._cubic_coeffs

        def faulty(m, ri, tp, lambda0=False):
            coeffs = cubic_coeffs(m, ri, tp, lambda0)
            if lambda0:
                return coeffs
            return (coeffs[0] + 1e-3 * max(abs(v) for v in coeffs),) + coeffs[1:]

        monkeypatch.setattr(verify, "_cubic_coeffs", faulty)
        code, out, _ = run(capsys, "verify", "--only", "cubic")
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


# exact stdout of one spectrum with a few levels, one with 20, one with
# z_T - 1 <= 1e-2, one two-step and one one-step partner, the levelled-limit
# solutions of every bound degree, a census and a CSV spectrum: every
# closed-form float the CLI prints is pinned to its last bit
GOLDEN = {
    ('spectrum', '--lambda-o', '0.5', '--mu-o', '7.3', '--zt', '2'): """\
{
  "gauge": {
    "E": "epsilon",
    "convention": "V(+inf) = 0, hbar^2/2m = 1"
  },
  "levels": [
    {
      "E": -4.8334566556598,
      "epsilon": -4.8334566556598,
      "lambda0": 4.42536175048314,
      "lambda1": 2.198512373324244,
      "mu": 7.623874123807385,
      "n": 0
    },
    {
      "E": -2.1548873985184005,
      "epsilon": -2.1548873985184005,
      "lambda0": 2.9781789056525136,
      "lambda1": 1.4679534728724888,
      "mu": 7.446132378525002,
      "n": 1
    },
    {
      "E": -0.5664173170060334,
      "epsilon": -0.5664173170060334,
      "lambda0": 1.5860861477309904,
      "lambda1": 0.7526070136572163,
      "mu": 7.338693161388207,
      "n": 2
    }
  ],
  "n0": 3,
  "params": {
    "lambda_o": 0.5,
    "mu_o": 7.3,
    "z_T": 2.0
  },
  "schema_version": 1
}
""",
    ('spectrum', '--lambda-o', '0.25', '--mu-o', '40', '--zt', '-3'): """\
{
  "gauge": {
    "E": "epsilon",
    "convention": "V(+inf) = 0, hbar^2/2m = 1"
  },
  "levels": [
    {
      "E": -506.6887830529348,
      "epsilon": -506.6887830529348,
      "lambda0": 16.884162415330994,
      "lambda1": 22.50974862260649,
      "mu": 40.393911037937485,
      "n": 0
    },
    {
      "E": -455.57602546030427,
      "epsilon": -455.57602546030427,
      "lambda0": 16.010122245673863,
      "lambda1": 21.344226982027347,
      "mu": 40.354349227701206,
      "n": 1
    },
    {
      "E": -407.22841763351437,
      "epsilon": -407.22841763351437,
      "lambda0": 15.136990616329648,
      "lambda1": 20.179901328636728,
      "mu": 40.31689194496637,
      "n": 2
    },
    {
      "E": -361.63754453787857,
      "epsilon": -361.63754453787857,
      "lambda0": 14.264768445458786,
      "lambda1": 19.016770086896422,
      "mu": 40.281538532355206,
      "n": 3
    },
    {
      "E": -318.7949966155312,
      "epsilon": -318.7949966155312,
      "lambda0": 13.393456820262509,
      "lambda1": 17.85483118417901,
      "mu": 40.24828800444152,
      "n": 4
    },
    {
      "E": -278.69237196785235,
      "epsilon": -278.69237196785235,
      "lambda0": 12.523057104074747,
      "lambda1": 16.694081944445234,
      "mu": 40.21713904851998,
      "n": 5
    },
    {
      "E": -241.32127853011175,
      "epsilon": -241.32127853011175,
      "lambda0": 11.65357109100845,
      "lambda1": 15.534518934621431,
      "mu": 40.18809002562988,
      "n": 6
    },
    {
      "E": -206.6733362363546,
      "epsilon": -206.6733362363546,
      "lambda0": 10.78500123472174,
      "lambda1": 14.376137737109874,
      "mu": 40.16113897183161,
      "n": 7
    },
    {
      "E": -174.7401791728898,
      "epsilon": -174.7401791728898,
      "lambda0": 9.917350996347288,
      "lambda1": 13.218932603387076,
      "mu": 40.13628359973436,
      "n": 8
    },
    {
      "E": -145.51345771937616,
      "epsilon": -145.51345771937616,
      "lambda0": 9.050625390941175,
      "lambda1": 12.062895909331894,
      "mu": 40.11352130027307,
      "n": 9
    },
    {
      "E": -118.98484067782722,
      "epsilon": -118.98484067782722,
      "lambda0": 8.184831878620221,
      "lambda1": 10.908017266113362,
      "mu": 40.092849144733584,
      "n": 10
    },
    {
      "E": -95.14601739277425,
      "epsilon": -95.14601739277425,
      "lambda0": 7.31998188409203,
      "lambda1": 9.754282002934621,
      "mu": 40.07426388702665,
      "n": 11
    },
    {
      "E": -73.98869987281245,
      "epsilon": -73.98869987281245,
      "lambda0": 6.456093530801502,
      "lambda1": 8.601668435414867,
      "mu": 40.05776196621637,
      "n": 12
    },
    {
      "E": -55.50462494214984,
      "epsilon": -55.50462494214984,
      "lambda0": 5.593196897120579,
      "lambda1": 7.450142612202121,
      "mu": 40.0433395093227,
      "n": 13
    },
    {
      "E": -39.685556505130585,
      "epsilon": -39.685556505130585,
      "lambda0": 4.73134500265368,
      "lambda1": 6.29964733180601,
      "mu": 40.03099233445969,
      "n": 14
    },
    {
      "E": -26.523288193047026,
      "epsilon": -26.523288193047026,
      "lambda0": 3.870639431487897,
      "lambda1": 5.150076523028277,
      "mu": 40.02071595451618,
      "n": 15
    },
    {
      "E": -16.009647443643455,
      "epsilon": -16.009647443643455,
      "lambda0": 3.011299833468837,
      "lambda1": 4.001205748726683,
      "mu": 40.012505582195516,
      "n": 16
    },
    {
      "E": -8.136506463722673,
      "epsilon": -8.136506463722673,
      "lambda0": 2.1538999247513813,
      "lambda1": 2.85245621591685,
      "mu": 40.00635614066823,
      "n": 17
    },
    {
      "E": -2.8958465506257913,
      "epsilon": -2.8958465506257913,
      "lambda0": 1.3005436112360889,
      "lambda1": 1.7017187049056584,
      "mu": 40.002262316141746,
      "n": 18
    },
    {
      "E": -0.2813143430678221,
      "epsilon": -0.2813143430678221,
      "lambda0": 0.4698290305799014,
      "lambda1": 0.5303907456468505,
      "mu": 40.00021977622675,
      "n": 19
    }
  ],
  "n0": 20,
  "params": {
    "lambda_o": 0.25,
    "mu_o": 40.0,
    "z_T": -3.0
  },
  "schema_version": 1
}
""",
    ('spectrum', '--lambda-o', '1.2', '--mu-o', '9.9', '--zt', '1.004'): """\
{
  "gauge": {
    "E": "epsilon",
    "convention": "V(+inf) = 0, hbar^2/2m = 1"
  },
  "levels": [
    {
      "E": -0.02151405209136135,
      "epsilon": -0.02151405209136135,
      "lambda0": 36.83540139333158,
      "lambda1": 0.14667669239303616,
      "mu": 37.982078085724616,
      "n": 0
    },
    {
      "E": -0.003097160262619687,
      "epsilon": -0.003097160262619687,
      "lambda0": 14.020135295542,
      "lambda1": 0.05565213619098271,
      "mu": 17.075787431732984,
      "n": 1
    },
    {
      "E": -0.0007664605691002883,
      "epsilon": -0.0007664605691002883,
      "lambda0": 7.051792843943105,
      "lambda1": 0.02768502427487266,
      "mu": 12.079477868217978,
      "n": 2
    },
    {
      "E": -0.0001577922108713713,
      "epsilon": -0.0001577922108713713,
      "lambda0": 3.3735837142580656,
      "lambda1": 0.012561536962942524,
      "mu": 10.386145251221008,
      "n": 3
    }
  ],
  "n0": 4,
  "params": {
    "lambda_o": 1.2,
    "mu_o": 9.9,
    "z_T": 1.004
  },
  "schema_version": 1
}
""",
    ('partner', '--lambda-o', '0.5', '--mu-o', '7.3', '--zt', '2', '--ff', 'd0+t0'): """\
{
  "expected_spectral_delta": [
    -680.1717284857028,
    -8.707871108637198
  ],
  "ff": [
    {
      "epsilon": -8.707871108637198,
      "kind": "d",
      "lambda0": -5.922962471141345,
      "lambda1": -2.950910216973264,
      "mu": -7.873872688114609
    },
    {
      "epsilon": -680.1717284857028,
      "kind": "a",
      "lambda0": 52.1626007206582,
      "lambda1": -26.080102156350975,
      "mu": 27.082498564307222
    }
  ],
  "outer_pole": 1.661658836735672,
  "params": {
    "lambda_o": 0.5,
    "mu_o": 7.3,
    "z_T": 2.0
  },
  "schema_version": 1,
  "steps": 2
}
""",
    ('wl', '--lambda-o', '0', '--mu-o', '5', '--zt', '2'): """\
{
  "n0": 2,
  "params": {
    "lambda_o": 0.0,
    "mu_o": 5.0,
    "z_T": 2.0
  },
  "schema_version": 1,
  "solutions": [
    {
      "epsilon": -144.0,
      "kind": "a",
      "lambda0": 24.0,
      "lambda1": -12.0,
      "m": 0,
      "mu": 13.0
    },
    {
      "epsilon": -1.9521143551164533,
      "kind": "c",
      "lambda0": 2.794361719689456,
      "lambda1": 1.397180859844728,
      "m": 0,
      "mu": 5.191542579534184
    },
    {
      "epsilon": -4.610385644883547,
      "kind": "d",
      "lambda0": -4.294361719689457,
      "lambda1": -2.1471808598447284,
      "m": 0,
      "mu": -5.441542579534185
    },
    {
      "epsilon": -7.111111111111111,
      "kind": "a",
      "lambda0": 5.333333333333333,
      "lambda1": -2.6666666666666665,
      "m": 1,
      "mu": 5.666666666666666
    },
    {
      "epsilon": -0.46526591708722986,
      "kind": "c",
      "lambda0": 1.36420807370024,
      "lambda1": 0.68210403685012,
      "m": 1,
      "mu": 5.04631211055036
    },
    {
      "epsilon": -8.59723408291277,
      "kind": "d",
      "lambda0": -5.86420807370024,
      "lambda1": -2.93210403685012,
      "m": 1,
      "mu": -5.79631211055036
    }
  ]
}
""",
    ('census', '--lambda-o', '0.5', '--mu-o', '7.3', '--zt', '2'): """\
{
  "constraint_secondary_ok": null,
  "count_primary_nodeless": 2,
  "hyperbola_residuals": [
    50.04,
    26.04,
    -21.96,
    -93.96000000000001,
    -189.96,
    -309.96
  ],
  "m_minus_c0": 4.417929953085665,
  "m_plus_c0": 2.2089649765428323,
  "mu_cross_slope": 1.7320508075688772,
  "params": {
    "lambda_o": 0.5,
    "mu_o": 7.3,
    "z_T": 2.0
  },
  "schema_version": 1
}
""",
    ('spectrum', '--lambda-o', '0.5', '--mu-o', '7.3', '--zt', '2', '--format', 'csv'): """\
n,lambda0,lambda1,mu,epsilon,E
0,4.4253617504831402,2.198512373324244,7.6238741238073846,-4.8334566556598002,-4.8334566556598002
1,2.9781789056525136,1.4679534728724888,7.446132378525002,-2.1548873985184005,-2.1548873985184005
2,1.5860861477309904,0.75260701365721627,7.3386931613882069,-0.56641731700603337,-0.56641731700603337
""",
    ('partner', '--lambda-o', '0.5', '--mu-o', '7.3', '--zt', '2', '--ff', 'c0'): """\
{
  "expected_spectral_delta": [
    -4.8334566556598
  ],
  "ff": [
    {
      "epsilon": -4.8334566556598,
      "kind": "c",
      "lambda0": 4.42536175048314,
      "lambda1": 2.198512373324244,
      "mu": 7.623874123807385
    }
  ],
  "outer_pole": 2.0,
  "params": {
    "lambda_o": 0.5,
    "mu_o": 7.3,
    "z_T": 2.0
  },
  "schema_version": 1,
  "steps": 1
}
""",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
    def test_stdout(self, capsys, argv):
        assert run(capsys, *argv) == (0, GOLDEN[argv], "")

    def test_tabulate_header(self, capsys):
        # the table's values come from NumPy and may move with its version;
        # the comment lines and the column header do not
        code, out, err = run(capsys, "tabulate", "--lambda-o", "0.5", "--mu-o", "7.3",
                             "--zt", "2", "--psi", "0,1", "--partner", "c0", "--points", "5")
        assert (code, err) == (0, "")
        lines = out.split("\n")
        assert lines[:4] == [
            "# schema_version=1",
            "# lambda_o=0.5 mu_o=7.2999999999999998 z_T=2",
            "# x_min=-15 x_max=15 points=5",
            "x,V,psi0,psi1,Vpartner_c0",
        ]
        assert len(lines) == 4 + 5 + 1 and lines[-1] == ""
