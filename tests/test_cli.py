"""Command-line interface: flags, exit codes, schemas, determinism."""

import json
import math

import pytest

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


class TestPartnerReport:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "partner", "--lambda-o", "0", "--mu-o", "5",
                           "--zt", "2", "--ff", "c0")
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == 1
        assert doc["expected_spectral_delta"][0] == pytest.approx(-1.95211435,
                                                                  abs=1e-6)

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

    def test_oracle_flags_removed(self, capsys):
        # the oracle has one discretization and fixed gates
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--oracle-method", "fd2"])
        assert exc.value.code == 2
