"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sylowlab
from sylowlab import cli, config
from sylowlab.cli import main, run_check
from sylowlab.errors import InvalidConfig
from sylowlab.reports import CheckReport

from conftest import perm


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestVerify:
    def test_ratio_bound_sharp_pair(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-ratio-bound",
                      "--group", "A5", "--sub", "A4", "-p", "3")
        assert rc == 0
        assert rep["ok"]
        assert rep["details"]["ratio"] == {"num": 2, "den": 5}
        assert rep["details"]["bound_attained"]
        assert rep["group"]["order"] == 60
        assert rep["sub"]["degree"] == 5  # embedded into the ambient degree

    def test_fpr_identity(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-fpr-identity",
                      "--group", "A5", "--sub", "A4", "-p", "3")
        assert rc == 0 and rep["ok"]

    def test_fpr_identity_above_the_lattice_cap(self, capsys):
        # |A7| = 2520 exceeds the lattice cap; maximality comes from primitivity
        rc, rep = run(capsys, "verify", "sylow-fpr-identity",
                      "--group", "A7", "--sub", "A6", "-p", "5")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["nu_H"] == 36 and rep["details"]["nu_G"] == 126
        assert rep["details"]["sylow_ratio"] == {"num": 2, "den": 7}

    def test_monotone(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-monotone",
                      "--group", "S3", "--sub", "C3", "-p", "3")
        assert rc == 0 and rep["ok"]

    def test_quotient_product_with_literal_normal_subgroup(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-quotient-product",
                      "--group", "S4",
                      "--sub", "[(1 2)(3 4), (1 3)(2 4)]", "-p", "3")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["nu_G"] == 4

    def test_covering_lower_bound(self, capsys):
        rc, rep = run(capsys, "verify", "covering-lower-bound",
                      "--group", "C3 x C3", "-p", "3")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["sigma"] == 4

    def test_covering_clique_bound(self, capsys):
        rc, rep = run(capsys, "verify", "covering-clique-bound",
                      "--group", "A4", "-p", "3")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["sigma"] == 4
        assert rep["details"]["clique_number"] == 4

    def test_probability_clique_product(self, capsys):
        rc, rep = run(capsys, "verify", "probability-clique-product",
                      "--group", "S3", "--pi", "2")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["product"] == {"num": 15, "den": 8}

    def test_orbit_bound(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-orbit-bound",
                      "--group", "A5", "-p", "3")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["orbits"] == 3

    def test_turan_from_edge_list(self, capsys, tmp_path):
        f = tmp_path / "triangle.txt"
        f.write_text("# a triangle\n1 2\n2 3\n1 3\n")
        rc, rep = run(capsys, "verify", "clique-edge-bound",
                      "--edge-list", str(f))
        assert rc == 0 and rep["ok"]
        assert rep["details"]["clique_number"] == 3
        assert rep["details"]["attained"]

    def test_turan_from_group(self, capsys):
        rc, rep = run(capsys, "verify", "clique-edge-bound",
                      "--group", "S3", "--pi", "2")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["vertices"] == 4

    def test_gap_scan_clean_at_odd_prime(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-ratio-gap-scan",
                      "--group", "A5", "--group", "S4",
                      "-p", "3", "--bound", "1/2")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["violations"] == []
        assert len(rep["groups"]) == 2

    def test_gap_scan_flags_p2_blocker(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-ratio-gap-scan",
                      "--group", "SL(2,4)", "-p", "2", "--bound", "1/2")
        assert rc == 1
        assert not rep["ok"]
        hits = rep["details"]["violations"]
        assert any(v["nu_H"] == 3 and v["nu_G"] == 5 for v in hits)

    def test_multiple_groups_fan_out_in_order(self, capsys):
        rc, reps = run(capsys, "verify", "covering-lower-bound",
                       "--group", "S3", "--group", "C2 x C2",
                       "--group", "D8", "-p", "2")
        assert rc == 0
        assert [r["group"]["expr"] for r in reps] == ["S3", "C2 x C2", "D8"]
        assert all(r["ok"] for r in reps)

    def test_inner_error_is_structured(self, capsys):
        rc, rep = run(capsys, "verify", "covering-lower-bound",
                      "--group", "S3", "-p", "3")
        assert rc == 1
        assert not rep["ok"]
        assert rep["error"]["type"] == "PreconditionFailed"

    def test_refined_flag_forces_strict_bound(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-ratio-bound",
                      "--group", "A6", "--sub", "[(1 2 3 4 5), (2 5)(3 4)]",
                      "-p", "5", "--refined")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["strict_bound_checked"]

    def test_catalog_label_gets_metadata(self, capsys):
        # A6 is catalog-flagged clear at 5, so the strict bound is automatic
        rc, rep = run(capsys, "verify", "sylow-ratio-bound",
                      "--group", "A6", "--sub", "[(1 2 3 4 5), (2 5)(3 4)]",
                      "-p", "5")
        assert rc == 0
        assert rep["details"]["strict_bound_checked"]


class TestCompute:
    def test_nu(self, capsys):
        rc, rep = run(capsys, "compute", "nu", "--group", "A5", "-p", "5")
        assert rc == 0
        assert rep["value"] == 6

    def test_multiple_groups_fan_out_in_order(self, capsys):
        rc, reps = run(capsys, "compute", "nu", "--group", "A5", "--group", "S3", "-p", "2")
        assert rc == 0
        assert [(r["group"]["expr"], r["value"]) for r in reps] == [("A5", 5), ("S3", 3)]

    def test_sigma_with_cover_witness(self, capsys):
        rc, rep = run(capsys, "compute", "sigma", "--group", "S3", "-p", "2")
        assert rc == 0
        assert rep["value"] == 3
        assert len(rep["cover"]) == 3

    def test_sigma_infinite(self, capsys):
        rc, rep = run(capsys, "compute", "sigma", "--group", "C4", "-p", "2")
        assert rc == 0
        assert rep["value"] == "infinity"

    def test_fpr_coset_action(self, capsys):
        rc, rep = run(capsys, "compute", "fpr",
                      "--group", "A5", "--sub", "A4", "-p", "3")
        assert rc == 0
        assert rep["value"] == {"num": 2, "den": 5}
        assert rep["degree"] == 5

    def test_clique(self, capsys):
        rc, rep = run(capsys, "compute", "clique",
                      "--group", "S3", "--pi", "2")
        assert rc == 0
        assert rep["value"] == 3
        assert len(rep["clique"]) == 3

    def test_pr(self, capsys):
        rc, rep = run(capsys, "compute", "pr", "--group", "S3", "--pi", "2")
        assert rc == 0
        assert rep["value"] == {"num": 5, "den": 8}

    def test_group_from_generator_file(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("# icosahedral rotations\n(1 2 3 4 5)\n(1 2 3)  # comment\n")
        rc, rep = run(capsys, "compute", "nu", "--group", f"@{f}", "-p", "5")
        assert rc == 0
        assert rep["group"]["order"] == 60
        assert rep["value"] == 6

    def test_catalog_label_group(self, capsys):
        rc, rep = run(capsys, "compute", "nu", "--group", "Q8", "-p", "2")
        assert rc == 0
        assert rep["value"] == 1

    def test_generator_file_with_bad_token(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("(1 2 3)\n(1 2 x)\n")
        rc = main(["compute", "nu", "--group", f"@{f}", "-p", "2"])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert rc == 1
        assert not rep["ok"]
        assert rep["error"]["type"] == "ExprSyntaxError"
        assert str(f) in rep["error"]["message"] and "'x'" in rep["error"]["message"]
        assert "Traceback" not in captured.err

    def test_generator_file_with_commas(self, capsys, tmp_path):
        f = tmp_path / "gens.txt"
        f.write_text("(1,2,3,4,5)\n(1,2,3)\n")
        rc, rep = run(capsys, "compute", "nu", "--group", f"@{f}", "-p", "5")
        assert rc == 0
        assert rep["group"]["order"] == 60 and rep["value"] == 6


class TestPlumbing:
    def test_json_file_output(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "covering-lower-bound", "--group", "S3",
                   "-p", "2", "--json", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == 1 and rep["ok"]
        summary = capsys.readouterr().out
        assert "covering-lower-bound" in summary and "ok" in summary

    def test_json_dash_means_stdout(self, capsys):
        rc, rep = run(capsys, "compute", "nu", "--group", "S3", "-p", "2",
                      "--json", "-")
        assert rc == 0 and rep["value"] == 3

    @pytest.mark.parametrize("group", ["S3", "S3 )"], ids=["report", "resolve-failure"])
    def test_unwritable_json_path(self, capsys, tmp_path, group):
        path = tmp_path / "missing" / "x.json"
        rc = main(["compute", "nu", "--group", group, "-p", "2", "--json", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines()[-1] == (
            f"error: [Errno 2] No such file or directory: '{path}'")
        assert captured.out == "" and not path.exists()

    def test_unknown_check_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "no-such-check", "--group", "S3"])
        capsys.readouterr()

    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "sylow-monotone", "--group", "S3", "-p", "3"])
        capsys.readouterr()

    def test_bad_expression_reports_error(self, capsys):
        rc = main(["compute", "nu", "--group", "S3 )", "-p", "2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_run_check_unknown_id(self):
        with pytest.raises(KeyError):
            run_check("bogus", {})

    @pytest.mark.parametrize("groups", [("A4", "A5"), ("A5", "A4")])
    def test_sub_padded_to_each_group(self, capsys, groups):
        argv = ["verify", "sylow-ratio-bound", "--sub", "[(1 2)(3 4), (1 2 3)]", "-p", "3"]
        for g in groups:
            argv += ["--group", g]
        rc, reps = run(capsys, *argv)
        by_group = {r["group"]["expr"]: r for r in reps}
        assert [r["group"]["expr"] for r in reps] == list(groups)
        assert "error" not in by_group["A5"] and by_group["A5"]["ok"]
        assert by_group["A5"]["sub"]["degree"] == 5
        assert by_group["A4"]["error"]["message"] == "H must be proper"
        assert by_group["A4"]["sub"]["degree"] == 4
        assert rc == 1

    def test_closed_stdout_gives_no_traceback(self):
        # the report is far larger than a pipe buffer, so the writer is
        # still busy when the reader goes away after the first line
        env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sylowlab.cli", "verify", "sylow-ratio-gap-scan",
             "--group", "S5", "--group", "A6", "-p", "2", "--bound", "0", "--json", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 0
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_exit_code_tracks_bound(self, capsys):
        # sigma exceeds the p+1 bound never; force failure via inner error
        rc = main(["compute", "fpr", "--group", "C5", "-p", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["error"]["type"] == "NoPElement"


class TestRuntime:
    def test_runtime_covers_the_whole_handler(self, monkeypatch):
        # the handler builds its report only after 60 ms of work
        def slow(options):
            time.sleep(0.06)
            return CheckReport("covering-lower-bound", True)

        monkeypatch.setitem(cli.CHECKS, "covering-lower-bound", slow)
        out = run_check("covering-lower-bound", {"p": 2})
        assert out["ok"] is True
        assert out["runtime_ms"] >= 50


class TestReportShape:
    """Key order of each kind of report, frozen: every report is built by
    one envelope, and its JSON layout must not drift."""

    VERIFY_OK = ["schema", "check", "group", "sub", "primes",
                 "ok", "details", "notices", "runtime_ms"]

    @pytest.mark.parametrize("argv, keys", [
        (["verify", "sylow-ratio-bound", "--group", "A5", "--sub", "A4", "-p", "3"],
         VERIFY_OK),
        (["verify", "covering-lower-bound", "--group", "S3", "-p", "3"],
         ["schema", "check", "group", "primes", "ok", "error"]),
        (["verify", "sylow-ratio-gap-scan", "--group", "A4", "--group", "S3",
          "-p", "3", "--bound", "1/2"],
         ["schema", "check", "groups", "primes", "ok", "details", "notices", "runtime_ms"]),
        (["compute", "fpr", "--group", "A5", "--sub", "A4", "-p", "3"],
         ["schema", "quantity", "group", "sub", "primes", "value", "element", "degree", "ok"]),
        (["compute", "pr", "--group", "S3", "--group", "A4", "--pi", "3,2"],
         ["schema", "quantity", "group", "primes", "value", "ok"]),
        (["compute", "nu", "--group", "A5", "--group", "S3", "-p", "4"],
         ["schema", "quantity", "group", "primes", "ok", "error"]),
        (["compute", "nu", "--group", "S3 )", "-p", "2"],
         ["schema", "quantity", "ok", "error"]),
        (["verify", "covering-lower-bound", "--group", "S3 )", "-p", "2"],
         ["schema", "check", "ok", "error"]),
    ])
    def test_key_order(self, capsys, argv, keys):
        main(argv)
        out = json.loads(capsys.readouterr().out)
        # one report per --group, except the list check
        reports = out if isinstance(out, list) else [out]
        assert len(reports) == (1 if "sylow-ratio-gap-scan" in argv else argv.count("--group"))
        for rep in reports:
            assert list(rep) == keys
            if "error" in rep:
                assert list(rep["error"]) == ["type", "message"]
            for echo in [rep.get("group"), rep.get("sub"), *rep.get("groups", [])]:
                if echo is not None:
                    assert list(echo) == ["expr", "degree", "order", "generators"]
            if "pi" in argv:
                assert rep["primes"] == [2, 3]


class TestInputValidation:
    """Bad primes and caps give a structured error, never a hang or a
    confident answer.  The prime cases run in a child process under a
    timeout, because -p 1 used to loop forever."""

    @staticmethod
    def cli(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "sylowlab.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        return proc.returncode, json.loads(proc.stdout)

    @pytest.mark.parametrize("p", ["0", "1", "4"])
    @pytest.mark.parametrize("quantity", ["nu", "sigma"])
    def test_non_prime_p(self, quantity, p):
        rc, rep = self.cli("compute", quantity, "--group", "A5", "-p", p)
        assert rc == 1
        assert not rep["ok"] and "value" not in rep
        assert rep["error"]["type"] == "OutOfDomain"
        assert p in rep["error"]["message"]

    @pytest.mark.parametrize("pi", ["1", "2,4", "0,3"])
    def test_non_prime_pi_entry(self, pi):
        rc, rep = self.cli("verify", "probability-clique-product",
                           "--group", "S3", "--pi", pi)
        assert rc == 1
        assert rep["error"]["type"] == "OutOfDomain"

    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
    def test_bad_cap_environment(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("SYLOWLAB_CAP", raw)
        with pytest.raises(InvalidConfig, match="SYLOWLAB_CAP"):
            config.element_cap()
        with pytest.raises(InvalidConfig, match="SYLOWLAB_CAP"):
            config.lattice_cap()
        rc, rep = run(capsys, "compute", "nu", "--group", "A5", "-p", "2")
        assert rc == 1
        assert rep["error"]["type"] == "InvalidConfig"
        assert "SYLOWLAB_CAP" in rep["error"]["message"]

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_flag(self, capsys, cap):
        rc, rep = run(capsys, "compute", "nu", "--group", "A5", "-p", "2", "--cap", cap)
        assert rc == 1
        assert rep["error"]["type"] == "InvalidConfig"
        assert "--cap" in rep["error"]["message"]

    def test_missing_edge_list(self, capsys, tmp_path):
        rc, rep = run(capsys, "verify", "clique-edge-bound",
                      "--edge-list", str(tmp_path / "missing.txt"))
        assert rc == 1
        assert rep["error"]["type"] == "FileNotFoundError"

    def test_bad_edge_line(self, capsys, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("1 2\n3 x\n")
        rc, rep = run(capsys, "verify", "clique-edge-bound", "--edge-list", str(f))
        assert rc == 1
        assert rep["error"]["type"] == "ExprSyntaxError"
        assert "line 2" in rep["error"]["message"] and "3 x" in rep["error"]["message"]

    def test_zero_denominator_bound_is_a_usage_error(self):
        env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sylowlab.cli", "verify", "sylow-ratio-gap-scan",
             "--group", "A4", "-p", "2", "--bound", "1/0"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "--bound" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, form", [
        (["verify", "sylow-ratio-gap-scan", "--group", "A4", "-p", "2", "--bound", "1/0"],
         "NUM/DEN with a nonzero DEN"),
        (["verify", "sylow-ratio-gap-scan", "--group", "A4", "-p", "2", "--bound", "abc"],
         "NUM/DEN with a nonzero DEN"),
        (["compute", "pr", "--group", "S3", "--pi", "2,x"], "comma-separated primes"),
    ])
    def test_usage_error_names_the_expected_form(self, capsys, argv, form):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert form in err and "_parse_" not in err

    @pytest.mark.parametrize("argv, message", [
        (["compute", "nu", "--group", "A5"], "error: this check needs -p"),
        (["verify", "sylow-ratio-gap-scan", "-p", "2", "--bound", "1/3"],
         "error: this check needs --group"),
    ])
    def test_missing_option_names_its_flag(self, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert str(info.value) == message

    def test_sylow_count_above_the_element_cap_is_refused(self, capsys):
        rc, rep = run(capsys, "compute", "nu", "--group", "A10", "-p", "5")
        assert rc == 1 and not rep["ok"]
        assert rep["error"] == {"type": "CapExceeded", "message":
                                "element enumeration: needs 1814400, cap is 1000000"}

    def test_good_cap_environment(self, monkeypatch):
        monkeypatch.setenv("SYLOWLAB_CAP", " 5000 ")
        assert config.element_cap() == config.lattice_cap() == 5000
