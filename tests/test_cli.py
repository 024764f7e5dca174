"""End-to-end tests of the command line interface."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sylowlab
from sylowlab import cli, config, sylow
from sylowlab.cli import main
from sylowlab.errors import InvalidConfig
from sylowlab.reports import CheckReport, encode_value

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

    def test_fpr_identity_above_the_element_cap(self, capsys):
        # |A10| = 1814400 exceeds the element cap; the coset action needs
        # only the index, 10.  P in Syl_3(A9) fixes the point 10, so
        # nu_3(A10) = 10 nu_3(A9) and P fixes 1 of the 10 cosets
        rc, rep = run(capsys, "verify", "sylow-fpr-identity",
                      "--group", "A10", "--sub", "A9", "-p", "3")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["nu_H"] == 1120 and rep["details"]["nu_G"] == 11200
        assert rep["details"]["sylow_ratio"] == {"num": 1, "den": 10}
        assert rep["details"]["fixed_point_ratio"] == {"num": 1, "den": 10}
        assert rep["details"]["degree"] == 10

    def test_monotone(self, capsys):
        rc, rep = run(capsys, "verify", "sylow-monotone",
                      "--group", "S3", "--sub", "C3", "-p", "3")
        assert rc == 0 and rep["ok"]

    def test_walked_counts_do_not_use_the_fixed_point_count(self, capsys, monkeypatch):
        # sylow-fpr-identity checks the identity that sylow._nu counts by,
        # so it must walk both orbits; so must sylow-monotone for nu_G,
        # whose conjugates it reads (its nu_H may use the count)
        original = sylow._nu

        def refuse_on(order):
            def count(G, P, p):
                if order is None or G.order() == order:
                    raise AssertionError("counted by sylow._nu")
                return original(G, P, p)
            return count

        monkeypatch.setattr(sylow, "_nu", refuse_on(None))
        rc, rep = run(capsys, "verify", "sylow-fpr-identity", "--group", "A6",
                      "--sub", "[(1 2 3 4 5),(1 2)(3 4)]", "-p", "5")
        assert rc == 0 and rep["ok"]
        assert (rep["details"]["nu_G"], rep["details"]["nu_H"]) == (36, 6)
        monkeypatch.setattr(sylow, "_nu", refuse_on(20160))
        rc, rep = run(capsys, "verify", "sylow-monotone", "--group", "A8",
                      "--sub", "A7", "-p", "3")
        assert rc == 0 and "error" not in rep
        assert (rep["details"]["nu_G"], rep["details"]["nu_H"]) == (280, 70)

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

    def test_covering_lower_bound_infinite(self, capsys):
        # no proper subgroup holds the generator of C4, a 2-element
        rc, rep = run(capsys, "verify", "covering-lower-bound", "--group", "C4", "-p", "2")
        assert rc == 0 and rep["ok"]
        assert rep["details"]["sigma"] == "infinity"
        assert rep["details"]["attained"] is False

    @pytest.mark.parametrize("check", ["sylow-ratio-bound", "sylow-fpr-identity"])
    def test_sub_that_is_not_a_subgroup(self, capsys, check):
        rc, rep = run(capsys, "verify", check, "--group", "A5", "--sub", "[(1 2)]", "-p", "2")
        assert rc == 1 and not rep["ok"]
        assert rep["error"] == {"type": "NotASubgroup", "message": "H is not a subgroup of G"}

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
        assert rep["cover"] == []

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

    @pytest.mark.parametrize("line, reason", [
        ("(1 2)(", "unexpected text in cycle string"), ("(0 1)", "bad cycle (0, 1)")])
    def test_generator_file_with_bad_entry(self, capsys, tmp_path, line, reason):
        # an entry that is no permutation is refused at its file and line
        f = tmp_path / "gens.txt"
        f.write_text(f"(1 2 3)\n{line}\n")
        rc = main(["compute", "nu", "--group", f"@{f}", "-p", "2"])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert rc == 1 and not rep["ok"]
        assert rep["error"]["type"] == "ExprSyntaxError"
        assert f"{f} line 2: " in rep["error"]["message"]
        assert reason in rep["error"]["message"]
        assert "Traceback" not in captured.err

    def test_generator_file_without_generators(self, capsys, tmp_path):
        # comments and blanks name no group; the trivial group is a () line
        f = tmp_path / "gens.txt"
        f.write_text("# nothing here\n\n   \n")
        rc = main(["compute", "nu", "--group", f"@{f}", "-p", "2"])
        rep = json.loads(capsys.readouterr().out)
        assert rc == 1 and not rep["ok"]
        assert rep["error"]["type"] == "ExprSyntaxError"
        assert str(f) in rep["error"]["message"] and "no generators" in rep["error"]["message"]
        f.write_text("# the trivial group\n()\n")
        rc, rep = run(capsys, "compute", "nu", "--group", f"@{f}", "-p", "2")
        assert rc == 0 and rep["group"]["order"] == 1 and rep["value"] == 1

    def test_field_past_the_bound_is_refused(self, capsys):
        rc = main(["compute", "nu", "--group", "SL(2,37)", "-p", "2"])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert rc == 1 and not rep["ok"]
        assert rep["error"] == {"type": "UnsupportedField",
                                "message": "GF(37): q must be a prime power from 2 to 32"}
        assert "Traceback" not in captured.err

    def test_field_found_by_the_modulus_rule(self, capsys):
        # GF(17) was outside the table of pinned fields
        rc, rep = run(capsys, "compute", "nu", "--group", "PSL(2,17)", "-p", "17")
        assert rc == 0
        assert rep["group"]["order"] == 2448
        assert rep["value"] == 18

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

    def test_json_file_summary_of_an_error(self, capsys, tmp_path):
        rc = main(["compute", "nu", "--group", "A5", "-p", "4",
                   "--json", str(tmp_path / "report.json")])
        assert rc == 1
        assert capsys.readouterr().out == "nu A5: ERROR OutOfDomain: expected a prime, got 4\n"

    def test_unserializable_value(self):
        with pytest.raises(TypeError):
            encode_value(object())

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
            cli._report("check", "bogus", {})

    @pytest.mark.parametrize("error", [
        RuntimeError("boom"), AssertionError("Sylow count must be 1 mod p")],
        ids=["RuntimeError", "AssertionError"])
    def test_any_exception_is_a_structured_error(self, capsys, monkeypatch, error):
        def failing(options):
            raise error

        monkeypatch.setitem(cli.CHECKS, "covering-lower-bound", failing)
        monkeypatch.setitem(cli.QUANTITIES, "nu", failing)
        want = {"type": type(error).__name__, "message": str(error)}
        rep = cli._report("check", "covering-lower-bound", {"p": 2})
        assert rep["ok"] is False and rep["error"] == want
        for argv in (["verify", "covering-lower-bound", "--group", "S3", "-p", "2"],
                     ["compute", "nu", "--group", "S3", "-p", "2"]):
            rc, rep = run(capsys, *argv)
            assert rc == 1
            assert rep["ok"] is False and rep["error"] == want

    def test_any_exception_building_a_group_is_a_structured_error(self, capsys, monkeypatch):
        def failing(text):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "GroupInput", failing)
        rc = main(["compute", "nu", "--group", "S3", "-p", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: boom" in captured.err and "Traceback" not in captured.err
        rep = json.loads(captured.out)
        assert rep["ok"] is False
        assert rep["error"] == {"type": "RuntimeError", "message": "boom"}

    def test_an_error_that_says_nothing_is_named_by_its_type(self, capsys, monkeypatch):
        def failing_build(text):
            raise MemoryError()

        def failing_handler(options):
            raise RuntimeError()

        monkeypatch.setattr(cli, "GroupInput", failing_build)
        rc = main(["compute", "nu", "--group", "S3", "-p", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: MemoryError" in captured.err
        assert json.loads(captured.out)["error"] == {"type": "MemoryError",
                                                     "message": "MemoryError"}
        monkeypatch.undo()
        monkeypatch.setitem(cli.CHECKS, "covering-lower-bound", failing_handler)
        rc, rep = run(capsys, "verify", "covering-lower-bound", "--group", "S3", "-p", "2")
        assert rc == 1
        assert rep["error"] == {"type": "RuntimeError", "message": "RuntimeError"}

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


class TestOneTowerPerCheck:
    """Each Sylow-number request grows one Sylow subgroup from P = 1 and
    reads every other count off it: the ratio bound takes O^p'(G) as the
    normal closure of that P, the quotient product takes a Sylow subgroup
    of G/N as its image."""

    @pytest.mark.parametrize("argv", [
        ["verify", "sylow-ratio-bound", "--group", "A5", "--sub", "A4", "-p", "3"],
        ["verify", "sylow-quotient-product", "--group", "S4",
         "--sub", "[(1 2)(3 4), (1 3)(2 4)]", "-p", "2"],
        ["verify", "sylow-monotone", "--group", "S4", "--sub", "A4", "-p", "2"],
        ["verify", "sylow-fpr-identity", "--group", "A5", "--sub", "A4", "-p", "3"],
        ["verify", "sylow-orbit-bound", "--group", "A5", "-p", "3"],
        ["compute", "nu", "--group", "A5", "-p", "2"],
        ["compute", "fpr", "--group", "A5", "-p", "2"],
    ], ids=lambda argv: argv[1])
    def test_one_tower_from_the_trivial_subgroup(self, capsys, monkeypatch, argv):
        towers = []
        grow = sylow.sylow_subgroup_containing

        def counting(G, Q, p):
            if Q.order() == 1:
                towers.append(G.order())
            return grow(G, Q, p)

        monkeypatch.setattr(sylow, "sylow_subgroup_containing", counting)
        rc, rep = run(capsys, *argv)
        assert rc == 0 and "error" not in rep
        assert len(towers) == 1


class TestRatioBoundRefusalOrder:
    """The refusals that need no Sylow subgroup come before the test that G
    is generated by its p-elements, so a request failing both gets the
    cheap refusal."""

    @pytest.mark.parametrize("group, sub, p, error, message", [
        ("S3", "[(1 2)]", "3", "SylowNotContained",
         "H does not contain a Sylow p-subgroup of G"),
        ("S5", "S4", "5", "SylowNotContained",
         "H does not contain a Sylow p-subgroup of G"),
        ("S4", "[(1 2 3 4), (1 3)]", "3", "SylowNotContained",
         "H does not contain a Sylow p-subgroup of G"),
        ("C6", "[(1 2 3 4 5 6)]", "2", "PreconditionFailed", "H must be proper"),
    ])
    def test_cheap_refusal_first(self, capsys, group, sub, p, error, message):
        rc, rep = run(capsys, "verify", "sylow-ratio-bound",
                      "--group", group, "--sub", sub, "-p", p)
        assert rc == 1
        assert rep["error"] == {"type": error, "message": message}


class TestRuntime:
    def test_runtime_covers_the_whole_handler(self, monkeypatch):
        # the handler builds its report only after 60 ms of work
        def slow(options):
            time.sleep(0.06)
            return CheckReport(True)

        monkeypatch.setitem(cli.CHECKS, "covering-lower-bound", slow)
        out = cli._report("check", "covering-lower-bound", {"p": 2})
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

    @pytest.mark.parametrize("p", ["0", "4"])
    def test_non_prime_p_report(self, p):
        rc, rep = self.cli("compute", "nu", "--group", "A5", "-p", p)
        assert rc == 1 and "value" not in rep
        assert rep["error"] == {"type": "OutOfDomain", "message": f"expected a prime, got {p}"}

    @pytest.mark.parametrize("argv, value", [
        (["compute", "nu", "--group", "S4", "-p"], 1),
        (["compute", "pr", "--group", "S4", "--pi"], {"num": 1, "den": 1}),
    ], ids=["nu", "pr"])
    def test_large_prime_answers_quickly(self, argv, value):
        # trial division up to its square root used to run for minutes
        start = time.monotonic()
        rc, rep = self.cli(*argv, "1000000000000000003")
        assert rc == 0 and rep["ok"] and rep["value"] == value
        assert time.monotonic() - start < 20

    @pytest.mark.parametrize("flag", ["-p", "--pi"])
    def test_product_of_two_large_primes_is_refused(self, flag):
        n = str(1000000007 * 1000000009)
        rc, rep = self.cli("compute", "nu" if flag == "-p" else "pr", "--group", "S4", flag, n)
        assert rc == 1 and "value" not in rep
        assert rep["error"] == {"type": "OutOfDomain", "message": f"expected a prime, got {n}"}

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

    def test_edge_list_keeps_the_vertex_cap(self, capsys, tmp_path):
        # vertex 50 alone used to give a 50-vertex graph under --cap 10
        f = tmp_path / "edges.txt"
        f.write_text("1 50\n")
        rc, rep = run(capsys, "verify", "clique-edge-bound", "--edge-list", str(f),
                      "--cap", "10")
        assert rc == 1 and "details" not in rep
        assert rep["error"] == {"type": "CapExceeded",
                                "message": "edge list vertices: needs 50, cap is 10"}
        rc, rep = run(capsys, "verify", "clique-edge-bound", "--edge-list", str(f),
                      "--cap", "50")
        assert rc == 0 and rep["details"]["vertices"] == 50

    def test_bad_edge_line(self, capsys, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("1 2\n3 x\n")
        rc, rep = run(capsys, "verify", "clique-edge-bound", "--edge-list", str(f))
        assert rc == 1
        assert rep["error"]["type"] == "ExprSyntaxError"
        assert "line 2" in rep["error"]["message"] and "3 x" in rep["error"]["message"]

    # 500 nested parentheses and a 1,200-factor product once ran out of
    # Python's recursion limit; the parser refuses both at depth 101
    DEEP = {"parentheses": ("(" * 500 + "C2" + ")" * 500, 100),
            "product": (" x ".join(["C2"] * 1200), 5 * 101 - 2)}

    @pytest.mark.parametrize("shape", sorted(DEEP))
    @pytest.mark.parametrize("argv", [
        ["compute", "nu", "-p", "2", "--group"],
        ["verify", "sylow-ratio-bound", "--group", "A5", "-p", "2", "--sub"]],
        ids=["group", "sub"])
    def test_deep_expression_is_a_syntax_error(self, argv, shape):
        text, offset = self.DEEP[shape]
        env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "sylowlab.cli", *argv, text],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)
        assert not rep["ok"]
        assert rep["error"]["type"] == "ExprSyntaxError"
        assert rep["error"]["message"].endswith(f"(at offset {offset})")

    # each once ended in a traceback: formatting an order of more than
    # 4,300 digits, computing 1000000!, raising the order of 20 nested
    # wreath levels to its degree, or converting 5,000 digits with int()
    HUGE = {"S1700": "S1700", "A2000": "A2000", "S3xS2000": "S3 x S2000",
            "S1000000": "S1000000",
            "wreath20": "C2" + " wr C2" * 19, "wreath30": "C2" + " wr C2" * 29,
            "digits": "S" + "9" * 5000, "literal": "[(" + "9" * 5000 + " 1)]"}

    @pytest.mark.parametrize("name", sorted(HUGE))
    def test_huge_order_or_number_is_refused_quickly(self, name):
        env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "sylowlab.cli", "compute", "nu",
                               "--group", self.HUGE[name], "-p", "2", "--json", "-"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert time.monotonic() - start < 2
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stdout)["error"]
        if name in ("digits", "literal"):
            assert error["type"] == "ExprSyntaxError"
            assert error["message"] == f"number too long (at offset {1 + (name == 'literal')})"
        else:
            assert error == {"type": "CapExceeded", "message":
                             "constructed group order: needs more than 1000000000, "
                             "cap is 1000000000"}

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

    @pytest.mark.parametrize("argv", [
        ["verify", "sylow-monotone", "--group", "A10", "--sub", "A9", "-p", "3"],
        ["compute", "nu", "--group", "A10", "-p", "3"],
    ])
    def test_sylow_requests_refuse_alike(self, capsys, argv):
        # a Sylow 3-subgroup of A9 is Sylow in A10 too, and the monotone
        # check once answered from it with no bound on its orbit
        rc, rep = run(capsys, *argv)
        assert rc == 1 and not rep["ok"]
        assert rep["error"] == {"type": "CapExceeded", "message":
                                "element enumeration: needs 1814400, cap is 1000000"}

    def test_good_cap_environment(self, monkeypatch):
        monkeypatch.setenv("SYLOWLAB_CAP", " 5000 ")
        assert config.element_cap() == config.lattice_cap() == 5000


class TestCapChannels:
    """``--cap`` and ``SYLOWLAB_CAP`` set the same limits: the element and
    lattice caps, and through the element cap the construction limit,
    which neither lowers below ``config.DEFAULT_CONSTRUCT_CAP``.  The
    flag holds for its own command only."""

    def test_cap_flag_keeps_construction_open(self, capsys):
        # --cap 2520 once bounded construction too, and A8 ended the whole
        # scan in one error
        rc, rep = run(capsys, "verify", "sylow-ratio-gap-scan", "--group", "A5",
                      "--group", "A7", "--group", "A8", "-p", "2", "--bound", "1/3",
                      "--cap", "2520")
        assert "error" not in rep
        assert rep["details"]["groups_scanned"] == 2
        assert rep["notices"] == ["skipped A8: lattice needs 20160 > cap 2520"]

    def test_flag_and_environment_give_the_same_error(self, capsys, monkeypatch):
        argv = ["compute", "nu", "--group", "A5", "-p", "2"]
        want = {"type": "CapExceeded", "message": "element enumeration: needs 60, cap is 5"}
        _, by_flag = run(capsys, *argv, "--cap", "5")
        monkeypatch.setenv("SYLOWLAB_CAP", "5")
        _, by_env = run(capsys, *argv)
        assert by_flag["error"] == by_env["error"] == want

    @pytest.mark.parametrize("cap, ok", [("100", True), ("5", False), ("0", False)],
                             ids=["ok", "error-entry", "zero"])
    def test_main_restores_the_override(self, capsys, cap, ok):
        before = config.override
        rc, rep = run(capsys, "compute", "nu", "--group", "A5", "-p", "2", "--cap", cap)
        assert (rc == 0) == ok and rep["ok"] is ok
        assert config.override == before

    def test_library_call_after_main_sees_the_default_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("SYLOWLAB_CAP", raising=False)
        rc, _ = run(capsys, "compute", "nu", "--group", "A5", "-p", "2", "--cap", "10")
        assert rc == 1
        assert config.element_cap() == config.DEFAULT_ELEMENT_CAP
        assert len(sylow.sylow_subgroups(cli.construct_text("A5"), 2)) == 5


def _usage_error(capsys, argv):
    """The stderr of a run that ends as a usage error, with no report."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    return captured.err


def _workload_argvs():
    """Every WORKLOADS and EXCLUDED argv of the benchmark, read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    requests = [r for reqs in module.WORKLOADS.values() for r in reqs] + module.EXCLUDED
    return [r["argv"] for r in requests]


class TestDeclarations:
    """Each check and quantity reads exactly the options it declares: a
    missing one ends the run before any group is built, any other one is
    a usage error, so no report echoes an input the computation ignored."""

    # a valid value for every option, and the options each kind may get
    VALUES = {"--group": ["--group", "A5"], "--sub": ["--sub", "A4"], "-p": ["-p", "3"],
              "--pi": ["--pi", "2"], "--bound": ["--bound", "1/3"],
              "--refined": ["--refined"], "--edge-list": ["--edge-list", "edges.txt"]}
    KINDS = {"check": ("verify", list(VALUES)),
             "quantity": ("compute", ["--group", "--sub", "-p", "--pi"])}

    @staticmethod
    def flags(names):
        return [cli._FLAGS[n] for n in names]

    @pytest.fixture(autouse=True)
    def no_group_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a group was built")
        monkeypatch.setattr(cli, "GroupInput", refuse)

    def entries(self):
        for kind, table in cli._ENTRIES.items():
            for name, entry in table.items():
                yield kind, name, entry

    def argv(self, kind, name, flags):
        command, _ = self.KINDS[kind]
        return [command, name] + [a for f in flags for a in self.VALUES[f]]

    @pytest.mark.parametrize("argv, flag", [
        (["compute", "pr", "--group", "A5", "--pi", "2", "-p", "3"], "-p"),
        (["verify", "clique-edge-bound", "--edge-list", "edges.txt",
          "--group", "A5", "--pi", "2"], "--group, --pi"),
        (["compute", "nu", "--group", "A5", "--sub", "A4", "-p", "2"], "--sub"),
        (["verify", "sylow-ratio-gap-scan", "--group", "A5", "--group", "S4",
          "-p", "2", "--bound", "1/3", "--sub", "A4"], "--sub"),
        (["verify", "sylow-orbit-bound", "--group", "A5", "--sub", "A4", "-p", "3"], "--sub"),
    ])
    def test_unread_option_is_a_usage_error(self, capsys, argv, flag):
        assert f"does not take {flag}" in _usage_error(capsys, argv)

    def test_every_undeclared_flag_is_refused(self, capsys):
        for kind, name, entry in self.entries():
            declared = {f for form in entry.forms for f in self.flags(form)}
            declared |= set(self.flags(entry.may))
            for extra in self.KINDS[kind][1]:
                if extra not in declared:
                    argv = self.argv(kind, name, self.flags(entry.forms[-1]) + [extra])
                    assert f"does not take {extra}" in _usage_error(capsys, argv), argv

    def test_each_missing_flag_gives_its_message(self):
        for kind, name, entry in self.entries():
            needs = self.flags(entry.forms[-1])
            for missing in needs:
                argv = self.argv(kind, name, [f for f in needs if f != missing])
                with pytest.raises(SystemExit) as info:
                    main(argv)
                assert str(info.value) == f"error: this check needs {missing}", argv

    @pytest.mark.parametrize("flags", [
        ["--edge-list", "--group", "--pi"], ["--edge-list", "--group"], ["--edge-list", "--pi"],
    ])
    def test_edge_list_or_group_never_both(self, capsys, flags):
        err = _usage_error(capsys, self.argv("check", "clique-edge-bound", flags))
        assert "with --edge-list" in err

    def test_edge_bound_without_a_graph(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "clique-edge-bound"])
        assert str(info.value) == "error: this check needs --group, --pi"

    def test_every_benchmark_request_passes_its_declaration(self):
        parser = cli.build_parser()
        argvs = _workload_argvs()
        assert len(argvs) > 20
        for argv in argvs:
            cli._declared(parser, parser.parse_args(argv + ["--json", "-"]))


def test_zero_prime_and_zero_bound_reach_the_computation(capsys):
    rc, rep = run(capsys, "compute", "nu", "--group", "A5", "-p", "0")
    assert rc == 1 and rep["error"]["type"] == "OutOfDomain"
    rc, rep = run(capsys, "verify", "sylow-ratio-gap-scan", "--group", "A4",
                  "-p", "2", "--bound", "0")
    assert rep["details"]["bound"] == {"num": 0, "den": 1} and "error" not in rep


def test_library_handlers_call_through_the_module_binding(capsys, monkeypatch):
    # perfbench/tracer.py rebinds cli.nu_p to time it; a handler holding
    # its own reference to nu_p would hide the call from the trace
    calls = []
    original = cli.nu_p
    monkeypatch.setattr(cli, "nu_p", lambda *args: calls.append(args) or original(*args))
    rc, rep = run(capsys, "compute", "nu", "--group", "A5", "-p", "5")
    assert rc == 0 and rep["value"] == 6 and len(calls) == 1


def test_readme_option_table_matches_the_declarations():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `verify ") or line.startswith("| `compute "):
            rows[cells[0]] = cells[1:]
    command = {"check": "verify", "quantity": "compute"}
    expected = {}
    for kind, table in cli._ENTRIES.items():
        for name, entry in table.items():
            needs = ", or ".join(
                "`" + " ".join(cli._FLAGS[n] for n in form) + "`" for form in entry.forms)
            may = " ".join(f"`{cli._FLAGS[n]}`" for n in entry.may)
            expected[f"`{command[kind]} {name}`"] = [needs, may]
    assert rows == expected
