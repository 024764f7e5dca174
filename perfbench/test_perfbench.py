"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import types

import run
import tracer
import workloads
from tracer import Span

sys.path.insert(0, str(run.SRC))
import sylowlab.cli  # noqa: E402


def test_self_times_of_nested_spans():
    # root 0..100 has children 10..40 and 50..90; the second has a child
    # 60..70, and a stray overlapping child 85..95 of which only 85..90
    # lies inside its parent.
    spans = [
        Span(1, 0, None, "cli.main", 0, 100),
        Span(1, 1, 0, "a", 10, 40),
        Span(1, 2, 0, "b", 50, 90),
        Span(1, 3, 2, "c", 60, 70),
        Span(1, 4, 2, "d", 85, 95),
    ]
    assert tracer.self_times(spans) == {0: 30, 1: 30, 2: 25, 3: 10, 4: 10}


def test_layer_metrics_sum_self_times_and_average_over_passes():
    spans = [
        Span(1, 0, None, "cli.main", 0, 4_000_000_000),
        Span(1, 1, 0, "setcover.min_cover", 0, 3_000_000_000),
        Span(2, 2, None, "cli.main", 0, 2_000_000_000),
        Span(2, 3, 2, "setcover.min_cover", 0, 1_000_000_000),
    ]
    counts = {"setcover.min_cover.calls": 2, "lattice.subgroup_lattice.calls": 4,
              "lattice.subgroup_lattice.hit": 1}
    m = tracer.layer_metrics(spans, counts, passes=2)
    assert m["setcover.min_cover_s"] == 2.0
    assert m["cli.self_s"] == 1.0
    assert m["setcover.min_cover.calls"] == 1
    assert m["lattice.hit_ratio"] == 0.25
    assert m["graphs.build_s"] == 0.0


def test_check_report_compares_fields_and_list_lengths():
    expect = {"ok": False, "details": {"groups_scanned": 2, "violations#": 1}}
    good = {"ok": False, "details": {"groups_scanned": 2, "violations": [{}]}}
    assert workloads.check_report(good, expect) == []
    bad = {"ok": False, "details": {"groups_scanned": 2, "violations": []}}
    assert workloads.check_report(bad, expect) == ["details.violations#: 0 != 1"]
    errored = {"ok": False, "error": {"type": "CapExceeded"}}
    assert workloads.check_report(errored, expect) == [
        "unexpected error {'type': 'CapExceeded'}", "report has no details"]


def _runner(requests, cli=sylowlab.cli):
    return run.Runner(cli, requests, seed=0)


def test_wrong_frozen_answer_counts_as_failed():
    right = {"argv": ["compute", "nu", "--group", "S3", "-p", "3"],
             "expect": {"ok": True, "value": 1}}
    wrong = {"argv": right["argv"], "expect": {"ok": True, "value": 4}}
    runner = _runner([right, wrong])
    runner.run_pass()
    assert runner.attempted == 2
    assert len(runner.failures) == 1
    assert runner.failures[0]["problems"] == ["value: 1 != 4"]


def test_request_that_raises_counts_as_failed():
    def main(argv):
        raise RuntimeError("boom")

    runner = _runner([{"argv": ["compute"], "expect": {"ok": True}}],
                     cli=types.SimpleNamespace(main=main))
    runner.run_pass()
    assert runner.failures[0]["problems"] == ["exception escaped main: RuntimeError: boom"]
    # argparse exits through SystemExit; that is a failed request too
    runner = _runner([{"argv": ["compute", "no-such-quantity"], "expect": {"ok": True}}])
    runner.run_pass()
    assert runner.failures[0]["problems"][0].startswith("exception escaped main: SystemExit")


def test_seed_sets_the_request_order():
    requests = [{"argv": ["compute", "nu", "--group", "S3", "-p", "3"],
                 "expect": {"ok": True, "value": 1}}] * 5
    orders = []
    for _ in range(2):
        runner = _runner(requests)
        runner.run_pass()
        runner.run_pass()
        orders.append(runner.orders)
    assert orders[0] == orders[1]
    assert sorted(orders[0][0]) == list(range(5))


def test_tracer_wraps_every_binding_and_restores_them():
    import sylowlab.covering
    import sylowlab.setcover

    original = sylowlab.setcover.min_cover
    assert sylowlab.covering.min_cover is original
    t = tracer.Tracer()
    with t:
        assert sylowlab.covering.min_cover is sylowlab.setcover.min_cover
        assert sylowlab.covering.min_cover.__wrapped__ is original
        runner = _runner([{"argv": ["compute", "sigma", "--group", "S4", "-p", "2"],
                           "expect": {"ok": True, "value": 3}}])
        runner.run_pass()
    assert sylowlab.covering.min_cover is original
    assert runner.failures == []
    names = {s.name for s in t.spans}
    assert {"cli.main", "checks.handler", "setcover.min_cover",
            "lattice.subgroup_lattice", "tables.get_table", "group.chain"} <= names
    assert t.counts["lattice.subgroup_lattice.cold"] >= 1
    assert t.counts["setcover.min_cover.calls"] == 1
    assert all(s.request == 1 for s in t.spans)


def test_every_request_is_well_formed():
    for name, requests in workloads.WORKLOADS.items():
        assert requests, name
        for req in requests:
            assert req["argv"][0] in ("compute", "verify")
            assert "--cap" not in req["argv"] and "--parallel" not in req["argv"]
            assert "ok" in req["expect"] and req["route"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unknown_workload_is_refused():
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
