"""Request lists of the two benchmark workloads, with frozen answers.

Each request is the argv of one `sylowlab` CLI call, the fields of its
JSON report that must match, and the route by which the frozen answer
was confirmed independently of the code path being timed
(`confirm.py` re-runs the sympy and networkx routes).

`expect` holds the checked report fields: `ok`, and `value` for
`compute` or a subset of `details` for `verify`.  A `details` key that
ends in `#` is compared against the length of the list it names.
Rationals are compared in the report's `{"num", "den"}` encoding.

Every request fits the default caps and uses neither `--cap` nor
`--parallel`.  Each workload has an odd number of requests, so that the
median latency of a pass falls on one request rather than between two.
"""

from __future__ import annotations


def frac(num: int, den: int) -> dict:
    return {"num": num, "den": den}


# The `catalog_upto(500)` labels, frozen so that a catalog change shows
# up as a changed answer rather than as a silently different workload.
CATALOG_500 = (
    "C2", "C3", "C4", "V4", "C5", "C6", "S3", "C7", "C8", "D8", "Q8", "E8",
    "C2xC4", "C2wrC2", "C9", "C3xC3", "D10", "C12", "D12", "A4",
    "Borel(2,4)", "D14", "F21", "S4", "SL(2,3)", "A4xC2", "C5xC5", "S3xS3",
    "Borel(2,8)", "A5", "SL(2,4)", "PSL(2,5)", "Borel(2,9)", "C3wrC3",
    "SL(2,5)", "S5", "PSL(2,7)", "A6",
)


def _catalog_args() -> list[str]:
    out = []
    for label in CATALOG_500:
        out += ["--group", label]
    return out


SYMPY_NU = "sympy 1.14: orbit of sympy's Sylow subgroup under conjugation by the generators"
SYMPY_CYCLIC_NU = "sympy 1.14: elements of order p / (p - 1), Sylow subgroup cyclic of order p"
SYMPY_FPR = "sympy 1.14: fewest fixed points over all p-power-order elements / degree"
SYMPY_PAIRS = "sympy 1.14: commuting ordered pairs of pi-elements, counted directly"
NX_CLIQUE = "networkx 3.6: clique number of the noncommuting graph built from sympy elements"
TESTS_SIGMA = "tests/test_covering.py TestSigmaFrozen"
COVER_ONLY = ("upper bound only: confirm.py checks with sympy that the returned cover "
              "covers every p-element; minimality rests on setcover.min_cover")
LIBRARY = "library output at the benchmark's first commit; no independent route"


# COVER: a few mid-size groups, each one large lattice and one set-cover
# instance.  setcover.min_cover does about half of the work, so a stronger
# covering bound shows here; the lattice and Cayley table take most of the rest.
COVER = [
    {"argv": ["compute", "sigma", "--group", "PSL(2,11)", "-p", "2"],
     "expect": {"ok": True, "value": 6}, "route": COVER_ONLY},
    {"argv": ["compute", "sigma", "--group", "A6", "-p", "2"],
     "expect": {"ok": True, "value": 9}, "route": TESTS_SIGMA},
    {"argv": ["compute", "sigma", "--group", "A6", "-p", "3"],
     "expect": {"ok": True, "value": 7}, "route": TESTS_SIGMA},
    {"argv": ["compute", "sigma", "--group", "PSL(2,7)", "-p", "3"],
     "expect": {"ok": True, "value": 7}, "route": COVER_ONLY},
    {"argv": ["verify", "covering-lower-bound", "--group", "PSL(2,7)", "-p", "2"],
     "expect": {"ok": True, "details": {"sigma": 7, "lower_bound": 3, "attained": False}},
     "route": COVER_ONLY},
]

# SYLOW: groups above the lattice cap, so no table, lattice or set cover
# runs; element enumeration, the brute normalizer, Sylow growth and
# conjugacy classes do all of the work.
SYLOW = [
    {"argv": ["compute", "nu", "--group", "A9", "-p", "2"],
     "expect": {"ok": True, "value": 2835}, "route": SYMPY_NU},
    {"argv": ["compute", "nu", "--group", "A8", "-p", "2"],
     "expect": {"ok": True, "value": 315}, "route": SYMPY_NU},
    {"argv": ["compute", "nu", "--group", "A8", "-p", "3"],
     "expect": {"ok": True, "value": 280}, "route": SYMPY_NU},
    {"argv": ["compute", "nu", "--group", "A8", "-p", "5"],
     "expect": {"ok": True, "value": 336}, "route": SYMPY_CYCLIC_NU},
    {"argv": ["compute", "nu", "--group", "A8", "-p", "7"],
     "expect": {"ok": True, "value": 960}, "route": SYMPY_CYCLIC_NU},
    {"argv": ["compute", "fpr", "--group", "A8", "-p", "5"],
     "expect": {"ok": True, "value": frac(3, 8)}, "route": SYMPY_FPR},
    {"argv": ["verify", "sylow-orbit-bound", "--group", "A9", "-p", "3"],
     "expect": {"ok": True, "details": {"sylow_order": 81, "orbits": 1,
                                        "bound": frac(27, 5),
                                        "refined_bound_holds": True}},
     "route": "sympy 1.14: Sylow 3-subgroup order and its orbits on 9 points"},
    {"argv": ["verify", "sylow-monotone", "--group", "A8", "--sub", "A7", "-p", "3"],
     "expect": {"ok": True, "details": {"nu_G": 280, "nu_H": 70}}, "route": SYMPY_NU},
    {"argv": ["verify", "sylow-ratio-bound", "--group", "A8", "--sub", "A7", "-p", "5"],
     "expect": {"ok": True, "details": {"nu_G": 336, "nu_H": 126, "ratio": frac(3, 8)}},
     "route": SYMPY_CYCLIC_NU},
]

# GRAPH: noncommuting graphs on degree-6/7 groups and PSL(2,11).  The
# O(V^2) commutation sweep in graphs.noncommuting_graph and
# cliques.max_clique dominate; no other list has either layer above a few
# percent.  The probability-clique-product check builds its graph twice.
GRAPH = [
    {"argv": ["compute", "clique", "--group", "S7", "--pi", "2"],
     "expect": {"ok": True, "value": 315}, "route": LIBRARY},
    {"argv": ["compute", "pr", "--group", "A7", "--pi", "2"],
     "expect": {"ok": True, "value": frac(617, 67712)}, "route": SYMPY_PAIRS},
    {"argv": ["verify", "probability-clique-product", "--group", "PSL(2,11)", "--pi", "2,3"],
     "expect": {"ok": True, "details": {"probability": frac(47, 1587),
                                        "clique_number": 55,
                                        "product": frac(2585, 1587)}},
     "route": SYMPY_PAIRS + " (probability); " + NX_CLIQUE + " (clique number)"},
    {"argv": ["compute", "pr", "--group", "S7", "--pi", "3"],
     "expect": {"ok": True, "value": frac(529, 13689)}, "route": SYMPY_PAIRS},
    {"argv": ["compute", "clique", "--group", "PSL(2,11)", "--pi", "5"],
     "expect": {"ok": True, "value": 66}, "route": NX_CLIQUE},
    {"argv": ["compute", "clique", "--group", "A6", "--pi", "2,3"],
     "expect": {"ok": True, "value": 55}, "route": NX_CLIQUE},
]

# SCAN: many small lattices, each queried many times through
# CayleyTable.sylow_count_in.  It runs no set cover and no graph layer, so
# a table or lattice change that helps COVER but costs this shows in its
# requests' latencies and in the per-layer numbers.
SCAN = [
    {"argv": ["verify", "sylow-ratio-gap-scan", *_catalog_args(), "-p", "2", "--bound", "1/3"],
     "expect": {"ok": False, "details": {"groups_scanned": 38, "violations#": 40}},
     "route": LIBRARY},
    {"argv": ["verify", "sylow-ratio-gap-scan", *_catalog_args(), "-p", "3", "--bound", "1/4"],
     "expect": {"ok": False, "details": {"groups_scanned": 38, "violations#": 90}},
     "route": LIBRARY},
    {"argv": ["verify", "p-solvable-divisibility", "--group", "C2 wr C2 wr C2", "-p", "2"],
     "expect": {"ok": True, "details": {"nu_G": 1, "subgroups_checked": 575,
                                        "divisibility_failures#": 0}},
     "route": LIBRARY + " (subgroup count); nu_G: " + SYMPY_NU},
    {"argv": ["verify", "p-solvable-divisibility", "--group", "S4 x S3", "-p", "2"],
     "expect": {"ok": True, "details": {"nu_G": 9, "subgroups_checked": 371,
                                        "divisibility_failures#": 0}},
     "route": LIBRARY + " (subgroup count); nu_G: " + SYMPY_NU},
    {"argv": ["verify", "sylow-fpr-identity", "--group", "A6",
              "--sub", "[(1 2 3 4 5),(1 2)(3 4)]", "-p", "5"],
     "expect": {"ok": True, "details": {"nu_H": 6, "nu_G": 36,
                                        "sylow_ratio": frac(1, 6),
                                        "fixed_point_ratio": frac(1, 6)}},
     "route": SYMPY_CYCLIC_NU},
]

# A covering number and a clique number of one group: it runs the set
# cover, so it belongs with COVER and keeps the lattice layers out of
# GRAPH.
COVER_CLIQUE = [
    {"argv": ["verify", "covering-clique-bound", "--group", "A6", "-p", "2"],
     "expect": {"ok": True, "details": {"sigma": 9, "clique_number": 45,
                                        "witness_covers": True}},
     "route": TESTS_SIGMA + " (sigma); " + NX_CLIQUE + " (clique number)"},
]

# Two workloads, so that each run can be long enough to average over the
# speed changes of a shared host.  "lattice" runs every request that builds
# a Cayley table or a subgroup lattice; "elements" runs none of them and
# works from element lists only, so a change to the table, lattice or
# set-cover layers should leave it unchanged.
WORKLOADS = {
    "lattice": COVER + SCAN + COVER_CLIQUE,
    "elements": SYLOW + GRAPH,
}

# Requests left out because they would make a pass too long to repeat
# within one run.  The first two belong in "lattice" once the covering
# search finishes on them quickly; the rest repeat the work of a request
# that stays in the same workload.  Times are single runs on a 2-core
# machine with Python 3.11.7.
EXCLUDED = [
    {"argv": ["compute", "sigma", "--group", "SL(2,8)", "-p", "2"],
     "measured_s": 362, "note": "min_cover alone about 376 s in a separate run"},
    {"argv": ["compute", "sigma", "--group", "PSL(2,13)", "-p", "2"],
     "measured_s": None, "note": "did not finish in 6 min"},
    {"argv": ["compute", "sigma", "--group", "PSL(2,11)", "-p", "5"],
     "measured_s": 4.1, "note": "same weak covering bound as p=2, which stays"},
    {"argv": ["verify", "covering-lower-bound", "--group", "A6", "-p", "2"],
     "measured_s": 0.75, "note": "same computation as compute sigma on A6 at p=2"},
    *({"argv": ["compute", "nu", "--group", "A9", "-p", p], "measured_s": t,
       "note": "same enumeration and normalizer work as p=2, which stays"}
      for p, t in (("3", 2.6), ("5", 2.4), ("7", 2.3))),
    {"argv": ["compute", "fpr", "--group", "A9", "-p", "7"],
     "measured_s": 2.8, "note": "A8 at p=5 stays"},
    {"argv": ["verify", "probability-clique-product", "--group", "A7", "--pi", "2,3"],
     "measured_s": 8.4, "note": "6.1 s to 8.4 s in a quick repeat; the same check "
                                "on PSL(2,11) stays"},
    {"argv": ["verify", "sylow-ratio-gap-scan", "--group", "S6", "-p", "2", "--bound", "1/3"],
     "measured_s": 4.6, "note": "one large lattice; the catalog scans stay"},
]


def check_report(report, expect: dict) -> list[str]:
    """Mismatches between a parsed JSON report and its frozen answer."""
    if not isinstance(report, dict):
        return [f"expected one report object, got {type(report).__name__}"]
    problems = []
    if "error" in report:
        problems.append(f"unexpected error {report['error']}")
    for key in ("ok", "value"):
        if key in expect and report.get(key) != expect[key]:
            problems.append(f"{key}: {report.get(key)!r} != {expect[key]!r}")
    details = report.get("details")
    for key, want in expect.get("details", {}).items():
        if not isinstance(details, dict):
            problems.append("report has no details")
            break
        if key.endswith("#"):
            got = details.get(key[:-1])
            got = len(got) if isinstance(got, list) else got
        else:
            got = details.get(key)
        if got != want:
            problems.append(f"details.{key}: {got!r} != {want!r}")
    return problems
