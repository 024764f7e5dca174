"""Command line interface: `sylowlab verify <check>` and `sylowlab compute`.

Reports are exact: every rational is serialized as a num/den pair and
group inputs are echoed back as generator lists in cycle notation.
Exit code 0 means every asserted bound held; any failed bound or
surfaced error gives exit code 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .actions import min_fpr_p_element, natural_action, coset_action, sylow_orbit_bound_check
from .catalog import CATALOG, construct, parse_group_expr
from .covering import sigma_lower_bound_check, sigma_p, sigma_p_cover
from .errors import ExprSyntaxError, InvalidConfig, SylowlabError
from .graphs import (
    BitGraph,
    max_noncommuting_set,
    noncommuting_graph,
    pr_pi,
    pr_times_clique_check,
    sigma_le_clique_check,
    turan_bound_check,
)
from .group import PermGroup
from .perm import Permutation
from .reports import SCHEMA_VERSION, CheckReport, encode_value
from .sylow import (
    nu_fpr_identity_check,
    nu_monotonicity_check,
    nu_p,
    nu_quotient_identity_check,
    p_solvable_divisibility_check,
    sylow_ratio_bound_check,
    sylow_ratio_gap_scan,
)
from .tables import check_prime

_CATALOG_BY_LABEL = {e.label: e for e in CATALOG}


def load_generator_file(path: str) -> PermGroup:
    """One cycle-notation permutation per line; `#` comments, blanks skipped."""
    cycles = []
    degree = 1
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            cycles.append(line)
            for m in re.finditer(r"[^\s,()]+", line):
                try:
                    degree = max(degree, int(m.group()))
                except ValueError:
                    raise ExprSyntaxError(
                        f"{path} line {lineno}: {m.group()!r} is not a point",
                        m.start()) from None
    return PermGroup(degree, [Permutation.from_cycles(c, degree) for c in cycles])


class GroupInput:
    """A resolved --group/--sub argument with its reproducibility echo."""

    __slots__ = ("text", "group", "entry")

    def __init__(self, text: str, cap: int | None):
        self.text = text
        self.entry = None
        if text.startswith("@"):
            self.group = load_generator_file(text[1:])
        elif text in _CATALOG_BY_LABEL:
            self.entry = _CATALOG_BY_LABEL[text]
            self.group = self.entry.build(cap)
        else:
            self.group = construct(parse_group_expr(text), cap)

    def exclusions_clear(self, p: int, forced: bool) -> bool:
        if forced:
            return True
        return self.entry is not None and self.entry.exclusions_clear(p)

    def echo(self) -> dict:
        return {
            "expr": self.text,
            "degree": self.group.degree,
            "order": self.group.order(),
            "generators": [x.cycle_string() for x in self.group.generators],
        }


def _parse_pi(text: str) -> frozenset[int]:
    out = set()
    for part in text.split(","):
        part = part.strip()
        if part:
            out.add(int(part))
    if not out:
        raise ValueError("empty prime set")
    return frozenset(out)


def _parse_bound(text: str) -> Fraction:
    return Fraction(text)


def _check_primes(options) -> None:
    """Reject a -p or --pi entry that is not a prime, before any work starts."""
    given = [options["p"]] if options.get("p") is not None else []
    given += sorted(options.get("pi") or ())
    for q in given:
        check_prime(q)


def _envelope(kind: str, name: str, options: dict) -> dict:
    """The head of every report: schema, ``check`` or ``quantity`` id, the
    echo of each resolved group input and the primes.  The caller adds
    ``ok`` and the results, or ``_failure``."""
    out = {"schema": SCHEMA_VERSION, kind: name}
    for key in ("group", "sub"):
        if options.get(key) is not None:
            out[key] = options[key].echo()
    if options.get("groups") is not None:
        out["groups"] = [g.echo() for g in options["groups"]]
    if options.get("p") is not None:
        out["primes"] = [options["p"]]
    elif options.get("pi") is not None:
        out["primes"] = sorted(options["pi"])
    return out


def _failure(err: Exception) -> dict:
    return {"ok": False, "error": {"type": type(err).__name__, "message": str(err)}}


# ---------------------------------------------------------------------------
# check registry

def _need(options, *names):
    missing = [n for n in names if options.get(n) is None]
    if missing:
        raise SystemExit(
            f"error: this check needs {', '.join('--' + n.replace('_', '-') for n in missing)}")


def _check_sylow_monotone(options) -> CheckReport:
    _need(options, "group", "sub", "p")
    return nu_monotonicity_check(
        options["group"].group, options["sub"].group, options["p"], options["cap"])


def _check_quotient_product(options) -> CheckReport:
    _need(options, "group", "sub", "p")
    return nu_quotient_identity_check(
        options["group"].group, options["sub"].group, options["p"], options["cap"])


def _check_fpr_identity(options) -> CheckReport:
    _need(options, "group", "sub", "p")
    return nu_fpr_identity_check(
        options["group"].group, options["sub"].group, options["p"], options["cap"])


def _check_ratio_bound(options) -> CheckReport:
    _need(options, "group", "sub", "p")
    g, p = options["group"], options["p"]
    return sylow_ratio_bound_check(
        g.group, options["sub"].group, p,
        exclusions_clear=g.exclusions_clear(p, options["refined"]),
        cap=options["cap"])


def _check_gap_scan(options) -> CheckReport:
    _need(options, "groups", "p", "bound")
    named = [(g.text, g.group) for g in options["groups"]]
    return sylow_ratio_gap_scan(named, options["p"], options["bound"], options["cap"])


def _check_p_solvable(options) -> CheckReport:
    _need(options, "group", "p")
    return p_solvable_divisibility_check(
        options["group"].group, options["p"], options["cap"])


def _check_orbit_bound(options) -> CheckReport:
    _need(options, "group", "p")
    g, p = options["group"], options["p"]
    action = natural_action(g.group)
    return sylow_orbit_bound_check(
        action, p,
        exclusions_clear=g.exclusions_clear(p, options["refined"]),
        cap=options["cap"])


def _check_covering_lower(options) -> CheckReport:
    _need(options, "group", "p")
    return sigma_lower_bound_check(options["group"].group, options["p"], options["cap"])


def _check_covering_clique(options) -> CheckReport:
    _need(options, "group", "p")
    return sigma_le_clique_check(options["group"].group, options["p"], options["cap"])


def _check_pr_clique(options) -> CheckReport:
    _need(options, "group", "pi")
    return pr_times_clique_check(options["group"].group, options["pi"], options["cap"])


def _check_turan(options) -> CheckReport:
    if options.get("edge_list"):
        with open(options["edge_list"]) as fh:
            graph = BitGraph.from_edge_list(fh.read())
    else:
        _need(options, "group", "pi")
        graph = noncommuting_graph(
            options["group"].group, options["pi"], options["cap"])
    return turan_bound_check(graph)


CHECKS = {
    "sylow-monotone": _check_sylow_monotone,
    "sylow-quotient-product": _check_quotient_product,
    "sylow-fpr-identity": _check_fpr_identity,
    "sylow-ratio-bound": _check_ratio_bound,
    "sylow-ratio-gap-scan": _check_gap_scan,
    "p-solvable-divisibility": _check_p_solvable,
    "sylow-orbit-bound": _check_orbit_bound,
    "covering-lower-bound": _check_covering_lower,
    "covering-clique-bound": _check_covering_clique,
    "probability-clique-product": _check_pr_clique,
    "clique-edge-bound": _check_turan,
}

# checks that consume the whole --group list in a single report
_LIST_CHECKS = frozenset({"sylow-ratio-gap-scan"})


def run_check(check: str, options: dict) -> dict:
    """Execute one registered check; errors become structured entries."""
    if check not in CHECKS:
        raise KeyError(f"unknown check {check!r}")
    out = _envelope("check", check, options)
    try:
        _check_primes(options)
        report = CHECKS[check](options)
    except (SylowlabError, OSError) as err:
        return out | _failure(err)
    return out | {
        "ok": report.ok,
        "details": encode_value(report.details),
        "notices": list(report.notices),
        "runtime_ms": report.runtime_ms,
    }


# ---------------------------------------------------------------------------
# compute subcommand

def _compute_nu(options) -> dict:
    _need(options, "group", "p")
    return {"value": nu_p(options["group"].group, options["p"], options["cap"])}


def _compute_sigma(options) -> dict:
    _need(options, "group", "p")
    size, members = sigma_p_cover(options["group"].group, options["p"], options["cap"])
    return {
        "value": "infinity" if size == float("inf") else size,
        "cover": [[x.cycle_string() for x in gens] for gens in members],
    }


def _compute_fpr(options) -> dict:
    _need(options, "group", "p")
    G = options["group"].group
    if options.get("sub") is not None:
        action = coset_action(G, options["sub"].group, options["cap"])
    else:
        action = natural_action(G)
    x, ratio = min_fpr_p_element(action, options["p"], options["cap"])
    return {"value": ratio, "element": x.cycle_string(), "degree": action.degree}


def _compute_clique(options) -> dict:
    _need(options, "group", "pi")
    clique = max_noncommuting_set(options["group"].group, options["pi"], options["cap"])
    return {"value": len(clique), "clique": [x.cycle_string() for x in clique]}


def _compute_pr(options) -> dict:
    _need(options, "group", "pi")
    return {"value": pr_pi(options["group"].group, options["pi"], options["cap"])}


QUANTITIES = {
    "nu": _compute_nu,
    "sigma": _compute_sigma,
    "fpr": _compute_fpr,
    "clique": _compute_clique,
    "pr": _compute_pr,
}


def run_compute(quantity: str, options: dict) -> dict:
    """Compute one registered quantity; errors become structured entries."""
    out = _envelope("quantity", quantity, options)
    try:
        _check_primes(options)
        return out | encode_value(QUANTITIES[quantity](options)) | {"ok": True}
    except SylowlabError as err:
        return out | _failure(err)


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylowlab",
        description="Exact verification of Sylow-number, fixed-point-ratio, "
                    "covering and noncommuting-graph bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", action="append", default=[],
                       help="group expression, catalog label, or @generator-file "
                            "(repeatable)")
        p.add_argument("--sub", help="subgroup expression (same forms as --group)")
        p.add_argument("-p", type=int, dest="p", help="prime")
        p.add_argument("--pi", type=_parse_pi, help="comma-separated prime set")
        p.add_argument("--json", dest="json_path",
                       help="write the JSON report to this path ('-' for stdout)")
        p.add_argument("--cap", type=int, help="override size caps")

    v = sub.add_parser("verify", help="run a registered bound check")
    v.add_argument("check", choices=sorted(CHECKS))
    common(v)
    v.add_argument("--bound", type=_parse_bound,
                   help="ratio bound NUM/DEN for the gap scan")
    v.add_argument("--refined", action="store_true",
                   help="assert the refined bound even without catalog metadata")
    v.add_argument("--edge-list", dest="edge_list",
                   help="edge list file for the clique-edge bound")

    c = sub.add_parser("compute", help="compute one exact quantity")
    c.add_argument("quantity", choices=sorted(QUANTITIES))
    common(c)
    return parser


def _pad_to_degree(H: PermGroup, degree: int) -> PermGroup:
    """Embed a group of smaller degree by fixing the extra points."""
    if H.degree == degree:
        return H
    tail = tuple(range(H.degree + 1, degree + 1))
    return PermGroup(degree, [Permutation(x.images + tail) for x in H.generators])


def _resolve_groups(args) -> dict:
    options = {
        "p": args.p,
        "pi": args.pi,
        "cap": args.cap,
        "refined": getattr(args, "refined", False),
        "bound": getattr(args, "bound", None),
        "edge_list": getattr(args, "edge_list", None),
        "group": None,
        "groups": None,
        "sub": None,
    }
    if args.cap is not None and args.cap <= 0:
        raise InvalidConfig(f"--cap must be a positive integer, got {args.cap}")
    groups = [GroupInput(text, args.cap) for text in args.group]
    if groups:
        options["group"] = groups[0]
        options["groups"] = groups
    if args.sub:
        sub = GroupInput(args.sub, args.cap)
        if groups and sub.group.degree < groups[0].group.degree:
            sub.group = _pad_to_degree(sub.group, groups[0].group.degree)
        options["sub"] = sub
    return options


def _emit(results: list[dict], json_path: str | None) -> None:
    payload = results[0] if len(results) == 1 else results
    text = json.dumps(payload, indent=2)
    if json_path and json_path != "-":
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _summarize(result: dict) -> str:
    if "error" in result:
        err = result["error"]
        return f"ERROR {err['type']}: {err['message']}"
    return "ok" if result["ok"] else "FAILED"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = _resolve_groups(args)
    except (ExprSyntaxError, SylowlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        key, name = (("check", args.check) if args.command == "verify"
                     else ("quantity", args.quantity))
        _emit([_envelope(key, name, {}) | _failure(err)], args.json_path)
        return 1

    run, name = ((run_check, args.check) if args.command == "verify"
                 else (run_compute, args.quantity))
    if name in _LIST_CHECKS:
        jobs = [dict(options, group=None)]
    else:
        # one report per group, in input order
        jobs = [dict(options, group=g, groups=None) for g in options["groups"] or [None]]
    results = [run(name, o) for o in jobs]

    _emit(results, args.json_path)
    ok = all(r.get("ok", False) for r in results)
    if args.json_path and args.json_path != "-":
        for r in results:
            label = r.get("group", {}).get("expr", "")
            print(f"{r.get('check', r.get('quantity'))} {label}: {_summarize(r)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
