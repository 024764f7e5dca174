"""Command line interface: `sylowlab verify <check>` and `sylowlab compute`.

Reports are exact: every rational is serialized as a num/den pair and
group inputs are echoed back as generator lists in cycle notation.
Exit code 0 means every asserted bound held; any failed bound or
surfaced error gives exit code 1.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import config
from .actions import (coset_action, min_fpr_p_element, natural_action,
                      nu_fpr_identity_check, sylow_orbit_bound_check)
from .catalog import CATALOG_BY_LABEL, construct_text, parse_generators
from .covering import sigma_lower_bound_check, sigma_p_cover
from .errors import ExprSyntaxError, InvalidConfig
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
    nu_monotonicity_check,
    nu_p,
    nu_quotient_identity_check,
    p_solvable_divisibility_check,
    sylow_ratio_bound_check,
    sylow_ratio_gap_scan,
)
from .tables import check_prime


def load_generator_file(path: str) -> PermGroup:
    """One cycle-notation permutation per line; `#` comments, blanks skipped.
    A file without a permutation line is refused: the trivial group is
    written ``()``.  A bad line is refused at its file and line number
    (``catalog.parse_generators``)."""
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.append((line, f"{path} line {lineno}: ", 0))
    if not entries:
        raise ExprSyntaxError(f"{path}: no generators; write () for the trivial group", 0)
    return PermGroup(*parse_generators(entries))


class GroupInput:
    """A resolved --group/--sub argument with its reproducibility echo."""

    __slots__ = ("text", "group", "entry")

    def __init__(self, text: str):
        self.text = text
        self.entry = None
        if text.startswith("@"):
            self.group = load_generator_file(text[1:])
        elif text in CATALOG_BY_LABEL:
            self.entry = CATALOG_BY_LABEL[text]
            self.group = self.entry.build()
        else:
            self.group = construct_text(text)

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
    try:
        out = frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        out = frozenset()
    if not out:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated primes such as 2,3, got {text!r}")
    return out


def _parse_bound(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected NUM/DEN with a nonzero DEN, such as 1/3, got {text!r}") from None


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


def _message(err: Exception) -> str:
    """What ``err`` says, or its type name when it says nothing, as a bare
    ``MemoryError()`` does."""
    return str(err) or type(err).__name__


def _failure(err: Exception) -> dict:
    return {"ok": False, "error": {"type": type(err).__name__, "message": _message(err)}}


# ---------------------------------------------------------------------------
# the checks and quantities, each with the options it reads

# option name -> its flag; "groups" is the whole --group list in one report,
# where "group" gives one report per --group
_FLAGS = {"group": "--group", "groups": "--group", "sub": "--sub", "p": "-p",
          "pi": "--pi", "bound": "--bound", "refined": "--refined",
          "edge_list": "--edge-list"}


class _Entry(NamedTuple):
    """One check or quantity: its handler, the options it needs and the
    options it may also take; it refuses every other option.

    ``forms`` holds alternative sets of needed options: a request uses
    the first that any of its options belongs to, or else the last.
    """

    run: Callable[[dict], object]
    forms: tuple[tuple[str, ...], ...]
    may: tuple[str, ...]


def _entry(run, needs: str, may: str = "") -> _Entry:
    """``needs`` names options separated by spaces, and forms by ``|``."""
    return _Entry(run, tuple(tuple(f.split()) for f in needs.split("|")), tuple(may.split()))


def _library(fn, needs: str, key: str | None = None) -> _Entry:
    """An entry that passes its needed options, in order, to ``fn``; a
    quantity stores the result under ``key``."""
    names = needs.split()

    def run(options):
        args = [options[n].group if n in ("group", "sub") else options[n] for n in names]
        # through this module's binding of fn, so that a tracer that
        # rebinds it sees the call
        out = globals()[fn.__name__](*args)
        return out if key is None else {key: out}

    return _entry(run, needs)


def _check_ratio_bound(options) -> CheckReport:
    g, p = options["group"], options["p"]
    return sylow_ratio_bound_check(
        g.group, options["sub"].group, p,
        exclusions_clear=g.exclusions_clear(p, options["refined"]))


def _check_gap_scan(options) -> CheckReport:
    named = [(g.text, g.group) for g in options["groups"]]
    return sylow_ratio_gap_scan(named, options["p"], options["bound"])


def _check_orbit_bound(options) -> CheckReport:
    g, p = options["group"], options["p"]
    action = natural_action(g.group)
    return sylow_orbit_bound_check(
        action, p, exclusions_clear=g.exclusions_clear(p, options["refined"]))


def _check_turan(options) -> CheckReport:
    if "edge_list" in options:
        with open(options["edge_list"]) as fh:
            graph = BitGraph.from_edge_list(fh.read())
    else:
        graph = noncommuting_graph(options["group"].group, options["pi"])
    return turan_bound_check(graph)


def _compute_sigma(options) -> dict:
    size, members = sigma_p_cover(options["group"].group, options["p"])
    return {
        "value": size,
        "cover": [[x.cycle_string() for x in gens] for gens in members],
    }


def _compute_fpr(options) -> dict:
    G = options["group"].group
    if options["sub"] is not None:
        action = coset_action(G, options["sub"].group)
    else:
        action = natural_action(G)
    x, ratio = min_fpr_p_element(action, options["p"])
    return {"value": ratio, "element": x.cycle_string(), "degree": action.degree}


def _compute_clique(options) -> dict:
    clique = max_noncommuting_set(options["group"].group, options["pi"])
    return {"value": len(clique), "clique": [x.cycle_string() for x in clique]}


_ENTRIES = {
    "check": {
        "sylow-monotone": _library(nu_monotonicity_check, "group sub p"),
        "sylow-quotient-product": _library(nu_quotient_identity_check, "group sub p"),
        "sylow-fpr-identity": _library(nu_fpr_identity_check, "group sub p"),
        "sylow-ratio-bound": _entry(_check_ratio_bound, "group sub p", may="refined"),
        "sylow-ratio-gap-scan": _entry(_check_gap_scan, "groups p bound"),
        "p-solvable-divisibility": _library(p_solvable_divisibility_check, "group p"),
        "sylow-orbit-bound": _entry(_check_orbit_bound, "group p", may="refined"),
        "covering-lower-bound": _library(sigma_lower_bound_check, "group p"),
        "covering-clique-bound": _library(sigma_le_clique_check, "group p"),
        "probability-clique-product": _library(pr_times_clique_check, "group pi"),
        "clique-edge-bound": _entry(_check_turan, "edge_list | group pi"),
    },
    "quantity": {
        "nu": _library(nu_p, "group p", key="value"),
        "sigma": _entry(_compute_sigma, "group p"),
        "fpr": _entry(_compute_fpr, "group p", may="sub"),
        "clique": _entry(_compute_clique, "group pi"),
        "pr": _library(pr_pi, "group pi", key="value"),
    },
}

# the handlers, by id; a tracer may replace them
CHECKS = {name: e.run for name, e in _ENTRIES["check"].items()}
QUANTITIES = {name: e.run for name, e in _ENTRIES["quantity"].items()}


def _report(kind: str, name: str, options: dict) -> dict:
    """Run one check or quantity on resolved options; errors become
    structured entries.  An unknown id raises KeyError.

    Every exception, a library error or a failed internal assertion
    alike, becomes an ``error`` entry naming its type, never ``ok: true``
    or a traceback.

    A check's ``runtime_ms`` is the wall time of the whole handler call,
    its precondition work included.
    """
    run = (CHECKS if kind == "check" else QUANTITIES)[name]
    out = _envelope(kind, name, options)
    try:
        _check_primes(options)
        start = time.perf_counter()
        result = run(options)
        runtime_ms = int((time.perf_counter() - start) * 1000)
    except Exception as err:
        return out | _failure(err)
    if kind == "quantity":
        return out | encode_value(result) | {"ok": True}
    return out | {
        "ok": result.ok,
        "details": encode_value(result.details),
        "notices": list(result.notices),
        "runtime_ms": runtime_ms,
    }


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sylowlab",
        description="Exact verification of Sylow-number, fixed-point-ratio, "
                    "covering and noncommuting-graph bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", action="append",
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
    v.add_argument("--refined", action="store_true", default=None,
                   help="assert the refined bound even without catalog metadata")
    v.add_argument("--edge-list", dest="edge_list",
                   help="edge list file for the clique-edge bound")

    c = sub.add_parser("compute", help="compute one exact quantity")
    c.add_argument("quantity", choices=sorted(QUANTITIES))
    common(c)
    return parser


def _declared(parser, args) -> tuple[str, str, tuple[str, ...]]:
    """The kind and id of the requested entry and the options it reads,
    checked before any group is built: a missing option ends the run
    with ``error: this check needs ...``, an option the entry does not
    take with a usage error."""
    kind, name = (("check", args.check) if args.command == "verify"
                  else ("quantity", args.quantity))
    entry = _ENTRIES[kind][name]
    given = {flag for key, flag in _FLAGS.items() if getattr(args, key, None) is not None}
    form = next((f for f in entry.forms if given & {_FLAGS[n] for n in f}), entry.forms[-1])
    missing = [_FLAGS[n] for n in form if _FLAGS[n] not in given]
    if missing:
        raise SystemExit(f"error: this check needs {', '.join(missing)}")
    taken = {_FLAGS[n] for n in form + entry.may}
    unused = [f for f in dict.fromkeys(_FLAGS.values()) if f in given - taken]
    if unused:
        with_form = f" with {' '.join(_FLAGS[n] for n in form)}" if len(entry.forms) > 1 else ""
        parser.error(f"{args.command} {name} does not take {', '.join(unused)}{with_form}")
    return kind, name, form + entry.may


def _resolve(args, names) -> dict:
    """The options ``names``, each --group and --sub built, once --cap
    is known to be positive (``main`` has set it as ``config.override``)."""
    if args.cap is not None and args.cap <= 0:
        raise InvalidConfig(f"--cap must be a positive integer, got {args.cap}")
    options = {}
    for n in names:
        if n in ("group", "groups"):
            options[n] = [GroupInput(text) for text in args.group]
        elif n == "sub" and args.sub is not None:
            options[n] = GroupInput(args.sub)
        else:
            options[n] = getattr(args, n)
    return options


def _sub_for(sub: GroupInput | None, group: GroupInput) -> GroupInput | None:
    """``--sub`` embedded in the degree of the job's group by fixing the
    extra points."""
    if sub is None or sub.group.degree >= group.group.degree:
        return sub
    H, degree = sub.group, group.group.degree
    tail = tuple(range(H.degree + 1, degree + 1))
    padded = copy.copy(sub)
    padded.group = PermGroup(degree, [Permutation(x.images + tail) for x in H.generators])
    return padded


def _emit(results: list[dict], json_path: str | None) -> bool:
    """Print the reports, or write them to ``json_path``.

    Returns False, after an ``error:`` line on stderr, when the file
    cannot be written.
    """
    payload = results[0] if len(results) == 1 else results
    text = json.dumps(payload, indent=2)
    if json_path and json_path != "-":
        try:
            with open(json_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return False
    else:
        print(text)
        sys.stdout.flush()
    return True


def _summarize(result: dict) -> str:
    if "error" in result:
        err = result["error"]
        return f"ERROR {err['type']}: {err['message']}"
    return "ok" if result["ok"] else "FAILED"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --cap holds for this command only, so a later library call in the
    # same process reads SYLOWLAB_CAP or the defaults again
    saved, config.override = config.override, args.cap
    try:
        return _run(parser, args)
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head -1`): send what is still
        # buffered to devnull, so the interpreter's last flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        config.override = saved


def _run(parser, args) -> int:
    kind, name, names = _declared(parser, args)
    try:
        options = _resolve(args, names)
    except Exception as err:
        # as in ``_report``: every exception, a bad file or an exhausted
        # memory alike, ends in an error entry, never a traceback
        print(f"error: {_message(err)}", file=sys.stderr)
        _emit([_envelope(kind, name, {}) | _failure(err)], args.json_path)
        return 1

    if "group" in options:
        # one report per group, in input order
        jobs = [dict(options, group=g, sub=_sub_for(options.get("sub"), g))
                for g in options["group"]]
    else:
        jobs = [options]
    results = [_report(kind, name, o) for o in jobs]

    if not _emit(results, args.json_path):
        return 1
    ok = all(r.get("ok", False) for r in results)
    if args.json_path and args.json_path != "-":
        for r in results:
            label = r.get("group", {}).get("expr", "")
            print(f"{name} {label}: {_summarize(r)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
