"""Command-line surface.

Subcommands: `zoo` (list/build the named constructions), `profile`
(fundamental parameters), `design` (design verification for one weight
class), `criteria` (predictive oracles), and `reproduce` (the named
verification suites).  Reports are canonical JSON -- keys sorted, exact
integers and rationals only -- so identical inputs produce byte-identical
output; wall time goes to stderr, never into the report.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage
or malformed input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time

from . import criteria as CR
from . import designs as D
from . import linear as L
from . import suites as S
from . import zoo as Z
from .errors import CapacityError, ParameterError, ParseError, RankError

_PARAM_FLAGS = ("q", "m", "k", "n")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _manifest(args_ns, results) -> dict:
    digest = hashlib.sha256(_canonical(results).encode()).hexdigest()
    params = {k: v for k, v in sorted(vars(args_ns).items())
              if k not in ("func", "out", "format", "threads") and v is not None}
    return {
        "command": args_ns.command,
        "parameters": params,
        "determinism": "pure function of the inputs; no randomness",
        "results_digest": digest,
        "schema_version": 1,
    }


def _emit(args_ns, results, rows_for_csv=None) -> None:
    report = {"manifest": _manifest(args_ns, results), "results": results}
    if getattr(args_ns, "format", "json") == "csv":
        rows = rows_for_csv if rows_for_csv is not None else _flatten(results)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows((k, str(v)) for k, v in rows)
        text = buf.getvalue()
    else:
        text = _canonical(report)
    out = getattr(args_ns, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple, str))
                                              for v in obj):
        obj = dict(enumerate(obj))  # keyed by index; a list of numbers is space-joined
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix.rstrip("."), " ".join(str(v) for v in obj)))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _zoo_params(args_ns) -> dict:
    return {p: getattr(args_ns, p) for p in _PARAM_FLAGS
            if getattr(args_ns, p, None) is not None}


def _load_code(args_ns) -> L.LinearCode:
    if getattr(args_ns, "zoo", None):
        return Z.zoo_build(args_ns.zoo, **_zoo_params(args_ns))
    if getattr(args_ns, "file", None):
        return L.load_generator(args_ns.file)
    raise ParameterError("supply --zoo ID or --file PATH")


def _add_source_args(sp):
    sp.add_argument("--zoo", help="zoo id (see `qdesign zoo list`)")
    sp.add_argument("--file", help="generator matrix text file")
    for p in _PARAM_FLAGS:
        sp.add_argument(f"--{p}", type=int, help=f"zoo parameter {p}")
    sp.add_argument("--out", help="write the report to a file")
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def cmd_zoo(args_ns) -> int:
    if args_ns.action == "list":
        rows = [{"id": e.key, "parameters": list(e.params),
                 "transitivity": e.transitivity, "summary": e.summary}
                for e in Z.ZOO.values()]
        _emit(args_ns, {"zoo": rows},
              rows_for_csv=[(r["id"], r["summary"]) for r in rows])
        return 0
    code = Z.zoo_build(args_ns.id, **_zoo_params(args_ns))
    L.save_generator(code, args_ns.out)
    sys.stderr.write(f"wrote {code!r} to {args_ns.out}\n")
    return 0


def cmd_profile(args_ns) -> int:
    code = _load_code(args_ns)
    prof = L.code_profile(code, compute_rho=args_ns.rho, threads=args_ns.threads)
    _emit(args_ns, {"code": repr(code), "profile": prof.to_dict()})
    return 0


def cmd_design(args_ns) -> int:
    # usage errors exit before the family is built
    t = args_ns.t
    if args_ns.fixed_coords:
        if t is None:
            raise ParameterError("--fixed-coords needs --t")
        flagged = Z.zoo_transitivity(args_ns.zoo)  # None without --zoo
        asserted = args_ns.assert_transitive or flagged or 0
        if asserted < t:
            raise ParameterError(
                f"--fixed-coords requires asserted transitivity >= {t}; this code "
                f"carries {flagged!r}; override with --assert-transitive")
    elif not args_ns.max_strength and t is None:
        raise ParameterError("supply --t T or --max-strength")
    if args_ns.zoo:
        fam = Z.zoo_family(args_ns.zoo, args_ns.weight, **_zoo_params(args_ns))
    else:
        fam = D.family_from_code(_load_code(args_ns), args_ns.weight)
    provisos = []
    checks = []
    strengths = None
    ok = True

    if args_ns.fixed_coords:
        chk = D.fixed_support_index(fam, t, tuple(range(t)))
        checks.append(chk)
        ok &= chk.ok
        provisos.append(
            f"design conclusion at t={t} relies on {asserted}-transitivity of the "
            "automorphism group, an asserted input")
    elif args_ns.max_strength:
        strengths = D.max_strengths(fam, want_witness=True)
    else:
        if args_ns.classical:
            chk = D.classical_design_index(fam, t)
        else:
            chk = D.qary_design_index(fam, t)
        checks.append(chk)
        ok &= chk.ok

    _emit(args_ns, D.design_report(fam, checks, strengths, provisos))
    return 0 if ok else 1


def cmd_criteria(args_ns) -> int:
    code = _load_code(args_ns)
    _emit(args_ns, CR.criteria_bundle(code, compute_rho=not args_ns.no_rho,
                                      threads=args_ns.threads))
    return 0


def cmd_reproduce(args_ns) -> int:
    names = list(S.SUITES) if args_ns.suite == "all" else [args_ns.suite]
    claims = []
    for name in names:
        t0 = time.monotonic()
        part = S.SUITES[name](threads=args_ns.threads, heavy=args_ns.heavy)
        for c in part:
            sys.stdout.write(c.line() + "\n")
        sys.stdout.flush()
        sys.stderr.write(f"[{name}] {len(part)} claims in "
                         f"{time.monotonic() - t0:.1f}s\n")
        claims.extend(part)
    report = S.suite_report(args_ns.suite, claims)
    counts = report["summary"]
    sys.stdout.write(f"summary: {counts['PASS']} passed, {counts['FAIL']} failed, "
                     f"{counts['SKIP']} skipped\n")
    if args_ns.out:
        _emit(args_ns, report, rows_for_csv=[(c.claim_id, c.status) for c in claims])
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdesign",
        description="exact verification of q-ary and classical designs in linear codes")
    ap.add_argument("--threads", type=int, default=S.default_threads(),
                    help="worker threads for heavy enumeration "
                         "(default: QDESIGN_THREADS, else all cores)")
    sub = ap.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zoo", help="list or build the named code constructions")
    zsub = z.add_subparsers(dest="action", required=True)
    zl = zsub.add_parser("list")
    zl.add_argument("--out")
    zl.add_argument("--format", choices=("json", "csv"), default="json")
    zl.set_defaults(func=cmd_zoo)
    zb = zsub.add_parser("build")
    zb.add_argument("id")
    for p in _PARAM_FLAGS:
        zb.add_argument(f"--{p}", type=int)
    zb.add_argument("--out", required=True)
    zb.set_defaults(func=cmd_zoo)

    pr = sub.add_parser("profile", help="fundamental parameters of a code")
    _add_source_args(pr)
    pr.add_argument("--rho", action="store_true",
                    help="compute the exact covering radius (syndrome sweep)")
    pr.set_defaults(func=cmd_profile)

    de = sub.add_parser("design", help="verify design properties of one weight class")
    _add_source_args(de)
    de.add_argument("--weight", type=int, required=True)
    de.add_argument("--t", type=int)
    de.add_argument("--max-strength", action="store_true")
    de.add_argument("--classical", action="store_true",
                    help="check the support design instead of the q-ary design")
    de.add_argument("--fixed-coords", action="store_true",
                    help="count only on the first t coordinates (needs transitivity)")
    de.add_argument("--assert-transitive", type=int,
                    help="assert t-transitivity of the automorphism group")
    de.set_defaults(func=cmd_design)

    cr = sub.add_parser("criteria", help="run the predictive criteria on a code")
    _add_source_args(cr)
    cr.add_argument("--no-rho", action="store_true",
                    help="skip the covering-radius-based perfect test")
    cr.set_defaults(func=cmd_criteria)

    rp = sub.add_parser("reproduce", help="run a named verification suite")
    rp.add_argument("suite", choices=sorted(S.SUITES) + ["all"])
    rp.add_argument("--heavy", action="store_true",
                    help="include full-enumeration cross-checks")
    rp.add_argument("--out")
    rp.add_argument("--format", choices=("json", "csv"), default="json")
    rp.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        # inside the try: the --threads default reads QDESIGN_THREADS
        args_ns = build_parser().parse_args(argv)
        if args_ns.threads < 0:
            raise ParameterError(f"--threads {args_ns.threads} is not a non-negative integer")
        rc = args_ns.func(args_ns)
    except (ParameterError, ParseError, RankError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CapacityError as exc:
        sys.stderr.write(f"capacity: {exc}\n")
        return 2
    sys.stderr.write(f"elapsed {time.monotonic() - started:.2f}s\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
