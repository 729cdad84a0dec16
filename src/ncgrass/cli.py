"""Command-line entry point: verification suites, normal forms, JSON export.

Exit codes for ``verify``: 0 when every check is Verified, 1 when any check
Failed, 2 when some checks are Inconclusive and none Failed, 3 on usage
errors.  Output is deterministic for fixed inputs: timing data is never
serialized and every collection is emitted in a fixed order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import combinations, permutations

from . import atlas, exprparse, verify
from . import symbols as sy
from .fields import Field, field_by_key
from .poly import poly_str

FIELD_KEYS = ("rat", "q2", "q3", "q5", "q7")
SELECTORS = ("all", *verify.SUITES)
# selectors whose checks complete no rewriting system, so no bound applies
UNBOUNDED_SELECTORS = ("abelianization", "points")
EXPORT_TARGETS = ("charts", "overlaps", "transitions", "presheaf")
DEFAULT_BOUND = 10


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems exit 3, leaving 1 and 2 for verification outcomes
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _bound(args) -> int:
    if args.bound is not None:
        b = args.bound
    else:
        env = os.environ.get("NCGRASS_BOUND")
        if env:
            try:
                b = int(env)
            except ValueError:
                raise UsageError(f"NCGRASS_BOUND must be an integer, got {env!r}") from None
        else:
            b = DEFAULT_BOUND
    if b < 1:
        raise UsageError(f"bound must be positive, got {b}")
    return b


def _field(args) -> Field:
    return field_by_key(args.field)


def _parse_triple(text: str):
    parts = text.split(":")
    charts = []
    for part in parts:
        m = re.fullmatch(r"(\d+),(\d+)", part)
        if m is None:
            raise UsageError(f"bad triple {text!r}, expected e.g. 1,2:2,3:3,4")
        charts.append((int(m.group(1)), int(m.group(2))))
    if len(charts) != 3:
        raise UsageError(f"bad triple {text!r}, expected three charts")
    return tuple(charts)


def _presentation(name: str, field: Field):
    m = re.fullmatch(r"([RF])\((\d+),(\d+)\)", name)
    if m:
        lam = (int(m.group(2)), int(m.group(3)))
        try:
            return atlas.chart_presentation(lam, field, with_module=m.group(1) == "F")
        except ValueError as e:
            raise UsageError(str(e)) from None
    m = re.fullmatch(r"O\((\d+,\d+(?:\|\d+,\d+){1,2})\)", name)
    if m:
        charts = [tuple(map(int, c.split(","))) for c in m.group(1).split("|")]
        try:
            if len(charts) == 2:
                return atlas.pair_overlap(*charts, field).presentation
            return atlas.overlap_chain(charts, field).presentation
        except ValueError as e:
            raise UsageError(str(e)) from None
    raise UsageError(
        f"unknown presentation name {name!r}; use R(i,j), F(i,j), "
        "O(i,j|k,l), or O(i,j|k,l|m,n)"
    )


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _write_json(path: str, doc) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_text(doc))
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror or e}") from None


# ---------------------------------------------------------------------------
# verify


def _selected_report(args, bound: int, field: Field) -> verify.VerificationReport:
    sel = args.selector
    if args.triple is not None and sel != "cocycle":
        raise UsageError("--triple only applies to the cocycle selector")
    if sel == "points" and args.field != "rat":
        # point counts always run over F_2, F_3 and F_5
        raise UsageError("--field does not apply to the points selector")
    if sel == "all":
        return verify.run_all(bound=bound, field=field)
    if args.triple is not None:
        try:
            entries = verify.suite_cocycle(
                bound=bound, field=field, triples=[_parse_triple(args.triple)]
            )
        except ValueError as e:
            raise UsageError(str(e)) from None
    else:
        entries = verify.SUITES[sel](bound, field)
    return verify.VerificationReport(entries, bound, field.key)


def cmd_verify(args) -> int:
    if args.selector not in UNBOUNDED_SELECTORS:
        bound = _bound(args)
    elif args.bound is not None:
        raise UsageError(f"--bound does not apply to the {args.selector} selector")
    else:
        bound = DEFAULT_BOUND
    field = _field(args)
    report = _selected_report(args, bound, field)
    if not args.quiet:
        for r in report.results:
            print(f"{r.outcome:<22} {r.check_id}")
            if r.failed and r.witness:
                print(f"{'':<22} witness: {r.witness}")
    # the summary names only what ran; the JSON header keeps bound and field
    if args.selector == "points":
        scope = "fields " + ", ".join(f"q{q}" for q in verify.POINT_QS)
    elif args.selector in UNBOUNDED_SELECTORS:
        scope = f"field {field.key}"
    else:
        scope = f"bound {bound}, field {field.key}"
    c = report.counts()
    print(
        f"checked {c['total']}: {c['verified']} verified, {c['failed']} failed, "
        f"{c['inconclusive']} inconclusive ({scope})"
    )
    if args.json:
        _write_json(args.json, report.as_dict())
    return report.status


# ---------------------------------------------------------------------------
# normalform


def cmd_normalform(args) -> int:
    bound = _bound(args)
    field = _field(args)
    pres = _presentation(args.presentation, field)
    try:
        p = exprparse.parse_expr(args.expr, pres)
    except exprparse.ExprError as e:
        raise UsageError(str(e)) from None
    p = atlas.eliminate_module_vars(pres.base_chart, p)
    out = poly_str(pres.completed(bound).normal_form(p, bound))
    print(out)
    if args.json:
        _write_json(
            args.json,
            {
                "expression": args.expr,
                "presentation": pres.name,
                "bound": bound,
                "field": field.key,
                "normal_form": out,
            },
        )
    return 0


# ---------------------------------------------------------------------------
# export


def _generator_row(sid: int) -> dict:
    s = sy.sym(sid)
    return {
        "name": s.name,
        "kind": sy.kind_name(s.kind),
        "chart": list(s.chart) if s.chart is not None else None,
        "i": s.i,
        "j": s.j,
        "weight": s.weight,
    }


def _relation_rows(p) -> list:
    return [[p.field.to_str(c), [sy.sym_name(s) for s in w]] for w, c in p.sorted_terms()]


def _presentation_doc(pres) -> dict:
    return {
        "name": pres.name,
        "generators": [_generator_row(s) for s in pres.generators],
        "relations": [_relation_rows(r) for r in pres.relations],
    }


def _export_doc(what: str, field: Field):
    charts = atlas.all_charts()
    if what == "charts":
        return {"charts": [_presentation_doc(atlas.chart_presentation(c, field)) for c in charts]}
    if what == "overlaps":
        return {
            "overlaps": [
                _presentation_doc(atlas.pair_overlap(a, b, field).presentation)
                for a, b in combinations(charts, 2)
            ]
        }
    if what == "transitions":
        rows = []
        for a, b in permutations(charts, 2):
            pair = atlas.pair_overlap(a, b, field)
            images = {
                sy.sym_name(g): poly_str(pair.to_base.mapping[g]) for g in atlas.chart_entries(b)
            }
            rows.append(
                {"source": atlas.chart_name(a), "target": atlas.chart_name(b), "images": images}
            )
        return {"transitions": rows}
    ps = atlas.build_presheaf(field)
    order = lambda ix: (len(ix.charts), ix.charts)
    nodes = [
        {
            "name": ix.name,
            "charts": [sy.chart_label(c) for c in ix.charts],
            "presentation": ps.nodes[ix].name,
        }
        for ix in sorted(ps.nodes, key=order)
    ]
    edges = [
        {
            "source": src.name,
            "target": dst.name,
            "images": {sy.sym_name(g): poly_str(v) for g, v in hom.mapping.items()},
        }
        for (src, dst), hom in sorted(
            ps.restrictions.items(), key=lambda kv: (order(kv[0][0]), order(kv[0][1]))
        )
    ]
    return {"nodes": nodes, "restrictions": edges}


def cmd_export(args) -> int:
    field = _field(args)
    doc = _export_doc(args.what, field)
    sys.stdout.write(_json_text(doc))
    if args.json:
        _write_json(args.json, doc)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--field", choices=FIELD_KEYS, default="rat", help="coefficient field")
    common.add_argument("--json", metavar="PATH", help="also write a JSON document to PATH")
    bounded = _ArgumentParser(add_help=False)
    bounded.add_argument("--bound", type=int, default=None, help="truncation weight (default 10)")

    top = _ArgumentParser(prog="ncgrass", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    pv = sub.add_parser("verify", parents=[common, bounded], help="run a verification suite")
    pv.add_argument("selector", choices=SELECTORS)
    pv.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    pv.add_argument("--triple", metavar="T", help="one cocycle triple, e.g. 1,2:2,3:3,4")
    pv.set_defaults(func=cmd_verify)

    pn = sub.add_parser(
        "normalform", parents=[common, bounded], help="normal form of an expression"
    )
    pn.add_argument("expr")
    pn.add_argument(
        "--presentation",
        "-p",
        default="R(1,2)",
        help="context: R(i,j), F(i,j), O(i,j|k,l), O(i,j|k,l|m,n)",
    )
    pn.set_defaults(func=cmd_normalform)

    pe = sub.add_parser("export", parents=[common], help="print a JSON description")
    pe.add_argument("what", choices=EXPORT_TARGETS)
    pe.set_defaults(func=cmd_export)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"ncgrass: error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
