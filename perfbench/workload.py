"""One workload in its own single-threaded process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --workload NAME --seed N --setup-only

The parent passes its clock reading at spawn time in PERFBENCH_SPAWNED, so
set-up time runs from process start until the package is imported and the
inputs are built (without it, from the start of this module). Prints one
JSON line on standard output.

Untraced (--trace 0): cold passes until --seconds of pass time have run; each
pass is timed from its first call into the package to its last verdict, and
checked against the known answers afterwards.

Traced (--trace 1): traced pass A, untraced pass U, traced pass B, each from
cold caches, then the CLI command in-process under a separate tracer. Pass A
is the first in a fresh process, so every per-layer count of B must equal
A's; that proves the cold-start helper empties every cache. Layer times come
from B, and the tracing overhead is B's wall time minus U's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

STARTED = time.monotonic()

import workloads as wl  # noqa: E402
from layertrace import Tracer  # noqa: E402

RUNGS = (0, 4, 6, 8, 10, 12)
SUITES = (
    "proposition",
    "lemma",
    "cocycle",
    "module_gluing",
    "abelianization",
    "functoriality",
    "points",
)


def timed_pass(workload, inputs, tracer=None):
    wl.cold_start()
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        outcome = workload.run_pass(inputs)
        elapsed = time.perf_counter() - t0
    return outcome, elapsed


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(tracer: Tracer, results) -> dict:
    """The per-layer numbers of one traced pass."""
    span, count = tracer.span, tracer.counts
    completed = span("atlas.completed").calls
    computed = count["atlas.completed.computed"]
    rungs = wl.rung_counts(results)
    m = {
        "rewrite.complete.calls": span("rewrite.complete").calls,
        "rewrite.complete.s": span("rewrite.complete").total_s,
        "rewrite.complete.max_s": span("rewrite.complete").max_s,
        "rewrite.complete.rules_out": count["rewrite.complete.rules_out"],
        "rewrite.normal_form.calls": span("rewrite.normal_form").calls,
        "rewrite.normal_form.self_s": span("rewrite.normal_form").self_s,
        "atlas.build.calls": span("atlas.build").calls,
        "atlas.build.s": span("atlas.build").self_s,
        "atlas.completed.calls": completed,
        "atlas.completed.hit_ratio": 1 - computed / completed if completed else 0.0,
    }
    for suite in SUITES:
        m[f"verify.suite.{suite}.s"] = span(f"verify.suite.{suite}").total_s
    for rung in RUNGS:
        m[f"verify.rung.{rung}"] = rungs.get(rung, 0)
    m.update(
        {
            "verify.certify.calls": span("verify.certify").calls,
            "verify.certify.s": span("verify.certify").self_s,
            "poly.hom_apply.calls": span("poly.hom_apply").calls,
            "poly.hom_apply.s": span("poly.hom_apply").self_s,
            "fields.qq_ops": count["fields.qq_ops"],
            "fields.gf_ops": count["fields.gf_ops"],
            "points.glue_count.s": span("points.glue_count").total_s,
            "points.roundtrip.s": span("points.roundtrip").total_s,
            "points.oracle.s": span("points.oracle").total_s,
            "points.transport.calls": count["points.transport"],
        }
    )
    return m


def run_metrics(cli_tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """The per-layer numbers of a traced run that do not belong to one pass."""
    return {
        "cli.self_s": cli_tracer.span("cli.main").self_s,
        "trace.verdict_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }


def run_cli_inprocess(workload, out_path: str):
    """The workload's CLI command through ``ncgrass.cli.main``, in this process."""
    from ncgrass import cli

    args = [a.replace("{json}", out_path) for a in workload.cli_args]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    text = None
    if "{json}" in workload.cli_args and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
    return code, stdout.getvalue(), text


def untraced(workload, inputs, seconds: float) -> dict:
    times, attempted, wrong = [], 0, 0
    while sum(times) < seconds:
        outcome, elapsed = timed_pass(workload, inputs)
        if not times:
            # the high-water mark after one pass, so that it does not depend
            # on how many passes fit in the run
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times.append(elapsed)
        a, w = workload.check(outcome)
        attempted, wrong = attempted + a, wrong + w
    return {
        "verdict_s": times,
        "peak_rss_mb": rss_kib / 1024,
        "attempted": attempted,
        "wrong": wrong,
    }


def traced(workload, inputs, scratch: str) -> dict:
    attempted = wrong = 0
    layers = []
    times = {}
    for label, tracer in (("A", Tracer()), ("U", None), ("B", Tracer())):
        outcome, times[label] = timed_pass(workload, inputs, tracer)
        a, w = workload.check(outcome)
        attempted, wrong = attempted + a, wrong + w
        if tracer is not None:
            layers.append((tracer, layer_metrics(tracer, workload.results(outcome))))
    (tracer_a, first), (tracer_b, metrics) = layers
    mismatched = sorted(
        k for k, v in first.items() if isinstance(v, int) and v != metrics[k]
    )

    wl.cold_start()
    cli_tracer = Tracer()
    with cli_tracer:
        code, stdout, text = run_cli_inprocess(workload, os.path.join(scratch, "cli.json"))
    a, w = workload.check_cli(code, stdout, text)
    attempted, wrong = attempted + a, wrong + w
    metrics.update(run_metrics(cli_tracer, times["B"], times["U"]))
    missing = sorted(tracer_a.missing | tracer_b.missing | cli_tracer.missing)
    return {
        "layers": metrics,
        "attempted": attempted,
        "wrong": wrong,
        "unstable_counts": mismatched,
        "missing_probes": missing,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", default=".", help="directory for CLI output files")
    args = ap.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - float(os.environ.get("PERFBENCH_SPAWNED", STARTED))
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if args.trace:
            result.update(traced(workload, inputs, args.scratch))
        else:
            result.update(untraced(workload, inputs, args.seconds))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
