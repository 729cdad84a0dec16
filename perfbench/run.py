"""Benchmark entry point for ncgrass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Runs from the root of a source checkout; the package is imported from
``src/``. Each workload runs in its own process with PYTHONHASHSEED set to the
seed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the spread of the pass times. ``attempted`` counts
verdicts and ``failed`` counts verdicts that contradict the known answers.

With --trace 0 the metrics are the end-to-end ones:
  setup_s      median over 7 processes of the time from process start until
               the package is imported and the inputs are built
  verdict_s    median wall time of one cold pass
  peak_rss_mb  maximum resident set size of the workload process after its
               first pass
  cli_s        median wall time of the workload's CLI command as a subprocess,
               run at least twice and until 8 s have passed
With --trace 1 they are the per-layer ones (see workload.py).

``--workload all`` runs every workload and prints each metric as a table row.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from workload import layer_unit  # noqa: E402

SETUP_PROCESSES = 7
CLI_SECONDS = 8.0
DEADLINE_S = 175.0
UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MiB", "cli_s": "s"}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            )
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: int, started: float):
        self.workload = wl.WORKLOADS[workload]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.deadline = started + DEADLINE_S
        self.scratch = ROOT / ".bench_build" / "perfbench" / f"{workload}-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED=str(seed % 2**32),
        )

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def _child(self, *extra) -> dict:
        argv = [
            sys.executable, str(HERE / "workload.py"),
            "--workload", self.workload.name, "--seed", str(self.seed), *extra,
        ]
        env = dict(self.env, PERFBENCH_SPAWNED=repr(time.monotonic()))
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=self._remaining()
        )
        if proc.returncode != 0:
            raise BenchError(f"workload process failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _cli(self) -> tuple[list, int, int]:
        """Run the CLI command at least twice and until CLI_SECONDS have
        passed; every run is checked."""
        out = self.scratch / "cli.json"
        args = [a.replace("{json}", str(out)) for a in self.workload.cli_args]
        times, attempted, wrong = [], 0, 0
        while len(times) < 2 or sum(times) < CLI_SECONDS:
            out.unlink(missing_ok=True)
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "ncgrass.cli", *args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=self._remaining(),
            )
            times.append(time.monotonic() - t0)
            text = out.read_text("utf-8") if out.exists() else None
            a, w = self.workload.check_cli(proc.returncode, proc.stdout, text)
            attempted, wrong = attempted + a, wrong + w
        return times, attempted, wrong

    def run(self) -> dict:
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            return self._traced() if self.trace else self._untraced()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def _untraced(self) -> dict:
        setups = [
            self._child("--setup-only")["setup_s"] for _ in range(SETUP_PROCESSES - 1)
        ]
        main = self._child("--seconds", str(self.seconds), "--trace", "0")
        setups.append(main["setup_s"])
        cli_times, cli_attempted, cli_wrong = self._cli()
        samples = {"setup_s": setups, "verdict_s": main["verdict_s"], "cli_s": cli_times}
        for name, xs in samples.items():
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
            print(
                f"# {name} n={len(xs)} median={statistics.median(xs):.4f} "
                f"q1={q[0]:.4f} q3={q[2]:.4f} min={min(xs):.4f} max={max(xs):.4f}"
            )
        failed = main["wrong"] + cli_wrong
        values = {name: statistics.median(xs) for name, xs in samples.items()}
        values["peak_rss_mb"] = main["peak_rss_mb"]
        return {
            "correct": failed == 0,
            "attempted": main["attempted"] + cli_attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        }

    def _traced(self) -> dict:
        main = self._child("--trace", "1", "--scratch", str(self.scratch))
        if main["missing_probes"]:
            print(f"warning: probes not found: {main['missing_probes']}", file=sys.stderr)
        if main["unstable_counts"]:
            print(
                f"per-layer counts differ between cold passes: {main['unstable_counts']}",
                file=sys.stderr,
            )
        return {
            "correct": main["wrong"] == 0 and not main["unstable_counts"],
            "attempted": main["attempted"],
            "failed": main["wrong"],
            "metrics": {
                k: {"value": v, "unit": layer_unit(k)} for k, v in main["layers"].items()
            },
        }


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description="ncgrass benchmark")
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ncgrass" / "__init__.py").is_file():
        print(f"error: no ncgrass sources under {SRC}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        start = started if args.workload != "all" else time.monotonic()
        try:
            results[name] = Runner(name, args.seed, args.seconds, args.trace, start).run()
        except (BenchError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1

    if args.workload != "all":
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"{name:<16} {'verdicts':<32} {res['attempted']} count")
        print(f"{name:<16} {'wrong_verdicts':<32} {res['failed']} count")
        for metric, m in res["metrics"].items():
            print(f"{name:<16} {metric:<32} {m['value']:.6g} {m['unit']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
