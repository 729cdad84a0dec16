"""Record the known answers the benchmark checks against, into ``data/``.

The files in ``data/`` were recorded at commit 5819cee, where every answer
was checked by hand against the acceptance tests: 560/560 Verified at bound
10, 378/76/14 Verified/Failed/Inconclusive over the 18 sign mutants at bound
12, and 6/6 Verified point checks. Re-recording after a change would hide any
verdict the change broke, so run this only to add a new known answer:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def _cli(args) -> tuple[str, str]:
    out = HERE.parent / ".bench_build" / "perfbench" / "record.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = [a.replace("{json}", str(out)) for a in args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ncgrass.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False, timeout=600,
    )
    text = out.read_text("utf-8") if "{json}" in args else ""
    out.unlink(missing_ok=True)
    return proc.stdout, text


def main() -> int:
    wl.DATA.mkdir(exist_ok=True)
    va = wl.WORKLOADS["verify_all"]
    wl.cold_start()
    va.known.write_text(wl.render(va.run_pass(va.setup(0)).as_dict()), "utf-8")

    ms = wl.WORKLOADS["mutation_sweep"]
    wl.cold_start()
    outcome = ms.run_pass(ms.setup(0))
    stdout, _ = _cli(ms.cli_args)
    doc = {
        "bound": wl.MUTATION_BOUND,
        "cli_normal_form": stdout.rstrip("\n"),
        "mutants": {
            wl.site_key(site): [[r.check_id, r.outcome] for r in entries]
            for site, entries in sorted(outcome, key=lambda x: wl.site_key(x[0]))
        },
    }
    ms.known.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")

    pq = wl.WORKLOADS["points_q7"]
    _, text = _cli(pq.cli_args)
    pq.known.write_text(text, "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
