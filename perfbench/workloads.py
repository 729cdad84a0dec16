"""The benchmark's workloads: how each builds its inputs, runs one pass, and
checks every verdict of the pass against a known answer.

Why these three:
- verify_all is the shipped headline command, ``run_all(bound=10)`` over QQ.
  Most checks stop at an early rung, so it stresses normal forms, the
  completion cache and completions up to bound 8.
- mutation_sweep runs the 18 single-sign mutants of the canonical transition
  formulas through the targeted suites at bound 12. Failed and Inconclusive
  checks climb every rung, so completion runs at the top bound and witness
  certification runs. Completion is about 94% of a pass.
- points_q7 counts closed points over F_7 and does no rewriting at all: it is
  the control on which a change to ``rewrite`` must show no effect. It is not
  in BENCHMARK.json: on a shared 2-vCPU machine its run-to-run spread of
  ``verdict_s`` and ``cli_s`` over ten runs reached 0.26 of the median, above
  the largest bound a metric may have. Run it by name, or with ``all``.

Nothing in this module imports ``ncgrass`` at import time, so the
orchestrator can use the CLI checks without loading the package.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
MUTATION_BOUND = 12
CHAIN = "O(1,2|2,3|3,4)"
NORMALFORM_EXPR = "a(1,2;2,4)*a(1,2;1,3)*a(1,2;1,4)*a(1,2;2,3)"


def render(doc) -> str:
    """A report document in the byte format of ``ncgrass verify --json``."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def report_mismatches(actual_text: str, expected_text: str) -> int:
    """Checks whose entry differs from the known report, counting checks
    missing on either side; 1 if only the report header differs."""
    if actual_text == expected_text:
        return 0
    try:
        actual = json.loads(actual_text)
        got = {c["id"]: c for c in actual["checks"]}
    except (ValueError, KeyError, TypeError):
        return max(1, expected_text.count('"id":'))
    want = {c["id"]: c for c in json.loads(expected_text)["checks"]}
    wrong = sum(1 for cid in want.keys() | got.keys() if want.get(cid) != got.get(cid))
    return max(wrong, 1)


def rung_counts(results) -> Counter:
    """Checks per rung that decided them: the first sufficient bound for a
    Verified check, the top bound otherwise, 0 when no completion was needed."""
    return Counter(r.bound for r in results)


def cold_start() -> None:
    """Empty every cache the package keeps between calls, so the next pass
    starts cold. ``clear_caches()`` misses the point-transition cache, which
    is cleared here when the package still has it."""
    import gc
    import importlib

    ncgrass = importlib.import_module("ncgrass")
    points = importlib.import_module("ncgrass.points")
    ncgrass.clear_caches()
    transitions = getattr(points, "_transition_cache", None)
    if transitions is not None:
        transitions.clear()
    gc.collect()


class Workload:
    name: str
    cli_args: tuple  # CLI arguments after ``python -m ncgrass.cli``; "{json}" is the output path
    known: Path  # the known answers

    def setup(self, seed: int):
        """Import the package and build the pass inputs from the seed."""
        raise NotImplementedError

    def run_pass(self, inputs):
        raise NotImplementedError

    def check(self, outcome) -> tuple[int, int]:
        """(verdicts attempted, verdicts contradicting the known answer)."""
        raise NotImplementedError

    def results(self, outcome) -> list:
        """The CheckResults of a pass, for the rung counts."""
        return []

    def check_cli(self, code: int, stdout: str, json_text: str | None) -> tuple[int, int]:
        """The CLI wrote a JSON report: it must exit 0 and equal the known one."""
        expected = self.known.read_text("utf-8")
        total = expected.count('"id":')
        if code != 0 or json_text is None:
            return total, total
        return total, report_mismatches(json_text, expected)


class VerifyAll(Workload):
    name = "verify_all"
    cli_args = ("verify", "all", "--quiet", "--json", "{json}")
    known = DATA / "verify_all_b10.json"

    def setup(self, seed):
        from ncgrass import verify
        from ncgrass.fields import QQ

        return verify, QQ

    def run_pass(self, inputs):
        verify, qq = inputs
        return verify.run_all(bound=10, field=qq)

    def check(self, report):
        text = render(report.as_dict())
        return len(report.results), report_mismatches(text, self.known.read_text("utf-8"))

    def results(self, report):
        return report.results


class MutationSweep(Workload):
    name = "mutation_sweep"
    cli_args = ("normalform", NORMALFORM_EXPR, "-p", CHAIN, "--bound", str(MUTATION_BOUND))
    known = DATA / "mutation_sweep_b12.json"

    def setup(self, seed):
        from ncgrass.atlas import CANONICAL, flip_sign, sign_sites

        sites = sign_sites()
        random.Random(seed).shuffle(sites)
        return [(site, flip_sign(CANONICAL, site)) for site in sites]

    def run_pass(self, mutants):
        return [(site, targeted(formulas, MUTATION_BOUND)) for site, formulas in mutants]

    def check(self, outcome):
        from ncgrass.exprparse import parse_expr
        from ncgrass.poly import abelianize

        expected = json.loads(self.known.read_text("utf-8"))["mutants"]
        scope = witness_scope()
        attempted = wrong = 0
        for site, entries in outcome:
            want = [tuple(x) for x in expected.get(site_key(site), [])]
            got = [(r.check_id, r.outcome) for r in entries]
            attempted += len(got)
            wrong += sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
            # the mutant must be caught: a Failed check whose witness stays
            # nonzero after abelianizing
            failed = [r for r in entries if r.failed and r.witness]
            if not failed or any(
                abelianize(parse_expr(r.witness, scope)).is_zero() for r in failed
            ):
                wrong += 1
        return attempted, wrong

    def results(self, outcome):
        return [r for _, entries in outcome for r in entries]

    def check_cli(self, code, stdout, json_text):
        expected = json.loads(self.known.read_text("utf-8"))["cli_normal_form"]
        return 1, int(code != 0 or stdout != expected + "\n")


class PointsQ7(Workload):
    name = "points_q7"
    cli_args = ("verify", "points", "--quiet", "--json", "{json}")
    known = DATA / "verify_points.json"
    q = 7
    subspaces = 2850  # two-dimensional subspaces of F_7^4

    def setup(self, seed):
        from ncgrass import points

        return points

    def run_pass(self, points):
        oracle = points.subspace_oracle(self.q)
        glued = points.glue_count(self.q)
        bad = points.roundtrip_failures(self.q)
        return oracle, glued, points.gaussian_count(self.q), bad

    def check(self, outcome):
        oracle, glued, closed_form, bad = outcome
        verdicts = [oracle == closed_form == self.subspaces, glued == oracle, not bad]
        return len(verdicts), verdicts.count(False)


WORKLOADS = {w.name: w for w in (VerifyAll(), MutationSweep(), PointsQ7())}


def targeted(formulas, bound: int) -> list:
    """The targeted suites of the mutation harness: the adjacent substitution
    (1,2)->(2,3), the substitution (2,3)->(1,2), and the forward lemma
    direction through (1,2), (2,3), (3,4)."""
    from ncgrass import verify
    from ncgrass.fields import QQ

    entries = verify.verify_adjacent_substitution((1, 2), (2, 3), bound=bound, formulas=formulas)
    entries += verify.verify_adjacent_substitution((2, 3), (1, 2), bound=bound, formulas=formulas)
    entries += verify._lemma_direction(((1, 2), (2, 3), (3, 4)), bound, QQ, formulas)
    return entries


def site_key(site) -> str:
    group, target, term = site
    return f"{group}:{','.join(map(str, target))}:{term}"


def witness_scope():
    """A parsing context that knows every generator a mutant witness uses."""
    from ncgrass.atlas import overlap_chain, pair_overlap
    from ncgrass.fields import QQ

    names = {}
    for pres in (
        pair_overlap((1, 2), (2, 3)).presentation,
        pair_overlap((2, 3), (1, 2)).presentation,
        pair_overlap((1, 2), (3, 4)).presentation,
        overlap_chain(((1, 2), (2, 3), (3, 4))).presentation,
    ):
        names.update(pres.names())

    class Scope:
        field = QQ
        name = "mutation-witness-scope"

        @staticmethod
        def names():
            return names

    return Scope()
