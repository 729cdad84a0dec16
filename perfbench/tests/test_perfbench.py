"""Tests of the benchmark itself: its known-answer checks, its metric names,
its cold-start helper and its tracer."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workload import layer_metrics, layer_unit, run_metrics  # noqa: E402


def test_known_report_check_flags_a_doctored_verdict():
    known = wl.WORKLOADS["verify_all"].known.read_text("utf-8")
    assert wl.report_mismatches(known, known) == 0
    doc = json.loads(known)
    doc["checks"][17]["outcome"] = "Failed"
    assert wl.report_mismatches(wl.render(doc), known) == 1
    del doc["checks"][3]
    assert wl.report_mismatches(wl.render(doc), known) == 2
    # a report whose checks all match but whose header does not is still wrong
    doc = json.loads(known)
    doc["status"] = 1
    assert wl.report_mismatches(wl.render(doc), known) == 1


def test_cli_check_flags_a_failing_exit_or_changed_output():
    pq = wl.WORKLOADS["points_q7"]
    known = pq.known.read_text("utf-8")
    assert pq.check_cli(0, "", known) == (6, 0)
    assert pq.check_cli(1, "", known) == (6, 6)
    ms = wl.WORKLOADS["mutation_sweep"]
    expected = json.loads(ms.known.read_text("utf-8"))["cli_normal_form"]
    assert ms.check_cli(0, expected + "\n", None) == (1, 0)
    assert ms.check_cli(0, "0\n", None) == (1, 1)


def test_points_check_flags_a_doctored_count():
    pq = wl.WORKLOADS["points_q7"]
    assert pq.check((2850, 2850, 2850, [])) == (3, 0)
    assert pq.check((2850, 2849, 2850, [])) == (3, 1)
    assert pq.check((2850, 2850, 2850, ["point came back wrong"])) == (3, 1)


def test_recorded_mutation_outcomes_match_the_known_vector():
    doc = json.loads(wl.WORKLOADS["mutation_sweep"].known.read_text("utf-8"))
    outcomes = [o for checks in doc["mutants"].values() for _, o in checks]
    assert len(doc["mutants"]) == 18
    assert outcomes.count("Verified") == 378
    assert outcomes.count("Failed") == 76
    assert outcomes.count("Inconclusive(bound=12)") == 14


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.UNITS
    emitted = {**layer_metrics(Tracer(), []), **run_metrics(Tracer(), 0.0, 0.0)}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: layer_unit(name) for name in emitted}
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def _complete_calls() -> int:
    from ncgrass import verify

    tracer = Tracer()
    wl.cold_start()
    with tracer:
        verify.verify_adjacent_substitution((1, 2), (2, 3), bound=4)
    return tracer.span("rewrite.complete").calls


def test_cold_start_repeats_the_work_of_a_cold_pass():
    first = _complete_calls()
    assert first > 0
    assert _complete_calls() == first


def test_cold_start_tolerates_a_missing_transition_cache(monkeypatch):
    from ncgrass import points

    monkeypatch.delattr(points, "_transition_cache")
    wl.cold_start()


def test_tracer_patches_every_binding_and_restores_them():
    from ncgrass import atlas, rewrite

    original = rewrite.complete
    assert atlas.complete is original
    wl.cold_start()
    with Tracer() as tracer:
        assert rewrite.complete is not original
        assert atlas.complete is rewrite.complete
        atlas.chart_presentation((1, 2)).completed(4)
    assert rewrite.complete is original and atlas.complete is original
    assert tracer.span("rewrite.complete").calls == 1
    assert tracer.span("atlas.build").calls == 1
    assert tracer.counts["fields.qq_ops"] > 0
