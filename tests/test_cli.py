"""Command-line behavior: exit codes, goldens, determinism, export schema."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import pytest

from ncgrass import atlas
from ncgrass import symbols as sy
from ncgrass.cli import main
from ncgrass.fields import QQ
from ncgrass.poly import NcPoly, poly_str


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_proposition_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "proposition", "--bound", "6", "--quiet")
    assert code == 0
    assert "checked 192: 192 verified, 0 failed, 0 inconclusive" in out


def test_verify_lemma_starved_bound_exit_two(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma", "--bound", "2", "--quiet")
    assert code == 2
    assert "20 inconclusive" in out


def test_verify_functoriality_selector(capsys):
    code, out, _ = run_cli(capsys, "verify", "functoriality", "--bound", "8", "--quiet")
    assert code == 0
    assert "checked 120: 120 verified, 0 failed, 0 inconclusive" in out
    code, out, _ = run_cli(capsys, "verify", "functoriality", "--bound", "6", "--quiet")
    assert code == 2
    assert "checked 120: 105 verified, 0 failed, 15 inconclusive" in out


def test_verify_single_cocycle_triple(capsys):
    code, out, _ = run_cli(capsys, "verify", "cocycle", "--triple", "1,2:2,3:3,4", "--quiet")
    assert code == 0
    assert "checked 4: 4 verified" in out


def test_every_valid_triple_exits_zero(capsys):
    # the adjacent, disjoint, adjacent orders such as 1,2:1,3:2,4, the only
    # ones whose chain needs the base->far pivot inverted on its own
    orders = [
        t
        for t in permutations(atlas.all_charts(), 3)
        if [atlas.overlap_type(a, b) for a, b in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))]
        == ["adjacent", "disjoint", "adjacent"]
    ]
    assert len(orders) == 24
    for t in orders:
        arg = ":".join(f"{c[0]},{c[1]}" for c in t)
        code, out, _ = run_cli(
            capsys, "verify", "cocycle", "--triple", arg, "--bound", "8", "--quiet"
        )
        assert code == 0, arg
        assert "checked 4: 4 verified" in out


def test_verify_prints_one_line_per_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "points")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("Verified")]
    assert len(lines) == 6


def test_points_selector_rejects_a_field(capsys):
    # the point counts always run over F_2, F_3 and F_5
    code, _, err = run_cli(capsys, "verify", "points", "--field", "q7", "--quiet")
    assert code == 3
    assert "--field" in err


def test_unbounded_selectors_reject_a_bound(capsys, monkeypatch):
    # neither selector completes a rewriting system, so no bound applies
    for selector in ("points", "abelianization"):
        code, _, err = run_cli(capsys, "verify", selector, "--bound", "4", "--quiet")
        assert code == 3
        assert "--bound" in err
    monkeypatch.setenv("NCGRASS_BOUND", "ten")
    code, out, _ = run_cli(capsys, "verify", "abelianization", "--quiet")
    assert code == 0
    # the summary names no bound, since none was used
    assert out == "checked 82: 82 verified, 0 failed, 0 inconclusive (field rat)\n"


def test_quiet_belongs_to_verify_only():
    for argv in (["normalform", "x(3)", "-p", "F(1,2)", "--quiet"], ["export", "charts", "--quiet"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3


def test_verify_bad_selector_exits_three(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 3


def test_triple_flag_requires_cocycle(capsys):
    code, _, err = run_cli(capsys, "verify", "lemma", "--triple", "1,2:2,3:3,4")
    assert code == 3
    assert "--triple" in err


def test_malformed_triple_exits_three(capsys):
    code, _, err = run_cli(capsys, "verify", "cocycle", "--triple", "1,2/2,3/3,4")
    assert code == 3


def test_bound_env_override(capsys, monkeypatch):
    monkeypatch.setenv("NCGRASS_BOUND", "2")
    code, out, _ = run_cli(capsys, "verify", "lemma", "--quiet")
    assert code == 2
    # an explicit flag beats the environment
    monkeypatch.setenv("NCGRASS_BOUND", "2")
    code, out, _ = run_cli(capsys, "verify", "lemma", "--bound", "10", "--quiet")
    assert code == 0


def test_bad_bound_env_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("NCGRASS_BOUND", "ten")
    code, _, err = run_cli(capsys, "verify", "lemma", "--quiet")
    assert code == 3


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "points", "--quiet", "--json", str(path))
    assert code == 0
    # the summary names the fields counted over; the header keeps rat
    assert out == "checked 6: 6 verified, 0 failed, 0 inconclusive (fields q2, q3, q5)\n"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["status"] == 0
    assert doc["field"] == "rat"
    assert doc["bound"] == 10
    assert doc["counts"]["total"] == 6
    assert {c["id"] for c in doc["checks"]} >= {"points:q2:count", "points:q5:roundtrip"}
    assert all("elapsed" not in c for c in doc["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "points", "--quiet"),
        ("export", "charts"),
        ("normalform", "a(1,2;1,3)"),
    ],
)
def test_an_unwritable_json_path_is_a_usage_error(tmp_path, argv):
    # exit 1 from verify means a check Failed, so a write error must not
    # end in a traceback and exit 1
    path = tmp_path / "missing" / "out.json"
    cmd = [sys.executable, "-m", "ncgrass.cli", *argv, "--json", str(path)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    assert done.returncode == 3
    assert f"ncgrass: error: cannot write {path}: No such file or directory\n" in done.stderr
    assert "Traceback" not in done.stderr


def test_normalform_goldens(capsys):
    code, out, _ = run_cli(
        capsys, "normalform", "a(1,2;1,3)*a(1,2;1,4) - a(1,2;1,4)*a(1,2;1,3)"
    )
    assert code == 0 and out == "0\n"
    code, out, _ = run_cli(
        capsys, "normalform", "a(1,2;1,4)*a(1,2;2,3)", "-p", "O(1,2|3,4)",
        "--bound", "6",
    )
    assert code == 0 and out == "a(1,2;1,3)*a(1,2;2,4) - d(1,2|3,4)\n"
    code, out, _ = run_cli(capsys, "normalform", "x(3)", "-p", "F(1,2)")
    assert code == 0 and out == "a(1,2;1,3)*x(1) + a(1,2;2,3)*x(2)\n"
    code, out, _ = run_cli(
        capsys, "normalform", "d(1,2|3,4)^-1 * a(1,2;2,4)", "-p", "O(1,2|3,4)",
        "--bound", "6",
    )
    assert code == 0 and out == "a(3,4;3,1)\n"


# sha256 over the normal forms at bound 6 of x(k) and e*x(k) in every F(i,j),
# for k = 1..4 and every chart entry e, recorded while the module relations
# were rewrite rules of the completed system
NORMALFORM_F_DIGEST = "c8f644a86f75953f3984d37aed8733187360137a27798f0b877848e41b591309"


def test_normalform_in_every_module_context_matches_the_recorded_digest(capsys):
    digest = hashlib.sha256()
    for lam in atlas.all_charts():
        for k in range(1, 5):
            for e in (None,) + atlas.chart_entries(lam):
                expr = f"x({k})" if e is None else f"{sy.sym_name(e)}*x({k})"
                code, out, _ = run_cli(
                    capsys, "normalform", expr, "-p", f"F({lam[0]},{lam[1]})", "--bound", "6"
                )
                digest.update(json.dumps([expr, lam, code, out]).encode() + b"\n")
    assert digest.hexdigest() == NORMALFORM_F_DIGEST


def test_normalform_triple_context(capsys):
    # the chain presentation localizes the two hop pivots
    code, out, _ = run_cli(
        capsys,
        "normalform",
        "a(1,2;1,3)^-1 * a(1,2;1,3)",
        "-p",
        "O(1,2|2,3|3,4)",
        "--bound",
        "4",
    )
    assert code == 0 and out == "1\n"
    code, _, err = run_cli(
        capsys, "normalform", "a(2,3;2,3)", "-p", "O(1,2|2,3|3,4)"
    )
    assert code == 3
    assert "unknown generator" in err or "does not belong" in err


def test_normalform_errors(capsys):
    code, _, err = run_cli(capsys, "normalform", "a(1,2;1,3")
    assert code == 3
    assert "syntax error at offset 10" in err
    code, _, err = run_cli(capsys, "normalform", "x(1)", "-p", "Q(1,2)")
    assert code == 3
    assert "unknown presentation" in err
    for name in ("O(1,2|3,4)", "O(1,2|2,3|3,4)"):
        code, out, _ = run_cli(capsys, "normalform", "1", "-p", name, "--bound", "2")
        assert (code, out) == (0, "1\n"), name
    unknown = "unknown presentation name {!r}; use R(i,j), F(i,j), O(i,j|k,l), or O(i,j|k,l|m,n)"
    for name, message in (
        ("O(1,2)", unknown.format("O(1,2)")),
        ("O(1,2|3,4", unknown.format("O(1,2|3,4")),
        ("O(12|34)", unknown.format("O(12|34)")),
        ("O(1,2|2,3|3,4|1,4)", unknown.format("O(1,2|2,3|3,4|1,4)")),
        ("O(1,2|1,2)", "overlap of a chart with itself is the chart"),
        ("O(1,2|2,3|2,3)", "chain needs at least two distinct charts"),
        ("O(1,5|2,3)", "index out of range in chart (1, 5) for n=4"),
    ):
        code, _, err = run_cli(capsys, "normalform", "1", "-p", name)
        assert (code, err) == (3, f"ncgrass: error: {message}\n"), name
    code, _, err = run_cli(capsys, "normalform", "x(1)", "-p", "R(1,2)")
    assert code == 3
    assert "does not belong" in err
    assert err == "ncgrass: error: generator x(1) does not belong to R(1,2)\n"
    code, _, err = run_cli(capsys, "normalform", "1/2", "--field", "q2")
    assert code == 3
    assert "Traceback" not in err
    assert err == "ncgrass: error: denominator 2 is zero in field q2 at offset 3\n"


def test_export_charts_schema(capsys):
    code, out, _ = run_cli(capsys, "export", "charts")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["charts"]) == 6
    for chart in doc["charts"]:
        assert len(chart["relations"]) == 3
        assert len(chart["generators"]) == 4
        for g in chart["generators"]:
            assert set(g) == {"name", "kind", "chart", "i", "j", "weight"}
    assert out.endswith("\n")


def test_export_charts_round_trip(capsys):
    # rebuilding each relation from the serialized terms reproduces the
    # presentation exactly
    code, out, _ = run_cli(capsys, "export", "charts")
    doc = json.loads(out)
    for chart in doc["charts"]:
        lam = tuple(
            int(x) for x in chart["name"][2:-1].split(",")
        )
        pres = atlas.chart_presentation(lam)
        names = pres.names()
        rebuilt = []
        for rel in chart["relations"]:
            p = NcPoly.zero(QQ)
            for coeff, word in rel:
                sids = tuple(names[w] for w in word)
                p = p + NcPoly.from_word(QQ, sids, Fraction(coeff))
            rebuilt.append(p)
        assert rebuilt == list(pres.relations)


def test_export_transitions(capsys):
    code, out, _ = run_cli(capsys, "export", "transitions")
    doc = json.loads(out)
    rows = doc["transitions"]
    assert len(rows) == 30
    assert len({(r["source"], r["target"]) for r in rows}) == 30
    for row in rows:
        assert len(row["images"]) == 4
    by_pair = {(r["source"], r["target"]): r for r in rows}
    row = by_pair[("R(1,2)", "R(2,3)")]
    pair = atlas.pair_overlap((1, 2), (2, 3))
    for name, text in row["images"].items():
        sid = atlas.chart_presentation((2, 3)).names()[name]
        assert text == poly_str(pair.to_base.mapping[sid])


def test_export_overlaps_and_presheaf(capsys):
    code, out, _ = run_cli(capsys, "export", "overlaps")
    doc = json.loads(out)
    assert len(doc["overlaps"]) == 15
    code, out, _ = run_cli(capsys, "export", "presheaf")
    doc = json.loads(out)
    assert len(doc["nodes"]) == 41
    assert len(doc["restrictions"]) == 150
    names = {n["name"] for n in doc["nodes"]}
    assert "R(1,2)" in names and "min(1,2/1,3)" in names


def test_export_reads_no_bound(capsys, monkeypatch):
    # no export target completes a rewriting system, so none takes a bound
    monkeypatch.setenv("NCGRASS_BOUND", "ten")
    code, out, _ = run_cli(capsys, "export", "charts")
    assert code == 0
    assert len(json.loads(out)["charts"]) == 6
    for argv in (["export", "charts", "--bound", "4"], ["export", "report"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3


def test_export_unknown_target_exits_three(capsys):
    with pytest.raises(SystemExit) as err:
        main(["export", "everything"])
    assert err.value.code == 3


# sha256 of each export target's stdout, recorded before the chart relations
# were written out and the presheaf lost its formulas parameter
EXPORT_DIGESTS = {
    ("charts", "rat"): "8965c854101db33f538be8c5a464d553d0e762750af290a85ab6b4ce6a94a322",
    ("overlaps", "rat"): "cc159e6aad4bfcea27584b10688055111a82d01e150dcfc7a56ef90de34d4e9c",
    ("transitions", "rat"): "fd96593f2fb797a96d99a69bd346509fd3028ee280cbc70145bb92a666db3651",
    ("presheaf", "rat"): "edb75f5a7c9f71f4c4a3f8d704ea59a526f8488aaff4146ee1d9802e49c33a7f",
    ("charts", "q3"): "c5008df24bc0029de4caaba1ec3c484c1606976bf942e1af835e85cb6f0696d3",
    ("overlaps", "q3"): "406ee32413ed725d6132a0cc33c322601bd1bbbbb0da9c4f73b57e13fbd6dfc0",
    ("transitions", "q3"): "a12875c99cf6283459053dd3c4ae482fb6b06a2ce5744b4c52d894d0b8daa4e2",
    ("presheaf", "q3"): "910145d036a808b0a4db38d9663949f5d9059f2da635ccc726f1f4979785fe7a",
}


@pytest.mark.parametrize("target,field", sorted(EXPORT_DIGESTS))
def test_export_matches_the_recorded_digest(capsys, target, field):
    code, out, _ = run_cli(capsys, "export", target, "--field", field)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPORT_DIGESTS[target, field]


# sha256 of each --json report, recorded before verify read each rung once:
# the first three reach Inconclusive through the top rung and the F_q point
# search; in the last, every lemma check, the two sign-doubt checks too,
# verifies by rung 8 of 12, and a cached point decides each sign-doubt alt
REPORT_DIGESTS = {
    ("all", "q3", "6"): "6743a5cdf2feb86eb474f070dbbdad36b6f3a54f62a27eee01e11ddf8d919a22",
    ("all", "q5", "4"): "d4d12bfaa3fd9ac94bf387c6c004ac89bfb9cd205a1d9a97bde2e57257aacf5b",
    ("lemma", "q2", "4"): "7222b098603c8a36e37a7a204a8fedc661223393ebeb7f8772ae2963ba0b0497",
    ("lemma", "rat", "12"): "7713b0e1057319aad566d79fe9a0debc9ecdb2688f967d8fbd03106395183f0e",
}


@pytest.mark.parametrize("selector,field,bound", sorted(REPORT_DIGESTS))
def test_verify_json_matches_the_recorded_digest(capsys, tmp_path, selector, field, bound):
    path = tmp_path / "report.json"
    argv = ("verify", selector, "--field", field, "--bound", bound, "--quiet", "--json", str(path))
    code, _, _ = run_cli(capsys, *argv)
    assert code == (0 if field == "rat" else 2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[selector, field, bound]


def test_export_is_deterministic_across_processes():
    cmd = [sys.executable, "-m", "ncgrass.cli", "export", "transitions"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b
    assert a.decode("utf-8").endswith("\n")


def test_report_is_independent_of_the_hash_seed(tmp_path):
    docs = []
    for seed in ("0", "1"):
        path = tmp_path / f"abelian-{seed}.json"
        cmd = [sys.executable, "-m", "ncgrass.cli", "verify", "abelianization", "--json", str(path)]
        env = {**os.environ, "PYTHONHASHSEED": seed}
        subprocess.run(cmd, capture_output=True, check=True, env=env)
        docs.append(path.read_bytes())
    assert docs[0] == docs[1]


_REVERSE_INTERNING = """
import sys
from itertools import permutations
from ncgrass import atlas, cli
from ncgrass import symbols as sy

charts = atlas.all_charts()
calls = [(sy.module_var, (k,)) for k in range(1, 5)]
for make in (sy.entry, sy.entry_inverse):
    calls += [(make, (lam, i, j)) for lam in charts for i in lam for j in atlas.outside(lam)]
for make in (sy.quasi_det, sy.quasi_det_inverse):
    calls += [
        (make, pair) for pair in permutations(charts, 2) if atlas.overlap_type(*pair) == "disjoint"
    ]
if sys.argv[1] == "reversed":
    sids = [make(*args) for make, args in reversed(calls)]
    # nothing was interned before, and this is the reverse of the natural order
    assert sids == list(range(len(calls)))
    assert sorted(sids, key=lambda s: sy.KEY[s]) == sids[::-1]
for argv in sys.argv[2:]:
    cli.main(argv.split())
"""


def test_report_is_independent_of_the_interning_order(tmp_path):
    # every symbol is created in reverse natural order before the commands run
    commands = [
        "verify abelianization --json {dir}/abelian.json",
        "verify points --json {dir}/points.json",
        "verify proposition --bound 6 --json {dir}/proposition.json",
    ]
    docs = {}
    for order in ("plain", "reversed"):
        out = tmp_path / order
        out.mkdir()
        argv = [c.format(dir=out) for c in commands]
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        cmd = [sys.executable, "-c", _REVERSE_INTERNING, order, *argv]
        subprocess.run(cmd, capture_output=True, check=True, env=env)
        docs[order] = [
            (out / name).read_bytes() for name in ("abelian.json", "points.json", "proposition.json")
        ]
    assert docs["plain"] == docs["reversed"]
