"""Tests of the benchmark itself: seeded generation is deterministic, the
oracles reject corrupted reports, and the tracer's self times and wrapping
are right.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import arrmono  # noqa: E402
import arrmono.cli  # noqa: E402


def files_of(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_generation_is_deterministic_for_a_seed(tmp_path, name):
    a = workloads.build(arrmono, name, 3, tmp_path / "a")
    b = workloads.build(arrmono, name, 3, tmp_path / "b")
    c = workloads.build(arrmono, name, 4, tmp_path / "c")
    assert files_of(tmp_path / "a") == files_of(tmp_path / "b")
    assert files_of(tmp_path / "a") != files_of(tmp_path / "c")
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs] == [j.name for j in c.jobs]
    strip = lambda wl, d: [tuple(s.replace(str(d), "") for s in j.argv) for j in wl.jobs]
    assert strip(a, tmp_path / "a") == strip(b, tmp_path / "b")


def test_planted_arrangement_has_only_the_planted_coincidences():
    arr = gen.planted_arrangement(random.Random(7), 2, 9, (4, 3))
    assert gen.is_generic_beyond_groups(arr)
    # Replace the last free line by the sum of the equations of two planted
    # lines: it passes through their crossing, a triple point not planted.
    off, normal = arr.rows[0]
    rows = list(arr.rows)
    p_line = arr.rows[arr.groups[1][0]]
    rows[-1] = (off + p_line[0], tuple(x + y for x, y in zip(normal, p_line[1])))
    assert not gen.is_generic_beyond_groups(gen.PlantedArrangement(2, tuple(rows), arr.groups))


def test_local_resonance_weight_sums_to_zero_on_its_flat():
    w = gen.local_resonance_weight(random.Random(1), 10, (2, 5, 7))
    assert sum(w) == 0 and all(w[i] for i in (2, 5, 7))
    assert all(v == 0 for i, v in enumerate(w) if i not in (2, 5, 7))


def first_job(wl, prefix):
    return next(j for j in wl.jobs if j.name.startswith(prefix))


@pytest.fixture(scope="module")
def pencil(tmp_path_factory):
    return workloads.build(arrmono, "pencil4-loops", 0, tmp_path_factory.mktemp("p"))


def test_pencil_reports_pass_and_corruption_trips_the_oracle(pencil):
    for prefix, corrupt in [
        ("info", lambda t: t.replace("kv betti 1,4,5", "kv betti 1,4,6")),
        ("connection", lambda t: t.replace("(multiplicity 2)", "(multiplicity 3)", 1)),
        ("verify", lambda t: t.replace("check chain.aomoto pass", "check chain.aomoto FAIL")),
        ("specialize-x", lambda t: t.replace("non-resonant", "resonant")),
        ("loop00", lambda t: t.replace("check chain.universal pass\n", "")),
    ]:
        job = first_job(pencil, prefix)
        res = run.execute(job)
        assert res.problems == [], (prefix, res.problems)
        assert job.check(res.code, corrupt(res.text)), prefix


def test_exp_verdict_is_allowed_but_nothing_else_fails():
    check = oracles.verify_report(2)
    verdict = "check exp.relation_deg1 FAIL degree-2 terms are not gauge conjugate"
    ok = f"arrmono-report v1\nsection verify\ncheck a pass\n{verdict}\n"
    assert check(1, ok) == []
    assert check(0, ok)  # a failing check must exit 1
    assert check(1, ok.replace("check a pass", "check a FAIL"))


def test_arrangement_and_inner_oracles_trip_on_corruption(tmp_path):
    wl = workloads.build(arrmono, "arrangement-resonance", 0, tmp_path / "a")
    for suffix, corrupt in [("info", lambda t: t.replace("kv euler", "kv euler 1")),
                            ("generic", lambda t: t.replace("non-resonant", "resonant")),
                            ("resonant", lambda t: t.replace("kv euler ", "kv euler 1"))]:
        job = next(j for j in wl.jobs if j.name.endswith(suffix))
        res = run.execute(job)
        assert res.problems == [], (suffix, res.problems)
        assert job.check(res.code, corrupt(res.text)), suffix
    check = oracles.inner_connection(3, (1, 1, 0))
    text = "\n".join(["section connection"] + ["check c pass"] * 9 + [
        "kv eigen[Phi1] x1*x2 (multiplicity 2)", "kv eigen[Phi1] 1 (multiplicity 1)",
        "kv eigen[Omega1] y1 + y2 (multiplicity 2)", "kv eigen[Omega1] 0 (multiplicity 1)",
        "kv eigen[Phi2] x1*x2 (multiplicity 3)", "kv eigen[Omega2] y1 + y2 (multiplicity 3)"])
    assert check(0, text) == []
    assert check(0, text.replace("kv eigen[Omega2] y1 + y2", "kv eigen[Omega2] y1 - y2"))


def test_eigen_value_parsers():
    assert oracles.parse_monomial("x1^2*x3^-1*x5", 5) == (2, 0, -1, 0, 1)
    assert oracles.parse_monomial("1", 2) == (0, 0)
    assert oracles.parse_linear_form("2*y1 - y3 + y5", 5) == (2, 0, -1, 0, 1)
    assert oracles.parse_linear_form("-y2", 2) == (0, -1)
    assert oracles.parse_linear_form("0", 2) == (0, 0)
    with pytest.raises(ValueError):
        oracles.parse_linear_form("y1*y2", 2)


def test_self_time_subtracts_child_coverage():
    t = spans.Tracer()
    t.spans = [spans.Span(0, "a", 0, 10_000_000, None, "j"),
               spans.Span(1, "b", 1_000_000, 4_000_000, 0, "j"),
               spans.Span(2, "c", 5_000_000, 6_000_000, 0, "j"),
               spans.Span(3, "b", 5_200_000, 5_700_000, 2, "j")]
    got = t.self_seconds()
    assert got == pytest.approx({"a": 0.006, "b": 0.0035, "c": 0.0005})
    assert t.self_seconds(since=2) == pytest.approx({"c": 0.0005, "b": 0.0005})


def test_instrument_nests_spans_and_restores(pencil):
    original = arrmono.cli.verify_exp_relation
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        assert arrmono.cli.verify_exp_relation is not original
        res = run.execute(first_job(pencil, "verify"), tracer)
    finally:
        restore()
    assert res.problems == []
    assert arrmono.cli.verify_exp_relation is original
    by_id = {s.id: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"cli.job", "cli.load", "connection.exp_relation", "linalg.solve_right_q",
            "linalg.char_poly", "fox.validate"} <= names
    for s in tracer.spans:
        if s.name == "linalg.solve_right_q":
            assert by_id[s.parent].name == "connection.exp_relation"
    assert tracer.counts["connection.gauge_solves"] == 2
    assert tracer.counts["connection.exp_fail"] == 0
    self_s = tracer.self_seconds()
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(self_s.values()) == pytest.approx(total / 1e9)
