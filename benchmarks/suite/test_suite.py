"""Schema, oracle and tooling checks for the benchmark suite.

    python -m pytest benchmarks/suite -q

One ``run.py --smoke`` run (all four workloads, ~20 s) feeds most tests; the
rest exercise the span recorder, the oracle helpers and ``compare.py`` on
hand-made inputs.
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import spec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    report, spans = out / "report.json", out / "spans.json"
    proc = subprocess.run(
        [*RUN, "--smoke", "--out", str(report), "--spans-out", str(spans)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {"report": json.loads(report.read_text()), "dir": out, "stdout": proc.stdout,
            "report_path": report}


# -- BENCHMARK.json ---------------------------------------------------------------
def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_benchmark_json_obeys_the_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(len(part) <= 200 for part in doc["command"]) and len(doc["command"]) <= 32
    assert len(json.dumps(doc)) < 64 * 1024


# -- one smoke run: every metric, finite, with its unit -----------------------------
def test_every_metric_is_emitted_once_where_defined(smoke):
    workloads = smoke["report"]["workloads"]
    assert list(workloads) == list(spec.WORKLOADS)
    for name, entry in workloads.items():
        assert entry["correct"], entry["checks"]
        assert set(entry["end_to_end"]) == {m["name"] for m in spec.END_TO_END}
        expected = {m["name"] for m in spec.PER_LAYER if name in m["on"]}
        assert set(entry["per_layer"]) == expected
        units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
        for metric, got in {**entry["end_to_end"], **entry["per_layer"]}.items():
            assert math.isfinite(got["value"]), (name, metric)
            assert got["unit"] == units[metric]
        for m in spec.END_TO_END:
            assert entry["end_to_end"][m["name"]]["value"] > 0, (name, m["name"])
        # every metric is printed by name exactly once per workload
        section = smoke["stdout"].split(f"== {name}:")[1].split("\n== ")[0]
        for metric in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert len(re.findall(rf"^\s+{re.escape(metric)}\s", section, re.M)) == 1, metric


def test_result_files_carry_provenance_and_sample_counts(smoke):
    for name, entry in smoke["report"]["workloads"].items():
        prov = entry["provenance"]
        for key in ("git_sha", "git_dirty", "nproc", "affinity", "blas_threads", "numpy",
                    "python", "seed", "sizes"):
            assert key in prov, key
        assert prov["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert prov["workload"] == name
        assert entry["samples"]["latency_p50_ms"] >= 5


def test_budget_rows_telescope(smoke):
    for name, entry in smoke["report"]["workloads"].items():
        assert entry["budgets"], name
        for title, budget in entry["budgets"].items():
            total = sum(value for _, value in budget["rows"])
            assert total == pytest.approx(budget["sum"], rel=1e-12)
            # the median band the rows are read from sits at the traced p50
            assert budget["sum"] == pytest.approx(budget["reference"], rel=0.15), (name, title)


def test_span_files_hold_linked_spans(smoke):
    for name in spec.WORKLOADS:
        doc = json.loads((smoke["dir"] / f"spans.{name}.json").read_text())
        spans = {s["id"]: s for s in doc["spans"]}
        assert spans, name
        names = {s["name"] for s in spans.values()}
        assert {"serving.frontend", "serving.cache", "core.search", "core.route",
                "core.shard_search"} <= names
        for s in spans.values():
            assert s["end_s"] >= s["start_s"]
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert parent["start_s"] <= s["start_s"]
        phases = {s.get("phase") for s in spans.values() if s["name"] == "core.shard_search"}
        assert phases == {"sample", "deep"}


def test_driver_command_prints_the_contract_line():
    for trace, catalogue in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        proc = subprocess.run(
            [*RUN, "--workload", "scan_unique", "--seed", "3", "--seconds", "0.5",
             "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in catalogue]
        for got in result["metrics"].values():
            assert set(got) == {"value", "unit"} and math.isfinite(got["value"])


def test_driver_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "scan_unique", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- compare.py ------------------------------------------------------------------
def test_compare_says_within_bound_for_a_file_against_itself(smoke, capsys):
    path = str(smoke["report_path"])
    assert compare.main([path, path]) == 0
    rows = compare.compare(compare.load(path), compare.load(path))
    assert len(rows) == len(spec.WORKLOADS) * len(spec.END_TO_END)
    assert {r["verdict"] for r in rows} == {"within-bound"}
    assert "B/A" in capsys.readouterr().out


def test_compare_says_worse_for_a_doctored_copy(smoke, tmp_path):
    doctored = copy.deepcopy(smoke["report"])
    doctored["workloads"]["scan_unique"]["end_to_end"]["latency_p50_ms"]["value"] *= 1.5
    doctored["workloads"]["mutate_mix"]["end_to_end"]["throughput_per_s"]["value"] *= 0.5
    doctored["workloads"]["rag_strides"]["end_to_end"]["latency_p95_ms"]["value"] *= 0.5
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    assert compare.main([str(smoke["report_path"]), str(path)]) == 1
    rows = {(r["workload"], r["metric"]): r["verdict"]
            for r in compare.compare([smoke["report"]], [doctored])}
    assert rows["scan_unique", "latency_p50_ms"] == "worse"
    assert rows["mutate_mix", "throughput_per_s"] == "worse"
    assert rows["rag_strides", "latency_p95_ms"] == "better"
    assert rows["serve_zipf", "latency_p50_ms"] == "within-bound"


def test_compare_reports_unresolved_when_the_base_is_noisier_than_the_bound():
    noisy = [10.0, 14.0, 9.0, 15.0, 10.5, 13.0]
    assert compare.verdict(noisy, [12.0] * 6, "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [8.0] * 6, "lower", 0.10)[0] == "better"
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0]
    assert compare.verdict(steady, [11.5] * 6, "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [10.3] * 6, "lower", 0.10)[0] == "within-bound"
    assert compare.verdict(steady, [9.0] * 6, "higher", 0.10)[0] == "within-bound"
    assert compare.verdict(steady, [8.0] * 6, "higher", 0.10)[0] == "worse"


# -- recorder, oracle, statistics ----------------------------------------------------
def test_recorder_links_spans_and_components_sum_exactly():
    rec = harness.SpanRecorder()
    ticks = iter(np.arange(0.0, 100.0, 1.0))
    rec.clock = lambda: float(next(ticks))
    assert rec.begin("core.search") is None          # not a root span
    assert rec.begin("serving.frontend") is None     # recorder is off
    rec.enabled = True
    front = rec.begin("serving.frontend", queries=4)
    lookup = rec.begin("serving.cache", op="lookup")
    rec.end(lookup)
    search = rec.begin("core.search")
    route = rec.begin("core.route")
    sample = rec.begin("core.shard_search")
    rec.end(sample)
    rec.end(route)
    deep = rec.begin("core.shard_search")
    rec.enabled = False                               # flips mid-batch: tree stays whole
    rec.end(deep)
    rec.end(search)
    rec.end(front, searched=4)
    assert rec.begin("core.route") is None
    assert (sample.attrs["phase"], deep.attrs["phase"]) == ("sample", "deep")
    assert deep.parent == search.sid and search.parent == front.sid
    (row,) = harness.frontend_components(rec)
    parts = row["cache"] + row["route"] + row["deep"] + row["merge"] + row["frontend_self"]
    assert parts == pytest.approx(row["total"], abs=1e-12)
    assert (row["routed"], row["samples"], row["searched"]) == (1, 1, 4)


def test_covered_takes_the_union_of_overlapping_children():
    class S:
        def __init__(self, a, b):
            self.start, self.end = a, b

    assert harness.covered([S(0, 2), S(1, 3), S(5, 6)]) == pytest.approx(4.0)
    assert harness.covered([]) == 0.0


def test_oracle_helpers():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(500, 8)).astype(np.float32)
    queries = rng.normal(size=(7, 8)).astype(np.float32)
    truth = harness.brute_force_topk(queries, vectors, 5, block=3)
    expected = np.argsort(-(queries @ vectors.T), axis=1)[:, :5]
    assert np.array_equal(truth, expected)
    live = np.ones(500, dtype=bool)
    live[expected[:, 0]] = False
    assert not np.isin(harness.brute_force_topk(queries, vectors, 5, live=live),
                       expected[:, 0]).any()
    assert harness.ndcg_at_k(truth, truth) == pytest.approx(np.ones(7))
    assert harness.ndcg_at_k(np.full((7, 5), -1), truth) == pytest.approx(np.zeros(7))
    swapped = truth[:, [1, 0, 2, 3, 4]]
    assert (harness.ndcg_at_k(swapped, truth) < 1.0).all()


def test_quiet_quarter_reads_the_fast_side_of_a_two_speed_run():
    at = np.arange(0.0, 20.0, 0.05)
    slow = (at >= 4) & (at < 16)                       # slow for 60 % of the run
    latency = np.where(slow, 14.0, 10.0)
    windows = harness.per_window(at, lambda idx: float(np.median(latency[idx])))
    assert np.median(latency) == 14.0
    assert harness.quiet_quarter(windows) == 10.0
    rate = np.where(slow, 70.0, 100.0)
    windows = harness.per_window(at, lambda idx: float(rate[idx].mean()))
    assert harness.quiet_quarter(windows, better="higher") == 100.0
