"""Self-tests of the benchmark harness (not of the program).

    python3 -m pytest -q bench/selftest.py

Each workload runs once at minimum length untraced and once traced. The
tests check the result line against BENCHMARK.json, the span identities and
the two baselines later changes will move: `codec.rle_unpack` self time per
map is higher on fragmented than on shapes maps, and a guided step runs the
encoder twice.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("train", "receive-guided", "link-sweep")
SEED = 3

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(workload, trace, cwd=REPO, run=RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_names_every_metric_with_its_unit(runs, workload, trace):
    res = _result(runs[workload, trace])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("workload,names", [
    ("train", ["train.samples_per_s", "train.step_ms.p50", "train.step_ms.p90", "train.loss_last"]),
    ("receive-guided", ["receive.images_per_s", "receive.step_ms.p50", "receive.step_ms.p90"]),
    ("link-sweep", ["link.maps_per_s", "link.pair_ms.p50", "link.pair_ms.p90",
                    "link.bits_per_map", "link.fds_agreement"]),
])
def test_table_prints_workload_metrics_with_sample_counts(runs, workload, names):
    table = runs[workload, 0].stdout
    for name in ["setup_s", "peak_rss_mb"] + names:
        assert re.search(rf"^{re.escape(name)}\s+\S+\s.*n=\d+$", table, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_add_up(runs, workload):
    _result(runs[workload, 1])
    with open(os.path.join(REPO, ".bench_out", f"spans-{workload}-seed{SEED}-trace1.json"),
              encoding="utf-8") as f:
        doc = json.load(f)
    start = np.asarray(doc["start_ns"], dtype=np.int64)
    end = np.asarray(doc["end_ns"], dtype=np.int64)
    parent = np.asarray(doc["parent"], dtype=np.int64)
    dur = end - start
    assert (dur >= 0).all()
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    self_ns = dur - child
    assert (self_ns >= 0).all()
    assert (self_ns + child == dur).all()
    # children lie inside their parent's interval
    assert (start[has] >= start[parent[has]]).all() and (end[has] <= end[parent[has]]).all()


def test_fragmented_maps_unpack_slower_than_shapes(runs):
    m = _result(runs["link-sweep", 1])["metrics"]
    assert m["codec.rle_unpack.self_ms.fragmented"]["value"] > m["codec.rle_unpack.self_ms.shapes"]["value"] > 0


def test_guided_step_runs_the_encoder_twice(runs):
    m = _result(runs["receive-guided", 1])["metrics"]
    assert m["unet.enc.passes_per_step"]["value"] == 2


def test_train_runs_no_fds_and_saves_checkpoints(runs):
    m = _result(runs["train", 1])["metrics"]
    assert m["fds.fds.calls"]["value"] == 0 and m["codec.rle_unpack.calls"]["value"] == 0
    assert m["checkpoint.save.calls"]["value"] > 0 and m["checkpoint.bytes"]["value"] > 0
    assert m["unet.enc.passes_per_step"]["value"] == 1


def test_fails_without_the_program():
    bare = os.path.join(REPO, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        proc = _run("link-sweep", 0, cwd=bare, run=os.path.join(bare, "bench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
