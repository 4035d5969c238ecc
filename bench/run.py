"""Run one semcom benchmark workload and print its metrics.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads: train, receive-guided, link-sweep (see bench/README.md).

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`. The lines before it
are a table of every metric with its unit and sample count, then the run
record (machine, nproc, versions, BLAS threads, model config, batch, sampler
steps, workload seed). The record, and with `--trace 1` every span, is also
written under `.bench_out/` in the repository root.

Exit status: 0 when every correctness check passed, 1 when one failed, 2 when
the program cannot be imported.
"""
from __future__ import annotations

import os

# Fixed before numpy loads. One thread never exceeds nproc, and the timings
# then do not depend on a second core being free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import dataclasses
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

REPLAY_SHARE = 0.1  # share of a traced run's units replayed untraced

# Timings are reported at the machine speed at which reference() takes
# REFERENCE_S, about its typical time on the machine the baseline comes from.
REFERENCE_S = 2.25e-3
_REF_MATRIX = np.random.default_rng(0).standard_normal((96, 96)).astype(np.float32)
_REF_VECTOR = np.random.default_rng(1).standard_normal(4096)


def reference():
    """Seconds taken by a fixed in-cache mix of interpreter, BLAS and numpy work.

    Timed before and after each unit of work and each set-up; a unit's times
    are scaled by REFERENCE_S over the mean of the two. A machine whose speed
    drifts (slow spells on a shared host) then moves the reported timings much
    less, while a change to the program moves them as before. The best of
    three tries, with the garbage collector off, keeps a one-off pause from
    passing for a slow spell.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            total = 0
            for i in range(20000):
                total += i
            for _ in range(30):
                _REF_MATRIX @ _REF_MATRIX
            for _ in range(30):
                np.exp(_REF_VECTOR).sum()
            best = min(best, time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return best


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "receive-guided", "link-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    def blas(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "blas_threads": BLAS_THREADS,
    }


def run_units(wl, st, rec, seconds, min_units):
    """Closed loop: the next unit starts when the previous one has ended."""
    deadline = time.perf_counter() + seconds
    k = 0
    before = reference()
    while k < min_units or time.perf_counter() < deadline:
        walls, steps = len(rec.walls), len(rec.steps)
        try:
            wl.run_unit(st, k, rec)
        except Exception:  # a failing unit is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            rec.check(False, f"unit {k} raised")
        after = reference()
        scale = REFERENCE_S / (0.5 * (before + after))
        rec.wall_scale += [scale] * (len(rec.walls) - walls)
        rec.step_scale += [scale] * (len(rec.steps) - steps)
        before = after
        k += 1
    return k


def run(workload, seed, seconds, trace, workdir):
    import spans
    from workloads import WORKLOADS, Recorder

    wl = WORKLOADS[workload](workdir)
    tracer = spans.Tracer() if trace else None
    rec = Recorder(tracer)
    if tracer is not None:
        tracer.install()
    try:
        setup_s, firsts = [], []
        before = reference()
        for _ in range(wl.setups):
            if tracer is not None:
                tracer.unit = spans.SETUP
                i = tracer.open(spans.ROOT)
            t0 = time.perf_counter()
            st = wl.setup(seed)
            seconds_taken = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(i)
            after = reference()
            setup_s.append((seconds_taken, REFERENCE_S / (0.5 * (before + after))))
            before = after
            firsts.append(st.first)
        if st.first is not None:
            rec.check(len(set(firsts)) == 1, "set-ups with the same seed disagree on their first unit")
        n = run_units(wl, st, rec, seconds, wl.min_units)
        if tracer is not None:
            tracer.unit = n - 1  # the train workload's final restore counts toward its last unit
        wl.finish(st, rec)
    finally:
        if tracer is not None:
            tracer.uninstall()

    # Repeat the first units untraced from a fresh set-up: the digests must
    # match, and with tracing on the wall-time difference is its overhead.
    replay = Recorder()
    k = max(1, round(REPLAY_SHARE * n)) if trace else 1
    fresh = wl.setup(seed)
    run_units(wl, fresh, replay, 0.0, k)
    rec.check(replay.digests == rec.digests[:len(replay.digests)],
              "traced and untraced runs differ" if trace else "repeating the first unit changed its output")
    overhead_ms = 1e3 * (sum(rec.walls[:len(replay.walls)]) - sum(replay.walls)) / len(replay.walls)
    return wl, st, rec, setup_s, overhead_ms


def end_to_end(rec, setup_s):
    """Every end-to-end number of the run, as (value, sample count).

    The gated names are at the reference speed (see reference()); the
    `.raw` entries are the wall-clock values as measured.
    """
    out = {}
    for suffix, use_scale in (("", True), (".raw", False)):
        setups = [t * (s if use_scale else 1.0) for t, s in setup_s]
        walls = [w * (s if use_scale else 1.0) for w, s in zip(rec.walls, rec.wall_scale)]
        steps_ms = [1e3 * t * (s if use_scale else 1.0) for t, s in zip(rec.steps, rec.step_scale)]
        out[f"setup_s{suffix}"] = (statistics.median(setups), len(setups))
        out[f"items_per_s{suffix}"] = (rec.items / sum(walls), len(walls))
        out[f"step_ms.p50{suffix}"] = (float(np.percentile(steps_ms, 50)), len(steps_ms))
        out[f"step_ms.p90{suffix}"] = (float(np.percentile(steps_ms, 90)), len(steps_ms))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return out


# What the shared end-to-end names mean on each workload.
ALIASES = {
    "train": {"items_per_s": ("train.samples_per_s", "samples/s"), "step_ms": ("train.step_ms", "ms")},
    "receive-guided": {"items_per_s": ("receive.images_per_s", "images/s"),
                       "step_ms": ("receive.step_ms", "ms")},
    "link-sweep": {"items_per_s": ("link.maps_per_s", "maps/s"), "step_ms": ("link.pair_ms", "ms")},
}


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(REPO, "src")
    try:
        import semcom
    except ImportError as e:
        print(f"cannot import the program from {src}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(semcom.__file__).startswith(src + os.sep):
        print(f"semcom was imported from {semcom.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    import workloads

    workdir = os.path.join(REPO, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl, st, rec, setup_s, overhead_ms = run(args.workload, args.seed, args.seconds,
                                                args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(rec, setup_s)
    outputs = wl.outputs(st)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, (value, count) in e2e.items():
        head, dot, tail = name.partition(".")
        alias, unit = ALIASES[args.workload].get(head, (head, units[name.removesuffix(".raw")]))
        print(f"{alias + dot + tail:32s} {value:14.6g} {unit:10s} n={count}")
    for name, value in outputs.items():
        print(f"{name:32s} {value:14.6g} {'':10s} n=1")

    if args.trace:
        layers = rec.tracer.layer_stats(rec.kind)
        layers.update({"trace.overhead_ms": overhead_ms,
                       "diffusion.loss_last": outputs.get("train.loss_last", 0.0),
                       "fds.agreement": outputs.get("link.fds_agreement", 0.0)})
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        for name, value in metrics.items():
            print(f"{name:44s} {value:14.6g} {units[name]}")
    else:
        metrics = {m["name"]: e2e[m["name"]][0] for m in spec["end_to_end"]}

    record = {
        "schema": "semcom.bench.v1",
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "model": dataclasses.asdict(workloads.DESK), "batch": workloads.BATCH,
        "sampler_steps": workloads.SAMPLER_STEPS, "guidance": workloads.GUIDANCE,
        "end_to_end": {name: {"value": v, "count": c} for name, (v, c) in e2e.items()},
        "outputs": outputs,
        "metrics": metrics,
        "unit_seconds": rec.walls,
        "step_seconds": rec.steps,
        "unit_scale": rec.wall_scale,
        "step_scale": rec.step_scale,
        "digest": hashlib.sha256("".join(rec.digests).encode()).hexdigest(),
        "attempted": rec.attempted, "failed": rec.failed, "failures": rec.failures,
    }
    out_dir = os.path.join(REPO, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        rec.tracer.dump(os.path.join(out_dir, f"spans-{stem}.json"), {"workload": args.workload, "seed": args.seed})
    print(json.dumps({k: record[k] for k in ("environment", "model", "batch", "sampler_steps", "seed", "digest")}))
    for what in rec.failures:
        print(f"FAILED: {what}", file=sys.stderr)

    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
