"""Benchmark of the icustudy pipeline through its CLI entry point.

    python3 perfbench/run.py --workload study-3000 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The BLAS and OpenMP pools are
pinned to one thread here, before numpy loads, and never in the program:
with OpenBLAS's default pool on two cores stepwise selection runs 2.5x
slower in wall time and costs about 5x the CPU.

A run sets up the workload's inputs at least three times and for at least
eight seconds (``setup_s`` is the median), then repeats whole rounds of the workload's stage commands
until ``--seconds`` have passed.  Every set-up and every round runs in its
own forked process, so a round's peak resident memory excludes set-up
and the checks.  Each stage command is one operation; it fails when
``icustudy.cli.main`` returns non-zero or raises, or when its outputs fail
their checks, which run after the round's measurements are taken.  With
``--trace 1`` the rounds are traced and the per-layer metrics are reported
instead of the end-to-end ones.  The last line of standard output is the
JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # at least this many set-ups per run,
SETUP_SECONDS = 8.0  # and at least this long in total, so that a 1-s set-up is not a 1-s sample
RUN_LIMIT_S = 150.0  # start no round that would end past this; the hard limit is 180 s


def in_child(fn, *args):
    """Run fn(*args) in a forked process and return its (pickled) result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = (True, fn(*args))
        except BaseException:
            payload = (False, traceback.format_exc())
        try:
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"child process failed:\n{value}")
    return value


def _tracer(traced, run_id):
    """An installed tracer for this process, or None when untraced."""
    if not traced:
        return None
    tracer = bench_trace.Tracer(run_id)
    tracer.install()
    return tracer


def _setup_once(wl, seed, dest, traced, shift):
    tracer = _tracer(traced, f"{wl.name}-seed{seed}-setup")
    seconds = bench_workloads.generate(wl, seed, dest, shift=shift)
    return seconds, tracer.spans if tracer else []


def _round(wl, seed, inputs, work, traced, run_id):
    from icustudy import cli

    out = work / "out"
    shutil.rmtree(work, ignore_errors=True)
    out.mkdir(parents=True)
    cfg = bench_workloads.write_config(wl, inputs, out)
    tracer = _tracer(traced, run_id)
    wall = cpu = 0.0
    codes, outputs = [], []
    for k, op in enumerate(wl.ops):
        argv = bench_workloads.argv(op, cfg, inputs, out)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        wall += time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu += (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        if k == len(wl.ops) - 1:
            outputs.append(out)
        else:  # a later command may overwrite these outputs before they are checked
            outputs.append(shutil.copytree(out, work / f"after-{k}"))
        codes.append(code)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    results = []
    for op, code, path in zip(wl.ops, codes, outputs):
        problems = bench_workloads.run_checks(op, wl, seed, inputs, path) if code == 0 else []
        for p in problems:
            print(f"check failed after `icustudy {' '.join(op.argv[:2])}`: {p}", file=sys.stderr)
        results.append((code, problems))
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb, "ops": results,
            "spans": tracer.spans if tracer else []}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="generator seed in place of the workload's chosen one (e.g. its held-out seed)")
    args = parser.parse_args(argv)
    wl = bench_workloads.WORKLOADS[args.workload]
    if args.data_seed is not None:
        wl = dataclasses.replace(wl, data_seed=args.data_seed)
    traced = bool(args.trace)
    run_start = time.perf_counter()

    work = HERE / "work" / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    inputs = work / "inputs"
    try:
        # the first set-up writes the inputs; the others are only timed
        setups = []
        while len(setups) < SETUPS or sum(t for t, _ in setups) < SETUP_SECONDS:
            dest = work / "setup" if setups else inputs
            setups.append(in_child(_setup_once, wl, args.seed, dest, traced, not setups))
        shutil.rmtree(work / "setup", ignore_errors=True)
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            last = time.perf_counter()
            run_id = f"{wl.name}-seed{args.seed}-round{len(rounds)}"
            rounds.append(in_child(_round, wl, args.seed, inputs, work / "round", traced, run_id))
            now = time.perf_counter()
            if now - run_start + (now - last) > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [r for rnd in rounds for r in rnd["ops"]]
    failed = sum(1 for code, problems in ops if code != 0 or problems)
    correct = not any(problems for _, problems in ops)
    walls = [r["wall_s"] for r in rounds]
    if traced:
        per_round = [bench_trace.layer_metrics(r["spans"]) for r in rounds]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        values["synth.generate_s"] = statistics.median(
            sum(s.duration for s in spans if s.name == "synth.generate") for _, spans in setups
        )
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if traced:
        with open(results / f"spans-{stem}.jsonl", "w") as fh:
            for spans in [s for _, s in setups] + [r["spans"] for r in rounds]:
                for span in spans:
                    fh.write(json.dumps(bench_trace.span_record(span)) + "\n")
    summary = {"workload": wl.name, "n": wl.n, "data_seed": wl.data_seed, "seed": args.seed,
               "rounds": len(rounds), "round_wall_s": walls, "setup_s": [s for s, _ in setups]}
    (results / f"run-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"{wl.name}: {len(rounds)} round(s), wall per round {', '.join(f'{w:.3f}' for w in walls)} s"
          f"{' (traced)' if traced else ''}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "icustudy" / "__init__.py").is_file():
        print(f"error: no icustudy sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    # a terminated run still stops its forked child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench_trace
    import bench_workloads
    import icustudy.cli  # noqa: F401  loaded once here, shared by every forked child

    sys.exit(main())
