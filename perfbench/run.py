"""owcsim benchmark: run one workload on one seed and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
`src/` and never installed.  Every measurement is a fresh child interpreter
(see child.py), timed from spawn to exit, with CPU time and peak RSS taken
from its `wait4` rusage.

--trace 0 reports the end-to-end metrics: the workload is repeated while
the next repetition still fits in S seconds (at least once) and the medians
are reported, and set-up time is the median of several set-up children.
The times are scaled to a reference host speed: a calibration child (a
fixed numpy kernel, see child.py) runs before every repetition and after
the last, and each time is multiplied by CALIB_REF_S over the calibration
time around it.  A shared host's speed can drift by 1.5-2x within minutes,
which no number of repetitions inside one run averages away; the scaled
times follow the program, not the host.  The raw times are printed too and
kept in result.json.
--trace 1 makes one untraced run and then one traced run, whose spans give
the per-layer metrics (see tracer.py).

Every child runs with BLAS and OpenMP held to one thread, so a child runs
as many threads as its `--threads` says and no more.  On a host with few
shared cores, BLAS threads that spin at a barrier while a sibling core is
taken away measure the host, not the program.

Every run's outputs are checked (checks.py) and digested; all runs of one
seed must give one digest, and seed 0 must give the digest recorded in
reference.json.  A table goes to stdout, then the result as one JSON line.
Files go to perfbench/out/<workload>/seed<N>/, with the generated INI.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
from inputs import REFERENCE_INI, WORKLOADS, make_config, read_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_EACH = 3               # timed set-up children before each repetition and at the end
CALIB_REF_S = 0.25           # calibration time on a quiet 2-vCPU Xeon host
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 175.0           # whole benchmark run, children included


class ChildFailed(RuntimeError):
    pass


def run_child(args: list, log_dir: str, deadline: float) -> tuple:
    """Run child.py ARGS to completion; its stdout/stderr go to `log_dir`.

    Returns (wall s, cpu s, peak RSS MB, stdout text); raises ChildFailed on
    a non-zero exit, including a kill at `deadline`.
    """
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args],
                                cwd=ROOT, stdout=out, stderr=err, env=CHILD_ENV)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path) as f:
            tail = f.read().strip().splitlines()[-3:]
        raise ChildFailed(f"{args[0]} exited {proc.returncode}: {' | '.join(tail)}")
    with open(out_path) as f:
        stdout = f.read()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, stdout


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as f:
        ref = f.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        return f"unknown ({ref[5:]})"
    return ref


def check_outputs(workload, cfg: dict, out_dir: str, stdout: str) -> tuple:
    if workload.command == "simulate":
        return checks.check_simulate(out_dir, stdout, cfg, workload.orders)
    return checks.check_sweep(out_dir, cfg)


def measure_run(workload, cfg, config_path, work_dir, deadline, spans="-"):
    """One workload child: its figures, per-op problems and output digest."""
    out_dir = os.path.join(work_dir, "outputs")
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["run", spans, "--", *workload.cli_args(config_path, out_dir)]
    try:
        wall, cpu, rss, stdout = run_child(args, work_dir, deadline)
    except ChildFailed as exc:
        os.makedirs(out_dir, exist_ok=True)
        ops, _ = check_outputs(workload, cfg, out_dir, "")
        return {"wall_s": None, "ops": ops, "problems": [str(exc)], "digest": None}
    ops, problems = check_outputs(workload, cfg, out_dir, stdout)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "ops": ops,
            "problems": problems, "digest": checks.digest(out_dir)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    reference_ini = os.path.join(ROOT, REFERENCE_INI)
    if not (os.path.isfile(reference_ini)
            and os.path.isfile(os.path.join(ROOT, "src", "owcsim", "cli.py"))):
        print(f"no owcsim source checkout at {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if workload.threads > nproc:
        print(f"{workload.name} needs {workload.threads} worker threads, "
              f"only {nproc} CPUs are available", file=sys.stderr)
        return 2

    work_dir = os.path.join(HERE, "out", workload.name, f"seed{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    with open(reference_ini) as f:
        config_text = make_config(f.read(), workload, args.seed)
    config_path = os.path.join(work_dir, "config.ini")
    with open(config_path, "w") as f:
        f.write(config_text)
    cfg = read_config(config_text)

    setup = ["setup", config_path]

    def time_setups_and_host():
        """SETUP_EACH set-up children, then one calibration; none in a traced run.

        They are spread between the repetitions, so their medians cover
        the whole run rather than one moment of the host's load.
        """
        if args.trace == 1:
            return
        setup_walls.append([run_child(setup, work_dir, deadline)[0]
                            for _ in range(SETUP_EACH)])
        calibs.append(json.loads(run_child(["calib"], work_dir, deadline)[3])["calib_s"])

    runs, setup_walls, calibs = [], [], []
    try:
        env = json.loads(run_child(["env"], work_dir, deadline)[3])
        elements = json.loads(run_child(setup, work_dir, deadline)[3])  # warms .pyc too
        t0 = time.perf_counter()
        while True:
            time_setups_and_host()
            runs.append(measure_run(workload, cfg, config_path, work_dir, deadline))
            walls = [r["wall_s"] for r in runs if r["wall_s"] is not None]
            if (not walls or args.trace == 1
                    or time.perf_counter() - t0 + statistics.median(walls) > args.seconds):
                break
        time_setups_and_host()
    except ChildFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    env.update(nproc=nproc, blas_threads=CHILD_ENV["OPENBLAS_NUM_THREADS"],
               calib_ref_s=CALIB_REF_S,
               git_sha=git_sha(), workload=workload.name,
               seed=args.seed, config=os.path.relpath(config_path, ROOT))
    traced = None
    if args.trace == 1 and walls:
        spans_path = os.path.join(work_dir, "spans.json")
        traced = measure_run(workload, cfg, config_path, work_dir, deadline, spans_path)
        runs.append(traced)

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)["digests"]
    digests = {r["digest"] for r in runs}
    run_problems = []
    if len(digests) != 1:
        run_problems.append(f"{len(digests)} different output digests in one seed")
    elif args.seed == 0 and digests != {reference[workload.name]}:
        run_problems.append("seed-0 outputs differ from the reference digest")
    attempted = failed = 0
    problems = []
    for r in runs:
        bad = r["problems"] + run_problems
        attempted += len(r["ops"])
        failed += len(r["ops"]) if bad else sum(p is not None for p in r["ops"].values())
        problems += bad + [f"{op}: {p}" for op, p in r["ops"].items() if p]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    raw = {}
    if args.trace == 0:
        # Repetition i ran between calibrations i and i + 1; set-up group i
        # ran just before calibration i.
        for r, around in zip(runs, zip(calibs, calibs[1:])):
            r["host_scale"] = CALIB_REF_S / statistics.mean(around)
        done = [r for r in runs if r["wall_s"] is not None]
        metrics = {k: statistics.median(r[k] * r["host_scale"] for r in done) if done else 0.0
                   for k in ("wall_s", "cpu_s")}
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in done)
                                  if done else 0.0)
        metrics.update(setup_s=statistics.median(w * CALIB_REF_S / c
                                                 for group, c in zip(setup_walls, calibs)
                                                 for w in group),
                       ops_ok_frac=(attempted - failed) / attempted)
        raw = {k: statistics.median(r[k] for r in done) if done else 0.0
               for k in ("wall_s", "cpu_s")}
        raw["setup_s"] = statistics.median(w for group in setup_walls for w in group)
    elif traced is not None and traced["wall_s"] is not None:
        import tracer
        with open(spans_path) as f:
            trace = json.load(f)
        metrics = tracer.per_layer(trace["spans"], trace["counts"], traced["wall_s"],
                                   statistics.median(walls), elements)
    else:
        metrics = dict.fromkeys(units, 0.0)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         f"match BENCHMARK.json")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(work_dir, "result.json"), "w") as f:
        json.dump({**result, "env": env, "raw_medians": raw, "calib_s": calibs,
                   "setup_walls_s": setup_walls,
                   "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "host_scale")
                             if k in r} for r in runs],
                   "digest": sorted(d for d in digests if d), "problems": problems},
                  f, indent=1)

    print(f"{workload.name} seed {args.seed}: {len(runs)} run(s), "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {nproc}, git {env['git_sha']}")
    print(f"  ops_failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if calibs:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())
              + f"; calibration {statistics.median(calibs):.6g} s "
              f"(reference {CALIB_REF_S} s)")
    for p in problems[:10]:
        print(f"  FAILED {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
