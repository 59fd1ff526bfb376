"""Output checks and digests for one workload run.

An op is one (position, receiver kind) evaluation: a (mount, kind) group of
IR files for `simulate`, one metrics row for `sweep`.  Every check failure
marks its op failed; a failure that concerns the whole run (bad exit code,
unexpected files) fails every op of that run.
"""

from __future__ import annotations

import hashlib
import math
import os
import re

from inputs import sweep_count

KINDS = ("wfov", "adr", "imaging")
BRANCHES = {"wfov": 1, "adr": 3, "imaging": 50}
MOUNTS = 3                  # one receiver mount per rack row
LUMINAIRES_PER_SET = 3      # ceiling units above one row
RESPONSIVITY_A_W = 0.4      # photodetector of every receiver
Q_ELECTRON = 1.602e-19
C_LIGHT = 2.9979e8
METRICS_HEADER = ("mount_x,mount_y,mount_z,receiver,delay_spread_s,"
                  "bandwidth_hz,snr_sc_db,snr_mrc_db,ber,max_rate_bps")

_TOTAL_LINE = re.compile(r"^mount (\d+) \(.*\) (\w+): total_power_w=(\S+) ")


def digest(out_dir: str) -> str:
    """SHA-256 over the names and bytes of every file the run wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def nbins(cfg: dict, orders: int) -> int:
    diag = math.sqrt(sum(s * s for s in cfg["room"]))
    return int((orders + 1) * diag / C_LIGHT / cfg["bin_s"]) + 2


def _ir_problem(path: str, bin_s: float, max_bins: int):
    """(problem or None, total power) of one `time_s,power_w` IR dump."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "time_s,power_w":
        return "bad header", 0.0
    if len(lines) - 1 > max_bins:
        return f"{len(lines) - 1} rows for {max_bins} bins", 0.0
    total, last = 0.0, -1
    for line in lines[1:]:
        try:
            t, p = (float(v) for v in line.split(","))
        except ValueError:
            return f"malformed row {line!r}", 0.0
        if not (math.isfinite(t) and math.isfinite(p)) or p <= 0.0:
            return f"bad row {line!r}", 0.0
        k = t / bin_s - 0.5
        kr = round(k)
        if abs(k - kr) > 1e-6 or not last < kr < max_bins:
            return f"time {t} is not a new bin centre", 0.0
        total += p
        last = kr
    return None, total


def check_simulate(out_dir: str, stdout: str, cfg: dict, orders: int) -> tuple:
    """(map op name -> problem or None, run-level problems) for the IR dumps."""
    max_bins = nbins(cfg, orders)
    emitted = LUMINAIRES_PER_SET * cfg["power_w"]
    printed = {}
    for line in stdout.splitlines():
        m = _TOTAL_LINE.match(line)
        if m:
            printed[(int(m.group(1)), m.group(2))] = float(m.group(3))
    ops = {}
    for mi in range(MOUNTS):
        for kind in KINDS:
            problem, total = None, 0.0
            for bj in range(BRANCHES[kind]):
                path = os.path.join(out_dir, f"ir_{kind}_mount{mi}_branch{bj}.csv")
                if not os.path.isfile(path):
                    problem = f"missing {os.path.basename(path)}"
                    break
                problem, power = _ir_problem(path, cfg["bin_s"], max_bins)
                if problem:
                    problem = f"{os.path.basename(path)}: {problem}"
                    break
                total += power
            if problem is None:
                if not 0.0 < total <= emitted:
                    problem = f"received {total} W of {emitted} W emitted"
                elif (mi, kind) not in printed or not math.isclose(
                        printed[(mi, kind)], total, rel_tol=1e-9):
                    problem = "printed total power disagrees with the IR files"
            ops[f"mount{mi}:{kind}"] = problem
    expected = {f"ir_{k}_mount{m}_branch{b}.csv"
                for m in range(MOUNTS) for k in KINDS for b in range(BRANCHES[k])}
    extra = sorted(set(os.listdir(out_dir)) - expected)
    return ops, ([f"unexpected files {extra[:3]}"] if extra else [])


def _row_problem(fields, y: float, kind: str, cfg: dict, snr_cap: float):
    if len(fields) != 10:
        return f"{len(fields)} fields"
    x, my, z, rkind, spread, bw, sc_db, mrc_db, ber, rate = fields
    if rkind != kind:
        return f"receiver {rkind}, expected {kind}"
    try:
        x, my, z, spread, bw, sc_db, mrc_db, ber, rate = (
            float(v) for v in (x, my, z, spread, bw, sc_db, mrc_db, ber, rate))
    except ValueError:
        return "malformed number"
    if (x, z) != (cfg["row_x"], cfg["rack_top"]) or not math.isclose(my, y, abs_tol=1e-9):
        return f"mount ({x}, {my}, {z}) is not ({cfg['row_x']}, {y}, {cfg['rack_top']})"
    if not all(map(math.isfinite, (spread, sc_db, mrc_db, ber))):
        return "non-finite value"
    # inf is the documented sentinel for an unbounded spectrum / zero spread
    if not (bw > 0.0 and rate > 0.0):
        return f"bandwidth {bw} or rate {rate} not positive"
    if spread < 0.0 or (spread > 0.0 and not math.isclose(rate, 1.0 / (10.0 * spread))):
        return f"rate {rate} does not match delay spread {spread}"
    if not 0.0 <= ber <= 0.5:
        return f"BER {ber} outside [0, 0.5]"
    if mrc_db < sc_db - 1e-9:
        return "MRC SNR below SC SNR"
    if 10.0 ** (mrc_db / 10.0) > snr_cap:
        return "SNR implies more received power than the luminaires emit"
    return None


def check_sweep(out_dir: str, cfg: dict) -> tuple:
    """(map op name -> problem, run-level problems) for metrics.csv."""
    count = sweep_count(cfg["y_start"], cfg["y_stop"], cfg["y_step"])
    ys = [cfg["y_start"] + k * cfg["y_step"] for k in range(count)]
    # Sum of branch SNRs is at most (R * P / sigma_floor)^2 when the branch
    # powers sum to at most the emitted P and sigma_floor omits signal shot noise.
    band = cfg["bandwidth_factor"] * cfg["bitrate"]
    sigma_floor = math.sqrt(cfg["preamp"] ** 2 * band
                            + 2.0 * Q_ELECTRON * cfg["background"] * band)
    snr_cap = (RESPONSIVITY_A_W * LUMINAIRES_PER_SET * cfg["power_w"] / sigma_floor) ** 2
    path = os.path.join(out_dir, "metrics.csv")
    rows = []
    if os.path.isfile(path):
        with open(path) as f:
            lines = f.read().splitlines()
        if lines and lines[0] == METRICS_HEADER:
            rows = lines[1:]
    ops = {}
    for pi, y in enumerate(ys):
        for ki, kind in enumerate(KINDS):
            r = pi * len(KINDS) + ki
            problem = ("missing row" if r >= len(rows) else
                       _row_problem(rows[r].split(","), y, kind, cfg, snr_cap))
            ops[f"y{pi}:{kind}"] = problem
    problems = []
    if len(rows) > count * len(KINDS):
        problems.append(f"{len(rows) - count * len(KINDS)} rows past the sweep")
    extra = sorted(set(os.listdir(out_dir)) - {"metrics.csv"})
    if extra:
        problems.append(f"unexpected files {extra[:3]}")
    return ops, problems
