"""Workload definitions and the seeded config generator.

Every workload runs `owcsim.cli.main` on an INI file made from the shipped
reference config.  Seed 0 keeps the reference values; any other seed draws
the luminaire power, shifts the rack-row y span and moves the sweep start,
while the room, the grids and the sweep length stay put, so the element
counts, the delay-bin count and the number of positions never change.
"""

from __future__ import annotations

import configparser
import math
import random
import re
from dataclasses import dataclass

REFERENCE_INI = "src/owcsim/data/pod_reference.ini"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # owcsim subcommand
    orders: int
    threads: int
    y_step: float | None  # sweep step override, None keeps the reference

    def cli_args(self, config_path: str, out_dir: str) -> list:
        return [self.command, "--config", config_path, "--receiver", "all",
                "--orders", str(self.orders), "--threads", str(self.threads),
                "--out", out_dir]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("simulate-all", "simulate", 2, 1, None),
    Workload("sweep-all", "sweep", 2, 2, 2.0),
)}

SWEEP_LENGTH_M = 6.0      # reference sweep: 1.0 .. 7.0 m


def sweep_count(y_start: float, y_stop: float, y_step: float) -> int:
    """Number of sweep positions, computed exactly as `owcsim sweep` does."""
    return int(math.floor((y_stop - y_start) / y_step + 1e-9)) + 1


def _set(text: str, key: str, value) -> str:
    new, n = re.subn(rf"^{key} = .*$", f"{key} = {value!r}", text,
                     flags=re.MULTILINE)
    if n != 1:
        raise ValueError(f"reference config has {n} '{key}' lines, expected 1")
    return new


def make_config(reference_text: str, workload: Workload, seed: int) -> str:
    """The INI text for one workload and seed (seed 0: the reference values)."""
    text = reference_text
    if seed != 0:
        rng = random.Random(seed)
        power = round(rng.uniform(0.5, 2.0), 6)
        shift = round(rng.uniform(-0.5, 0.5), 3)
        y_start = round(rng.uniform(0.5, 1.5), 3)
        text = _set(text, "power_w", power)
        text = _set(text, "rack_row_y_start_m", round(1.0 + shift, 3))
        text = _set(text, "rack_row_y_end_m", round(7.0 + shift, 3))
        text = _set(text, "y_start_m", y_start)
        text = _set(text, "y_stop_m", round(y_start + SWEEP_LENGTH_M, 3))
    if workload.y_step is not None:
        text = _set(text, "y_step_m", workload.y_step)
    cfg, ref = read_config(text), read_config(reference_text)
    if (sweep_count(cfg["y_start"], cfg["y_stop"], cfg["y_step"])
            != sweep_count(ref["y_start"], ref["y_stop"], cfg["y_step"])):
        raise ValueError(f"seed {seed} changes the number of sweep positions")
    return text


def read_config(text: str) -> dict:
    """The values the output checks need, read independently of owcsim."""
    ini = configparser.ConfigParser()
    ini.read_string(text)
    f = ini.getfloat
    return {
        "room": (f("room", "length_m"), f("room", "width_m"), f("room", "height_m")),
        "rack_top": f("room", "rack_top_m"),
        "power_w": f("luminaires", "power_w"),
        "bitrate": f("receiver", "bitrate_bps"),
        "preamp": f("noise", "preamp_a_per_sqrt_hz"),
        "background": f("noise", "background_current_a"),
        "bandwidth_factor": f("noise", "bandwidth_factor"),
        "bin_s": f("trace", "bin_ps") * 1e-12,
        "row_x": f("sweep", "row_x_m"),
        "y_start": f("sweep", "y_start_m"),
        "y_stop": f("sweep", "y_stop_m"),
        "y_step": f("sweep", "y_step_m"),
    }
