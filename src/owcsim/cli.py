"""Command-line front end: config parsing, single runs and spatial sweeps.

Config files are flat INI-style text with a fixed schema (sections: room,
surfaces, luminaires, receiver, noise, trace, sweep).  Unknown keys are
rejected, all outputs are deterministic functions of the config, and every
error names the offending key or scene entity.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .linkmetrics import NoiseParams, delay_stats, link_report
from .raytracer import (ImpulseResponse, TraceConfig, compute_field,
                        second_order_extent)
from .receivers import load_pixel_layout, make_adr, make_imaging, make_wfov
from .scene import PodConfig, build_pod, validate_scene

_REQUIRED = object()

# section -> key -> (type, default); type is float | int | bool | str | choice
_SCHEMA = {
    "room": {
        "length_m": ("float", 8.0),
        "width_m": ("float", 8.0),
        "height_m": ("float", 3.0),
        "rack_top_m": ("float", 2.0),
        "rack_row_y_start_m": ("float", 1.0),
        "rack_row_y_end_m": ("float", 7.0),
        "rack_depth_m": ("float", 1.0),
        "rack_occluding": ("bool", False),
    },
    "surfaces": {
        "wall_reflectance": ("float", 0.8),
        "ceiling_reflectance": ("float", 0.8),
        "floor_reflectance": ("float", 0.3),
    },
    "luminaires": {
        "power_w": ("float", _REQUIRED),
        "semi_angle_deg": ("float", 70.0),
        "diodes_per_unit": ("int", 16),
    },
    "receiver": {
        "kind": ("choice", "adr"),
        "bitrate_bps": ("float", 2e9),
        "pixel_layout_file": ("str", ""),
    },
    "noise": {
        "preamp_a_per_sqrt_hz": ("float", 4.5e-12),
        "background_current_a": ("float", 100e-6),
        "bandwidth_factor": ("float", 0.7),
    },
    "trace": {
        "orders": ("int", 2),
        "first_edge_m": ("float", 0.05),
        "second_edge_m": ("float", 0.20),
        "bin_ps": ("float", 50.0),
        "occlusion": ("bool", False),
    },
    "sweep": {
        "row_x_m": ("float", 4.0),
        "y_start_m": ("float", 1.0),
        "y_stop_m": ("float", 7.0),
        "y_step_m": ("float", 0.5),
    },
}

RECEIVER_KINDS = ("wfov", "adr", "imaging", "all")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepSpec:
    row_x: float
    y_start: float
    y_stop: float
    y_step: float


@dataclass(frozen=True)
class RunConfig:
    pod: PodConfig
    receiver_kind: str
    pixel_layout_file: str | None
    bitrate: float
    noise: NoiseParams
    trace: TraceConfig
    sweep: SweepSpec


def _convert(section, key, kind, raw, line_no):
    if kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"line {line_no}: expected a number for '{section}.{key}', got '{raw}'"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(
                f"line {line_no}: '{section}.{key}' must be a finite number, got '{raw}'"
            )
        return value
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"line {line_no}: expected an integer for '{section}.{key}', got '{raw}'"
            ) from None
    if kind == "bool":
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(
            f"line {line_no}: expected true/false for '{section}.{key}', got '{raw}'"
        )
    if kind == "choice":
        if raw not in RECEIVER_KINDS:
            raise ConfigError(
                f"line {line_no}: '{section}.{key}' must be one of "
                f"{'/'.join(RECEIVER_KINDS)}, got '{raw}'"
            )
        return raw
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration.

    Unknown sections/keys and type mismatches raise ConfigError with the
    offending line; omitted optional keys take their documented defaults.
    """
    values = {s: dict() for s in _SCHEMA}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{line}'")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any section")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(
                f"line {line_no}: unknown key '{key}' in section [{section}]"
            )
        if key in values[section]:
            raise ConfigError(
                f"line {line_no}: duplicate key '{key}' in section [{section}]"
            )
        kind, _ = _SCHEMA[section][key]
        values[section][key] = _convert(section, key, kind, raw, line_no)

    for sec, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            if key not in values[sec]:
                if default is _REQUIRED:
                    raise ConfigError(
                        f"missing required key '{key}' in section [{sec}]"
                    )
                values[sec][key] = default

    room = values["room"]
    surf = values["surfaces"]
    lum = values["luminaires"]
    if lum["power_w"] <= 0.0:
        raise ConfigError("'luminaires.power_w' must be positive")
    for key in ("wall_reflectance", "ceiling_reflectance", "floor_reflectance"):
        if not 0.0 <= surf[key] <= 1.0:
            raise ConfigError(f"'surfaces.{key}' must be in [0, 1], got {surf[key]}")
    pod = PodConfig(
        luminaire_power_w=lum["power_w"],
        room=(room["length_m"], room["width_m"], room["height_m"]),
        wall_reflectance=surf["wall_reflectance"],
        ceiling_reflectance=surf["ceiling_reflectance"],
        floor_reflectance=surf["floor_reflectance"],
        semi_angle_deg=lum["semi_angle_deg"],
        diodes_per_unit=lum["diodes_per_unit"],
        rack_top_m=room["rack_top_m"],
        row_y_span=(room["rack_row_y_start_m"], room["rack_row_y_end_m"]),
        rack_depth_m=room["rack_depth_m"],
        rack_occluding=room["rack_occluding"],
    )
    trc = values["trace"]
    if trc["bin_ps"] <= 0.0:
        raise ConfigError("'trace.bin_ps' must be positive")
    try:
        trace = TraceConfig(
            max_order=trc["orders"],
            first_edge=trc["first_edge_m"],
            second_edge=trc["second_edge_m"],
            bin_width=trc["bin_ps"] * 1e-12,
            occlusion=trc["occlusion"],
        )
    except ValueError as exc:
        raise ConfigError(f"[trace] {exc}") from None
    rcv = values["receiver"]
    if rcv["bitrate_bps"] <= 0.0:
        raise ConfigError("'receiver.bitrate_bps' must be positive")
    nse = values["noise"]
    for key in ("preamp_a_per_sqrt_hz", "background_current_a", "bandwidth_factor"):
        if nse[key] < 0.0:
            raise ConfigError(f"'noise.{key}' must be non-negative")
    swp = values["sweep"]
    if swp["y_step_m"] <= 0.0:
        raise ConfigError("'sweep.y_step_m' must be positive")
    if not (0.0 <= swp["y_start_m"] <= room["width_m"]
            and 0.0 <= swp["y_stop_m"] <= room["width_m"]
            and swp["y_start_m"] <= swp["y_stop_m"]):
        raise ConfigError(
            f"'sweep' y range [{swp['y_start_m']}, {swp['y_stop_m']}] "
            f"is outside the room width {room['width_m']}"
        )
    if not 0.0 <= swp["row_x_m"] <= room["length_m"]:
        raise ConfigError(f"'sweep.row_x_m' {swp['row_x_m']} is outside the room")
    return RunConfig(
        pod=pod,
        receiver_kind=rcv["kind"],
        pixel_layout_file=rcv["pixel_layout_file"] or None,
        bitrate=rcv["bitrate_bps"],
        noise=NoiseParams(
            preamp_density=nse["preamp_a_per_sqrt_hz"],
            background_current=nse["background_current_a"],
            bandwidth_factor=nse["bandwidth_factor"],
        ),
        trace=trace,
        sweep=SweepSpec(swp["row_x_m"], swp["y_start_m"],
                        swp["y_stop_m"], swp["y_step_m"]),
    )


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to config text (parse/serialize round-trips)."""
    lines = []
    values = {
        "room": {
            "length_m": cfg.pod.room[0], "width_m": cfg.pod.room[1],
            "height_m": cfg.pod.room[2], "rack_top_m": cfg.pod.rack_top_m,
            "rack_row_y_start_m": cfg.pod.row_y_span[0],
            "rack_row_y_end_m": cfg.pod.row_y_span[1],
            "rack_depth_m": cfg.pod.rack_depth_m,
            "rack_occluding": cfg.pod.rack_occluding,
        },
        "surfaces": {
            "wall_reflectance": cfg.pod.wall_reflectance,
            "ceiling_reflectance": cfg.pod.ceiling_reflectance,
            "floor_reflectance": cfg.pod.floor_reflectance,
        },
        "luminaires": {
            "power_w": cfg.pod.luminaire_power_w,
            "semi_angle_deg": cfg.pod.semi_angle_deg,
            "diodes_per_unit": cfg.pod.diodes_per_unit,
        },
        "receiver": {
            "kind": cfg.receiver_kind,
            "bitrate_bps": cfg.bitrate,
            "pixel_layout_file": cfg.pixel_layout_file or "",
        },
        "noise": {
            "preamp_a_per_sqrt_hz": cfg.noise.preamp_density,
            "background_current_a": cfg.noise.background_current,
            "bandwidth_factor": cfg.noise.bandwidth_factor,
        },
        "trace": {
            "orders": cfg.trace.max_order,
            "first_edge_m": cfg.trace.first_edge,
            "second_edge_m": cfg.trace.second_edge,
            "bin_ps": cfg.trace.bin_width * 1e12,
            "occlusion": cfg.trace.occlusion,
        },
        "sweep": {
            "row_x_m": cfg.sweep.row_x, "y_start_m": cfg.sweep.y_start,
            "y_stop_m": cfg.sweep.y_stop, "y_step_m": cfg.sweep.y_step,
        },
    }
    for sec in _SCHEMA:
        lines.append(f"[{sec}]")
        for key in _SCHEMA[sec]:
            v = values[sec][key]
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{key} = {v}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# output files

def _fmt(x: float) -> str:
    return repr(float(x))


def write_ir_csv(ir: ImpulseResponse, path: str) -> None:
    """Two-column dump `time_s,power_w`, one row per non-empty bin."""
    t = ir.times()
    with open(path, "w", newline="") as f:
        f.write("time_s,power_w\n")
        for k in np.nonzero(ir.bins)[0]:
            f.write(f"{_fmt(t[k])},{_fmt(ir.bins[k])}\n")


METRICS_HEADER = ("mount_x,mount_y,mount_z,receiver,delay_spread_s,"
                  "bandwidth_hz,snr_sc_db,snr_mrc_db,ber,max_rate_bps")


def _metrics_row(report) -> str:
    x, y, z = report.mount
    return ",".join([
        _fmt(x), _fmt(y), _fmt(z), report.receiver_kind,
        _fmt(report.delay.rms_spread), _fmt(report.bandwidth_hz),
        _fmt(report.snr_sc_db), _fmt(report.snr_mrc_db),
        _fmt(report.ber), _fmt(report.max_rate_bps),
    ])


def _make_receiver(kind: str, mount, layout):
    if kind == "wfov":
        return make_wfov(mount)
    if kind == "adr":
        return make_adr(mount)
    if kind == "imaging":
        return make_imaging(mount, layout)
    raise ValueError(f"unknown receiver kind {kind!r}")


def _receiver_kinds(cfg: RunConfig, override: str | None):
    kind = override or cfg.receiver_kind
    return ("wfov", "adr", "imaging") if kind == "all" else (kind,)


def _build_scene_or_fail(cfg: RunConfig):
    scene = build_pod(cfg.pod)
    diags = validate_scene(scene)
    if diags:
        for d in diags:
            print(f"scene error: {d}", file=sys.stderr)
        return None
    return scene


def _load_layout(cfg: RunConfig):
    if cfg.pixel_layout_file is None:
        return None
    return load_pixel_layout(cfg.pixel_layout_file)


# ---------------------------------------------------------------------------
# subcommands

def run_simulate(cfg: RunConfig, out_dir: str, receiver: str | None = None,
                 threads: int = 1, gnuplot: bool = False) -> int:
    """Trace every branch at every mount and dump impulse-response CSVs."""
    scene = _build_scene_or_fail(cfg)
    if scene is None:
        return 1
    layout = _load_layout(cfg)
    kinds = _receiver_kinds(cfg, receiver)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for mi, mount in enumerate(scene.mounts):
        rxs = [_make_receiver(kind, mount, layout) for kind in kinds]
        field = compute_field(scene, scene.assignment[mi], mount, cfg.trace,
                              threads=threads, receivers=rxs)
        for kind, rx in zip(kinds, rxs):
            irs = field.receiver_irs(rx)
            for bj, ir in enumerate(irs):
                path = os.path.join(out_dir, f"ir_{kind}_mount{mi}_branch{bj}.csv")
                write_ir_csv(ir, path)
                written.append(path)
            total = sum(ir.total_power() for ir in irs)
            best = max(irs, key=lambda ir: ir.total_power())
            spread = (delay_stats(best).rms_spread
                      if best.total_power() > 0.0 else float("nan"))
            print(f"mount {mi} ({_fmt(mount[0])}, {_fmt(mount[1])}, "
                  f"{_fmt(mount[2])}) {kind}: total_power_w={_fmt(total)} "
                  f"delay_spread_s={_fmt(spread)}")
    if gnuplot:
        script = os.path.join(out_dir, "plot_ir.gp")
        with open(script, "w") as f:
            f.write("set datafile separator ','\n")
            f.write("set xlabel 'time (s)'\nset ylabel 'received power (W)'\n")
            f.write("set logscale y\nplot \\\n")
            f.write(", \\\n".join(
                f"  '{os.path.basename(p)}' using 1:2 with impulses "
                f"title '{os.path.basename(p)[3:-4]}'" for p in written))
            f.write("\n")
    return 0


def run_sweep(cfg: RunConfig, out_dir: str, receiver: str | None = None,
              threads: int = 1) -> int:
    """Move the receiver along the row line and write one metrics row per
    position per receiver kind."""
    scene = _build_scene_or_fail(cfg)
    if scene is None:
        return 1
    layout = _load_layout(cfg)
    kinds = _receiver_kinds(cfg, receiver)
    sw = cfg.sweep
    count = int(math.floor((sw.y_stop - sw.y_start) / sw.y_step + 1e-9)) + 1
    ys = [sw.y_start + k * sw.y_step for k in range(count)]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.csv")
    with open(path, "w", newline="") as f:
        f.write(METRICS_HEADER + "\n")
        for y in ys:
            mount = np.array([sw.row_x, y, cfg.pod.rack_top_m])
            lum_ids = scene.assigned_luminaires(mount)
            rxs = [_make_receiver(kind, mount, layout) for kind in kinds]
            field = compute_field(scene, lum_ids, mount, cfg.trace,
                                  threads=threads, receivers=rxs)
            for rx in rxs:
                report = link_report(scene, rx, cfg.trace, cfg.bitrate,
                                     cfg.noise, threads=threads, field=field)
                f.write(_metrics_row(report) + "\n")
    print(f"wrote {path}: {count * len(kinds)} rows")
    return 0


def run_scene_check(cfg: RunConfig, receiver: str | None = None) -> int:
    """Validate the scene and report discretization / cost figures."""
    scene = build_pod(cfg.pod)
    diags = validate_scene(scene)
    for d in diags:
        print(f"diagnostic: {d}")
    print(f"{len(diags)} diagnostics")
    n1 = len(scene.surface_elements(cfg.trace.first_edge))
    n2 = len(scene.surface_elements(cfg.trace.second_edge))
    print(f"first-order elements: {n1}")
    print(f"second-order elements: {n2}")
    per_mount = len(scene.assignment[0]) if scene.assignment else 0
    print(f"luminaires: {len(scene.luminaires)} ({per_mount} per mount)")
    print(f"estimated paths per mount: los={per_mount} "
          f"first={per_mount * n1}")
    if diags:
        return 1
    if cfg.trace.max_order >= 2:
        # the pairs the kernel will trace: lit first-bounce rows times the
        # second-bounce columns the selected receivers capture
        layout = _load_layout(cfg)
        kinds = _receiver_kinds(cfg, receiver)
        for mi, mount in enumerate(scene.mounts):
            rxs = [_make_receiver(kind, mount, layout) for kind in kinds]
            ext = second_order_extent(scene, scene.assignment[mi], mount,
                                      cfg.trace, rxs)
            print(f"mount {mi} second-order ({'+'.join(kinds)}): "
                  f"rows={ext['rows']} cols={ext['cols']} pairs={ext['pairs']} "
                  f"histogram_bytes={ext['hist_bytes']} "
                  f"traced_histogram_bytes={ext['traced_hist_bytes']}")
    return 0


def _thread_count(arg: int | None) -> int:
    if arg is not None:
        return max(1, arg)
    env = os.environ.get("OWCSIM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="owcsim",
        description="Ray-traced visible-light downlink simulator for a "
                    "data-centre pod",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("simulate", "trace impulse responses at each mount"),
                      ("sweep", "evaluate link metrics along the row"),
                      ("check", "validate the scene and print cost figures")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--receiver", choices=RECEIVER_KINDS,
                       help="override the configured receiver kind")
        p.add_argument("--orders", type=int, choices=(0, 1, 2),
                       help="override max reflection order")
        p.add_argument("--bin-ps", type=float, help="override bin width (ps)")
        p.add_argument("--bitrate", type=float, help="override bit rate (bps)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int,
                       help="worker threads (speed only; results identical)")
        if name == "simulate":
            p.add_argument("--gnuplot", action="store_true",
                           help="also emit a gnuplot script for the IR dumps")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.orders is not None or args.bin_ps is not None:
            cfg = dataclasses.replace(cfg, trace=dataclasses.replace(
                cfg.trace,
                max_order=args.orders if args.orders is not None
                else cfg.trace.max_order,
                bin_width=args.bin_ps * 1e-12 if args.bin_ps is not None
                else cfg.trace.bin_width,
            ))
        if args.bitrate is not None:
            if args.bitrate <= 0:
                raise ConfigError("--bitrate must be positive")
            cfg = dataclasses.replace(cfg, bitrate=args.bitrate)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    threads = _thread_count(args.threads)

    try:
        if args.command == "simulate":
            return run_simulate(cfg, args.out, args.receiver, threads,
                                gnuplot=args.gnuplot)
        if args.command == "sweep":
            return run_sweep(cfg, args.out, args.receiver, threads)
        return run_scene_check(cfg, args.receiver)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
