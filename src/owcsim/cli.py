"""Command-line front end: config parsing, single runs and spatial sweeps.

Config files are flat INI-style text with a fixed schema (sections: room,
surfaces, luminaires, receiver, noise, trace, sweep), declared once in
`_KEYS`; parsing and the flags that override a key both go through that
table.  Unknown keys are rejected, all outputs are deterministic functions
of the config, and every error names the offending key or scene entity.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from .linkmetrics import NoiseParams, delay_stats, link_report
from .raytracer import (ImpulseResponse, TraceConfig, _group_extent,
                        _position_groups, trace_fields)
from .receivers import make_adr, make_imaging, make_wfov
from .scene import PodConfig, build_pod, lambertian_order, validate_scene

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
    bitrate: float
    noise: NoiseParams
    trace: TraceConfig
    sweep: SweepSpec


_REQUIRED = object()

# value ranges: (test, wording)
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be non-negative")
_FRACTION = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
_ORDER = (lambda v: v in (0, 1, 2), "must be 0, 1 or 2")


def _has_lambertian_order(semi_angle_deg: float) -> bool:
    try:
        lambertian_order(semi_angle_deg)
    except ValueError:
        return False
    return True


_SEMI_ANGLE = (_has_lambertian_order,
               "must be in (0, 90) degrees with a finite Lambertian order")


@dataclass(frozen=True)
class _Key:
    """One config key: its type and default, the RunConfig field it fills
    (a dotted path; a numeric part indexes a tuple field), the factor from
    the config unit to the field's unit, and the range it must lie in."""

    section: str
    key: str
    kind: str             # float | int | bool | choice
    default: object       # in the config unit
    target: str
    scale: float | None = None
    valid: tuple | None = None


_KEYS = (
    _Key("room", "length_m", "float", 8.0, "pod.room.0"),
    _Key("room", "width_m", "float", 8.0, "pod.room.1"),
    _Key("room", "height_m", "float", 3.0, "pod.room.2"),
    _Key("room", "rack_top_m", "float", 2.0, "pod.rack_top_m"),
    _Key("room", "rack_row_y_start_m", "float", 1.0, "pod.row_y_span.0"),
    _Key("room", "rack_row_y_end_m", "float", 7.0, "pod.row_y_span.1"),
    _Key("room", "rack_depth_m", "float", 1.0, "pod.rack_depth_m"),
    _Key("room", "rack_occluding", "bool", False, "pod.rack_occluding"),
    _Key("surfaces", "wall_reflectance", "float", 0.8, "pod.wall_reflectance",
         valid=_FRACTION),
    _Key("surfaces", "ceiling_reflectance", "float", 0.8,
         "pod.ceiling_reflectance", valid=_FRACTION),
    _Key("surfaces", "floor_reflectance", "float", 0.3, "pod.floor_reflectance",
         valid=_FRACTION),
    _Key("luminaires", "power_w", "float", _REQUIRED, "pod.luminaire_power_w",
         valid=_POSITIVE),
    _Key("luminaires", "semi_angle_deg", "float", 70.0, "pod.semi_angle_deg",
         valid=_SEMI_ANGLE),
    _Key("receiver", "kind", "choice", "adr", "receiver_kind"),
    _Key("receiver", "bitrate_bps", "float", 2e9, "bitrate", valid=_POSITIVE),
    _Key("noise", "preamp_a_per_sqrt_hz", "float", 4.5e-12,
         "noise.preamp_density", valid=_NON_NEGATIVE),
    _Key("noise", "background_current_a", "float", 100e-6,
         "noise.background_current", valid=_NON_NEGATIVE),
    _Key("noise", "bandwidth_factor", "float", 0.7, "noise.bandwidth_factor",
         valid=_POSITIVE),
    _Key("trace", "orders", "int", 2, "trace.max_order", valid=_ORDER),
    _Key("trace", "first_edge_m", "float", 0.05, "trace.first_edge",
         valid=_POSITIVE),
    _Key("trace", "second_edge_m", "float", 0.20, "trace.second_edge",
         valid=_POSITIVE),
    _Key("trace", "bin_ps", "float", 50.0, "trace.bin_width", scale=1e-12,
         valid=_POSITIVE),
    _Key("sweep", "row_x_m", "float", 4.0, "sweep.row_x"),
    _Key("sweep", "y_start_m", "float", 1.0, "sweep.y_start"),
    _Key("sweep", "y_stop_m", "float", 7.0, "sweep.y_stop"),
    _Key("sweep", "y_step_m", "float", 0.5, "sweep.y_step", valid=_POSITIVE),
)
_KEY = {(k.section, k.key): k for k in _KEYS}
_SECTIONS = tuple(dict.fromkeys(k.section for k in _KEYS))
# RunConfig fields that are dataclasses themselves
_PARTS = {"pod": PodConfig, "noise": NoiseParams, "trace": TraceConfig,
          "sweep": SweepSpec}
# command-line flags that override a config key; checked like the key
_FLAG_KEYS = {"receiver": _KEY["receiver", "kind"],
              "orders": _KEY["trace", "orders"], "bin_ps": _KEY["trace", "bin_ps"],
              "bitrate": _KEY["receiver", "bitrate_bps"]}


def _convert(k: _Key, raw: str, where: str):
    """Config text to a checked value in the config unit; `where` (a line
    number or a flag) prefixes any error."""
    name = f"'{k.section}.{k.key}'"
    if k.kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{where}: expected a number for {name}, got '{raw}'") from None
        if not math.isfinite(value):
            raise ConfigError(f"{where}: {name} must be a finite number, got '{raw}'")
    elif k.kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{where}: expected an integer for {name}, got '{raw}'") from None
    elif k.kind == "bool":
        if raw not in ("true", "false"):
            raise ConfigError(f"{where}: expected true/false for {name}, got '{raw}'")
        value = raw == "true"
    else:
        if raw not in RECEIVER_KINDS:
            raise ConfigError(f"{where}: {name} must be one of "
                              f"{'/'.join(RECEIVER_KINDS)}, got '{raw}'")
        value = raw
    if k.valid is not None and not k.valid[0](value):
        raise ConfigError(f"{where}: {name} {k.valid[1]}, got {value}")
    return value


def _build(values: dict) -> RunConfig:
    """RunConfig from {key: checked value in the config unit}: omitted keys
    take their defaults, then the checks that span keys run."""
    tree = {}
    for k in _KEYS:
        if k in values:
            value = values[k]
        elif k.default is _REQUIRED:
            raise ConfigError(
                f"missing required key '{k.key}' in section [{k.section}]")
        else:
            value = k.default
        *path, last = k.target.split(".")
        node = tree
        for part in path:
            node = node.setdefault(part, {})
        node[last] = value if k.scale is None else value * k.scale
    try:
        for name, cls in _PARTS.items():
            tree[name] = cls(**{
                f: tuple(v[str(i)] for i in range(len(v))) if isinstance(v, dict) else v
                for f, v in tree[name].items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(**tree)
    sw, (lx, ly, _) = cfg.sweep, cfg.pod.room
    if not (0.0 <= sw.y_start <= ly and 0.0 <= sw.y_stop <= ly
            and sw.y_start <= sw.y_stop):
        raise ConfigError(f"'sweep' y range [{sw.y_start}, {sw.y_stop}] "
                          f"is outside the room width {ly}")
    if not 0.0 <= sw.row_x <= lx:
        raise ConfigError(f"'sweep.row_x_m' {sw.row_x} is outside the room")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration.

    Unknown sections/keys, type mismatches and out-of-range values raise
    ConfigError with the offending line; omitted optional keys take their
    documented defaults.
    """
    return _build(_key_values(text))


def _key_values(text: str) -> dict:
    """{key: checked value in the config unit} of each key the text sets."""
    values = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{line}'")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any section")
        key, raw = (part.strip() for part in line.split("=", 1))
        k = _KEY.get((section, key))
        if k is None:
            raise ConfigError(
                f"line {line_no}: unknown key '{key}' in section [{section}]"
            )
        if k in values:
            raise ConfigError(
                f"line {line_no}: duplicate key '{key}' in section [{section}]"
            )
        values[k] = _convert(k, raw, f"line {line_no}")
    return values


# ---------------------------------------------------------------------------
# output files

def _fmt(x: float) -> str:
    return repr(float(x))


# `repr(t) + ","` of each bin centre time, one list per bin width: the
# reference simulate's 141 777 rows use 1 372 distinct times
_TIME_LABELS: dict = {}


def write_ir_csv(ir: ImpulseResponse, path: str) -> None:
    """Two-column dump `time_s,power_w`, one row per non-empty bin, each
    value its float's `repr`.  The powers come from one `repr` of the list
    of non-empty bins, which writes each element with `repr`."""
    nz = np.nonzero(ir.bins)[0]
    text = "time_s,power_w\n"
    if nz.size:
        # a bin's centre time does not depend on the IR's length, so a
        # longer IR only appends to its width's labels
        labels = _TIME_LABELS.setdefault(ir.bin_width, [])
        labels += [repr(t) + "," for t in ir.times()[len(labels):].tolist()]
        powers = repr(ir.bins[nz].tolist())[1:-1].split(", ")
        text += "\n".join(map(operator.add, map(labels.__getitem__, nz.tolist()),
                                powers)) + "\n"
    with open(path, "w", newline="") as f:
        f.write(text)


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


def _build_scene_or_fail(cfg: RunConfig):
    scene = build_pod(cfg.pod)
    diags = validate_scene(scene)
    if diags:
        for d in diags:
            print(f"scene error: {d}", file=sys.stderr)
        return None
    return scene


def _receivers(cfg: RunConfig) -> list:
    """The run's receivers, built once and applied at every position."""
    makers = {"wfov": make_wfov, "adr": make_adr, "imaging": make_imaging}
    kinds = tuple(makers) if cfg.receiver_kind == "all" else (cfg.receiver_kind,)
    return [makers[kind]() for kind in kinds]


# ---------------------------------------------------------------------------
# subcommands

def run_simulate(cfg: RunConfig, out_dir: str, threads: int = 1,
                 gnuplot: bool = False) -> int:
    """Trace every branch at every mount and dump impulse-response CSVs."""
    scene = _build_scene_or_fail(cfg)
    if scene is None:
        return 1
    rxs = _receivers(cfg)
    os.makedirs(out_dir, exist_ok=True)
    fields = trace_fields(scene, scene.mounts, cfg.trace, threads, receivers=rxs)
    written = []
    for mi, mount in enumerate(scene.mounts):
        field = next(fields)
        for rx in rxs:
            irs = field.receiver_irs(rx)
            for bj, ir in enumerate(irs):
                path = os.path.join(out_dir, f"ir_{rx.kind}_mount{mi}_branch{bj}.csv")
                write_ir_csv(ir, path)
                written.append(path)
            total = sum(ir.total_power() for ir in irs)
            best = max(irs, key=lambda ir: ir.total_power())
            spread = (delay_stats(best).rms_spread
                      if best.total_power() > 0.0 else float("nan"))
            print(f"mount {mi} ({_fmt(mount[0])}, {_fmt(mount[1])}, "
                  f"{_fmt(mount[2])}) {rx.kind}: total_power_w={_fmt(total)} "
                  f"delay_spread_s={_fmt(spread)}")
        # a field's branch bins take 2 MB at a reference mount: drop it
        # before the next mount is traced
        del field
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


def _sweep_mounts(cfg: RunConfig) -> list:
    """The sweep's receiver positions along the row line, in order."""
    sw = cfg.sweep
    count = int(math.floor((sw.y_stop - sw.y_start) / sw.y_step + 1e-9)) + 1
    # the sum can round past y_stop, and so past the room's far wall
    ys = [min(sw.y_start + k * sw.y_step, sw.y_stop) for k in range(count)]
    return [np.array([sw.row_x, y, cfg.pod.rack_top_m]) for y in ys]


def run_sweep(cfg: RunConfig, out_dir: str, threads: int = 1) -> int:
    """Move the receiver along the row line and write one metrics row per
    position per receiver kind.  `trace_fields` traces consecutive
    positions under one luminaire set as a group, which shares the work
    that does not depend on the position."""
    scene = _build_scene_or_fail(cfg)
    if scene is None:
        return 1
    rxs = _receivers(cfg)
    mounts = _sweep_mounts(cfg)
    fields = trace_fields(scene, mounts, cfg.trace, threads, receivers=rxs)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.csv")
    with open(path, "w", newline="") as f:
        f.write(METRICS_HEADER + "\n")
        for _ in mounts:
            field = next(fields)
            for rx in rxs:
                report = link_report(field, rx, cfg.bitrate, cfg.noise)
                f.write(_metrics_row(report) + "\n")
            # each field's arrivals are freed with it: drop each before
            # the next is traced
            del field
    print(f"wrote {path}: {len(mounts) * len(rxs)} rows")
    return 0


def run_scene_check(cfg: RunConfig) -> int:
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
    per_mount = len(scene.assigned_luminaires(scene.mounts[0]))
    print(f"luminaires: {len(scene.luminaires)} ({per_mount} per mount)")
    print(f"estimated paths per mount: los={per_mount} "
          f"first={per_mount * n1}")
    if diags:
        return 1
    if cfg.trace.max_order >= 2:
        # the pairs the kernel will trace: lit first-bounce rows times the
        # second-bounce columns the selected receivers capture
        rxs = _receivers(cfg)
        kinds = "+".join(rx.kind for rx in rxs)
        for mi, mount in enumerate(scene.mounts):
            ext = _group_extent(scene, scene.assigned_luminaires(mount),
                                [mount], cfg.trace, rxs)
            print(f"mount {mi} second-order ({kinds}): "
                  f"rows={ext['rows']} cols={ext['cols']} pairs={ext['pairs']} "
                  f"histogram_bytes={ext['hist_bytes']}")
        # the sweep's groups share each chunk's pair geometry over the
        # union of their positions' columns; a group holds one histogram
        # per position at once
        exts = [_group_extent(scene, ids, mounts, cfg.trace, rxs) for ids, mounts
                in _position_groups(scene, _sweep_mounts(cfg))]
        print(f"sweep ({kinds}): "
              f"positions={sum(e['positions'] for e in exts)} groups={len(exts)} "
              f"union_cols={sum(e['cols'] for e in exts)} "
              f"pairs={sum(e['pairs'] for e in exts)} "
              f"group_histogram_bytes={max(e['hist_bytes'] for e in exts)}")
    return 0


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
        p.add_argument("--receiver", help="override the receiver kind ("
                       + "/".join(RECEIVER_KINDS) + ")")
        p.add_argument("--orders", help="override max reflection order (0/1/2)")
        p.add_argument("--bin-ps", help="override bin width (ps)")
        p.add_argument("--bitrate", help="override bit rate (bps)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int,
                       help="tracing threads, the calling thread and N - 1 "
                            "helpers (speed only; results identical)")
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
        values = _key_values(text)
        # the flags that override config keys, checked like the keys
        for flag, k in _FLAG_KEYS.items():
            raw = getattr(args, flag)
            if raw is not None:
                values[k] = _convert(k, raw, "--" + flag.replace("_", "-"))
        cfg = _build(values)
        threads = 1 if args.threads is None else args.threads
        if threads < 1:
            raise ConfigError(f"--threads must be a positive integer, got {threads}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            return run_simulate(cfg, args.out, threads, gnuplot=args.gnuplot)
        if args.command == "sweep":
            return run_sweep(cfg, args.out, threads)
        return run_scene_check(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
