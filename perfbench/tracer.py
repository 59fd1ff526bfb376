"""Span recorder for the traced run, wrapped around owcsim's module boundaries.

`install()` replaces the public functions where `cli`, `linkmetrics` and
`raytracer` call them with wrappers that record a span (name, start, end,
parent, op id) and derive exact counts from the return values.  Nothing in
`src/` changes.  Spans stay in memory and are written once, at exit.
`per_layer()` turns the written spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
import tracemalloc
from collections import Counter, defaultdict

from checks import KINDS

BOOKKEEPING = "trace.bookkeeping"   # counting done by the tracer itself

# bandwidth_3db's scan: 1 MHz steps in chunks of 4096 up to the bin Nyquist
_BW_RESOLUTION = 1e6
_BW_CHUNK = 4096


class Recorder:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.position = -1           # index of the current compute_field call
        self.kind = None             # receiver kind of the current op

    def op(self) -> str:
        return f"{self.position}" if self.kind is None else f"{self.position}:{self.kind}"

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op()])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, count=None, receiver_arg=None):
        """Span around `fn`; `count(args, result)` runs after it, outside the
        layer's span.  When `receiver_arg` is given, that argument's receiver
        kind joins the op id and fills `{kind}` in the name."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if receiver_arg is not None:
                self.kind = args[receiver_arg].kind
            index = self.open(name.format(kind=self.kind))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                book = self.open(BOOKKEEPING)
                count(args, result)
                self.close(book)
            return result
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def install() -> Recorder:
    """Patch owcsim's boundary calls; returns the recorder that collects spans."""
    from owcsim import cli, linkmetrics, raytracer
    from owcsim.raytracer import ArrivalField
    from owcsim.scene import Scene

    rec = Recorder()
    c = rec.counts

    compute_field = raytracer.compute_field

    @functools.wraps(compute_field)
    def traced_compute_field(scene, luminaire_ids, *args, **kwargs):
        rec.position += 1
        rec.kind = None
        tracemalloc.start()
        cpu0 = time.process_time()
        index = rec.open("raytracer.compute_field")
        try:
            field = compute_field(scene, luminaire_ids, *args, **kwargs)
        finally:
            rec.close(index)
            cpu1 = time.process_time()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        book = rec.open(BOOKKEEPING)
        c["compute_field_cpu_s"] += cpu1 - cpu0
        c["peak_alloc_bytes"] = max(c["peak_alloc_bytes"], peak)
        c["nbins"] = max(c["nbins"], field.nbins)
        c["point_arrivals"] += field.point_flux.size
        if field.b2_hist is not None:
            ne = field.b2_hist.shape[0]
            c["pairs"] += len(luminaire_ids) * ne * ne
            c["hist_bytes"] = max(c["hist_bytes"], field.b2_hist.nbytes)
            c["hist_cells"] += field.b2_hist.size
            c["hist_nonzero"] += int((field.b2_hist != 0.0).sum())
        rec.close(book)
        return field

    def count_receiver_irs(args, irs):
        field, receiver = args
        if field.b2_hist is not None:
            c["assemble_flops"] += (2 * receiver.branch_count
                                    * field.b2_hist.shape[0] * field.nbins)

    def count_capture(args, acc):
        c["capture_entries"] += acc.size

    def count_bandwidth(args, bw):
        ir = args[0]
        n_grid = int(0.5 / ir.bin_width / _BW_RESOLUTION)
        if math.isinf(bw):
            c["bandwidth_unbounded"] += 1
            scanned = n_grid
        else:
            chunks = math.ceil(math.ceil(bw / _BW_RESOLUTION) / _BW_CHUNK)
            scanned = min(chunks * _BW_CHUNK, n_grid)
        c["dtft_terms"] += scanned * int((ir.bins != 0.0).sum())

    def count_csv(args, _):
        c["ir_files"] += 1
        c["csv_bytes"] += os.path.getsize(args[1])

    cli.parse_config = rec.wrap("cli.parse_config", cli.parse_config)
    cli.build_pod = rec.wrap("scene.build_pod", cli.build_pod)
    cli.compute_field = traced_compute_field
    cli.link_report = rec.wrap("linkmetrics.link_report", cli.link_report,
                               receiver_arg=1)
    cli.write_ir_csv = rec.wrap("cli.write_ir_csv", cli.write_ir_csv, count_csv)
    delay_stats = rec.wrap("linkmetrics.delay_stats", linkmetrics.delay_stats)
    cli.delay_stats = linkmetrics.delay_stats = delay_stats
    linkmetrics.bandwidth_3db = rec.wrap("linkmetrics.bandwidth_3db",
                                         linkmetrics.bandwidth_3db, count_bandwidth)
    linkmetrics.eye_powers = rec.wrap("linkmetrics.eye_powers", linkmetrics.eye_powers)
    linkmetrics.noise_budget = rec.wrap("linkmetrics.noise_budget",
                                        linkmetrics.noise_budget)
    raytracer.capture_matrix = rec.wrap("receivers.capture_matrix",
                                        raytracer.capture_matrix, count_capture)
    ArrivalField.receiver_irs = rec.wrap("receivers.receiver_irs.{kind}",
                                         ArrivalField.receiver_irs,
                                         count_receiver_irs, receiver_arg=1)
    Scene.surface_elements = rec.wrap("scene.surface_elements", Scene.surface_elements)
    return rec


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the children's durations
    (spans nest on the one thread that makes every wrapped call)."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def per_layer(spans, counts: dict, wall_s: float, untraced_wall_s: float,
              elements: dict) -> dict:
    """Per-layer metric values, keyed by the names in BENCHMARK.json."""
    st = self_times(spans)
    n = Counter(s[0] for s in spans)
    cf_wall = sum(s[2] - s[1] for s in spans if s[0] == "raytracer.compute_field")
    cells = counts.get("hist_cells", 0)
    return {
        "scene.build_pod_s": st["scene.build_pod"],
        "scene.surface_elements_s": st["scene.surface_elements"],
        "scene.elements_first": elements["first"],
        "scene.elements_second": elements["second"],
        "raytracer.compute_field_s": st["raytracer.compute_field"],
        "raytracer.compute_field_calls": n["raytracer.compute_field"],
        "raytracer.cpu_per_wall": (counts.get("compute_field_cpu_s", 0.0) / cf_wall
                                   if cf_wall > 0.0 else 0.0),
        "raytracer.peak_alloc_mb": counts.get("peak_alloc_bytes", 0) / 1e6,
        "raytracer.hist_mb": counts.get("hist_bytes", 0) / 1e6,
        "raytracer.hist_fill": counts.get("hist_nonzero", 0) / cells if cells else 0.0,
        "raytracer.pairs": counts.get("pairs", 0),
        "raytracer.nbins": counts.get("nbins", 0),
        "raytracer.point_arrivals": counts.get("point_arrivals", 0),
        "receivers.capture_matrix_s": st["receivers.capture_matrix"],
        **{f"receivers.receiver_irs_s.{k}": st[f"receivers.receiver_irs.{k}"]
           for k in KINDS},
        "receivers.capture_entries": counts.get("capture_entries", 0),
        "receivers.assemble_flops": counts.get("assemble_flops", 0),
        "linkmetrics.link_report_s": st["linkmetrics.link_report"],
        "linkmetrics.bandwidth_3db_s": st["linkmetrics.bandwidth_3db"],
        "linkmetrics.delay_stats_s": st["linkmetrics.delay_stats"],
        "linkmetrics.eye_noise_s": st["linkmetrics.eye_powers"] + st["linkmetrics.noise_budget"],
        "linkmetrics.bandwidth_unbounded": counts.get("bandwidth_unbounded", 0),
        "linkmetrics.dtft_terms": counts.get("dtft_terms", 0),
        "cli.parse_config_s": st["cli.parse_config"],
        "cli.write_ir_csv_s": st["cli.write_ir_csv"],
        "cli.ir_files": counts.get("ir_files", 0),
        "cli.csv_bytes": counts.get("csv_bytes", 0),
        "cli.unattributed_s": wall_s - sum(st.values()),
        "trace.overhead_s": wall_s - untraced_wall_s,
    }
