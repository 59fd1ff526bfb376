"""Impulse-response tracer for the pod's diffuse optical channel.

Propagation model: each luminaire is a point Lambertian emitter of order m;
every surface element re-emits what it receives as an ideal Lambertian
(order 1) source scaled by its reflectance.  Line of sight plus first- and
second-order reflections are accumulated into a fixed-width delay histogram.
First-order paths run over a fine surface grid, second-order paths use a
coarser grid for both bounces to keep the pair count tractable.

The tracer is a pure function of (scene, config, receivers): every field
is traced for the receivers that will be applied at its mount, and serves
those alone.  `compute_field` traces one mount, `trace_fields` yields the
field of each of many mounts in order, each traced when it is asked for.
A field's three stages each return arrays, second order first, then line
of sight and first order, so the second-order histograms are built before
the fine grid's incident power and the point arrivals are live.  Each
histogram is reduced to the receivers' branch bins as soon as the stage
returns and is dropped before any first-order work.  The fine-grid hops
run one panel at a time and the arrivals one luminaire at a time; each
luminaire's arrivals are binned straight into the branch bins, and no
point arrival is kept.  The `ArrivalField` only holds the bins.

`trace_fields` traces consecutive mounts that share a luminaire set (a
sweep's positions along one row) as one group of at most `_GROUP_CAP`;
`compute_field` is a group of one, through the same code.  A group
computes the set's incident power on both grids once, and the pair
geometry once, over the union of the second-bounce columns its mounts
trace; each mount bins its own columns of it as a lone trace does.  Each
mount's histogram is a `HistRuns`: only its 32-bin pieces that hold a
non-zero value, packed in its own anonymous mapping (5.1-6.0 of the
dense 14-15 MB at the reference mounts), which goes back to the OS right
after its receivers' bins are taken.  The group lets go of its incident
power once its last field is out.  `simulate`'s mounts each have their
own set and share nothing.

Second-order work is split into blocks of consecutive union columns that
hold at most `_BLOCK` histogram rows, one per mount that traces a column.
A runner takes the next block and walks the chunks of `_CHUNK`
first-bounce (e1) rows of the coarse grid in order, skipping rows that
receive no power; it computes the chunk's pair geometry over the block,
bins every mount's columns of it, every luminaire in one pass, over only
the delay window their paths span, and adds that window into its
accumulator of those histogram rows.  Only that runner writes those
rows, so every cell gets the same per-chunk partial sums in chunk order
for any block width, unit order or thread count; once the block is done
the runner keeps the rows' non-zero pieces and zeroes what it wrote of its
accumulator for the next block.  N threads are the calling thread and
N - 1 helpers, never more than there are blocks.  The caller traces
rather than waits: on a 1-worker pool the 1-thread simulate-all peak RSS
rose from 99 to 117 MB, mostly the worker's own glibc malloc arena.

A receiver's gains for the point arrivals are computed once per distinct
arrival direction, not once per arrival: every luminaire's first-order
arrival from one element shares that element's direction.

Only the second-bounce (e2) columns that some branch captures are
traced, one histogram row each; every other column meets a capture
weight of exactly 0.0, so the receivers' impulse responses are
bit-identical to those of a trace of every column.  Their point bins are
the sums, in the same order, of a `bincount` over every point arrival.
"""

from __future__ import annotations

import math
import mmap
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .scene import COMM_FLOOR_M, Scene, validate_scene
from .receivers import ReceiverSpec, block_slices, capture_matrix, sparse_capture

C_LIGHT = 2.9979e8            # m/s, air
_CHUNK = 256                  # e1 rows per second-order chunk (fixed: determinism)
_EPS = 1e-12
# Each branch's second-order gemv runs over the aligned blocks of this many
# grid elements that hold one of its non-zero weights.  OpenBLAS's gemv
# adds the element axis into y in aligned groups of 4 or 8; an all-zero
# group adds +0.0, so dropping whole 8-aligned blocks keeps every bit.
_GEMV_BLOCK = 8
# Delay bins per step of that gemv, which bounds the operand it gathers
# from a `HistRuns`' pieces.
_GEMV_BINS = 256
# Delay bins per piece of a second-order histogram that a `HistRuns` keeps
# or drops; it divides `_GEMV_BINS`, so each gemv step reads whole pieces.
# Finer pieces keep fewer zeros, and cost a larger slot table and more
# gather indices: see README for the sizes measured.
_PIECE = 32
# Histogram rows per second-order work unit (a run of union columns, each
# with one row per mount that traces it): bounds a runner's work arrays and
# accumulator, not the bits (every pair and histogram row is its own).
_BLOCK = 96
# Mounts traced together at most: a group's second-order stage holds all
# their histograms at once (5.1-6.0 MB of kept pieces each at a reference
# mount, 20.9 MB for `sweep-all`'s four), until each is reduced to its
# receivers' bins.
_GROUP_CAP = 4


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the tracer; defaults reproduce the reference setup."""

    max_order: int = 2        # 0 = LOS only, 1, or 2
    first_edge: float = 0.05  # m, first-order element edge
    second_edge: float = 0.20 # m, second-order element edge (both bounces)
    bin_width: float = 50e-12 # s

    def __post_init__(self):
        if isinstance(self.max_order, bool) or self.max_order not in (0, 1, 2):
            raise ValueError(f"max reflection order must be 0, 1 or 2, got {self.max_order!r}")
        if not 0.0 < self.bin_width < math.inf:
            raise ValueError(f"bin width must be positive and finite, got {self.bin_width}")
        if not (0.0 < self.first_edge < math.inf and 0.0 < self.second_edge < math.inf):
            raise ValueError("element edges must be positive and finite, got "
                             f"{self.first_edge} and {self.second_edge}")


@dataclass(frozen=True)
class ImpulseResponse:
    """Received power per delay bin; bin k covers [k, k+1) * bin_width."""

    bin_width: float
    bins: np.ndarray          # watts per bin

    def times(self) -> np.ndarray:
        """Bin centre times."""
        return (np.arange(self.bins.size) + 0.5) * self.bin_width

    def total_power(self) -> float:
        return float(self.bins.sum())


# ---------------------------------------------------------------------------
# occlusion

def _occluder_boxes(scene: Scene):
    boxes = []
    for row in scene.rows:
        if row.occluding:
            lo = np.array([row.centre_x - 0.5 * row.depth, row.y_span[0], 0.0])
            hi = np.array([row.centre_x + 0.5 * row.depth, row.y_span[1], row.top_height])
            boxes.append((lo, hi))
    return boxes


def _segments_blocked(boxes, p0, p1) -> np.ndarray:
    """True where the open segment p0->p1 passes through any occluder box."""
    p0, p1 = np.broadcast_arrays(np.asarray(p0, dtype=float),
                                 np.asarray(p1, dtype=float))
    d = p1 - p0
    blocked = np.zeros(p0.shape[:-1], dtype=bool)
    margin = 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        for lo, hi in boxes:
            ta = (lo - p0) * inv
            tb = (hi - p0) * inv
            near = np.fmin(ta, tb)
            far = np.fmax(ta, tb)
            par = d == 0.0
            inside = (p0 >= lo) & (p0 <= hi)
            near = np.where(par, np.where(inside, -np.inf, np.inf), near)
            far = np.where(par, np.where(inside, np.inf, -np.inf), far)
            tmin = np.maximum(near.max(axis=-1), margin)
            tmax = np.minimum(far.min(axis=-1), 1.0 - margin)
            blocked |= (tmax - tmin) > margin
    return blocked


# ---------------------------------------------------------------------------
# vectorized field computation

def _incident_power(luminaires, grid, boxes):
    """First-bounce power and path length from each luminaire onto a grid,
    one panel run at a time.

    Returns (power (L, N) watts, length (L, N) metres), each its own
    `_mapped_zeros`, so that a group's incident power goes back to the OS
    with its last field: on the malloc heap, the fine grid's 4.3 MB stayed
    resident under the next mount's second-order stage, which then set the
    seed-0 `simulate-all` peak (53.5 MiB against 50.8 MiB).
    """
    n = len(grid)
    power = _mapped_zeros((len(luminaires), n))
    length = _mapped_zeros((len(luminaires), n))
    runs = grid.panel_runs(np.arange(n))
    for li, lum in enumerate(luminaires):
        for k, normal, _, area in runs:
            centres = grid.centres[k]
            u, d, cos_in = _hop(centres, lum.position, normal)
            cos_phi = u[:, 2]    # -u against the luminaire's (0, 0, -1)
            sel = (d > _EPS) & (cos_phi > 0.0) & (cos_in > 0.0)
            p = power[li, k]
            p[sel] = (lum.power_w * (lum.order + 1.0)
                      / (2.0 * math.pi * d[sel] ** 2)
                      * cos_phi[sel] ** lum.order * cos_in[sel])
            # the element area is the last factor; +0.0 elsewhere stays +0.0
            p *= area
            if boxes:
                p[_segments_blocked(boxes, lum.position, centres)] = 0.0
            length[li, k] = d
    return power, length


def _hop(centres, point, normal):
    """One hop between elements at `centres`, all on one panel of normal
    `normal` (Python floats), and `point`: the unit directions from the
    elements toward `point`, their lengths, and each element's cosine,
    added x, y, z as `sum(axis=1)` adds them.  A length of `_EPS` or less
    gets direction `point - centre` itself."""
    u = point[None, :] - centres
    d = np.linalg.norm(u, axis=1)
    u /= np.where(d > _EPS, d, 1.0)[:, None]
    m = len(d)
    cos = _dots(np.empty(m), np.empty(m), [(slice(None), normal, None, None)],
                u.T, (0, 1, 2), 1.0)
    return u, d, cos


def _dots(out, tmp, runs, comps, axes, sign: float):
    """`out` = `sign` times the sum, in the order of `comps`, of `comps[i] *
    normal[axes[i]]` on each of `runs` (`ElementGrid.panel_runs`) over the
    normal's non-zero terms: a 0.0 term's +-0.0 adds nothing to a non-zero
    sum, so that is the full sum, or +-0.0 where the full sum is zero."""
    for k, normal, _, _ in runs:
        terms = [(c[k], sign * normal[i]) for c, i in zip(comps, axes) if normal[i]]
        o = np.multiply(*terms[0], out=out[k])
        for c, n in terms[1:]:
            o += np.multiply(c, n, out=tmp[k])
    return out


def _bin_count(scene: Scene, cfg: TraceConfig) -> int:
    """Histogram length that holds the longest path of the traced orders."""
    diag = math.sqrt(sum(s * s for s in scene.room))
    reach = (cfg.max_order + 1) * diag
    return int(reach / C_LIGHT / cfg.bin_width) + 2


def _final_hop(grid, mount, boxes):
    """Last hop, element -> mount, one panel run at a time: unit directions,
    lengths and the branch-independent weight (reflectance times the
    Lambertian emission)."""
    n = len(grid)
    u3, d3, f3 = np.empty((n, 3)), np.empty(n), np.zeros(n)
    for k, normal, rho, _ in grid.panel_runs(np.arange(n)):
        centres = grid.centres[k]
        u3[k], d3[k], cos3 = _hop(centres, mount, normal)
        d, f = d3[k], f3[k]
        sel = (d > _EPS) & (cos3 > 0.0)
        # cos3 * rho has the bits of rho * cos3
        cos3 *= rho
        f[sel] = cos3[sel] / (math.pi * d[sel] ** 2)
        if boxes:
            f[_segments_blocked(boxes, centres, mount[None, :])] = 0.0
    return u3, d3, f3


def _captured_columns(receivers, u3) -> np.ndarray:
    """Elements whose arrival direction some branch of some receiver
    captures."""
    captured = np.zeros(len(u3), dtype=bool)
    for rx in receivers:
        captured[sparse_capture(rx, u3)[1]] = True
    return captured


def _los_arrivals(lums, mount, boxes):
    """Line-of-sight arrivals, one per luminaire: (flux, length, direction).

    Kept apart from `_incident_power`: this computes 2*pi*d*d left to right
    where that computes 2*pi*(d**2), and the two round differently."""
    n = len(lums)
    flux, length, dirs = np.zeros(n), np.zeros(n), np.zeros((n, 3))
    for k, lum in enumerate(lums):
        v = mount - lum.position
        d = float(np.linalg.norm(v))
        if d < _EPS:
            raise ValueError("degenerate geometry: luminaire coincides with mount")
        u = v / d
        cos_phi = float(-u[2])
        visible = cos_phi > 0.0 and not (
            boxes and bool(_segments_blocked(boxes, lum.position, mount[None, :])[0]))
        if visible:
            flux[k] = (lum.power_w * (lum.order + 1.0) / (2.0 * math.pi * d * d)
                       * cos_phi ** lum.order)
        length[k] = d
        dirs[k] = u
    return flux, length, dirs


def _delay_bins(lengths, bin_width: float, out: np.ndarray) -> np.ndarray:
    """The delay bin of each path length into int64 `out`: len/c/dt, cast.
    Lengths are sums of distances, never negative, so truncation is a
    floor.  `lengths` is overwritten."""
    lengths /= C_LIGHT
    return np.divide(lengths, bin_width, out=out, casting="unsafe")


def _one_bounce(p1, l1, f_out, dm, bin_width: float):
    """Luminaire by luminaire, the one-bounce arrival from every element of
    the first-order grid: (passes, flux, delay bin), arrays over the grid's
    elements that are reused for the next luminaire.  `p1` and `l1` are
    the luminaires' `_incident_power` on the grid, `f_out` and `dm` its
    `_final_hop` weight and length; `passes` marks the arrivals with
    non-zero flux, the only ones a field takes."""
    n = len(f_out)
    flux, length, bins = np.empty(n), np.empty(n), np.empty(n, np.int64)
    for p, l in zip(p1, l1):
        passes = np.multiply(p, f_out, out=flux) > 0.0
        np.add(l, dm, out=length)
        yield passes, flux, _delay_bins(length, bin_width, bins)


def _first_order_arrivals(dirs0, fine, mount, boxes, bin_width: float):
    """A field's LOS and first-order arrivals, before any receiver:
    (`dirs`, `seen`, point-arrival count, hops, first-bounce power summed
    over the first-order grid, None without one).

    `fine` is the first-order grid and `_incident_power` of the luminaires
    on it (None: no first order), and hops a `_one_bounce` iterator over
    it.  `dirs` is the table of distinct point-arrival directions: the
    line-of-sight ones `dirs0`, one per luminaire, then one per element
    that passes any luminaire's flux (`seen`), in element order; every
    luminaire's arrival from an element shares its row.  The count
    includes the LOS arrivals.  `_point_bins` bins them all for the
    receivers."""
    nl = len(dirs0)
    if fine is None:
        return dirs0, np.zeros(0, dtype=bool), nl, iter(()), None
    grid, (p1, l1) = fine
    u, dm, f_out = _final_hop(grid, mount, boxes)
    seen, count = np.zeros(len(grid), dtype=bool), nl
    for passes, _, _ in _one_bounce(p1, l1, f_out, dm, bin_width):
        seen |= passes
        count += int(np.count_nonzero(passes))
    dirs = np.empty((nl + int(np.count_nonzero(seen)), 3))
    dirs[:nl] = dirs0
    # "clip" writes straight into `out`; every index is in range
    np.take(u, np.flatnonzero(seen), axis=0, mode="clip", out=dirs[nl:])
    return (dirs, seen, count, _one_bounce(p1, l1, f_out, dm, bin_width),
            float(p1.sum()))


def _point_bins(receivers, los, dirs, seen, hops, nbins: int) -> tuple:
    """Each of `receivers` with its branches' point-arrival bins, (branches,
    nbins) W, binned from `_first_order_arrivals`' `dirs` and hops as the
    hops are taken: no per-arrival array is built.

    Each receiver's `sparse_capture` of `dirs` is taken once, one receiver
    at a time, its entries ordered by direction row, branches ascending
    within one.  The LOS arrivals `los`, (flux, delay bin) per luminaire,
    are `np.add.at` first as `branch * nbins + bin` with weight times
    flux, then each hop's for the entries whose element passes.  Like a
    `bincount`, `add.at` adds into +0.0 in input order, so each cell gets
    its terms in arrival order: the bits of one `bincount` over every
    arrival's entries."""
    (flux0, bins0), nl = los, len(los[0])
    # the grid element of each direction row after the LOS ones
    elements = np.flatnonzero(seen)
    captures = []
    for rx in receivers:
        branch, row, weight = sparse_capture(rx, dirs)
        order = np.argsort(row, kind="stable")
        cell, row, weight = branch[order] * nbins, row[order], weight[order]
        acc = np.zeros(rx.branch_count * nbins)
        k = np.searchsorted(row, nl)
        r = row[:k]
        np.add.at(acc, cell[:k] + bins0[r], weight[:k] * flux0[r])
        captures.append((cell[k:], elements[row[k:] - nl], weight[k:], acc))
    for passes, flux, bins in hops:
        for cell, elem, weight, acc in captures:
            hit = passes[elem]
            e = elem[hit]
            np.add.at(acc, cell[hit] + bins[e], weight[hit] * flux[e])
    return tuple((rx, acc.reshape(rx.branch_count, nbins))
                 for rx, (*_, acc) in zip(receivers, captures))


class _Scratch:
    """One runner's work arrays, kept from block to block.

    Each is C-contiguous and holds the largest request under its name.
    Fresh arrays of a block's size are trimmed from the heap when freed
    and faulted back in for the next chunk: a seed-0 `sweep-all` run at 2
    threads read 216k minor faults and 0.51 s of system time with them,
    and 50k and 0.17 s with the arrays kept.  Each is its own
    `_mapped_zeros`, so the arrays a runner outgrows and those it holds
    at its end go back to the OS: on the malloc heap they stayed resident,
    and the seed-0 `sweep-all` peak read 77.1 MB against 73.9 MB."""

    def __init__(self):
        self._bufs = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            # at least doubled, so that growing requests reallocate rarely
            old = 0 if buf is None else buf.size
            buf = self._bufs[name] = _mapped_zeros((max(n, 2 * old),), dtype)
        return buf[:n].reshape(shape)


def _pair_geometry(s: _Scratch, grid, rows, row_runs, cols, col_runs, boxes):
    """`geom` (the e1 reflectance times the Lambertian transfer from e1 to
    e2) and distance `d` of every pair of lit e1 `rows` and e2 `cols`, as
    (rows, cols) arrays of `s`.  Each pair's value depends on that pair
    alone, so it is the same for any set of rows or columns.  Normals,
    reflectances and areas are Python scalars, one per run of rows or
    columns on one panel: `row_runs` is `ElementGrid.panel_runs(rows)`,
    `col_runs` the same for `cols` with each run indexing the column axis."""
    shape = (rows.size, cols.size)
    dx, dy, dz, d2, d, tmp, g, cos_in = (
        s.get(name, shape) for name in ("dx", "dy", "dz", "d2", "d", "tmp",
                                        "geom", "cos_in"))
    centres_r = grid.centres[rows]
    # pair vectors as separate x, y, z arrays; each sum adds (x + z) + y,
    # the order einsum uses for a length-3 contraction
    for out, cc, cr in zip((dx, dy, dz), grid.centres[cols].T, centres_r.T):
        np.subtract(cc[None, :], cr[:, None], out=out)
    np.multiply(dx, dx, out=d2)
    d2 += np.multiply(dz, dz, out=tmp)
    d2 += np.multiply(dy, dy, out=tmp)
    # coincident pairs get a 1 m stand-in distance and zero weight
    near = np.less_equal(d2, _EPS, out=s.get("near", shape, bool))
    np.copyto(d2, 1.0, where=near)
    np.sqrt(d2, out=d)
    # `g` holds cos_out until it becomes geom
    _dots(g, tmp, row_runs, (dx, dz, dy), (0, 2, 1), 1.0)
    _dots(cos_in, tmp, col_runs, (dx, dz, dy), (0, 2, 1), -1.0)
    # rho * max(cos_out, 0) * max(cos_in, 0) * area / (pi * d2)
    for cos in (g, cos_in):
        cos /= d
        np.maximum(cos, 0.0, out=cos)
    g *= cos_in
    np.copyto(g, 0.0, where=near)
    for k, _, _, area in col_runs:
        g[k] *= area
    d2 *= math.pi
    g /= d2
    if boxes:
        src = np.broadcast_to(centres_r[:, None, :], (*shape, 3))
        dst = np.broadcast_to(grid.centres[cols][None, :, :], (*shape, 3))
        blocked = _segments_blocked(boxes, src.reshape(-1, 3), dst.reshape(-1, 3))
        np.copyto(g, 0.0, where=blocked.reshape(shape))
    for r, _, rho, _ in row_runs:
        g[r] *= rho
    return g, d


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis 1 of an (L, rows, cols) array, each added in row
    order.  numpy reduces a C-contiguous array row by row when its last
    axis has two or more entries, but a single column by pairwise partial
    sums, so one column is accumulated instead."""
    if a.shape[2] > 1:
        return np.add.reduce(a, axis=1)
    return np.add.accumulate(a, axis=1)[:, -1]


@dataclass
class _Target:
    """One mount's share of a group's second-order trace."""

    pos: np.ndarray           # its columns' places among the union's
    f3: np.ndarray            # final-hop weight of its columns
    d3: np.ndarray            # final-hop length of its columns
    hist: HistRuns            # (its columns, nbins)


def _bin_block(s: _Scratch, pick, f3, d3, acc, pw, d, l1, nbins, bin_width):
    """Bin one chunk's pairs onto the histogram rows of one column block,
    every luminaire and mount in one `np.add.at` over the delay window they
    span, and add that window into `acc`, the block's accumulator of those
    rows; returns the window's bins [lo, hi) that lie in the histogram.
    `pw` is each luminaire's incident power times `geom` and `d` the
    distance, over the block's columns; `pick` gives each row's column
    among them (None: one row per column, in order), `f3` and `d3` each
    row's final hop.

    Like a `bincount`, `add.at` adds each weight into +0.0 in input order,
    here luminaire-then-row: a cell only gets terms from its own row, so
    its sum and the order of its terms are those of a bincount over all
    the columns.  A row's cells outside its own paths' bins get +0.0,
    which leaves a non-negative sum as it was."""
    nl, nr, nc = pw.shape[0], pw.shape[1], len(f3)
    # zero weights are passed through: adding +0.0 leaves a cell's bits alone
    w = s.get("w", (nl, nr, nc))
    if pick is None:
        np.multiply(pw, f3, out=w)
    else:
        np.take(pw, pick, axis=2, mode="clip", out=w)
        w *= f3
        d = np.take(d, pick, axis=1, mode="clip", out=s.get("d_pick", (nr, nc)))
    length = np.add(l1, d, out=s.get("length", w.shape))
    length += d3
    flat = _delay_bins(length, bin_width, s.get("flat", w.shape, np.int64))
    lo, width, span = _delay_window(flat, nbins)
    flat += np.arange(nc, dtype=np.int64) * width - lo
    counts = s.get("counts", (nc * width,))
    counts.fill(0.0)
    np.add.at(counts, flat.ravel(), w.ravel())
    window = acc[:, lo:lo + span]
    window += counts.reshape(nc, width)[:, :span]
    return lo, lo + span


def _column_blocks(col_rows: np.ndarray) -> list:
    """The work units of a union of columns, `col_rows` holding the
    histogram rows of each (one per mount that traces it): runs of
    consecutive columns of at most `_BLOCK` rows, or of one column."""
    blocks, start, held = [], 0, 0
    for c, n in enumerate(col_rows.tolist()):
        if held + n > _BLOCK and c > start:
            blocks.append(slice(start, c))
            start, held = c, 0
        held += n
    return blocks + [slice(start, len(col_rows))] if len(col_rows) else []


def _second_order_hists(grid, incident, lit, hops, traced, boxes, nbins,
                        bin_width, threads):
    """Second-order power per traced final (e2) element and delay bin, for
    every mount of a group that shares one luminaire set.

    `incident` is `_incident_power` of the set on `grid`, `lit` its lit
    rows; `hops` and `traced` hold each mount's `_final_hop` and traced e2
    columns.  Returns one (hist, traced columns, arrival directions `u3`,
    totals) per mount, `hist` a `HistRuns` of (traced columns, nbins)
    whose row i is its i-th traced column in element order: the bits a
    group of that mount alone gives.

    The work unit is a block of the union of the mounts' columns
    (`_column_blocks`).  Its runner walks the lit chunks of e1 rows in
    order, computes each chunk's pair geometry over the block once, and
    bins every mount's columns of it in one pass into the runner's own
    accumulator of those histogram rows, so it is the only writer of them:
    each cell gets one partial sum per chunk, in chunk order, for any block
    width, unit order or thread count.  Once the block is done, the runner
    keeps the accumulator's pieces that hold a non-zero value
    (`HistRuns.keep`) and zeroes the bins it wrote, so the accumulator's
    touched pages serve every block it takes.  The reflected power is
    summed the same way, per column, then over a mount's columns."""
    p1, l1 = incident
    ucols = np.flatnonzero(np.logical_or.reduce(traced))
    # chunks without a lit row contribute exactly zero: skip them
    chunks = []
    for start in range(0, len(grid), _CHUNK):
        rows = start + np.flatnonzero(lit[start:start + _CHUNK])
        if rows.size:
            chunks.append((rows, grid.panel_runs(rows), p1[:, rows, None],
                           l1[:, rows, None]))
    targets = []
    for (_, d3, f3), mask in zip(hops, traced):
        pos = np.flatnonzero(mask[ucols])
        cols = ucols[pos]
        targets.append(_Target(pos, f3[cols], d3[cols],
                               HistRuns(pos.size, nbins)))
    reflected = np.zeros(ucols.size)   # per union column

    def trace(s, acc, block):
        """Trace every lit chunk onto one block of the union's columns,
        with work arrays `s` and accumulator `acc`."""
        cols = ucols[block]
        col_runs = [((slice(None), k), *v) for k, *v in grid.panel_runs(cols)]
        # each mount's rows of its histogram and of `acc` in the block, and
        # every row's column in the block and final hop
        parts, picks, n = [], [], 0
        for t in targets:
            a, b = np.searchsorted(t.pos, (block.start, block.stop)).tolist()
            if a < b:
                parts.append((t, slice(a, b), slice(n, n + b - a)))
                picks.append(t.pos[a:b] - block.start)
                n += b - a
        pick = np.concatenate(picks)
        if len(parts) == 1 and n == cols.size:
            pick = None               # one mount, every column
        f3 = np.concatenate([t.f3[h] for t, h, _ in parts])
        d3 = np.concatenate([t.d3[h] for t, h, _ in parts])
        acc = acc[:n]
        lo, hi = nbins, 0             # the bins the windows cover
        for rows, row_runs, p, l in chunks:
            geom, d = _pair_geometry(s, grid, rows, row_runs, cols, col_runs,
                                     boxes)
            pw = np.multiply(p, geom, out=s.get("pw", (len(p), *geom.shape)))
            # for bounce accounting: per luminaire, in chunk order
            for sums in _column_sums(pw):
                reflected[block] += sums
            a, b = _bin_block(s, pick, f3, d3, acc, pw, d, l, nbins, bin_width)
            if a < b:
                lo, hi = min(lo, a), max(hi, b)
        for t, hrows, arows in parts:
            t.hist.keep(hrows, acc[arows], (lo, hi), take)
        # +0.0 again for the runner's next block
        acc[:, lo:hi] = 0.0

    # histogram rows per union column: one per mount that traces it
    col_rows = np.sum([mask[ucols] for mask in traced], axis=0)
    blocks = _column_blocks(col_rows) if chunks else []
    units, take = iter(blocks), threading.Lock()
    height = max((int(col_rows[b].sum()) for b in blocks), default=0)

    def run():
        """Trace the next unit until none is left; a runner that takes none
        allocates no work array."""
        s, acc = _Scratch(), None
        while True:
            with take:
                block = next(units, None)
            if block is None:
                return
            if acc is None:
                acc = _mapped_zeros((height, nbins))
            trace(s, acc, block)

    # `threads` runners, the caller among them, and no more than units
    with ThreadPoolExecutor(max_workers=threads) as ex:
        helpers = [ex.submit(run) for _ in range(min(threads, len(blocks)) - 1)]
        run()
        for h in helpers:
            h.result()

    rows_traced, ne = int(lit.sum()), len(grid)
    out = []
    for t, mask, (u3, _, _) in zip(targets, traced, hops):
        nc = t.pos.size
        total = float(reflected[t.pos].sum())
        totals = {"first_bounce_coarse_w": float(p1.sum()),
                  "second_rows_traced": rows_traced,
                  "second_cols_traced": nc,
                  "second_pairs_evaluated": rows_traced * nc,
                  # reflected power onto the traced elements; it is the
                  # full coarse figure only when every element was traced
                  "second_bounce_traced_w": total}
        if nc == ne:
            totals["second_bounce_coarse_w"] = total
        out.append((t.hist, mask, u3, totals))
    return out


def _mapped_zeros(shape, dtype=np.float64) -> np.ndarray:
    """A zeroed array of `shape` in its own anonymous mapping.

    Its pages stay unmapped zeros until they are touched, reading included
    (the mapping is shared), and the mapping goes back to the OS as soon
    as the last array viewing it is dropped: a runner's work arrays and
    accumulator leave with the runner, each `HistRuns` pool with its
    owner.  Freed histograms on the heap stayed resident and raised later
    peaks (at 1 thread: simulate-all 121 MB against 107 MB; a 13-position
    sweep, one array per position, 181 MB against 153 MB)."""
    cells = math.prod(shape)
    mapped = mmap.mmap(-1, max(cells * np.dtype(dtype).itemsize, mmap.PAGESIZE))
    return np.frombuffer(mapped, dtype)[:cells].reshape(shape)


def _pieces(lo: int, hi: int) -> slice:
    """The pieces of a `HistRuns` row that bins [lo, hi) meet."""
    return slice(lo // _PIECE, -(-hi // _PIECE))


class HistRuns:
    """A (rows, nbins) float64 second-order histogram, kept as the pieces
    of its rows that hold a non-zero value.

    Piece k is bins [k * _PIECE, (k + 1) * _PIECE), the last one cut at
    `nbins`; `_PIECE` divides `_GEMV_BINS`, so every piece lies in one of
    the `runs`, `block_slices(nbins, _GEMV_BINS)`, the steps of the
    second-order gemv (a folded 257-bin run ends in a 1-bin piece).  Piece
    k of row r is `pool[slots[r, k]]`, `_PIECE` wide, bins past `nbins`
    +0.0; pool piece 0 is all zeros, and every piece that holds no non-zero
    value points at it.  The pool is one `_mapped_zeros` mapping with room
    for every piece, of which only the pieces kept, packed from piece 1 on,
    are ever touched.  Which pool piece a piece lands in depends on the
    order in which blocks finish, its values do not: compare histograms
    through `toarray`."""

    def __init__(self, rows: int, nbins: int):
        self.shape = (rows, nbins)
        self.runs = block_slices(nbins, _GEMV_BINS)
        pieces = -(-nbins // _PIECE)
        if rows * pieces >= 2**31 - 1:
            raise MemoryError(
                f"a ({rows}, {nbins}) second-order histogram has more "
                f"{_PIECE}-bin pieces than an int32 slot table can index")
        self.slots = np.zeros((rows, pieces), dtype=np.int32)
        self.pool = _mapped_zeros((1 + self.slots.size, _PIECE))
        self.used = 0             # pool pieces kept, after piece 0

    def keep(self, rows: slice, acc: np.ndarray, band, lock) -> None:
        """Keep the pieces of `acc`, the values of rows `rows`, that hold a
        non-zero value.  `acc` is +0.0 outside its bins [lo, hi) = `band`,
        so only the pieces that meet the band are read, whole; their pool
        slots are reserved under `lock`, and only `rows` of the slot table
        are written."""
        lo, hi = band
        if lo >= hi:
            return
        k = _pieces(lo, hi)
        k0, k1 = k.start, k.stop
        vals = acc[:, k0 * _PIECE:k1 * _PIECE]
        # the histogram's last piece may be short: the pool holds it padded
        short = (k1 - k0) * _PIECE - vals.shape[1]
        if short:
            vals = np.pad(vals, ((0, 0), (0, short)))
        vals = vals.reshape(len(vals), k1 - k0, _PIECE)
        held = (vals != 0.0).any(axis=2)
        n = int(np.count_nonzero(held))
        with lock:
            first = self.used + 1
            self.used += n
        slots = np.zeros(held.shape, dtype=np.int32)
        slots[held] = np.arange(first, first + n, dtype=np.int32)
        self.slots[rows, k0:k1] = slots
        self.pool[first:first + n] = vals[held]

    def run(self, slots: np.ndarray, b: slice) -> np.ndarray:
        """The C-contiguous (len(slots), width) values of run `b` of the
        rows whose slots are `slots`: one gather of the run's pieces."""
        k = _pieces(b.start, b.stop)
        vals = np.take(self.pool, slots[:, k], axis=0).reshape(
            len(slots), (k.stop - k.start) * _PIECE)
        width = b.stop - b.start
        return vals if vals.shape[1] == width else vals[:, :width].copy()

    def toarray(self) -> np.ndarray:
        """The dense (rows, nbins) histogram."""
        return self.run(self.slots, slice(0, self.shape[1]))


def _delay_window(bins: np.ndarray, nbins: int):
    """(lo, width, span): a block's bin indices lie in [lo, lo + width), and
    [lo, lo + span) is the part of that window inside the histogram.

    Only zero weights lie past the end, and they are dropped: a coincident
    pair gets a 1 m stand-in distance, which in a room whose diagonal is
    under 1 m is longer than any path.  `span` is 0 when every index lies
    past the end."""
    lo = int(bins.min())
    width = int(bins.max()) + 1 - lo
    return lo, width, min(max(nbins - lo, 0), width)


@dataclass(eq=False)
class ArrivalField:
    """All traced arrivals at one point, binned for the receivers the field
    was traced for.

    For each of those receivers the field keeps only its branches' bins,
    (branches, nbins) each: `point_bins` for the LOS and first-order
    arrivals, binned while they are traced, and `b2_bins` for the second
    order, the branches' sums over the second-order histogram, which is
    dropped before any first-order work.  It serves those receivers, and
    any receiver equal to one of them in kind and in every branch's
    boresight and FOV, and refuses any other, at every order.

    Built by `trace_fields` or `compute_field`.  `mount` is where every
    receiver applied to the field sits.
    """

    mount: np.ndarray
    cfg: TraceConfig
    nbins: int
    point_bins: tuple         # ((receiver, (branches, nbins) W), ...)
    b2_bins: tuple | None     # the same at order 2, None below it
    totals: dict              # traced power and work, by name
    # not a field: the benchmark's tracer (`perfbench/tracer.py`,
    # `count_receiver_irs`) reads it after each `receiver_irs` call
    b2_hist = None

    def receiver_irs(self, receiver: ReceiverSpec) -> list[ImpulseResponse]:
        """One impulse response per receiver branch: the point and
        second-order bins taken at trace time for the traced receiver that
        captures as `receiver` does, added; refused for any other."""
        for k, (rx, point_bins) in enumerate(self.point_bins):
            if _same_capture(rx, receiver):
                break
        else:
            raise ValueError(
                f"this field did not trace light for a {receiver.kind} "
                "receiver; build the field with it among `receivers`")
        b2_bins = None if self.b2_bins is None else self.b2_bins[k][1]
        irs = []
        for j in range(receiver.branch_count):
            # a sum or a copy: an IR never views a field's own bins
            bins = (point_bins[j].copy() if b2_bins is None
                    else point_bins[j] + b2_bins[j])
            nz = np.nonzero(bins)[0]
            bins = bins[: nz[-1] + 1] if nz.size else bins[:0]
            irs.append(ImpulseResponse(self.cfg.bin_width, bins))
        return irs


def _same_capture(a: ReceiverSpec, b: ReceiverSpec) -> bool:
    """Whether `a` and `b` capture alike: one kind and, branch by branch,
    one boresight and FOV, compared by value (`==` on the specs raises on
    their numpy boresights)."""
    return (a.kind == b.kind and a.branch_count == b.branch_count
            and all(x.fov_deg == y.fov_deg
                    and np.array_equal(x.boresight, y.boresight)
                    for x, y in zip(a.branches, b.branches)))


def _second_order_bins(acc: np.ndarray, hist: HistRuns, traced: np.ndarray):
    """(nb, nbins): each branch's `acc[j] @ full`, `full` being the (ne,
    nbins) histogram with `hist`'s rows at the `traced` elements and 0.0
    elsewhere, by a gemv over only the `_GEMV_BLOCK`-element blocks the
    branch weighs, one run of `hist` at a time, its operand gathered from
    the run's pieces (`HistRuns.run`).  Every element `acc` weighs must be
    traced; an untraced one in such a block has weight 0.0, so it may read
    any traced row: 0.0 times a finite value >= 0 adds +0.0.  A run that
    every weighed row holds as zeros is +0.0 without a gemv: each of its
    products is +-0.0, and a gemv with beta 0 sums them into +0.0."""
    rows = _weighed_rows(acc)
    hist_row = np.maximum(np.cumsum(traced) - 1, 0)
    out = np.empty((len(acc), hist.shape[1]))
    for a, r, o in zip(acc, rows, out):
        a, slots = a[r], hist.slots[hist_row[r]]
        for b in hist.runs:
            if slots[:, _pieces(b.start, b.stop)].any():
                np.matmul(a, hist.run(slots, b), out=o[b])
            else:
                o[b] = 0.0
    return out


def _weighed_rows(acc: np.ndarray) -> np.ndarray:
    """(nb, ne) bool: per branch, every row of each `_GEMV_BLOCK`-row block
    (aligned at row 0, the last clipped at `ne`) holding a non-zero weight."""
    nb, ne = acc.shape
    pad = np.pad(acc != 0.0, ((0, 0), (0, -ne % _GEMV_BLOCK)))
    blocks = pad.reshape(nb, -1, _GEMV_BLOCK).any(axis=2)
    return np.repeat(blocks, _GEMV_BLOCK, axis=1)[:, :ne]


def _check_pose(scene: Scene, position):
    p = np.asarray(position, dtype=float)
    lx, ly, h = scene.room
    if not (0.0 <= p[0] <= lx and 0.0 <= p[1] <= ly and COMM_FLOOR_M <= p[2] <= h):
        raise ValueError(
            f"detector pose {tuple(map(float, p))} must be inside the room and "
            f"above the communication floor ({COMM_FLOOR_M} m)"
        )


def _check_threads(threads) -> None:
    if (isinstance(threads, bool) or not isinstance(threads, (int, np.integer))
            or threads < 1):
        raise ValueError(f"thread count must be at least 1, an integer, got {threads!r}")


def _checked_receivers(receivers) -> tuple:
    """`receivers` as a tuple, taken once (a generator is not used up by
    the trace), once each is checked to be a `ReceiverSpec`."""
    try:
        rxs = tuple(receivers)
    except TypeError:
        rxs = None
    if rxs is None or not all(isinstance(rx, ReceiverSpec) for rx in rxs):
        raise ValueError("receivers must be an iterable of ReceiverSpec, "
                         f"got {receivers!r}")
    return rxs


def _checked_mounts(scene: Scene, mounts) -> list:
    """`mounts` as float arrays, once the scene and every pose are checked."""
    diags = validate_scene(scene)
    if diags:
        raise ValueError("invalid scene: " + "; ".join(diags))
    mounts = [np.asarray(m, dtype=float) for m in mounts]
    for mount in mounts:
        _check_pose(scene, mount)
    return mounts


def _position_groups(scene: Scene, mounts) -> list:
    """(luminaire ids, mounts) of each group of `mounts`, in order, once
    they are checked: each run of consecutive mounts with one luminaire set
    (`scene.assigned_luminaires`) is split into the fewest groups of at
    most `_GROUP_CAP`, of near-equal size."""
    runs = []
    for mount in _checked_mounts(scene, mounts):
        ids = scene.assigned_luminaires(mount)
        if runs and runs[-1][0] == ids:
            runs[-1][1].append(mount)
        else:
            runs.append((ids, [mount]))
    groups = []
    for ids, run in runs:
        n = -(-len(run) // _GROUP_CAP)
        groups += [(ids, run[k * len(run) // n:(k + 1) * len(run) // n])
                   for k in range(n)]
    return groups


def _lit_grid(scene: Scene, lums, boxes, edge: float):
    """The grid of element edge `edge` and the set's incident power on it."""
    grid = scene.surface_elements(edge)
    return grid, _incident_power(lums, grid, boxes)


def _second_setup(grid, incident, mounts, receivers, boxes):
    """The lit e1 rows of `incident`, the set's incident power on the
    coarse `grid`, and each mount's final hop and traced e2 columns.

    Rows with no incident power from any luminaire add nothing (their
    weights are exactly zero, with or without occlusion), so only lit rows
    are traced."""
    hops = [_final_hop(grid, m, boxes) for m in mounts]
    traced = [_captured_columns(receivers, u3) for u3, _, _ in hops]
    return incident[0].any(axis=0), hops, traced


def _group_extent(scene: Scene, ids, mounts, cfg: TraceConfig, receivers) -> dict:
    """What the second-order kernel traces for one group, without tracing:
    its mounts, the lit first-bounce rows, the union of the second-bounce
    columns its mounts capture, the pair geometries between them (computed
    once for the group) and the bytes of the histograms the group holds at
    once, one row per traced column per mount.  For one mount these are
    that mount's own figures."""
    lums, boxes = [scene.luminaires[i] for i in ids], _occluder_boxes(scene)
    grid, incident = _lit_grid(scene, lums, boxes, cfg.second_edge)
    lit, _, traced = _second_setup(grid, incident, mounts, receivers, boxes)
    rows = int(lit.sum())
    cols = int(np.logical_or.reduce(traced).sum())
    held = sum(int(t.sum()) for t in traced)
    return {"positions": len(mounts), "rows": rows, "cols": cols,
            "pairs": rows * cols,
            "hist_bytes": held * _bin_count(scene, cfg) * 8}


def _fields(scene: Scene, groups, cfg: TraceConfig, threads: int, receivers):
    """The field of each mount of `groups`, (luminaire ids, mounts) pairs
    checked by the caller, in order.

    What depends only on the scene, a group's set and the grids is
    computed once for the group: the incident power on the first- and
    second-order grids, and each second-order chunk's pair geometry, over
    the union of the columns its mounts trace.  Every mount's second-order
    histogram is traced, at `threads`, when the group's first field is
    asked for, and reduced to the branch bins of `receivers` before any
    fine-grid incident power or point arrival is live.  Each field is
    built by `_field` and yielded as it comes, so this frame never holds
    one while the next is traced."""
    boxes, nbins = _occluder_boxes(scene), _bin_count(scene, cfg)
    for ids, mounts in groups:
        lums = [scene.luminaires[i] for i in ids]
        seconds, coarse = [None] * len(mounts), None
        if cfg.max_order >= 2 and lums:
            grid, incident = coarse = _lit_grid(scene, lums, boxes,
                                                cfg.second_edge)
            seconds = _second_order_hists(
                grid, incident,
                *_second_setup(grid, incident, mounts, receivers, boxes),
                boxes, nbins, cfg.bin_width, threads)
            del grid, incident
            # each mount keeps its receivers' branch bins, and its
            # histogram goes back to the OS before the next is reduced
            for i, second in enumerate(seconds):
                seconds[i] = _receiver_bins(receivers, *second)
            del second
        fine = [None]
        if cfg.max_order >= 1 and lums:
            fine = [coarse if coarse and cfg.first_edge == cfg.second_edge
                    else _lit_grid(scene, lums, boxes, cfg.first_edge)]
        del coarse
        for k, mount in enumerate(mounts, 1):
            # each field takes its second order from the list, and the last
            # takes the incident power: once a group's last field is out,
            # nothing holds the group's shared work
            yield _field(lums, mount, cfg, boxes, nbins, seconds.pop(0),
                         fine.pop() if k == len(mounts) else fine[0],
                         receivers)


def _receiver_bins(receivers, hist, traced, u3, totals):
    """One mount's share of its group's second order, (bins, totals), its
    histogram `hist` reduced to each of `receivers` with its branches'
    `_second_order_bins`, (branches, nbins), over its capture of `u3`."""
    bins = tuple((rx, _second_order_bins(capture_matrix(rx, u3), hist, traced))
                 for rx in receivers)
    return bins, totals


def _field(lums, mount, cfg: TraceConfig, boxes, nbins: int, second,
           fine, receivers) -> "ArrivalField":
    """One mount's field: `second`, its share of its group's second order
    (None below order 2), then its LOS and first-order arrivals, those on
    `fine`, the first-order grid and the set's incident power on it,
    binned into the branch bins of `receivers`."""
    b2_bins, second = second or (None, {})
    flux0, length0, dirs0 = _los_arrivals(lums, mount, boxes)
    los = (flux0, _delay_bins(length0, cfg.bin_width,
                              np.empty(len(flux0), np.int64)))
    dirs, seen, count, hops, first_w = _first_order_arrivals(
        dirs0, fine, mount, boxes, cfg.bin_width)
    point_bins = _point_bins(receivers, los, dirs, seen, hops, nbins)
    totals = {"point_arrivals": count}
    if first_w is not None:
        totals["first_bounce_fine_w"] = first_w
    totals.update(second)
    return ArrivalField(mount, cfg, nbins, point_bins, b2_bins, totals)


def trace_fields(scene: Scene, mounts, cfg: TraceConfig, threads: int = 1, *,
                 receivers):
    """An iterator over the `ArrivalField` of each of `mounts`, in order,
    each traced when it is asked for.

    Consecutive mounts under one luminaire set (`scene.assigned_luminaires`)
    are traced as a group of at most `_GROUP_CAP`, which shares the work
    that does not depend on the mount; each field is bit for bit the one
    `compute_field` gives its mount alone.  Each of a group's histograms
    goes back to the OS once its receivers' bins are taken, before the next
    is reduced and before the first field is out; drop each field before
    asking for the next.  The thread count, the receivers, the scene and
    every pose are checked here, before any field is traced.  `threads`
    and `receivers` are as for `compute_field`.
    """
    _check_threads(threads)
    receivers = _checked_receivers(receivers)
    return _fields(scene, _position_groups(scene, mounts), cfg, threads,
                   receivers)


def compute_field(scene: Scene, luminaire_ids, mount, cfg: TraceConfig,
                  threads: int = 1, *, receivers) -> ArrivalField:
    """Trace LOS + reflections from a luminaire set to one mount point.

    `luminaire_ids` is normally `scene.assigned_luminaires(mount)`.  Rack
    rows the scene flags as occluding shadow every hop; no other setting
    does.  `receivers`, the assemblies that will be applied at `mount`
    (`ReceiverSpec`s, taken once), limits second-order tracing to the
    surface elements their branches capture, and the field keeps only
    their branch bins, so it serves those receivers alone; with none, it
    traces no second-order pair and serves no receiver.  `threads`, an
    integer of at least 1 (the caller and threads - 1 helpers), changes
    only speed.
    For many mounts, `trace_fields` shares work between them.
    """
    ids, n = tuple(luminaire_ids), len(scene.luminaires)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
               and 0 <= i < n for i in ids) or len(set(ids)) < len(ids):
        raise ValueError(f"luminaire ids must be distinct integers in "
                         f"[0, {n}), got {ids}")
    _check_threads(threads)
    receivers = _checked_receivers(receivers)
    return next(_fields(scene, [(ids, _checked_mounts(scene, [mount]))], cfg,
                        threads, receivers))
