"""Impulse-response tracer for the pod's diffuse optical channel.

Propagation model: each luminaire is a point Lambertian emitter of order m;
every surface element re-emits what it receives as an ideal Lambertian
(order 1) source scaled by its reflectance.  Line of sight plus first- and
second-order reflections are accumulated into a fixed-width delay histogram.
First-order paths run over a fine surface grid, second-order paths use a
coarser grid for both bounces to keep the pair count tractable.

The tracer is a pure function of (scene, config): `compute_field` runs
three stages (line of sight, first order, second order) that each return
arrays, and the `ArrivalField` it returns only holds them.

Mounts that share a luminaire set can be traced as one `PositionGroup`
(a sweep's positions along one row; `position_groups` makes them, at most
`_GROUP_CAP` to a group); a lone mount is a group of one, through the same
code.  A group computes the set's incident power on both grids once, and
each second-order chunk's pair geometry once, over the union of the
second-bounce columns its mounts trace; each mount then gathers its own
columns, in ascending order, and bins them as a lone trace does.  A
group's histograms share one anonymous mapping, 14-15 MB per mount at the
reference mounts (about 60 MB for a group of four), which lives until the
last of the group's fields is dropped.  `simulate`'s mounts each have
their own set and share nothing.

Second-order work is split into fixed chunks of first-bounce (e1) rows of
the coarse grid.  Rows that receive no power from any luminaire are
dropped before any pair geometry is built, and a chunk left with no rows
is skipped.  A chunk's pair geometry takes each panel's normal,
reflectance and area as scalars, on the runs of its rows and columns that
lie on that panel.  The worker that traces a chunk also bins it, every
luminaire in one pass, one block of a mount's columns at a time, over only
the delay window that block's paths span, and adds each window into the
mount's histogram in its turn: chunk k adds into a block only after chunk
k - 1 has, so every cell gets the same partial sums in the same order for
any worker count.  With several threads at most 2 x threads chunks are in
flight; each worker keeps its work arrays from chunk to chunk.

Point arrivals keep an index into a table of distinct arrival directions,
so a receiver's gains are computed once per direction, not once per
arrival: every luminaire's first-order arrival from one element shares it.

When the receivers to be applied are known up front, only the second-bounce
(e2) columns that some branch captures are traced, one histogram row each;
every other column meets a capture weight of exactly 0.0, so the impulse
responses of those receivers are bit-identical to a full trace.
"""

from __future__ import annotations

import math
import mmap
import queue
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .scene import COMM_FLOOR_M, Scene, validate_scene
from .receivers import ReceiverSpec, capture_matrix, sparse_capture

C_LIGHT = 2.9979e8            # m/s, air
_CHUNK = 256                  # second-order e1 rows per work unit (fixed: determinism)
_EPS = 1e-12
# Each branch's second-order gemv runs over the aligned blocks of this many
# grid elements that hold one of its non-zero weights.  OpenBLAS's gemv
# adds the element axis into y in aligned groups of 4 or 8; an all-zero
# group adds +0.0, so dropping whole 8-aligned blocks keeps every bit.
_GEMV_BLOCK = 8
# Columns per step of the second-order pair geometry and binning: bounds
# the chunk's work arrays, not the bits (every pair and cell is its own).
_BLOCK = 256
# Mounts traced together at most: a group holds all their histograms at
# once (14-15 MB each at a reference mount).
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
    """First-bounce power and path length from each luminaire onto a grid.

    Returns (power (L, N) watts, length (L, N) metres).
    """
    n = len(grid)
    nl = len(luminaires)
    power = np.zeros((nl, n))
    length = np.zeros((nl, n))
    runs = grid.panel_runs(np.arange(n))
    for li, lum in enumerate(luminaires):
        v = grid.centres - lum.position[None, :]
        d = np.linalg.norm(v, axis=1)
        safe = d > _EPS
        dd = np.where(safe, d, 1.0)
        u = v / dd[:, None]
        cos_phi = -u[:, 2]       # every luminaire points along (0, 0, -1)
        # x, y, z: the order `-(u * normals).sum(axis=1)` adds in
        cos_in = _dots(np.empty(n), np.empty(n), runs, u.T, (0, 1, 2), -1.0)
        sel = safe & (cos_phi > 0.0) & (cos_in > 0.0)
        p = np.zeros(n)
        p[sel] = (lum.power_w * (lum.order + 1.0) / (2.0 * math.pi * d[sel] ** 2)
                  * cos_phi[sel] ** lum.order * cos_in[sel] * grid.areas[sel])
        if boxes:
            hit = _segments_blocked(boxes, lum.position, grid.centres)
            p[hit] = 0.0
        power[li] = p
        length[li] = d
    return power, length


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
    """Last hop, element -> mount: unit directions, lengths and the
    branch-independent weight (reflectance times the Lambertian emission)."""
    v3 = mount[None, :] - grid.centres
    d3 = np.linalg.norm(v3, axis=1)
    safe = d3 > _EPS
    dd3 = np.where(safe, d3, 1.0)
    u3 = v3 / dd3[:, None]
    cos3 = _dots(np.empty(len(grid)), np.empty(len(grid)),
                 grid.panel_runs(np.arange(len(grid))), u3.T, (0, 1, 2), 1.0)
    f3 = np.zeros(len(grid))
    sel = safe & (cos3 > 0.0)
    f3[sel] = grid.reflectances[sel] * cos3[sel] / (math.pi * d3[sel] ** 2)
    if boxes:
        f3[_segments_blocked(boxes, grid.centres, mount[None, :])] = 0.0
    return u3, d3, f3


def _captured_columns(receivers, u3) -> np.ndarray:
    """Elements whose arrival direction some branch of some receiver
    captures; every element when `receivers` is None."""
    if receivers is None:
        return np.ones(len(u3), dtype=bool)
    captured = np.zeros(len(u3), dtype=bool)
    for rx in receivers:
        captured |= (capture_matrix(rx, u3) != 0.0).any(axis=0)
    return captured


def _los_arrivals(lums, mount, boxes):
    """Line-of-sight arrivals, one per luminaire: (flux, length, row of
    `dirs`, `dirs`), with one direction per arrival.

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
    return flux, length, np.arange(n), dirs


def _first_order_arrivals(incident, grid, mount, boxes):
    """One-bounce arrivals with non-zero flux, luminaire by luminaire:
    (flux, length, row of `dirs`, `dirs`, first-bounce power summed over
    the grid).  `incident` is `_incident_power` of the luminaires on
    `grid`.  `dirs` holds one arrival direction per element that passes
    any flux, in element order; every luminaire's arrival from an element
    shares its row."""
    p1, l1 = incident
    u, dm, f_out = _final_hop(grid, mount, boxes)
    flux = p1 * f_out[None, :]
    lengths = l1 + dm[None, :]
    passed = flux > 0.0
    li, ei = np.nonzero(passed)
    seen = passed.any(axis=0)
    row = np.cumsum(seen) - 1
    return flux[li, ei], lengths[li, ei], row[ei], u[seen], float(p1.sum())


def second_order_extent(scene: Scene, luminaire_ids, mount, cfg: TraceConfig,
                        receivers=None) -> dict:
    """What the second-order kernel traces for one mount, without tracing:
    lit first-bounce rows, captured second-bounce columns, the pairs between
    them and the bytes of the histogram, one row per traced column."""
    return PositionGroup(scene, luminaire_ids, [mount], cfg, receivers).extent()


class _Scratch:
    """One worker's chunk-sized work arrays, kept from chunk to chunk.

    The kernel writes its temporaries into these through `out=`: fresh
    arrays of this size are mapped from the OS for each chunk and fault in
    page by page.  Every view is a C-contiguous run of one arena.  A
    chunk's `geom` and `d` come first; the work arrays of one column block
    of the pair geometry, and later those of one mount's binning, reuse
    the space past them."""

    def __init__(self, nl: int, nu: int, nc: int):
        work = max(6 * _BLOCK, nc + (2 + 2 * nl) * _BLOCK)
        self.arena = np.empty(_CHUNK * (2 * nu + work))
        self.mask = np.empty(_CHUNK * _BLOCK, dtype=bool)

    def pair(self, nr: int, nu: int, nb: int):
        """geom and d (nr, nu); six (nr, nb) work arrays and a mask."""
        return (_carve(self.arena, 0, (nr, nu), (nr, nu), *[(nr, nb)] * 6)
                + _carve(self.mask, 0, (nr, nb)))

    def picked(self, nr: int, nu: int, nc: int):
        """One mount's gathered geom (nr, nc), past geom and d."""
        return _carve(self.arena, 2 * nr * nu, (nr, nc))[0]

    def block(self, nl: int, nr: int, nu: int, nc: int, nb: int):
        """Past the gathered geom: one column block's gathered d and
        lengths (nr, nb), and its weights and flat bin indices (nl, nr, nb)."""
        *views, flat = _carve(self.arena, (2 * nu + nc) * nr, (nr, nb), (nr, nb),
                              (nl, nr, nb), (nl, nr, nb))
        return (*views, flat.view(np.int64))


def _carve(buf: np.ndarray, start: int, *shapes) -> list:
    """C-contiguous views of consecutive runs of `buf` from `start`."""
    views = []
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[start:start + n].reshape(shape))
        start += n
    return views


def _pair_geometry(s: _Scratch, rows, grid, cols, boxes):
    """`geom` (the e1 reflectance times the Lambertian transfer from e1 to
    e2) and distance `d` of every pair of lit e1 `rows` and e2 `cols`, as
    (rows, cols) views of `s`, computed `_BLOCK` columns at a time.  Each
    pair's value depends on that pair alone, so it is the same for any
    set of columns.  Normals, reflectances and areas are Python scalars,
    one per run of rows or columns on one panel (`ElementGrid.panel_runs`)."""
    nr, nu = rows.size, cols.size
    centres_r = grid.centres[rows]
    row_runs = grid.panel_runs(rows)
    for c0 in range(0, nu, _BLOCK):
        c = cols[c0:c0 + _BLOCK]
        geom, d, dx, dy, dz, d2, cos_in, tmp, near = s.pair(nr, nu, c.size)
        g, dd = geom[:, c0:c0 + c.size], d[:, c0:c0 + c.size]
        # pair vectors as separate x, y, z arrays; each sum adds (x + z) + y,
        # the order einsum uses for a length-3 contraction.  `g` holds
        # cos_out until it becomes geom.
        for out, cc, cr in zip((dx, dy, dz), grid.centres[c].T, centres_r.T):
            np.subtract(cc[None, :], cr[:, None], out=out)
        np.multiply(dx, dx, out=d2)
        d2 += np.multiply(dz, dz, out=tmp)
        d2 += np.multiply(dy, dy, out=tmp)
        # coincident pairs get a 1 m stand-in distance and zero weight
        np.less_equal(d2, _EPS, out=near)
        np.copyto(d2, 1.0, where=near)
        np.sqrt(d2, out=dd)
        col_runs = [((slice(None), k), *v) for k, *v in grid.panel_runs(c)]
        _dots(g, tmp, row_runs, (dx, dz, dy), (0, 2, 1), 1.0)
        _dots(cos_in, tmp, col_runs, (dx, dz, dy), (0, 2, 1), -1.0)
        # rho * max(cos_out, 0) * max(cos_in, 0) * area / (pi * d2)
        for cos in (g, cos_in):
            cos /= dd
            np.maximum(cos, 0.0, out=cos)
        g *= cos_in
        np.copyto(g, 0.0, where=near)
        for k, _, _, area in col_runs:
            g[k] *= area
        d2 *= math.pi
        g /= d2
        if boxes:
            shape = (nr, c.size, 3)
            src = np.broadcast_to(centres_r[:, None, :], shape)
            dst = np.broadcast_to(grid.centres[c][None, :, :], shape)
            blocked = _segments_blocked(boxes, src.reshape(-1, 3), dst.reshape(-1, 3))
            np.copyto(g, 0.0, where=blocked.reshape(nr, c.size))
        for r, _, rho, _ in row_runs:
            g[r] *= rho
    return geom, d


class _Target:
    """One mount's share of a group's second-order trace."""

    def __init__(self, pick, f3, d3, hist):
        self.pick = pick      # its columns among the union's; None: all of them
        self.f3 = f3          # final-hop weight of its columns
        self.d3 = d3          # final-hop length of its columns
        self.hist = hist      # (its columns, nbins)
        self.total = 0.0      # reflected power onto its columns

    def blocks(self) -> list:
        """Its columns in runs of `_BLOCK`, each binned on its own."""
        nc = self.f3.size
        return [slice(c, min(c + _BLOCK, nc)) for c in range(0, nc, _BLOCK)]

    def add(self, cols: slice, lo: int, counts: np.ndarray) -> None:
        """Add one chunk's delay window of a block of its columns."""
        window = self.hist[cols, lo:lo + counts.shape[1]]
        np.add(window, counts, out=window)


def _mount_geom(s: _Scratch, t: _Target, geom, p1, rows, start, stop):
    """A mount's columns of a chunk's `geom` (gathered when the mount has
    not every column of the union) and the chunk's reflected power onto
    them."""
    if t.pick is not None:
        nr, nu = geom.shape
        geom = np.take(geom, t.pick, axis=1, mode="clip",
                       out=s.picked(nr, nu, t.pick.size))
    # for bounce accounting; unlit rows stay 0 so the dot products
    # run over the same full chunk as with every row traced
    row_reflected = np.zeros(stop - start)
    row_reflected[rows - start] = geom.sum(axis=1)
    total = 0.0
    for li in range(len(p1)):
        total += float(p1[li, start:stop] @ row_reflected)
    return geom, total


def _bin_block(s: _Scratch, t: _Target, cols: slice, geom, d, incident,
               rows, nbins, bin_width):
    """(lo, counts): one block of a mount's columns of a chunk, every
    luminaire in one `bincount`, over the delay window its pairs span.
    `geom` is `_mount_geom`'s; `d` is the union's.

    A cell only gets terms from its own column, so each cell's sum and the
    order of its terms are those of a bincount over all the columns."""
    p1, l1 = incident
    (nr, nu), nc, nb = d.shape, t.f3.size, cols.stop - cols.start
    gathered_d, length, w, flat = s.block(len(p1), nr, nu, nc, nb)
    if t.pick is None:
        d = d[:, cols]
    else:
        d = np.take(d, t.pick[cols], axis=1, mode="clip", out=gathered_d)
    geom, f3, d3 = geom[:, cols], t.f3[cols], t.d3[cols]
    # one buffer for all luminaires, luminaire-then-row-major: the
    # order bincount adds each cell's terms in.  Zero weights are
    # passed through, since adding +0.0 leaves a cell's bits alone.
    for li in range(len(p1)):
        wl = w[li]
        np.multiply(p1[li, rows, None], geom, out=wl)
        wl *= f3
        np.add(l1[li, rows, None], d, out=length)
        length += d3
        # same expression as the point-arrival path: len/c/dt, cast to int64;
        # lengths are sums of distances, never negative: truncation is a floor
        length /= C_LIGHT
        np.divide(length, bin_width, out=flat[li], casting="unsafe")
    lo, width, span = _delay_window(flat, nbins)
    flat += np.arange(nb, dtype=np.int64) * width - lo
    counts = np.bincount(flat.ravel(), weights=w.ravel(),
                         minlength=nb * width).reshape(nb, width)
    return lo, counts[:, :span]


class _Turns:
    """Turns on the histogram blocks: chunk k adds into a block only after
    chunk k - 1 has, so every cell gets its partial sums in chunk order.

    Chunks are submitted in order to a FIFO pool, so when chunk k runs,
    every earlier chunk has started: a chunk only ever waits for chunks
    that are running, and the earliest of them never waits."""

    def __init__(self, n: int):
        self._next = [0] * n
        self._cond = threading.Condition()

    @contextmanager
    def turn(self, u: int, k: int):
        with self._cond:
            self._cond.wait_for(lambda: self._next[u] == k)
        try:
            yield
        finally:
            with self._cond:
                self._next[u] += 1
                self._cond.notify_all()


def _second_order_hists(grid, incident, lit, hops, traced, boxes, nbins,
                        bin_width, threads):
    """Second-order power per traced final (e2) element and delay bin, for
    every mount of a group that shares one luminaire set.

    `incident` is `_incident_power` of the set on `grid`, `lit` its lit
    rows; `hops` and `traced` hold each mount's `_final_hop` and traced e2
    columns.  Returns one (hist (traced columns, nbins), totals) per mount,
    row i of `hist` being its i-th traced column in element order: the
    bits a group of that mount alone gives.

    Each chunk's pair geometry is computed once, over the union of the
    mounts' columns, then each mount's columns are gathered from it in
    ascending order and binned as a lone trace bins them."""
    ne = len(grid)
    p1 = incident[0]
    ucols = np.flatnonzero(np.logical_or.reduce(traced))
    nu = ucols.size
    # every mount's histogram is a run of rows of one anonymous mapping:
    # its pages stay unmapped zeros until a window reaches them, and it is
    # returned whole once the last field viewing it is dropped.  Freed
    # histograms on the heap stayed resident and raised later peaks (at 1
    # thread: simulate-all 121 MB against 107 MB; a 13-position sweep,
    # one array per position, 181 MB against 153 MB).
    cells = sum(int(m.sum()) for m in traced) * nbins
    mapped = mmap.mmap(-1, max(8 * cells, mmap.PAGESIZE))
    hists = np.frombuffer(mapped, dtype=np.float64)[:cells].reshape(-1, nbins)
    targets, row = [], 0
    for (_, d3, f3), mask in zip(hops, traced):
        pick = np.flatnonzero(mask[ucols])
        cols = ucols[pick]
        targets.append(_Target(None if pick.size == nu else pick, f3[cols],
                               d3[cols], hists[row:row + cols.size]))
        row += cols.size
    active = [t for t in targets if t.f3.size]
    units = sum(len(t.blocks()) for t in active)
    turns = _Turns(units)
    free = queue.SimpleQueue()
    nc_max = max((t.f3.size for t in active), default=0)

    def work(k, start):
        """Trace chunk k; each block is added into its mount's histogram
        in its turn.  Returns the reflected power onto each mount."""
        try:
            s = free.get_nowait()
        except queue.Empty:
            s = _Scratch(len(p1), nu, nc_max)
        stop = min(start + _CHUNK, ne)
        rows = start + np.flatnonzero(lit[start:stop])
        totals, done = [], 0
        try:
            geom, d = _pair_geometry(s, rows, grid, ucols, boxes)
            for t in active:
                g, total = _mount_geom(s, t, geom, p1, rows, start, stop)
                totals.append(total)
                for cols in t.blocks():
                    binned = _bin_block(s, t, cols, g, d, incident, rows,
                                        nbins, bin_width)
                    with turns.turn(done, k):
                        done += 1
                        t.add(cols, *binned)
        finally:
            # a failed chunk still passes on its turns, so no later chunk
            # waits for it; its error reaches the caller through its future
            for u in range(done, units):
                with turns.turn(u, k):
                    pass
            free.put(s)
        return totals

    def add_totals(totals):
        for t, total in zip(active, totals):
            t.total += total

    # chunks without a lit row contribute exactly zero: skip them
    starts = ([s for s in range(0, ne, _CHUNK) if lit[s:s + _CHUNK].any()]
              if nu else [])
    if threads > 1:
        # at most 2 x threads chunks in flight; the reflected power is
        # added in chunk order as their results are read
        with ThreadPoolExecutor(max_workers=threads) as ex:
            pending = deque()
            for k, start in enumerate(starts):
                if len(pending) == 2 * threads:
                    add_totals(pending.popleft().result())
                pending.append(ex.submit(work, k, start))
            while pending:
                add_totals(pending.popleft().result())
    else:
        for k, start in enumerate(starts):
            add_totals(work(k, start))

    rows_traced = int(lit.sum())
    out = []
    for t in targets:
        nc = t.f3.size
        totals = {"first_bounce_coarse_w": float(p1.sum()),
                  "second_rows_traced": rows_traced,
                  "second_cols_traced": nc,
                  "second_pairs_evaluated": rows_traced * nc,
                  # reflected power onto the traced elements; it is the
                  # full coarse figure only when every element was traced
                  "second_bounce_traced_w": t.total}
        if nc == ne:
            totals["second_bounce_coarse_w"] = t.total
        out.append((t.hist, totals))
    return out


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
    """All traced arrivals at one point, before any detector directivity.

    Point arrivals (LOS and first-order) are kept as flat arrays of
    (irradiance flux, bin index, direction row).  The rows index
    `dir_table`, one table of distinct arrival directions: the LOS
    directions, one per luminaire, then one per first-order element that
    passes any flux, which every luminaire's arrival from that element
    shares.  Second-order power is pre-binned per traced final element, one
    `b2_hist` row each in element order, since its arrival direction only
    depends on that element.  Applying a receiver is then just a directional
    weighting, computed once per direction, so all branches of all receiver
    kinds share one trace.

    Built by `compute_field`.  `mount` is where every receiver applied to
    the field sits.  When second-order paths were traced only to the
    elements some branch of its `receivers` captures (`b2_traced`),
    applying a receiver that captures any other element raises.
    """

    mount: np.ndarray
    cfg: TraceConfig
    nbins: int
    point_flux: np.ndarray    # (P,) W/m^2 at the mount
    point_idx: np.ndarray     # (P,) delay bin
    point_dir: np.ndarray     # (P,) row of dir_table
    dir_table: np.ndarray     # (D, 3) distinct propagation directions
    b2_hist: np.ndarray | None    # (traced, nbins) W; None below order 2
    b2_dirs: np.ndarray | None    # (ne, 3)
    b2_traced: np.ndarray | None  # (ne,) bool, the elements with a b2_hist row
    totals: dict              # traced power and work, by name

    def _check_traced(self, acc_b2, what: str):
        """Refuse capture weights on second-order elements that were not
        traced: they have no histogram row to hold the power they receive."""
        if acc_b2[..., ~self.b2_traced].any():
            raise ValueError(
                f"{what} captures second-order light from surface elements "
                "this field did not trace; build the field with it among "
                "`receivers`")

    def receiver_irs(self, receiver: ReceiverSpec) -> list[ImpulseResponse]:
        """One impulse response per receiver branch.

        Point-arrival gains come from one `sparse_capture` over the
        direction table, expanded to the arrivals in ascending order, and
        are binned for every branch in one `bincount` over
        `branch * nbins + bin`; each cell still adds its terms in arrival
        order.  Second-order power is `_second_order_bins` of the
        branches' capture of `b2_dirs`."""
        nb, nbins = receiver.branch_count, self.nbins
        b2_bins = None
        if self.b2_hist is not None:
            acc_b2 = capture_matrix(receiver, self.b2_dirs)
            self._check_traced(acc_b2, f"{receiver.kind} receiver")
            b2_bins = _second_order_bins(acc_b2, self.b2_hist, self.b2_traced)
        branch, arrival, weight = _arrival_capture(receiver, self.dir_table,
                                                   self.point_dir)
        point_bins = np.bincount(branch * nbins + self.point_idx[arrival],
                                 weights=weight * self.point_flux[arrival],
                                 minlength=nb * nbins).reshape(nb, nbins)
        irs = []
        for j in range(nb):
            bins = point_bins[j]
            if b2_bins is not None:
                bins = bins + b2_bins[j]
            nz = np.nonzero(bins)[0]
            # not bins[:0]: bincount gives integer bins when nothing is captured
            bins = bins[: nz[-1] + 1] if nz.size else np.zeros(0)
            irs.append(ImpulseResponse(self.cfg.bin_width, bins))
        return irs


def _arrival_capture(receiver: ReceiverSpec, dirs: np.ndarray,
                     dir_row: np.ndarray):
    """`sparse_capture` entries of every arrival, `dirs[dir_row]`, from one
    capture of each direction in `dirs`.

    Returns (branch, arrival, weight) ordered by arrival, then by branch.
    Each arrival's weights are its direction's, bit for bit, since every
    gain is computed from that direction's vector alone."""
    branch, d, weight = sparse_capture(receiver, dirs)
    # entries grouped by direction, branches ascending within one
    order = np.argsort(d, kind="stable")
    count = np.bincount(d, minlength=len(dirs))
    first = np.cumsum(count) - count
    per = count[dir_row]
    arrival = np.repeat(np.arange(dir_row.size), per)
    # the k-th entry of each arrival's direction
    k = np.arange(arrival.size) - np.repeat(np.cumsum(per) - per, per)
    entry = order[first[dir_row[arrival]] + k]
    return branch[entry], arrival, weight[entry]


def _second_order_bins(acc: np.ndarray, hist: np.ndarray, traced: np.ndarray):
    """Each branch's `acc[j] @ full`, `full` being the (ne, nbins) histogram
    with `hist`'s rows at the `traced` elements and 0.0 elsewhere, by a gemv
    over only the `_GEMV_BLOCK`-element blocks the branch weighs.  An
    untraced element in such a block has weight 0.0 (`_check_traced`), so
    it may read any traced row: 0.0 times a finite value >= 0 adds +0.0."""
    rows = _weighed_rows(acc)
    hist_row = np.maximum(np.cumsum(traced) - 1, 0)
    return [a[r] @ hist[hist_row[r]] for a, r in zip(acc, rows)]


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


class PositionGroup:
    """Mounts that share one luminaire set, traced together.

    What depends only on the scene, the luminaire set and the grids is
    computed once for the group: the incident power on the first- and
    second-order grids, and each second-order chunk's pair geometry, over
    the union of the columns its mounts trace.  The second-order
    histograms of all its mounts are traced together, by the first
    `compute_field` call that needs one, at that call's thread count.
    `compute_field(..., group=g)` hands each mount's field out once, bit
    for bit the field a group of that mount alone gives.

    The histograms of all its mounts are one anonymous mapping, held until
    the last of its fields is dropped, so a group holds at most
    `_GROUP_CAP` mounts; `position_groups` splits a sweep into such groups.
    Once its last field is handed out, it keeps none of its shared work.
    """

    def __init__(self, scene: Scene, luminaire_ids, mounts, cfg: TraceConfig,
                 receivers=None):
        if not 0 < len(mounts) <= _GROUP_CAP:
            raise ValueError(f"a group holds 1 to {_GROUP_CAP} mounts, "
                             f"got {len(mounts)}")
        diags = validate_scene(scene)
        if diags:
            raise ValueError("invalid scene: " + "; ".join(diags))
        for mount in mounts:
            _check_pose(scene, mount)
        self.scene, self.cfg, self.receivers = scene, cfg, receivers
        self.luminaire_ids = tuple(luminaire_ids)
        self.mounts = tuple(np.asarray(m, dtype=float) for m in mounts)
        self._lums = [scene.luminaires[i] for i in self.luminaire_ids]
        self._boxes = _occluder_boxes(scene)
        self._incident = {}           # element edge -> (grid, power, length)
        self._served = [False] * len(self.mounts)
        self._second = None           # per mount: (hist, traced, u3, totals)

    def _incident_on(self, edge: float):
        if edge not in self._incident:
            grid = self.scene.surface_elements(edge)
            self._incident[edge] = (grid, _incident_power(self._lums, grid,
                                                          self._boxes))
        return self._incident[edge]

    def _second_setup(self):
        """The coarse grid, the set's incident power on it, the lit e1 rows,
        and each mount's final hop and traced e2 columns.

        Rows with no incident power from any luminaire add nothing (their
        weights are exactly zero, with or without occlusion), so only lit
        rows are traced."""
        grid, incident = self._incident_on(self.cfg.second_edge)
        hops = [_final_hop(grid, m, self._boxes) for m in self.mounts]
        traced = [_captured_columns(self.receivers, u3) for u3, _, _ in hops]
        return grid, incident, incident[0].any(axis=0), hops, traced

    def extent(self) -> dict:
        """What the second-order kernel traces for the group, without
        tracing: its mounts, the lit first-bounce rows, the union of the
        second-bounce columns its mounts capture, the pair geometries
        between them (computed once for the group) and the bytes of the
        histograms the group holds at once, one row per traced column per
        mount.  For one mount these are that mount's own figures."""
        _, _, lit, _, traced = self._second_setup()
        rows = int(lit.sum())
        cols = int(np.logical_or.reduce(traced).sum())
        held = sum(int(t.sum()) for t in traced)
        return {"positions": len(self.mounts), "rows": rows, "cols": cols,
                "pairs": rows * cols,
                "hist_bytes": held * _bin_count(self.scene, self.cfg) * 8}

    def _trace_second_order(self, threads: int):
        grid, incident, lit, hops, traced = self._second_setup()
        hists = _second_order_hists(
            grid, incident, lit, hops, traced, self._boxes,
            _bin_count(self.scene, self.cfg), self.cfg.bin_width, threads)
        return [(hist, mask, u3, totals)
                for (hist, totals), mask, (u3, _, _) in zip(hists, traced, hops)]

    def _field(self, mount, threads: int) -> "ArrivalField":
        mount = np.asarray(mount, dtype=float)
        i = next((i for i, m in enumerate(self.mounts)
                  if not self._served[i] and np.array_equal(m, mount)), None)
        if i is None:
            raise ValueError(f"mount {tuple(map(float, mount))} is not a mount "
                             "of this group whose field is still to be handed out")
        self._served[i] = True
        cfg, lums, boxes = self.cfg, self._lums, self._boxes
        nbins = _bin_count(self.scene, cfg)
        totals = {}

        arrivals = [_los_arrivals(lums, mount, boxes)]
        if cfg.max_order >= 1 and lums:
            grid, incident = self._incident_on(cfg.first_edge)
            *first, totals["first_bounce_fine_w"] = _first_order_arrivals(
                incident, grid, mount, boxes)
            first[2] += len(lums)     # its rows follow the LOS directions
            arrivals.append(first)
        flux, lengths, point_dir, dir_table = (np.concatenate(parts)
                                               for parts in zip(*arrivals))

        b2_hist = b2_traced = b2_dirs = None
        if cfg.max_order >= 2 and lums:
            if self._second is None:
                self._second = self._trace_second_order(threads)
            # the field owns its histogram from here on
            (b2_hist, b2_traced, b2_dirs, second), self._second[i] = \
                self._second[i], None
            totals.update(second)
        if all(self._served):
            # every field is out: a caller that keeps the group keeps none
            # of its shared work
            self._incident = {}
        return ArrivalField(
            mount, cfg, nbins, flux,
            # distances are never negative: truncation is a floor
            (lengths / C_LIGHT / cfg.bin_width).astype(np.int64), point_dir,
            dir_table, b2_hist, b2_dirs, b2_traced, totals)


def position_groups(scene: Scene, mounts, cfg: TraceConfig,
                    receivers=None) -> list:
    """`PositionGroup`s of `mounts`, in order: each run of consecutive
    mounts with one luminaire set (`scene.assigned_luminaires`) is split
    into the fewest groups of at most `_GROUP_CAP`, of near-equal size."""
    runs = []
    for mount in mounts:
        ids = scene.assigned_luminaires(mount)
        if runs and runs[-1][0] == ids:
            runs[-1][1].append(mount)
        else:
            runs.append((ids, [mount]))
    groups = []
    for ids, run in runs:
        n = -(-len(run) // _GROUP_CAP)
        for k in range(n):
            part = run[k * len(run) // n:(k + 1) * len(run) // n]
            groups.append(PositionGroup(scene, ids, part, cfg, receivers))
    return groups


def compute_field(scene: Scene, luminaire_ids, mount, cfg: TraceConfig,
                  threads: int = 1, receivers=None, *,
                  group: PositionGroup | None = None) -> ArrivalField:
    """Trace LOS + reflections from a luminaire set to one mount point.

    `luminaire_ids` is normally `scene.assigned_luminaires(mount)`.  Rack
    rows the scene flags as occluding shadow every hop; no other setting
    does.  `receivers`, the assemblies that will be applied at `mount`,
    limits second-order tracing to the surface elements their branches
    capture; without it every element is traced.  `threads`, at least 1,
    changes only the speed.

    `group`, a `PositionGroup` built from the same scene, luminaire set,
    config and receivers with `mount` among its mounts, shares the work
    that does not depend on the mount with the group's other mounts; the
    field is the same, bit for bit.  Without it the mount is a group of one.
    """
    if group is None:
        group = PositionGroup(scene, luminaire_ids, [mount], cfg, receivers)
    elif (group.scene is not scene or group.cfg != cfg
          or group.luminaire_ids != tuple(luminaire_ids)
          or group.receivers is not receivers):
        raise ValueError("the group was built for another scene, luminaire "
                         "set, trace config or receivers")
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")
    return group._field(mount, threads)
