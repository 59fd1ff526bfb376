"""Impulse-response tracer for the pod's diffuse optical channel.

Propagation model: each luminaire is a point Lambertian emitter of order m;
every surface element re-emits what it receives as an ideal Lambertian
(order 1) source scaled by its reflectance.  Line of sight plus first- and
second-order reflections are accumulated into a fixed-width delay histogram.
First-order paths run over a fine surface grid, second-order paths use a
coarser grid for both bounces to keep the pair count tractable.

The tracer is a pure function of (scene, config): `compute_field` runs
three stages (line of sight, first order, second order) that each return
arrays, and the `ArrivalField` it returns only holds them.  Second-order
work is split into fixed chunks of first-bounce (e1) rows of the coarse grid.
Rows that receive no power from any luminaire are dropped before any pair
geometry is built, and a chunk left with no rows is skipped; the rest are
binned, every luminaire in one pass, into a per-chunk histogram.  With
several threads at most 2 x threads chunks are in flight.  Chunks are always
reduced in chunk order, so results are bit-identical for any worker count.

When the receivers to be applied are known up front, only the second-bounce
(e2) columns that some branch captures are traced; every other histogram
row stays 0.0 and meets a capture weight of exactly 0.0, so the impulse
responses of those receivers are bit-identical to a full trace.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .scene import COMM_FLOOR_M, Scene, validate_scene
from .receivers import (DetectorSpec, LensModel, ReceiverSpec, capture_matrix,
                        sparse_capture)

C_LIGHT = 2.9979e8            # m/s, air
_CHUNK = 256                  # second-order e1 rows per work unit (fixed: determinism)
_EPS = 1e-12


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the tracer; defaults reproduce the reference setup."""

    max_order: int = 2        # 0 = LOS only, 1, or 2
    first_edge: float = 0.05  # m, first-order element edge
    second_edge: float = 0.20 # m, second-order element edge (both bounces)
    bin_width: float = 50e-12 # s
    occlusion: bool = False   # shadow rays against occluding rack boxes

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
    """Received power per delay bin; bin k covers [k, k+1) * bin_width + origin."""

    bin_width: float
    origin: float
    bins: np.ndarray          # watts per bin

    def times(self) -> np.ndarray:
        """Bin centre times."""
        return self.origin + (np.arange(self.bins.size) + 0.5) * self.bin_width

    def total_power(self) -> float:
        return float(self.bins.sum())

    def rebin(self, new_width: float) -> "ImpulseResponse":
        """Merge bins into a coarser histogram; total power is conserved."""
        ratio = new_width / self.bin_width
        k = int(round(ratio))
        if k < 1 or abs(ratio - k) > 1e-9:
            raise ValueError(
                f"new width {new_width} is not an integer multiple of {self.bin_width}"
            )
        if k == 1:
            return self
        pad = (-self.bins.size) % k
        padded = np.concatenate([self.bins, np.zeros(pad)])
        return ImpulseResponse(new_width, self.origin,
                               padded.reshape(-1, k).sum(axis=1))


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
    for li, lum in enumerate(luminaires):
        v = grid.centres - lum.position[None, :]
        d = np.linalg.norm(v, axis=1)
        safe = d > _EPS
        dd = np.where(safe, d, 1.0)
        u = v / dd[:, None]
        cos_phi = u @ lum.boresight
        cos_in = -(u * grid.normals).sum(axis=1)
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
    cos3 = (u3 * grid.normals).sum(axis=1)
    f3 = np.zeros(len(grid))
    sel = safe & (cos3 > 0.0)
    f3[sel] = grid.reflectances[sel] * cos3[sel] / (math.pi * d3[sel] ** 2)
    if boxes:
        f3[_segments_blocked(boxes, grid.centres, mount[None, :])] = 0.0
    return u3, d3, f3


def _captured_columns(receivers, mount, u3) -> np.ndarray:
    """Elements whose arrival direction some branch of some receiver
    captures; every element when `receivers` is None."""
    if receivers is None:
        return np.ones(len(u3), dtype=bool)
    captured = np.zeros(len(u3), dtype=bool)
    for rx in receivers:
        _check_mount(rx, mount)
        captured |= (capture_matrix(rx, u3) != 0.0).any(axis=0)
    return captured


def _check_mount(receiver: ReceiverSpec, mount: np.ndarray):
    """Refuse a receiver that does not sit at the traced mount: the
    arrivals there are not the ones it receives."""
    if not np.array_equal(np.asarray(receiver.mount, dtype=float), mount):
        raise ValueError(
            f"{receiver.kind} receiver at {tuple(receiver.mount)} does not sit "
            f"at the traced mount {tuple(mount)}")


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
        cos_phi = float(np.dot(u, lum.boresight))
        visible = cos_phi > 0.0 and not (
            boxes and bool(_segments_blocked(boxes, lum.position, mount[None, :])[0]))
        if visible:
            flux[k] = (lum.power_w * (lum.order + 1.0) / (2.0 * math.pi * d * d)
                       * cos_phi ** lum.order)
        length[k] = d
        dirs[k] = u
    return flux, length, dirs


def _first_order_arrivals(lums, grid, mount, boxes):
    """One-bounce arrivals with non-zero flux: (flux, length, direction,
    first-bounce power summed over the grid)."""
    p1, l1 = _incident_power(lums, grid, boxes)
    u, dm, f_out = _final_hop(grid, mount, boxes)
    flux = p1 * f_out[None, :]
    lengths = l1 + dm[None, :]
    li, ei = np.nonzero(flux > 0.0)
    return flux[li, ei], lengths[li, ei], u[ei], float(p1.sum())


def _second_order_setup(lums, grid, mount, boxes, receivers):
    """What the second-order kernel starts from: first-bounce power and
    length (L, ne), the lit e1 rows, the final hop and the traced e2 columns.

    Rows with no incident power from any luminaire add nothing (their
    weights are exactly zero, with or without occlusion), so only lit rows
    are traced."""
    p1, l1 = _incident_power(lums, grid, boxes)
    u3, d3, f3 = _final_hop(grid, mount, boxes)
    return p1, l1, p1.any(axis=0), (u3, d3, f3), _captured_columns(receivers, mount, u3)


def second_order_extent(scene: Scene, luminaire_ids, mount, cfg: TraceConfig,
                        receivers=None) -> dict:
    """What the second-order kernel traces for one mount, without tracing:
    lit first-bounce rows, captured second-bounce columns, the pairs between
    them and the histogram bytes (the field's full histogram and the
    compact one the traced columns are accumulated in)."""
    boxes = _occluder_boxes(scene) if cfg.occlusion else []
    grid = scene.surface_elements(cfg.second_edge)
    _, _, lit, _, traced = _second_order_setup(
        [scene.luminaires[i] for i in luminaire_ids], grid,
        np.asarray(mount, dtype=float), boxes, receivers)
    rows, cols = int(lit.sum()), int(traced.sum())
    row_bytes = _bin_count(scene, cfg) * 8
    return {"rows": rows, "cols": cols, "pairs": rows * cols,
            "hist_bytes": len(grid) * row_bytes,
            "traced_hist_bytes": cols * row_bytes}


def _second_order_hist(lums, grid, mount, boxes, nbins, bin_width, threads,
                       receivers):
    """Second-order power per final (e2) element and delay bin.

    Returns (hist (ne, nbins), traced e2 columns, e2 arrival directions,
    totals).  Only traced columns get paths; the other rows stay 0.0."""
    ne = len(grid)
    p1, l1, lit, (u3, d3, f3), traced = _second_order_setup(
        lums, grid, mount, boxes, receivers)
    totals = {"first_bounce_coarse_w": float(p1.sum())}

    # e2 columns: only the elements a receiver branch captures.  A dropped
    # column's histogram row stays 0.0 and meets a capture weight of
    # exactly 0.0, so every receiver IR keeps its bits.
    cols = np.flatnonzero(traced)
    nc = cols.size
    centres_c, normals_c = grid.centres[cols], grid.normals[cols]
    areas_c, f3_c, d3_c = grid.areas[cols], f3[cols], d3[cols]
    centres, normals, rho = grid.centres, grid.normals, grid.reflectances

    nl = len(lums)
    e2_base = np.arange(nc, dtype=np.int64) * nbins

    def work(start):
        stop = min(start + _CHUNK, ne)
        rows = start + np.flatnonzero(lit[start:stop])
        nr = rows.size
        # pair vectors as separate x, y, z arrays; each dot product adds
        # (x + z) + y, the order einsum uses for a length-3 contraction
        dx, dy, dz = (cc[None, :] - cr[:, None]
                      for cc, cr in zip(centres_c.T, centres[rows].T))
        d2 = dx * dx + dz * dz + dy * dy
        ok = d2 > _EPS
        d2s = np.where(ok, d2, 1.0)
        d = np.sqrt(d2s)
        nx, ny, nz = normals[rows].T[:, :, None]
        cos_out = (dx * nx + dz * nz + dy * ny) / d
        nx, ny, nz = normals_c.T[:, None, :]
        cos_in = -(dx * nx + dz * nz + dy * ny) / d
        ok &= (cos_out > 0.0) & (cos_in > 0.0)
        t12 = np.where(ok, cos_out * cos_in, 0.0) * areas_c[None, :] / (math.pi * d2s)
        if boxes:
            shape = (nr, nc, 3)
            src = np.broadcast_to(centres[rows, None, :], shape)
            t12 = np.where(
                _segments_blocked(boxes, src.reshape(-1, 3),
                                  np.broadcast_to(centres_c[None, :, :],
                                                  shape).reshape(-1, 3)
                                  ).reshape(t12.shape),
                0.0, t12)
        del dx, dy, dz, d2, ok, d2s, cos_out, cos_in
        geom = rho[rows, None] * t12
        del t12
        # for bounce accounting; unlit rows stay 0 so the dot products
        # run over the same full chunk as with every row traced
        row_reflected = np.zeros(stop - start)
        row_reflected[rows - start] = geom.sum(axis=1)
        # one buffer for all luminaires, luminaire-then-row-major: the
        # order bincount adds each cell's terms in.  Zero weights are
        # passed through, since adding +0.0 leaves a cell's bits alone.
        w = np.empty((nl, nr, nc))
        flat = np.empty((nl, nr, nc), dtype=np.int64)
        length = np.empty((nr, nc))
        second_total = 0.0
        for li in range(nl):
            second_total += float(p1[li, start:stop] @ row_reflected)
            wl = w[li]
            np.multiply(p1[li, rows, None], geom, out=wl)
            wl *= f3_c
            np.add(l1[li, rows, None], d, out=length)
            length += d3_c
            # same expression as the point-arrival path: floor(len/c/dt)
            length /= C_LIGHT
            length /= bin_width
            np.floor(length, out=length)
            np.copyto(flat[li], length, casting="unsafe")
            flat[li] += e2_base
        return flat.ravel(), w.ravel(), second_total

    # chunks without a lit row contribute exactly zero: skip them
    starts = ([s for s in range(0, ne, _CHUNK) if lit[s:s + _CHUNK].any()]
              if nc else [])
    rows_traced = int(lit.sum())
    totals["second_rows_traced"] = rows_traced
    totals["second_cols_traced"] = nc
    totals["second_pairs_evaluated"] = rows_traced * nc
    hist_flat = np.zeros(nc * nbins)
    second_total = 0.0

    def add_chunk(result):
        nonlocal second_total
        flat, w, tot = result
        # only zero weights can index past the end: a coincident pair
        # (d set to 1 m) in a room whose diagonal is under 1 m
        counts = np.bincount(flat, weights=w, minlength=hist_flat.size)
        np.add(hist_flat, counts[:hist_flat.size], out=hist_flat)
        second_total += tot

    if threads > 1:
        # at most 2 x threads chunks in flight, reduced in chunk order
        with ThreadPoolExecutor(max_workers=threads) as ex:
            pending = deque()
            for start in starts:
                if len(pending) == 2 * threads:
                    add_chunk(pending.popleft().result())
                pending.append(ex.submit(work, start))
            while pending:
                add_chunk(pending.popleft().result())
    else:
        for start in starts:
            add_chunk(work(start))
    # reflected power onto the traced elements; it is the full coarse
    # figure only when every element was traced
    totals["second_bounce_traced_w"] = second_total
    if nc == ne:
        totals["second_bounce_coarse_w"] = second_total
        hist = hist_flat.reshape(ne, nbins)
    else:
        hist = np.zeros((ne, nbins))
        hist[cols] = hist_flat.reshape(nc, nbins)
    return hist, traced, u3, totals


@dataclass(eq=False)
class ArrivalField:
    """All traced arrivals at one point, before any detector directivity.

    Point arrivals (LOS and first-order) are kept as flat arrays of
    (irradiance flux, bin index, direction); second-order power is
    pre-binned per final element, since its arrival direction only depends
    on that element.  Applying a receiver is then just a directional
    weighting, so all branches of all receiver kinds share one trace.

    Built by `compute_field`.  Applying a receiver that does not sit at
    `mount` raises.  When second-order paths were traced only to the
    elements some branch of its `receivers` captures (`b2_traced`),
    applying a receiver or detector that captures any other element raises.
    """

    mount: np.ndarray
    luminaire_ids: tuple
    cfg: TraceConfig
    nbins: int
    point_flux: np.ndarray    # (P,) W/m^2 at the mount
    point_idx: np.ndarray     # (P,) delay bin
    point_dirs: np.ndarray    # (P, 3) propagation directions
    b2_hist: np.ndarray | None    # (ne, nbins) W per final element; None below order 2
    b2_dirs: np.ndarray | None    # (ne, 3)
    b2_traced: np.ndarray | None  # (ne,) bool
    totals: dict              # traced power and work, by name

    # -- applying detectors ------------------------------------------------

    def _check_traced(self, acc_b2, what: str):
        """Refuse capture weights on second-order elements that were not
        traced: their histogram rows are 0.0, not the power they receive."""
        if acc_b2[..., ~self.b2_traced].any():
            raise ValueError(
                f"{what} captures second-order light from surface elements "
                "this field did not trace; build the field with it among "
                "`receivers`")

    def receiver_irs(self, receiver: ReceiverSpec) -> list[ImpulseResponse]:
        """One impulse response per receiver branch.

        Point arrivals are binned for every branch in one `bincount` over
        `branch * nbins + bin`; each cell still adds its terms in arrival
        order.  Second-order power is each branch's gemv over `b2_hist`."""
        _check_mount(receiver, self.mount)
        nb, nbins = receiver.branch_count, self.nbins
        acc_b2 = None
        if self.b2_hist is not None:
            acc_b2 = capture_matrix(receiver, self.b2_dirs)
            self._check_traced(acc_b2, f"{receiver.kind} receiver")
        branch, arrival, weight = sparse_capture(receiver, self.point_dirs)
        point_bins = np.bincount(branch * nbins + self.point_idx[arrival],
                                 weights=weight * self.point_flux[arrival],
                                 minlength=nb * nbins).reshape(nb, nbins)
        irs = []
        for j in range(nb):
            bins = point_bins[j]
            if acc_b2 is not None:
                bins = bins + acc_b2[j] @ self.b2_hist
            nz = np.nonzero(bins)[0]
            # not bins[:0]: bincount gives integer bins when nothing is captured
            bins = bins[: nz[-1] + 1] if nz.size else np.zeros(0)
            irs.append(ImpulseResponse(self.cfg.bin_width, 0.0, bins))
        return irs

    def detector_ir(self, detector: DetectorSpec,
                    lens: LensModel | None = None) -> ImpulseResponse:
        """Impulse response of a bare detector element (no pixel assignment)."""
        return self.receiver_irs(
            ReceiverSpec("detector", self.mount, (detector,), lens))[0]


def _check_pose(scene: Scene, position):
    p = np.asarray(position, dtype=float)
    lx, ly, h = scene.room
    if not (0.0 <= p[0] <= lx and 0.0 <= p[1] <= ly and COMM_FLOOR_M <= p[2] <= h):
        raise ValueError(
            f"detector pose {tuple(p)} must be inside the room and above the "
            f"communication floor ({COMM_FLOOR_M} m)"
        )


def compute_field(scene: Scene, luminaire_ids, mount, cfg: TraceConfig,
                  threads: int = 1, receivers=None) -> ArrivalField:
    """Trace LOS + reflections from a luminaire set to one mount point.

    `receivers` (all at `mount`) limits second-order tracing to the surface
    elements their branches capture; without it every element is traced.
    """
    diags = validate_scene(scene)
    if diags:
        raise ValueError("invalid scene: " + "; ".join(diags))
    _check_pose(scene, mount)
    mount = np.asarray(mount, dtype=float)
    luminaire_ids = tuple(luminaire_ids)
    lums = [scene.luminaires[i] for i in luminaire_ids]
    boxes = _occluder_boxes(scene) if cfg.occlusion else []
    nbins = _bin_count(scene, cfg)
    totals = {}

    arrivals = [_los_arrivals(lums, mount, boxes)]
    if cfg.max_order >= 1 and lums:
        *first, totals["first_bounce_fine_w"] = _first_order_arrivals(
            lums, scene.surface_elements(cfg.first_edge), mount, boxes)
        arrivals.append(first)
    flux, lengths, dirs = (np.concatenate(parts) for parts in zip(*arrivals))

    b2_hist = b2_traced = b2_dirs = None
    if cfg.max_order >= 2 and lums:
        b2_hist, b2_traced, b2_dirs, second = _second_order_hist(
            lums, scene.surface_elements(cfg.second_edge), mount, boxes, nbins,
            cfg.bin_width, max(1, int(threads)), receivers)
        totals.update(second)
    return ArrivalField(
        mount, luminaire_ids, cfg, nbins, flux,
        np.floor(lengths / C_LIGHT / cfg.bin_width).astype(np.int64), dirs,
        b2_hist, b2_dirs, b2_traced, totals)
