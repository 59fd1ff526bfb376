"""Independent brute-force references for the test suite.

Everything here is written from the closed forms directly, using plain
Python scalars (no shared code with the production tracer), so the
production paths can be checked against a source that cannot drift with
them.  The exceptions say so in their docstrings: the field reference
(`oracle_field`) takes the tracer's own line-of-sight arrivals and
second-order kernel, the kernel checked against a reference here.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

SPEED_OF_LIGHT = 2.9979e8
# The paper's fixed hardware, written out here rather than imported:
DETECTOR_AREA = 4e-6                    # m^2, every photodetector element
LENS_POLY = (-0.1982, 0.0425, 0.8778)   # imaging-lens transmission vs angle (rad)
LENS_CONE_DEG = 65.0                    # lens acceptance half-angle
DOWN = (0.0, 0.0, -1.0)                 # every luminaire's boresight


def oracle_los_sum(scene, boresight, fov_deg, area, position,
                   luminaire_ids=None) -> float:
    """Direct summation of the line-of-sight closed form over luminaires."""
    ids = range(len(scene.luminaires)) if luminaire_ids is None else luminaire_ids
    px, py, pz = (float(c) for c in position)
    bx, by, bz = (float(c) for c in boresight)
    cos_fov = math.cos(math.radians(fov_deg))
    total = 0.0
    for i in ids:
        lum = scene.luminaires[i]
        lx, ly, lz = (float(c) for c in lum.position)
        ax, ay, az = DOWN
        dx, dy, dz = px - lx, py - ly, pz - lz
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if d == 0.0:
            raise ValueError("luminaire coincides with detector")
        cos_phi = (dx * ax + dy * ay + dz * az) / d
        cos_theta = -(dx * bx + dy * by + dz * bz) / d
        if cos_phi <= 0.0 or cos_theta <= 0.0 or cos_theta < cos_fov - 1e-15:
            continue
        m = lum.order
        total += (lum.power_w * (m + 1.0) / (2.0 * math.pi * d * d)
                  * cos_phi ** m * cos_theta * area)
    return total


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def oracle_one_bounce(lum_pos, lum_boresight, lum_order, lum_power,
                      elem_centre, elem_normal, elem_area, elem_rho,
                      det_pos, det_normal, det_area) -> float:
    """Hand-composed single-bounce gain: two Lambertian hops, reflectance at
    the bounce, no FOV gating (detector assumed wide open)."""
    v1 = _sub(elem_centre, lum_pos)
    d1 = math.sqrt(_dot(v1, v1))
    u1 = (v1[0] / d1, v1[1] / d1, v1[2] / d1)
    cos_out1 = _dot(u1, lum_boresight)
    cos_in1 = -_dot(u1, elem_normal)
    hop1 = ((lum_order + 1.0) / (2.0 * math.pi * d1 * d1)
            * cos_out1 ** lum_order * cos_in1 * elem_area)
    v2 = _sub(det_pos, elem_centre)
    d2 = math.sqrt(_dot(v2, v2))
    u2 = (v2[0] / d2, v2[1] / d2, v2[2] / d2)
    cos_out2 = _dot(u2, elem_normal)
    cos_in2 = -_dot(u2, det_normal)
    hop2 = (elem_rho * 2.0 / (2.0 * math.pi * d2 * d2)
            * cos_out2 * cos_in2 * det_area)
    return lum_power * hop1 * hop2


def oracle_path_delay(points) -> float:
    """Total propagation delay along a polyline of 3-D points."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += math.dist(tuple(float(c) for c in a),
                           tuple(float(c) for c in b))
    return total / SPEED_OF_LIGHT


def oracle_acceptance(detector, incoming, lens=False) -> float:
    """Scalar detector gain factor: cos(theta) inside the FOV, 0 outside,
    times the clamped lens polynomial inside the lens cone when `lens`;
    no area."""
    dx, dy, dz = (float(c) for c in incoming)
    bx, by, bz = (float(c) for c in detector.boresight)
    cos_theta = -(dx * bx + dy * by + dz * bz)
    if cos_theta <= 0.0 or cos_theta < math.cos(math.radians(detector.fov_deg)) - 1e-15:
        return 0.0
    if not lens:
        return cos_theta
    y = math.acos(min(1.0, max(-1.0, -dz)))
    if y > math.radians(LENS_CONE_DEG):
        return 0.0
    a, b, c = LENS_POLY
    return cos_theta * min(1.0, max(0.0, a * y * y + b * y + c))


# The closed-form single-path gains: the reference semantics the tracer's
# vectorized stages reproduce.

def los_gain(luminaire, detector, det_position, lens=False,
             boresight=DOWN) -> float:
    """Line-of-sight channel gain between one luminaire, pointing along
    `boresight`, and one detector.

    gain = (m+1)/(2 pi d^2) * cos^m(phi) * cos(theta) * A, gated to zero
    outside the detector FOV or when either cosine is negative; the lens
    transmission multiplies the gain when `lens`.
    """
    pos = np.asarray(det_position, dtype=float)
    v = pos - luminaire.position
    d = float(np.linalg.norm(v))
    if d < 1e-12:
        raise ValueError("degenerate geometry: luminaire and detector coincide")
    u = v / d
    cos_phi = float(np.dot(u, boresight))
    if cos_phi <= 0.0:
        return 0.0
    acc = oracle_acceptance(detector, u, lens)
    if acc == 0.0:
        return 0.0
    m = luminaire.order
    return (m + 1.0) / (2.0 * math.pi * d * d) * cos_phi ** m * acc * DETECTOR_AREA


@dataclass(frozen=True)
class Element:
    """One surface patch on a reflected path: an order-1 Lambertian
    re-emitter of what it receives, scaled by its reflectance."""

    centre: np.ndarray
    normal: np.ndarray
    area: float              # dA, m^2
    reflectance: float


def reflected_path_gain(luminaire, elements, detector, det_position,
                        lens=False) -> tuple[float, float]:
    """Gain and delay of one reflected path (one or two bounces).

    Each hop applies the upstream emitter's Lambertian transfer (order m for
    the luminaire, order 1 for elements) and the element reflectance is
    applied where the ray bounces.  Returns (gain, delay_s); the gain is zero
    for rays outside any cosine or FOV gate, but the geometric delay is
    always reported.
    """
    if not 1 <= len(elements) <= 2:
        raise ValueError("reflected path must have one or two bounces")
    pos = np.asarray(det_position, dtype=float)
    gain = 1.0
    total_len = 0.0

    def hop(src, dst, order, src_boresight, dst_normal, dst_area):
        nonlocal gain, total_len
        v = dst - src
        d = float(np.linalg.norm(v))
        if d < 1e-12:
            raise ValueError("degenerate geometry: zero-length hop")
        total_len += d
        u = v / d
        cos_out = float(np.dot(u, src_boresight))
        cos_in = float(np.dot(-u, dst_normal))
        if cos_out <= 0.0 or cos_in <= 0.0:
            gain = 0.0
            return
        gain *= (order + 1.0) / (2.0 * math.pi * d * d) * cos_out ** order * cos_in * dst_area

    e1 = elements[0]
    hop(luminaire.position, e1.centre, luminaire.order,
        DOWN, e1.normal, e1.area)
    prev = e1
    if len(elements) == 2:
        e2 = elements[1]
        if gain != 0.0:
            gain *= prev.reflectance
        hop(prev.centre, e2.centre, 1.0, prev.normal,
            e2.normal, e2.area)
        prev = e2

    # final hop to the detector
    v = pos - prev.centre
    d = float(np.linalg.norm(v))
    if d < 1e-12:
        raise ValueError("degenerate geometry: element and detector coincide")
    total_len += d
    delay = total_len / SPEED_OF_LIGHT
    if gain == 0.0:
        return 0.0, delay
    u = v / d
    cos_out = float(np.dot(u, prev.normal))
    if cos_out <= 0.0:
        return 0.0, delay
    acc = oracle_acceptance(detector, u, lens)
    if acc == 0.0:
        return 0.0, delay
    n = 1.0
    gain *= prev.reflectance
    gain *= (n + 1.0) / (2.0 * math.pi * d * d) * cos_out ** n * acc * DETECTOR_AREA
    return gain, delay


def oracle_two_path_bandwidth(tau_s: float) -> float:
    """3-dB frequency of two equal paths tau apart: |cos(pi f tau)| = 1/sqrt(2)
    first at f = 1/(4 tau)."""
    if tau_s <= 0.0:
        raise ValueError("path separation must be positive")
    return 1.0 / (4.0 * tau_s)


UNBOUNDED = math.inf
BW_SCAN_STEP_HZ = 1e6


def oracle_bandwidth_scan(ir) -> float:
    """Lowest frequency where |H(f)| falls to 1/sqrt(2) of |H(0)|.

    H is the discrete-time Fourier transform of the binned impulse
    response, scanned up to the bin Nyquist frequency in `BW_SCAN_STEP_HZ`
    steps and refined by bisection.  Returns the UNBOUNDED sentinel
    when the spectrum never crosses the 3-dB line (e.g. a single-bin IR).

    This is the earlier production `bandwidth_3db`, kept verbatim: an exact
    DTFT evaluated at every 1 MHz step, behind a triangle-inequality exit.
    """
    p = ir.bins
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        raise ValueError("bandwidth undefined for a zero-power impulse response")
    t = ir.times()[nz]
    p = p[nz]
    h0 = float(p.sum())
    target = 1.0 / math.sqrt(2.0)
    # triangle inequality: |H(f)| >= p_max - (H(0) - p_max) at every f.  When
    # that floor clears the 3-dB line by far more than the scan's rounding
    # error, the scan cannot cross it and would return UNBOUNDED anyway.
    if (2.0 * float(p.max()) - h0) / h0 > target * (1.0 + 1e-9):
        return UNBOUNDED

    def ratio(freqs):
        ph = np.exp(-2j * math.pi * np.multiply.outer(freqs, t))
        return np.abs(ph @ p) / h0

    f_nyq = 0.5 / ir.bin_width
    lo = 0.0
    hi = None
    chunk = 4096
    f = BW_SCAN_STEP_HZ
    while f <= f_nyq:
        freqs = f + BW_SCAN_STEP_HZ * np.arange(chunk)
        freqs = freqs[freqs <= f_nyq]
        if freqs.size == 0:
            break
        r = ratio(freqs)
        below = np.nonzero(r < target)[0]
        if below.size:
            k = int(below[0])
            hi = float(freqs[k])
            lo = float(freqs[k - 1]) if k > 0 else lo
            break
        lo = float(freqs[-1])
        f = float(freqs[-1]) + BW_SCAN_STEP_HZ
    if hi is None:
        return UNBOUNDED
    # bisect the exact DTFT inside the bracketing interval
    for _ in range(60):
        if hi - lo <= 1e3:
            break
        mid = 0.5 * (lo + hi)
        if float(ratio(np.array([mid]))[0]) < target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_q(x: float) -> float:
    """Gaussian tail probability via 40-digit erfc."""
    with mpmath.workdps(40):
        return float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))


def oracle_incident_power(luminaires, grid, boxes):
    """`_incident_power` as first written, kept verbatim: every element's
    cosine is a full (N, 3) product with the element normals, added by
    `sum(axis=1)`.  Returns (power (L, N) W, length (L, N) m)."""
    from owcsim.raytracer import _segments_blocked

    n = len(grid)
    power = np.zeros((len(luminaires), n))
    length = np.zeros((len(luminaires), n))
    for li, lum in enumerate(luminaires):
        v = grid.centres - lum.position[None, :]
        d = np.linalg.norm(v, axis=1)
        safe = d > 1e-12
        dd = np.where(safe, d, 1.0)
        u = v / dd[:, None]
        cos_phi = -u[:, 2]
        cos_in = -(u * grid.normals).sum(axis=1)
        sel = safe & (cos_phi > 0.0) & (cos_in > 0.0)
        p = np.zeros(n)
        p[sel] = (lum.power_w * (lum.order + 1.0) / (2.0 * math.pi * d[sel] ** 2)
                  * cos_phi[sel] ** lum.order * cos_in[sel] * grid.areas[sel])
        if boxes:
            p[_segments_blocked(boxes, lum.position, grid.centres)] = 0.0
        power[li] = p
        length[li] = d
    return power, length


def oracle_final_hop(grid, mount, boxes):
    """`_final_hop` as it was before it shared a hop with the incident
    power, kept verbatim: (unit directions, lengths, weights)."""
    from owcsim.raytracer import _EPS, _dots, _segments_blocked

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


def oracle_second_order_hist(scene, luminaire_ids, mount, cfg):
    """Second-order histogram by the original chunked kernel, kept verbatim.

    Every e1 row of the coarse grid is traced, one luminaire at a time, and
    only pairs with positive weight are kept; chunks are reduced in order.
    Returns (hist, second_bounce_coarse_w), the latter the sum over the
    columns of each column's reflected power, itself added chunk by chunk,
    luminaire by luminaire and row by row.  Unlike the scalar oracles
    above this shares the unchanged helpers (`_segments_blocked`,
    `_occluder_boxes`) with the tracer, because it is the bitwise reference
    for the kernel built on them; the incident power is
    `oracle_incident_power`'s.
    """
    from owcsim.raytracer import C_LIGHT, _occluder_boxes, _segments_blocked

    chunk = 256
    eps = 1e-12
    lums = [scene.luminaires[i] for i in luminaire_ids]
    boxes = _occluder_boxes(scene)
    mount = np.asarray(mount, dtype=float)
    nbins = oracle_bin_count(scene, cfg)

    grid = scene.surface_elements(cfg.second_edge)
    ne = len(grid)
    centres, normals = grid.centres, grid.normals
    areas, rho = grid.areas, grid.reflectances
    p1, l1 = oracle_incident_power(lums, grid, boxes)

    v3 = mount[None, :] - centres
    d3 = np.linalg.norm(v3, axis=1)
    safe = d3 > eps
    dd3 = np.where(safe, d3, 1.0)
    u3 = v3 / dd3[:, None]
    cos3 = (u3 * normals).sum(axis=1)
    f3 = np.zeros(ne)
    sel = safe & (cos3 > 0.0)
    f3[sel] = rho[sel] * cos3[sel] / (math.pi * d3[sel] ** 2)
    if boxes:
        f3[_segments_blocked(boxes, centres, mount[None, :])] = 0.0

    e2_base = np.arange(ne, dtype=np.int64) * nbins

    def work(start):
        stop = min(start + chunk, ne)
        dvec = centres[None, :, :] - centres[start:stop, None, :]
        d2 = np.einsum("cek,cek->ce", dvec, dvec)
        ok = d2 > eps
        d2s = np.where(ok, d2, 1.0)
        d = np.sqrt(d2s)
        cos_out = np.einsum("cek,ck->ce", dvec, normals[start:stop]) / d
        cos_in = -np.einsum("cek,ek->ce", dvec, normals) / d
        ok &= (cos_out > 0.0) & (cos_in > 0.0)
        t12 = np.where(ok, cos_out * cos_in, 0.0) * areas[None, :] / (math.pi * d2s)
        if boxes:
            src = np.broadcast_to(centres[start:stop, None, :], dvec.shape)
            t12 = np.where(
                _segments_blocked(boxes, src.reshape(-1, 3),
                                  np.broadcast_to(centres[None, :, :],
                                                  dvec.shape).reshape(-1, 3)
                                  ).reshape(t12.shape),
                0.0, t12)
        geom = rho[start:stop, None] * t12
        flat_parts, w_parts, sums = [], [], []
        for li in range(len(lums)):
            pw = p1[li, start:stop, None] * geom
            # reflected power onto each column, added row by row
            sums.append(np.zeros(ne))
            for row in pw:
                sums[-1] += row
            w = pw * f3[None, :]
            length = l1[li, start:stop, None] + d + d3[None, :]
            idx = np.floor(length / C_LIGHT / cfg.bin_width).astype(np.int64)
            flat = e2_base[None, :] + idx
            keep = w > 0.0
            flat_parts.append(flat[keep])
            w_parts.append(w[keep])
        return np.concatenate(flat_parts), np.concatenate(w_parts), sums

    hist_flat = np.zeros(ne * nbins)
    reflected = np.zeros(ne)
    for start in range(0, ne, chunk):
        flat, w, sums = work(start)
        hist_flat += np.bincount(flat, weights=w, minlength=hist_flat.size)
        for s in sums:
            reflected += s
    return hist_flat.reshape(ne, nbins), float(reflected.sum())


def oracle_capture_matrix(receiver, directions):
    """The dense capture matrix as first written: full (J, N) cosine, gate,
    one-hot and clamped lens arrays, the last two for an imaging receiver
    only.  The bitwise reference for `capture_matrix`."""
    dirs = np.asarray(directions, dtype=float).reshape(-1, 3)
    toward = -dirs
    bores = np.stack([b.boresight for b in receiver.branches])   # (J, 3)
    cos_theta = bores @ toward.T                                 # (J, N)
    cos_fov = np.array([math.cos(math.radians(b.fov_deg))
                        for b in receiver.branches])[:, None]
    areas = np.full((len(receiver.branches), 1), DETECTOR_AREA)
    gate = (cos_theta >= cos_fov - 1e-15) & (cos_theta > 0.0)
    acc = np.where(gate, cos_theta, 0.0) * areas
    if receiver.kind == "imaging":
        assigned = np.argmax(cos_theta, axis=0)                  # ties -> lowest index
        acc = acc * (assigned[None, :] == np.arange(len(receiver.branches))[:, None])
        y = np.arccos(np.clip(toward[:, 2], -1.0, 1.0))
        a, b, c = LENS_POLY
        trans = np.clip(a * y * y + b * y + c, 0.0, 1.0)
        trans[y > math.radians(LENS_CONE_DEG)] = 0.0
        acc = acc * trans[None, :]
    return acc


def oracle_bin_count(scene, cfg) -> int:
    """Delay bins that hold the longest path of the traced orders."""
    diag = math.sqrt(sum(s * s for s in scene.room))
    return int((cfg.max_order + 1) * diag / SPEED_OF_LIGHT / cfg.bin_width) + 2


def oracle_point_arrays(los, hops):
    """Flat (flux, delay bin, direction) arrays of every point arrival, in
    trace order: the LOS arrivals `los`, (flux, delay bin, direction) per
    luminaire, then each of `hops`, one luminaire's (flux, delay bin,
    direction) per first-order element, for the elements with non-zero
    flux, in element order."""
    parts = [los] + [(f[f > 0.0], b[f > 0.0], u[f > 0.0]) for f, b, u in hops]
    return tuple(np.concatenate(a) for a in zip(*parts))


def oracle_points(scene, luminaire_ids, mount, cfg):
    """Every LOS and first-order arrival at `mount`, as flat (flux, delay
    bin, direction) arrays (`oracle_point_arrays`), one luminaire at a
    time: the tracer's line-of-sight arrivals (`_los_arrivals`), then the
    product of each luminaire's `oracle_incident_power` on the
    first-order grid and `oracle_final_hop`'s weight, binned at the sum of
    their lengths.  They depend on no receiver, and not on the
    second-order grid: the first-order grid is the same
    `scene.surface_elements` at one edge."""
    from owcsim.raytracer import _los_arrivals, _occluder_boxes

    def delay_bins(length):
        return np.floor(length / SPEED_OF_LIGHT / cfg.bin_width).astype(np.int64)

    lums = [scene.luminaires[i] for i in luminaire_ids]
    boxes = _occluder_boxes(scene)
    mount = np.asarray(mount, dtype=float)
    flux0, length0, dirs0 = _los_arrivals(lums, mount, boxes)
    hops = []
    if cfg.max_order >= 1 and lums:
        grid = scene.surface_elements(cfg.first_edge)
        p1, l1 = oracle_incident_power(lums, grid, boxes)
        u3, d3, f3 = oracle_final_hop(grid, mount, boxes)
        hops = [(p * f3, delay_bins(l + d3), u3) for p, l in zip(p1, l1)]
    return oracle_point_arrays((flux0, delay_bins(length0), dirs0), hops)


def record_hists(monkeypatch) -> list:
    """The second order of every mount traced from here on, in trace
    order, as `raytracer._second_order_hists` returns it: (the dense
    histogram of its traced elements, the traced-element mask, the arrival
    direction of every element).  A field keeps only its receivers' bins
    of it."""
    from owcsim import raytracer

    hists, real = [], raytracer._second_order_hists

    def record(*args):
        out = real(*args)
        hists.extend((h.toarray(), mask, u3) for h, mask, u3, _ in out)
        return out

    monkeypatch.setattr(raytracer, "_second_order_hists", record)
    return hists


def oracle_receiver_irs(nbins, receiver, points, second=None):
    """Per-branch impulse responses by the dense path as first written: a
    dense capture of every point arrival of `points` (`oracle_points`),
    one `bincount` per branch, plus the branch's gemv over `second`, the
    (histogram of every element, arrival direction of every element) of
    the second order (`kernel_hist`; None below order 2).  Returns a list
    of bin arrays.

    The gemv runs one product per 256-bin block of the histogram, not one
    over every bin: OpenBLAS runs a gemv of 460 800 cells or more on
    several threads, and where a thread's share of the bins is not a
    multiple of 4 it ends in a scalar tail whose last bits differ.  A
    block of up to 257 bins stays under that size on grids of up to 1 793
    elements, so there it runs on one thread whatever the host's core
    count.  A last block of one bin joins the one before it: numpy hands
    a 1-wide operand to another BLAS call than the full product."""
    flux, idx, dirs = points
    if second is not None:
        full, u3 = second
        starts = list(range(0, nbins, 256))
        if len(starts) > 1 and nbins - starts[-1] == 1:
            starts.pop()
        blocks = [slice(a, b) for a, b in zip(starts, starts[1:] + [nbins])]

    def assemble(acc_point, acc_b2):
        bins = np.bincount(idx, weights=acc_point * flux, minlength=nbins)
        if second is not None:
            b2 = np.empty(nbins)
            for b in blocks:
                b2[b] = acc_b2 @ full[:, b]
            bins = bins + b2
        nz = np.nonzero(bins)[0]
        return bins[: nz[-1] + 1] if nz.size else bins[:0]

    acc_point = oracle_capture_matrix(receiver, dirs)
    acc_b2 = (oracle_capture_matrix(receiver, u3)
              if second is not None else None)
    return [assemble(acc_point[j], acc_b2[j] if acc_b2 is not None else None)
            for j in range(receiver.branch_count)]


@dataclass
class OracleField:
    """A stand-in for the field traced at `mount` that serves the dense
    reference: `receiver_irs` gives `oracle_receiver_irs` of `points` and
    `second` for any receiver, so `link_report` can read it too."""

    mount: np.ndarray
    bin_width: float
    nbins: int
    points: tuple
    second: tuple | None

    def receiver_irs(self, receiver):
        from owcsim.raytracer import ImpulseResponse

        return [ImpulseResponse(self.bin_width, bins) for bins in
                oracle_receiver_irs(self.nbins, receiver, self.points,
                                    self.second)]


def kernel_hist(scene, luminaire_ids, mount, cfg, threads=1):
    """The second-order kernel's output at `mount` over every element of
    the coarse grid: (histogram, totals, arrival direction of every
    element).  `raytracer._second_order_hists` runs as a field's trace
    runs it, set up by `raytracer._second_setup` for `probes.all_around`,
    which captures every element, so no column is culled.  This is the
    tracer's own kernel; `oracle_second_order_hist` is its reference."""
    from owcsim import raytracer
    from probes import all_around

    lums = [scene.luminaires[i] for i in luminaire_ids]
    boxes = raytracer._occluder_boxes(scene)
    grid, incident, lit = raytracer._lit_grid(scene, lums, boxes,
                                              cfg.second_edge)
    hops, traced = raytracer._second_setup(
        grid, [np.asarray(mount, dtype=float)], [all_around()], boxes)
    assert traced[0].all(), "all_around() must trace every element"
    (kept, _, u3, totals), = raytracer._second_order_hists(
        grid, incident, lit, hops, traced, boxes,
        raytracer._bin_count(scene, cfg), cfg.bin_width, threads)
    return kept, totals, u3


def oracle_field(scene, luminaire_ids, mount, cfg) -> OracleField:
    """The dense reference for the field traced at `mount` with `cfg`:
    every point arrival (`oracle_points`) and, from order 2, the second
    order of every element (`kernel_hist`), so that no column a tracer
    culls is missing from the reference too."""
    second = None
    if cfg.max_order >= 2 and len(luminaire_ids):
        kept, _, u3 = kernel_hist(scene, luminaire_ids, mount, cfg)
        second = (kept.toarray(), u3)
    return OracleField(np.asarray(mount, dtype=float), cfg.bin_width,
                       oracle_bin_count(scene, cfg),
                       oracle_points(scene, luminaire_ids, mount, cfg), second)


def oracle_point_bins(receiver, directions, point_idx, point_flux, nbins):
    """(branches, nbins) point-arrival bins by the per-arrival capture path
    the tracer used before it captured each direction once, kept verbatim:
    one `sparse_capture` over a (P, 3) direction per arrival and one
    `bincount` over `branch * nbins + bin`."""
    from owcsim.receivers import sparse_capture

    nb = receiver.branch_count
    branch, arrival, weight = sparse_capture(receiver, directions)
    return np.bincount(branch * nbins + point_idx[arrival],
                       weights=weight * point_flux[arrival],
                       minlength=nb * nbins).reshape(nb, nbins)
