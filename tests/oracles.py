"""Independent brute-force references for the test suite.

Everything here is written from the closed forms directly, using plain
Python scalars (no shared code with the production tracer), so the
production paths can be checked against a source that cannot drift with
them.
"""

import math

import mpmath

SPEED_OF_LIGHT = 2.9979e8


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
        ax, ay, az = (float(c) for c in lum.boresight)
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


def oracle_two_path_bandwidth(tau_s: float) -> float:
    """3-dB frequency of two equal paths tau apart: |cos(pi f tau)| = 1/sqrt(2)
    first at f = 1/(4 tau)."""
    if tau_s <= 0.0:
        raise ValueError("path separation must be positive")
    return 1.0 / (4.0 * tau_s)


def oracle_q(x: float) -> float:
    """Gaussian tail probability via 40-digit erfc."""
    with mpmath.workdps(40):
        return float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))


def oracle_second_order_hist(scene, luminaire_ids, mount, cfg):
    """Second-order histogram by the original chunked kernel, kept verbatim.

    Every e1 row of the coarse grid is traced, one luminaire at a time, and
    only pairs with positive weight are kept; chunks are reduced in order.
    Returns (b2_hist, second_bounce_coarse_w).  Unlike the scalar oracles
    above this shares the unchanged helpers (`_incident_power`,
    `_segments_blocked`, `_occluder_boxes`) with the tracer, because it is
    the bitwise reference for the kernel built on them.
    """
    import numpy as np

    from owcsim.raytracer import (
        C_LIGHT,
        _occluder_boxes,
        _incident_power,
        _segments_blocked,
    )

    chunk = 256
    eps = 1e-12
    lums = [scene.luminaires[i] for i in luminaire_ids]
    boxes = _occluder_boxes(scene) if cfg.occlusion else []
    mount = np.asarray(mount, dtype=float)
    diag = math.sqrt(sum(s * s for s in scene.room))
    nbins = int((cfg.max_order + 1) * diag / C_LIGHT / cfg.bin_width) + 2

    grid = scene.surface_elements(cfg.second_edge)
    ne = len(grid)
    centres, normals = grid.centres, grid.normals
    areas, rho = grid.areas, grid.reflectances
    p1, l1 = _incident_power(lums, grid, boxes)

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
        row_reflected = geom.sum(axis=1)
        flat_parts, w_parts = [], []
        second_total = 0.0
        for li in range(len(lums)):
            second_total += float(p1[li, start:stop] @ row_reflected)
            w = p1[li, start:stop, None] * geom * f3[None, :]
            length = l1[li, start:stop, None] + d + d3[None, :]
            idx = np.floor(length / C_LIGHT / cfg.bin_width).astype(np.int64)
            flat = e2_base[None, :] + idx
            keep = w > 0.0
            flat_parts.append(flat[keep])
            w_parts.append(w[keep])
        return (np.concatenate(flat_parts), np.concatenate(w_parts),
                second_total)

    hist_flat = np.zeros(ne * nbins)
    second_total = 0.0
    for start in range(0, ne, chunk):
        flat, w, tot = work(start)
        hist_flat += np.bincount(flat, weights=w, minlength=hist_flat.size)
        second_total += tot
    return hist_flat.reshape(ne, nbins), second_total
