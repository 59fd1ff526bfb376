"""Receiver front ends: wide-FOV, angle-diversity and imaging assemblies.

All three use the same photodetector element (4 mm^2, 0.4 A/W); they differ
in how many elements they carry, where those elements point, and whether a
collection lens sits above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import Vec3, unit, vec3

DETECTOR_AREA_M2 = 4e-6       # 4 mm^2
RESPONSIVITY_A_W = 0.4

WFOV_FOV_DEG = 70.0
ADR_FOV_DEG = 20.0
ADR_TILT_EL_DEG = 25.0
PIXEL_FOV_DEG = 17.0
LENS_FOV_DEG = 65.0

# Lens transmission polynomial over incidence angle in radians.
LENS_POLY = (-0.1982, 0.0425, 0.8778)

# Directions per block of `sparse_capture`'s cosines (bounds memory only).
_CAPTURE_ROWS = 2048


def _boresight(az_deg: float, el_deg: float) -> Vec3:
    """Unit boresight (cos El cos Az, cos El sin Az, sin El) pointing at
    azimuth `az_deg` and elevation `el_deg`."""
    az = math.radians(az_deg)
    el = math.radians(el_deg)
    v = [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    # suppress trig dust so straight-up comes out exactly (0, 0, 1)
    v = [0.0 if abs(c) < 1e-15 else c for c in v]
    return unit(v)


@dataclass(frozen=True)
class DetectorSpec:
    """One photodetector element: pointing and FOV gate.

    Every element is the paper's photodetector, `DETECTOR_AREA_M2` and
    `RESPONSIVITY_A_W`."""

    boresight: Vec3          # unit vector the element faces
    fov_deg: float           # acceptance half-angle about the boresight

    def __post_init__(self):
        b = np.asarray(self.boresight, dtype=float)
        if (b.shape != (3,) or not np.all(np.isfinite(b))
                or abs(np.linalg.norm(b) - 1.0) > 1e-9):
            raise ValueError("boresight must be a finite unit 3-vector, "
                             f"got {self.boresight!r}")
        if not 0.0 < self.fov_deg <= 90.0:
            raise ValueError(f"FOV must be in (0, 90] degrees, got {self.fov_deg}")


def _lens_poly(y: np.ndarray) -> np.ndarray:
    """Transmission of the imaging lens at incidence angles `y` (radians):
    `LENS_POLY` inside the `LENS_FOV_DEG` cone, 0 outside.  On [0, 65 deg]
    the polynomial lies in [0.671, 0.881], so it needs no clamp."""
    a, b, c = LENS_POLY
    trans = a * y * y + b * y + c
    trans[y > math.radians(LENS_FOV_DEG)] = 0.0
    return trans


@dataclass(frozen=True)
class ReceiverSpec:
    """A receiver assembly of J detector branches.

    The kind fixes how they capture: an "imaging" receiver sits under the
    collection lens and feeds each arrival to one pixel; every other kind
    ("detector" is one bare element) gates all of its branches, with no
    lens.  It has no position: it sits at the mount of the field it is
    applied to."""

    kind: str                # "wfov" | "adr" | "imaging" | "detector"
    branches: tuple          # tuple of DetectorSpec

    def __post_init__(self):
        if self.kind not in ("wfov", "adr", "imaging", "detector"):
            raise ValueError("receiver kind must be wfov, adr, imaging or "
                             f"detector, got {self.kind!r}")
        if not self.branches:
            raise ValueError("a receiver needs at least one branch")
        if not all(isinstance(b, DetectorSpec) for b in self.branches):
            raise ValueError("receiver branches must be DetectorSpecs, got "
                             f"{self.branches!r}")

    @property
    def branch_count(self) -> int:
        return len(self.branches)


def make_wfov() -> ReceiverSpec:
    """Single face-up element with a 70 deg field of view."""
    return ReceiverSpec(
        kind="wfov",
        branches=(DetectorSpec(vec3(0, 0, 1), WFOV_FOV_DEG),),
    )


def make_adr() -> ReceiverSpec:
    """Three-branch angle-diversity receiver.

    One branch faces straight up; the other two tilt to 25 deg elevation at
    azimuths 90 and 270 so they look along the rack row, toward the two
    flanking light units.  Every branch has a 20 deg FOV.
    """
    angles = ((0.0, 90.0), (90.0, ADR_TILT_EL_DEG), (270.0, ADR_TILT_EL_DEG))
    return ReceiverSpec(
        kind="adr",
        branches=tuple(DetectorSpec(_boresight(az, el), ADR_FOV_DEG)
                       for az, el in angles),
    )


# Pixel layout: concentric rings about the lens axis, every one inside the
# lens cone.  Ring elevations step down in 17 deg increments so neighbouring
# rings overlap under the 17 deg pixel FOV; populations 1+7+14+28 = 50.
PIXEL_RINGS = ((90.0, 1), (73.0, 7), (56.0, 14), (39.0, 28))


def make_imaging() -> ReceiverSpec:
    """Fifty narrow-FOV pixels under a shared 65 deg lens, ring by ring
    (`PIXEL_RINGS`), azimuth ascending within a ring."""
    return ReceiverSpec(
        kind="imaging",
        branches=tuple(DetectorSpec(_boresight(360.0 * k / count, el),
                                    PIXEL_FOV_DEG)
                       for el, count in PIXEL_RINGS for k in range(count)),
    )


def block_slices(n: int, size: int) -> list:
    """[0, n) in runs of `size` (one empty run when n is 0), a last run of
    one folded into the run before it: numpy hands a 1-wide operand to
    another BLAS call than the full product, whose last bits differ."""
    starts = list(range(0, n, size)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def sparse_capture(receiver: ReceiverSpec, directions: np.ndarray):
    """Non-zero capture gains as `(branch, arrival, weight)` entries.

    `directions` has shape (N, 3): unit propagation vectors from source to
    mount.  Each weight is area * cos(theta) inside the branch's FOV gate.
    An imaging receiver gates and weighs only the pixel each arrival is
    assigned to, times the lens transmission; every other kind gates all of
    its branches.  Entries are in ascending arrival order within each
    branch, branch by branch.  Every detector gain in the package goes
    through here.

    The (N, J) cosines are computed and gated `_CAPTURE_ROWS` directions at
    a time (`block_slices`), so only the gated entries outlive a block.
    Each entry depends only on its own row of `directions`, so a caller may
    pass each direction once and share its entries among the arrivals that
    have it: `raytracer._point_bins` passes the final-hop direction of each
    lit element of the first-order grid, which every luminaire's arrival
    from that element shares.
    """
    dirs = np.asarray(directions, dtype=float).reshape(-1, 3)
    bores = np.stack([b.boresight for b in receiver.branches])
    cos_fov = np.array([math.cos(math.radians(b.fov_deg)) for b in receiver.branches])
    imaging = receiver.kind == "imaging"
    parts = [[] for _ in range(1 if imaging else len(bores))]
    for r in block_slices(len(dirs), _CAPTURE_ROWS):
        cos_theta = (-dirs[r]) @ bores.T
        # an imaging arrival feeds one pixel: the closest boresight, ties to
        # the lowest index
        picks = ([np.argmax(cos_theta, axis=1)] if imaging else
                 [np.full(len(cos_theta), j) for j in range(len(bores))])
        for part, branch in zip(parts, picks):
            cos = np.take_along_axis(cos_theta, branch[:, None], 1)[:, 0]
            keep = (cos >= cos_fov[branch] - 1e-15) & (cos > 0.0)
            part.append((branch[keep], r.start + np.flatnonzero(keep), cos[keep]))
    branch, arrival, cos = map(np.concatenate, zip(*sum(parts, [])))
    weight = cos * DETECTOR_AREA_M2
    if imaging:
        y = np.arccos(np.clip(-dirs[arrival, 2], -1.0, 1.0))
        weight = weight * _lens_poly(y)
    nz = weight != 0.0
    return branch[nz], arrival[nz], weight[nz]


def capture_matrix(receiver: ReceiverSpec, directions: np.ndarray) -> np.ndarray:
    """Effective capture area of every branch for many arrival directions:
    the entries of `sparse_capture` scattered into a (J, N) array of zeros."""
    branch, arrival, weight = sparse_capture(receiver, directions)
    acc = np.zeros((receiver.branch_count, np.size(directions) // 3))
    acc[branch, arrival] = weight
    return acc
