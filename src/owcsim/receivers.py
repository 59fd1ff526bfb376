"""Receiver front ends: wide-FOV, angle-diversity and imaging assemblies.

All three use the same photodetector element (4 mm^2, 0.4 A/W); they differ
in how many elements they carry, where those elements point, and whether a
collection lens sits above them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .scene import Vec3, unit, vec3

DETECTOR_AREA_M2 = 4e-6       # 4 mm^2
RESPONSIVITY_A_W = 0.4

WFOV_FOV_DEG = 70.0
ADR_FOV_DEG = 20.0
ADR_TILT_EL_DEG = 25.0
PIXEL_FOV_DEG = 17.0
LENS_FOV_DEG = 65.0
PIXEL_COUNT = 50

# Lens transmission polynomial over incidence angle in radians.
LENS_POLY = (-0.1982, 0.0425, 0.8778)


@dataclass(frozen=True)
class Orientation:
    """Pointing direction as azimuth/elevation angles in degrees."""

    az_deg: float
    el_deg: float

    def __post_init__(self):
        if not 0.0 <= self.az_deg < 360.0:
            raise ValueError(f"azimuth must be in [0, 360), got {self.az_deg}")
        if not 0.0 <= self.el_deg <= 90.0:
            raise ValueError(f"elevation must be in [0, 90], got {self.el_deg}")

    def to_direction(self) -> Vec3:
        """Unit boresight (cos El cos Az, cos El sin Az, sin El)."""
        az = math.radians(self.az_deg)
        el = math.radians(self.el_deg)
        v = [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        # suppress trig dust so straight-up comes out exactly (0, 0, 1)
        v = [0.0 if abs(c) < 1e-15 else c for c in v]
        return unit(v)


@dataclass(frozen=True)
class DetectorSpec:
    """One photodetector element: area, responsivity, pointing and FOV gate."""

    area: float              # m^2
    responsivity: float      # A/W
    boresight: Vec3
    fov_deg: float           # acceptance half-angle about the boresight

    def __post_init__(self):
        if not (0.0 < self.area < math.inf and 0.0 < self.responsivity < math.inf):
            raise ValueError("detector area and responsivity must be positive and "
                             f"finite, got {self.area} and {self.responsivity}")
        if not 0.0 < self.fov_deg <= 90.0:
            raise ValueError(f"FOV must be in (0, 90] degrees, got {self.fov_deg}")


@dataclass(frozen=True)
class LensModel:
    """Collection lens over the imaging pixels: acceptance cone plus a
    quadratic transmission-vs-incidence polynomial, clamped to [0, 1]."""

    fov_deg: float = LENS_FOV_DEG
    poly: tuple = LENS_POLY


def lens_transmission(incidence_rad: float, lens: LensModel | None = None) -> float:
    """Lens power transmission at the given incidence angle (radians).

    Polynomial value clamped to [0, 1]; zero outside the acceptance cone.
    """
    if not incidence_rad >= 0.0:
        raise ValueError(f"incidence angle must be >= 0, got {incidence_rad}")
    return float(_lens_poly(lens or LensModel(),
                            np.array([incidence_rad], dtype=float))[0])


def _lens_poly(lens: LensModel, y: np.ndarray) -> np.ndarray:
    """Transmission at incidence angles `y` (radians)."""
    a, b, c = lens.poly
    trans = np.clip(a * y * y + b * y + c, 0.0, 1.0)
    trans[y > math.radians(lens.fov_deg)] = 0.0
    return trans


@dataclass(frozen=True)
class ReceiverSpec:
    """A receiver assembly: J detector branches at one mount point."""

    kind: str                # "wfov" | "adr" | "imaging" | "detector" (one bare element)
    mount: Vec3
    branches: tuple          # tuple of DetectorSpec
    lens: LensModel | None = None

    @property
    def branch_count(self) -> int:
        return len(self.branches)


def _detector(boresight, fov_deg: float) -> DetectorSpec:
    return DetectorSpec(DETECTOR_AREA_M2, RESPONSIVITY_A_W,
                        np.asarray(boresight, dtype=float), fov_deg)


def make_wfov(mount) -> ReceiverSpec:
    """Single face-up element with a 70 deg field of view."""
    return ReceiverSpec(
        kind="wfov",
        mount=np.asarray(mount, dtype=float),
        branches=(_detector(vec3(0, 0, 1), WFOV_FOV_DEG),),
    )


def make_adr(mount) -> ReceiverSpec:
    """Three-branch angle-diversity receiver.

    One branch faces straight up; the other two tilt to 25 deg elevation at
    azimuths 90 and 270 so they look along the rack row, toward the two
    flanking light units.  Every branch has a 20 deg FOV.
    """
    orients = (
        Orientation(0.0, 90.0),
        Orientation(90.0, ADR_TILT_EL_DEG),
        Orientation(270.0, ADR_TILT_EL_DEG),
    )
    return ReceiverSpec(
        kind="adr",
        mount=np.asarray(mount, dtype=float),
        branches=tuple(_detector(o.to_direction(), ADR_FOV_DEG) for o in orients),
    )


# Default pixel layout: concentric rings about the lens axis.  Ring
# elevations step down in 17 deg increments so neighbouring rings overlap
# under the 17 deg pixel FOV; populations 1+7+14+28 = 50.
PIXEL_RINGS = ((90.0, 1), (73.0, 7), (56.0, 14), (39.0, 28))


def default_pixel_layout() -> tuple:
    """The 50 default pixel orientations, ring by ring, azimuth ascending."""
    orients = []
    for el, count in PIXEL_RINGS:
        for k in range(count):
            orients.append(Orientation(360.0 * k / count, el))
    return tuple(orients)


def make_imaging(mount, layout=None) -> ReceiverSpec:
    """Fifty narrow-FOV pixels under a shared 65 deg lens.

    `layout` is an optional sequence of 50 Orientations; every boresight
    must lie inside the lens acceptance cone.
    """
    lens = LensModel()
    orients = default_pixel_layout() if layout is None else tuple(layout)
    if len(orients) != PIXEL_COUNT:
        raise ValueError(
            f"imaging layout must have exactly {PIXEL_COUNT} pixels, "
            f"got {len(orients)}"
        )
    min_el = 90.0 - lens.fov_deg
    for i, o in enumerate(orients):
        if o.el_deg < min_el - 1e-9:
            raise ValueError(
                f"pixel {i} boresight at elevation {o.el_deg} deg lies outside "
                f"the {lens.fov_deg} deg lens cone"
            )
    return ReceiverSpec(
        kind="imaging",
        mount=np.asarray(mount, dtype=float),
        branches=tuple(_detector(o.to_direction(), PIXEL_FOV_DEG)
                       for o in orients),
        lens=lens,
    )


def load_pixel_layout(path) -> tuple:
    """Read a pixel layout override: CSV `pixel_index,az_deg,el_deg`, 50 rows."""
    rows = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["pixel_index", "az_deg", "el_deg"]:
            raise ValueError(f"{path}: expected header 'pixel_index,az_deg,el_deg'")
        for rec in reader:
            if not rec or all(not c.strip() for c in rec):
                continue
            try:
                idx = int(rec[0])
                az, el = float(rec[1]), float(rec[2])
            except (ValueError, IndexError):
                raise ValueError(f"{path}: malformed row {rec!r}") from None
            if idx in rows:
                raise ValueError(f"{path}: duplicate pixel index {idx}")
            rows[idx] = Orientation(az, el)
    if sorted(rows) != list(range(PIXEL_COUNT)):
        raise ValueError(
            f"{path}: layout must define pixel indices 0..{PIXEL_COUNT - 1} "
            f"exactly once ({len(rows)} rows found)"
        )
    return tuple(rows[i] for i in range(PIXEL_COUNT))


def detector_acceptance(detector: DetectorSpec, incoming,
                        lens: LensModel | None = None) -> float:
    """Directional gain factor for a ray hitting a detector element.

    `incoming` is the propagation direction (unit vector from the source
    toward the detector).  Returns cos(theta) inside the FOV and 0 outside,
    times the lens transmission when a lens is present; excludes the
    detector area.  A one-element `capture_matrix` at unit area.
    """
    probe = ReceiverSpec("detector", None, (replace(detector, area=1.0),), lens)
    return float(capture_matrix(probe, incoming)[0, 0])


def assign_pixel(receiver: ReceiverSpec, incoming) -> int | None:
    """Index of the pixel that captures a ray, or None if the lens rejects it.

    The ray goes to the pixel whose boresight is angularly closest to the
    arrival direction (ties to the lowest index); each ray feeds exactly
    one pixel.
    """
    if receiver.kind != "imaging":
        raise ValueError(f"assign_pixel needs an imaging receiver, got {receiver.kind!r}")
    toward = -np.asarray(incoming, dtype=float).reshape(1, 3)  # toward the source
    if float(toward[0, 2]) < math.cos(math.radians(receiver.lens.fov_deg)) - 1e-15:
        return None
    return int(_assigned_pixels(_branch_cosines(receiver, toward))[0])


def _branch_cosines(receiver: ReceiverSpec, toward: np.ndarray) -> np.ndarray:
    """cos(theta) between every arrival (rows of `toward`, unit vectors from
    the mount toward the source) and every branch boresight: (N, J)."""
    return toward @ np.stack([b.boresight for b in receiver.branches]).T


def _assigned_pixels(cos_theta: np.ndarray) -> np.ndarray:
    """The one pixel each arrival feeds: the closest boresight, ties to the
    lowest index."""
    return np.argmax(cos_theta, axis=1)


def sparse_capture(receiver: ReceiverSpec, directions: np.ndarray):
    """Non-zero capture gains as `(branch, arrival, weight)` entries.

    `directions` has shape (N, 3): unit propagation vectors from source to
    mount.  Each weight is area * cos(theta) inside the branch's FOV gate,
    times the lens transmission when the receiver has a lens.  An imaging
    receiver gates and weighs only the pixel each arrival is assigned to;
    every other kind gates all of its branches.  Entries are in ascending
    arrival order within each branch.  Every detector gain in the package
    goes through here.
    """
    toward = -np.asarray(directions, dtype=float).reshape(-1, 3)
    n, nb = len(toward), receiver.branch_count
    cos_theta = _branch_cosines(receiver, toward)                # (N, J)
    if receiver.kind == "imaging":
        branch = _assigned_pixels(cos_theta)
        arrival = np.arange(n)
    else:
        branch = np.repeat(np.arange(nb), n)
        arrival = np.tile(np.arange(n), nb)
    cos = cos_theta[arrival, branch]
    cos_fov = np.array([math.cos(math.radians(b.fov_deg)) for b in receiver.branches])
    keep = (cos >= cos_fov[branch] - 1e-15) & (cos > 0.0)
    branch, arrival = branch[keep], arrival[keep]
    weight = cos[keep] * np.array([b.area for b in receiver.branches])[branch]
    if receiver.lens is not None:
        y = np.arccos(np.clip(toward[arrival, 2], -1.0, 1.0))
        weight = weight * _lens_poly(receiver.lens, y)
    nz = weight != 0.0
    return branch[nz], arrival[nz], weight[nz]


def capture_matrix(receiver: ReceiverSpec, directions: np.ndarray) -> np.ndarray:
    """Effective capture area of every branch for many arrival directions:
    the entries of `sparse_capture` scattered into a (J, N) array of zeros."""
    acc = np.zeros((receiver.branch_count, np.size(directions) // 3))
    branch, arrival, weight = sparse_capture(receiver, directions)
    acc[branch, arrival] = weight
    return acc
