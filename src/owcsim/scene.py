"""Pod geometry: room surfaces, rack rows, luminaires and receiver mounts.

The reference scene is a data-centre pod (8 m x 8 m x 3 m) with three rows
of racks, nine ceiling-mounted laser-diode light units and one receiver
mount on top of each row.  Every reflecting surface is a diffuse
(Lambertian, order 1) panel that can be discretized into small emitter
elements for multipath tracing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Height of the communication floor: all wireless links live above this.
COMM_FLOOR_M = 0.25

Vec3 = np.ndarray  # shape (3,), float64


def vec3(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


def unit(v) -> Vec3:
    """Normalize to a unit vector (raises on near-zero input)."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero vector")
    return v / n


def lambertian_order(semi_angle_deg: float) -> float:
    """Lambertian mode number for a given semi-angle at half power.

    Solves cos(semi_angle)^m = 1/2, i.e. m = -ln 2 / ln cos(semi_angle).
    A 60 deg semi-angle gives the ideal diffuse order m = 1.
    """
    if not 0.0 < semi_angle_deg < 90.0:
        raise ValueError(
            f"semi-angle must be in (0, 90) degrees, got {semi_angle_deg}"
        )
    # below about 6e-7 deg the cosine rounds to 1 and the order is infinite
    log_cos = math.log(math.cos(math.radians(semi_angle_deg)))
    if log_cos == 0.0:
        raise ValueError(f"semi-angle {semi_angle_deg} deg gives no finite "
                         "Lambertian order")
    return -math.log(2.0) / log_cos


@dataclass(frozen=True)
class SurfacePanel:
    """One rectangular reflecting surface (wall, ceiling or floor).

    `origin` is a corner point; `u` and `v` are perpendicular edge vectors
    spanning the rectangle; `normal` points into the room.
    """

    origin: Vec3
    u: Vec3
    v: Vec3
    normal: Vec3
    reflectance: float
    kind: str  # "ceiling" | "wall" | "floor"

    @property
    def area(self) -> float:
        return float(np.linalg.norm(self.u) * np.linalg.norm(self.v))


class ElementGrid:
    """Array-backed collection of surface elements (one panel or a whole scene).

    Stores the element centres as one flat numpy array so the tracer can
    vectorise over them.  `starts` holds each panel's first element (the
    first is 0); a panel's elements share its normal, area and reflectance,
    which are stored once per panel and read per panel (`panel_runs`).
    `normals`, `areas` and `reflectances` build the per-element arrays on
    request; the tracer never asks for them.
    """

    def __init__(self, centres, starts, panel_normals, panel_areas,
                 panel_reflectances):
        self.centres = np.asarray(centres, dtype=float).reshape(-1, 3)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.panel_normals = np.asarray(panel_normals, dtype=float).reshape(-1, 3)
        self.panel_areas = np.asarray(panel_areas, dtype=float).ravel()
        self.panel_reflectances = np.asarray(panel_reflectances, dtype=float).ravel()

    def __len__(self) -> int:
        return self.centres.shape[0]

    def _per_element(self, values: np.ndarray) -> np.ndarray:
        counts = np.diff(self.starts, append=len(self))
        return np.repeat(values, counts, axis=0)

    @property
    def normals(self) -> np.ndarray:
        return self._per_element(self.panel_normals)

    @property
    def areas(self) -> np.ndarray:
        return self._per_element(self.panel_areas)

    @property
    def reflectances(self) -> np.ndarray:
        return self._per_element(self.panel_reflectances)

    def panel_runs(self, idx) -> list:
        """(run, normal, reflectance, area) of each slice `run` of the ascending
        element indices `idx` that lies on one panel, its values Python floats."""
        cut = np.searchsorted(idx, self.starts).tolist() + [len(idx)]
        return [(slice(lo, hi), tuple(self.panel_normals[p].tolist()),
                 float(self.panel_reflectances[p]), float(self.panel_areas[p]))
                for p, (lo, hi) in enumerate(zip(cut, cut[1:])) if lo < hi]

    @staticmethod
    def concatenate(grids: list["ElementGrid"]) -> "ElementGrid":
        offsets = np.cumsum([0] + [len(g) for g in grids])
        return ElementGrid(
            np.concatenate([g.centres for g in grids]),
            np.concatenate([g.starts + o for g, o in zip(grids, offsets)]),
            np.concatenate([g.panel_normals for g in grids]),
            np.concatenate([g.panel_areas for g in grids]),
            np.concatenate([g.panel_reflectances for g in grids]),
        )


def discretize(panel: SurfacePanel, element_edge: float) -> ElementGrid:
    """Tile a panel into equal rectangular elements of roughly the given edge.

    The requested edge is clamped per axis to the nearest exact divisor of
    the panel edge length, so the elements always tile the panel exactly
    and sum(dA) equals the panel area up to rounding.
    """
    if element_edge <= 0.0:
        raise ValueError(f"element edge must be positive, got {element_edge}")
    lu = float(np.linalg.norm(panel.u))
    lv = float(np.linalg.norm(panel.v))
    nu = max(1, int(round(lu / element_edge)))
    nv = max(1, int(round(lv / element_edge)))
    du = panel.u / nu
    dv = panel.v / nv
    # cell centres: origin + (i+1/2) du + (j+1/2) dv
    iu = (np.arange(nu) + 0.5)[:, None, None]
    iv = (np.arange(nv) + 0.5)[None, :, None]
    centres = panel.origin[None, None, :] + iu * du[None, None, :] + iv * dv[None, None, :]
    area = (lu / nu) * (lv / nv)
    return ElementGrid(centres, [0], panel.normal, [area], [panel.reflectance])


@dataclass(frozen=True)
class Luminaire:
    """One ceiling light unit modelled as a point Lambertian emitter that
    points straight down, along (0, 0, -1).

    Its Lambertian order is not stored: `order` derives it from the
    semi-angle, so the two cannot disagree.
    """

    position: Vec3
    semi_angle_deg: float
    power_w: float           # aggregate optical power of the unit

    @property
    def order(self) -> float:
        """Lambertian mode m, fixed by the semi-angle."""
        return lambertian_order(self.semi_angle_deg)

    @staticmethod
    def make(position, power_w: float, semi_angle_deg: float = 70.0) -> "Luminaire":
        """A unit pointing straight down."""
        if not 0.0 < power_w < math.inf:
            raise ValueError(f"luminaire power must be positive and finite, got {power_w}")
        lambertian_order(semi_angle_deg)      # rejects a semi-angle with no finite order
        return Luminaire(
            position=np.asarray(position, dtype=float),
            semi_angle_deg=semi_angle_deg,
            power_w=power_w,
        )


@dataclass(frozen=True)
class RackRow:
    """A row of racks, reduced to the geometry the optics cares about."""

    centre_x: float          # row centreline, m
    y_span: tuple            # (y_min, y_max), m
    top_height: float        # m; receiver mounts sit here
    occluding: bool = False
    depth: float = 1.0       # box extent across the row, used only for shadowing


@dataclass(eq=False)
class Scene:
    """Immutable pod description shared by the tracer and the CLI.

    Which luminaires serve a receiver is not stored: `assigned_luminaires`
    derives it from the receiver's position (the units over its row).
    """

    room: tuple              # (length_x, width_y, height_z), m
    panels: list
    luminaires: list
    rows: list
    mounts: list             # receiver mount points, one per row

    def __post_init__(self):
        self._grid_cache: dict = {}

    def surface_elements(self, element_edge: float) -> ElementGrid:
        """All panels discretized at one edge length (memoized per scene)."""
        key = round(element_edge, 12)
        grid = self._grid_cache.get(key)
        if grid is None:
            grid = ElementGrid.concatenate(
                [discretize(p, element_edge) for p in self.panels]
            )
            self._grid_cache[key] = grid
        return grid

    def assigned_luminaires(self, point) -> tuple:
        """Luminaire indices serving a receiver at `point`: the units over
        the centreline of the nearest rack row.

        Scenes without rack rows assign every luminaire.
        """
        if not self.rows:
            return tuple(range(len(self.luminaires)))
        x = float(np.asarray(point, dtype=float)[0])
        row_x = min(self.rows, key=lambda r: abs(r.centre_x - x)).centre_x
        return tuple(i for i, lum in enumerate(self.luminaires)
                     if abs(float(lum.position[0]) - row_x) < 1e-9)


@dataclass(frozen=True)
class PodConfig:
    """Knobs for the reference pod; everything else is fixed geometry.

    Rows, mounts and luminaires always sit on the fixed `ROW_X` lines, so
    every mount is served by the three units over its own row.
    """

    luminaire_power_w: float                 # per light unit, required
    room: tuple = (8.0, 8.0, 3.0)
    wall_reflectance: float = 0.8
    ceiling_reflectance: float = 0.8
    floor_reflectance: float = 0.3
    semi_angle_deg: float = 70.0
    rack_top_m: float = 2.0
    row_y_span: tuple = (1.0, 7.0)
    rack_depth_m: float = 1.0
    rack_occluding: bool = False

    def __post_init__(self):
        """Refuse what `owcsim`'s config parser refuses: non-finite geometry,
        a reflectance outside [0, 1] and a semi-angle with no finite
        Lambertian order (`build_pod` refuses the power).  Whether finite
        geometry fits together (positive room edges and rack depth, a rack
        top between floor and ceiling, an increasing row span) is left to
        `validate_scene`, whose diagnostics `owcsim check` lists."""
        for name in ("room", "row_y_span", "rack_top_m"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("wall_reflectance", "ceiling_reflectance", "floor_reflectance"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        lambertian_order(self.semi_angle_deg)


# Fixed coordinates of the reference pod: three rack rows and a 3x3 grid of
# ceiling units, three per row, spaced 2 m apart along each row.
ROW_X = (1.8, 4.0, 6.2)
LUMINAIRE_XY = tuple((x, y) for x in ROW_X for y in (2.0, 4.0, 6.0))


def build_pod(config: PodConfig) -> Scene:
    """Construct the reference data-centre pod scene.

    Six reflecting panels (walls/ceiling at rho 0.8, floor at 0.3), nine
    luminaires on the ceiling, three rack rows, and one receiver mount at
    the top centre of each row, under that row's three units.
    """
    lx, ly, h = config.room
    rho_w = config.wall_reflectance
    panels = [
        SurfacePanel(vec3(0, 0, h), vec3(lx, 0, 0), vec3(0, ly, 0),
                     vec3(0, 0, -1), config.ceiling_reflectance, "ceiling"),
        SurfacePanel(vec3(0, 0, 0), vec3(lx, 0, 0), vec3(0, ly, 0),
                     vec3(0, 0, 1), config.floor_reflectance, "floor"),
        SurfacePanel(vec3(0, 0, 0), vec3(0, ly, 0), vec3(0, 0, h),
                     vec3(1, 0, 0), rho_w, "wall"),
        SurfacePanel(vec3(lx, 0, 0), vec3(0, ly, 0), vec3(0, 0, h),
                     vec3(-1, 0, 0), rho_w, "wall"),
        SurfacePanel(vec3(0, 0, 0), vec3(lx, 0, 0), vec3(0, 0, h),
                     vec3(0, 1, 0), rho_w, "wall"),
        SurfacePanel(vec3(0, ly, 0), vec3(lx, 0, 0), vec3(0, 0, h),
                     vec3(0, -1, 0), rho_w, "wall"),
    ]
    luminaires = [
        Luminaire.make(vec3(x, y, h), config.luminaire_power_w,
                       config.semi_angle_deg)
        for x, y in LUMINAIRE_XY
    ]
    rows = [
        RackRow(x, config.row_y_span, config.rack_top_m,
                occluding=config.rack_occluding, depth=config.rack_depth_m)
        for x in ROW_X
    ]
    y_mid = 0.5 * (config.row_y_span[0] + config.row_y_span[1])
    mounts = [vec3(x, y_mid, config.rack_top_m) for x in ROW_X]
    return Scene(room=(lx, ly, h), panels=panels, luminaires=luminaires,
                 rows=rows, mounts=mounts)


def _inside_room(p, room, tol=1e-9) -> bool:
    lx, ly, h = room
    return (-tol <= p[0] <= lx + tol and -tol <= p[1] <= ly + tol
            and -tol <= p[2] <= h + tol)


def validate_scene(scene: Scene) -> list:
    """Check every scene invariant; returns one diagnostic string per violation."""
    diags = []
    lx, ly, h = scene.room
    if min(lx, ly, h) <= 0:
        diags.append(f"room dimensions must be positive: {scene.room}")
    for k, p in enumerate(scene.panels):
        if not 0.0 <= p.reflectance <= 1.0:
            diags.append(
                f"panel {k} ({p.kind}): reflectance out of range ({p.reflectance})"
            )
        if abs(float(np.dot(p.u, p.v))) > 1e-9:
            diags.append(f"panel {k} ({p.kind}): edges not perpendicular")
        if (abs(float(np.dot(p.normal, p.u))) > 1e-9
                or abs(float(np.dot(p.normal, p.v))) > 1e-9):
            diags.append(f"panel {k} ({p.kind}): normal not perpendicular to edges")
        if abs(float(np.linalg.norm(p.normal)) - 1.0) > 1e-12:
            diags.append(f"panel {k} ({p.kind}): normal is not a unit vector")
    for k, lum in enumerate(scene.luminaires):
        if not _inside_room(lum.position, scene.room):
            diags.append(
                f"luminaire {k} at {tuple(map(float, lum.position))}: outside room")
        if not 0.0 < lum.power_w < math.inf:
            diags.append(f"luminaire {k}: power {lum.power_w} is not positive and finite")
    for k, row in enumerate(scene.rows):
        if row.top_height >= h:
            diags.append(f"rack row {k}: top height {row.top_height} above ceiling")
        if row.top_height <= COMM_FLOOR_M:
            diags.append(
                f"rack row {k}: top height {row.top_height} below communication floor"
            )
        if not 0.0 < row.depth < math.inf:
            diags.append(f"rack row {k}: depth {row.depth} is not positive and finite")
        if not row.y_span[0] < row.y_span[1]:
            diags.append(f"rack row {k}: y span {tuple(map(float, row.y_span))} "
                         "is not increasing")
    for k, mount in enumerate(scene.mounts):
        if not _inside_room(mount, scene.room):
            diags.append(f"mount {k} at {tuple(map(float, mount))}: outside room")
        if not scene.assigned_luminaires(mount):
            diags.append(f"mount {k}: no luminaire above its row")
    return diags
