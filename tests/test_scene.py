import dataclasses
import math

import numpy as np
import pytest

from owcsim.scene import (
    ElementGrid,
    Luminaire,
    PodConfig,
    RackRow,
    Scene,
    SurfacePanel,
    build_pod,
    discretize,
    lambertian_order,
    validate_scene,
    vec3,
)


@pytest.fixture(scope="module")
def pod():
    return build_pod(PodConfig(luminaire_power_w=1.0))


def assert_units_over_own_rows(pod):
    """Mount i is served by the three units over row i, and only by them."""
    for mi, (mount, row) in enumerate(zip(pod.mounts, pod.rows)):
        ids = pod.assigned_luminaires(mount)
        assert ids == (3 * mi, 3 * mi + 1, 3 * mi + 2)
        for i in ids:
            assert float(pod.luminaires[i].position[0]) == row.centre_x == float(mount[0])


class TestLambertianOrder:
    def test_60_deg_is_ideal_diffuse(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_45_deg(self):
        assert lambertian_order(45.0) == pytest.approx(2.0, abs=1e-12)

    def test_70_deg(self):
        assert lambertian_order(70.0) == pytest.approx(0.6461, abs=1e-4)

    def test_out_of_range_rejected(self):
        # below about 6e-7 deg the cosine rounds to 1: no finite order
        for bad in (0.0, -5.0, 90.0, 120.0, 1e-7, 1e-9):
            with pytest.raises(ValueError):
                lambertian_order(bad)

    def test_monotone_decreasing(self):
        angles = np.linspace(1.0, 89.0, 200)
        orders = [lambertian_order(a) for a in angles]
        assert all(a > b for a, b in zip(orders, orders[1:]))


class TestBuildPod:
    def test_luminaire_count_and_floor_reflectance(self, pod):
        assert len(pod.luminaires) == 9
        floor = [p for p in pod.panels if p.kind == "floor"]
        assert len(floor) == 1 and floor[0].reflectance == 0.3

    def test_wall_and_ceiling_reflectance(self, pod):
        for p in pod.panels:
            if p.kind != "floor":
                assert p.reflectance == 0.8

    def test_mount_positions(self, pod):
        got = sorted(tuple(m) for m in pod.mounts)
        assert got == [(1.8, 4.0, 2.0), (4.0, 4.0, 2.0), (6.2, 4.0, 2.0)]

    def test_total_reflecting_area(self, pod):
        assert sum(p.area for p in pod.panels) == pytest.approx(224.0, rel=1e-12)

    def test_luminaire_positions_match_layout(self, pod):
        xs = sorted({float(l.position[0]) for l in pod.luminaires})
        ys = sorted({float(l.position[1]) for l in pod.luminaires})
        assert xs == [1.8, 4.0, 6.2] and ys == [2.0, 4.0, 6.0]
        assert all(float(l.position[2]) == 3.0 for l in pod.luminaires)

    def test_three_luminaires_per_mount_same_row(self, pod):
        assert_units_over_own_rows(pod)

    def test_shifted_rows_keep_their_units(self):
        pod = build_pod(PodConfig(luminaire_power_w=1.0, row_y_span=(0.5, 6.5)))
        assert [float(m[1]) for m in pod.mounts] == [3.5, 3.5, 3.5]
        assert_units_over_own_rows(pod)
        assert validate_scene(pod) == []

    def test_deterministic_construction(self):
        cfg = PodConfig(luminaire_power_w=2.5)
        a, b = build_pod(cfg), build_pod(cfg)
        assert a.room == b.room
        for pa, pb in zip(a.panels, b.panels):
            assert np.array_equal(pa.origin, pb.origin)
            assert pa.reflectance == pb.reflectance
        for la, lb in zip(a.luminaires, b.luminaires):
            assert np.array_equal(la.position, lb.position)
            assert la.order == lb.order and la.power_w == lb.power_w

    @pytest.mark.parametrize("field, value, match", [
        ("room", (8.0, 8.0, math.inf), "room must be finite"),
        ("room", (math.nan, 8.0, 3.0), "room must be finite"),
        ("rack_top_m", math.nan, "rack_top_m must be finite"),
        ("rack_top_m", math.inf, "rack_top_m must be finite"),
        ("row_y_span", (1.0, math.inf), "row_y_span must be finite"),
        ("row_y_span", (math.nan, 7.0), "row_y_span must be finite"),
        ("wall_reflectance", 1.2, r"wall_reflectance must be in \[0, 1\]"),
        ("ceiling_reflectance", -0.1, r"ceiling_reflectance must be in \[0, 1\]"),
        ("floor_reflectance", math.nan, r"floor_reflectance must be in \[0, 1\]"),
        ("semi_angle_deg", math.nan, "semi-angle must be in"),
        ("semi_angle_deg", 1e-9, "no finite Lambertian order"),
    ])
    def test_config_refuses_what_the_parser_refuses(self, field, value, match):
        # an infinite room edge used to build and then overflow the bin
        # count in compute_field; a NaN one reached validate_scene
        with pytest.raises(ValueError, match=match):
            PodConfig(luminaire_power_w=1.0, **{field: value})

    def test_finite_geometry_is_left_to_validate_scene(self):
        # `owcsim check` lists these as diagnostics, so the config builds
        scene = build_pod(PodConfig(luminaire_power_w=1.0, room=(8.0, 8.0, -3.0),
                                    rack_top_m=0.1, row_y_span=(7.0, 1.0)))
        assert validate_scene(scene)

    def test_assigned_luminaires_follows_nearest_row(self, pod):
        assert pod.assigned_luminaires((4.0, 1.5, 2.0)) == (3, 4, 5)
        assert pod.assigned_luminaires((2.0, 6.0, 2.0)) == (0, 1, 2)


class TestLuminaire:
    def test_order_is_derived_from_semi_angle(self):
        lum = Luminaire.make(vec3(1, 1, 3), 1.0, 45.0)
        assert lum.order == lambertian_order(45.0)
        object.__setattr__(lum, "semi_angle_deg", 60.0)
        assert lum.order == lambertian_order(60.0)
        assert "order" not in {f.name for f in dataclasses.fields(Luminaire)}

    @pytest.mark.parametrize("semi_angle", [0.0, 90.0, 120.0])
    def test_bad_semi_angle_rejected(self, semi_angle):
        with pytest.raises(ValueError, match="semi-angle"):
            Luminaire.make(vec3(1, 1, 3), 1.0, semi_angle)


class TestDiscretize:
    def test_wall_at_5cm(self):
        # one 8 m x 3 m wall tiles to (8/0.05)*(3/0.05) cells; the pod's four
        # walls together hold 38,400
        wall = SurfacePanel(vec3(0, 0, 0), vec3(0, 8, 0), vec3(0, 0, 3),
                            vec3(1, 0, 0), 0.8, "wall")
        grid = discretize(wall, 0.05)
        assert len(grid) == 9_600
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        n_walls = sum(len(discretize(p, 0.05)) for p in pod.panels
                      if p.kind == "wall")
        assert n_walls == 38_400

    def test_ceiling_at_20cm(self):
        ceil = SurfacePanel(vec3(0, 0, 3), vec3(8, 0, 0), vec3(0, 8, 0),
                            vec3(0, 0, -1), 0.8, "ceiling")
        grid = discretize(ceil, 0.20)
        assert len(grid) == 1_600

    def test_tiling_conserves_area(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            lu, lv = rng.uniform(0.3, 9.0, size=2)
            edge = rng.uniform(0.02, 1.5)
            panel = SurfacePanel(vec3(0, 0, 0), vec3(lu, 0, 0), vec3(0, 0, lv),
                                 vec3(0, 1, 0), 0.5, "wall")
            grid = discretize(panel, edge)
            assert grid.areas.sum() == pytest.approx(panel.area, rel=1e-9)

    def test_centres_are_cell_centres(self):
        panel = SurfacePanel(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0),
                             vec3(0, 0, 1), 0.5, "floor")
        grid = discretize(panel, 0.5)
        got = sorted(map(tuple, np.round(grid.centres, 12)))
        assert got == [(0.25, 0.25, 0.0), (0.25, 0.75, 0.0),
                       (0.75, 0.25, 0.0), (0.75, 0.75, 0.0)]

    def test_non_divisor_edge_clamped(self):
        panel = SurfacePanel(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 0.9, 0),
                             vec3(0, 0, 1), 0.5, "floor")
        grid = discretize(panel, 0.4)  # 1/0.4 -> 2 or 3 cells, 0.9/0.4 -> 2
        assert grid.areas.sum() == pytest.approx(0.9, rel=1e-12)

    def test_non_positive_edge_rejected(self):
        panel = SurfacePanel(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0),
                             vec3(0, 0, 1), 0.5, "floor")
        with pytest.raises(ValueError):
            discretize(panel, 0.0)
        with pytest.raises(ValueError):
            discretize(panel, -0.1)

    def test_element_view_fields(self):
        panel = SurfacePanel(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0),
                             vec3(0, 0, 1), 0.35, "floor")
        grid = discretize(panel, 0.5)
        assert len(grid) == 4
        assert np.all(grid.areas == pytest.approx(0.25))
        assert np.all(grid.reflectances == 0.35)
        assert np.all(grid.normals == [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("edge", [0.05, 0.2])
    def test_panel_values_are_stored_once(self, edge):
        # the pod's grid keeps its centres per element and each panel's
        # normal, element area and reflectance once; the per-element
        # arrays built on request, and every panel run, hold what a panel
        # tiled by hand gives
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        grid = pod.surface_elements(edge)
        n, npanel = len(grid), len(pod.panels)
        normals, areas, rhos, counts = [], [], [], []
        for p in pod.panels:
            lu, lv = float(np.linalg.norm(p.u)), float(np.linalg.norm(p.v))
            nu, nv = max(1, round(lu / edge)), max(1, round(lv / edge))
            counts.append(nu * nv)
            normals.append(tuple(p.normal.tolist()))
            areas.append((lu / nu) * (lv / nv))
            rhos.append(p.reflectance)
        assert n == sum(counts)
        stored = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        assert [a for a in stored if a is not grid.centres and len(a) == n] == []
        assert sum(a.nbytes for a in stored) <= 24 * n + 48 * npanel
        starts = np.cumsum([0] + counts[:-1])
        runs = [(slice(s, s + c), nrm, rho, area) for s, c, nrm, rho, area
                in zip(starts, counts, normals, rhos, areas)]
        per_element = (np.repeat(normals, counts, axis=0),
                       np.repeat(areas, counts), np.repeat(rhos, counts))
        # a second copy after it: the runs and values of both
        both = ElementGrid.concatenate([grid, grid])
        twice = [(slice(k.start + n, k.stop + n), *v) for k, *v in runs]
        for g, want_runs, k in ((grid, runs, 1), (both, runs + twice, 2)):
            assert g.panel_runs(np.arange(len(g))) == want_runs
            got = (g.normals, g.areas, g.reflectances)
            for a, b in zip(got, per_element):
                assert a.tobytes() == np.concatenate([b] * k).tobytes()
        assert both.centres.tobytes() == np.concatenate([grid.centres] * 2).tobytes()
        # a subset of elements: runs of its positions, one per panel it meets
        idx = np.arange(0, n, 7)
        panel = np.searchsorted(starts, idx, side="right") - 1
        got = grid.panel_runs(idx)
        assert [r[1:] for r in got] == [runs[p][1:] for p in np.unique(panel)]
        for k, *_ in got:
            assert np.unique(panel[k]).size == 1
        assert sum(k.stop - k.start for k, *_ in got) == idx.size


class TestValidateScene:
    def test_pod_is_clean(self, pod):
        assert validate_scene(pod) == []

    def test_luminaire_outside_room(self):
        scene = build_pod(PodConfig(luminaire_power_w=1.0))
        bad = scene.luminaires[0]
        object.__setattr__(bad, "position", vec3(1.8, 2.0, 3.5))
        diags = validate_scene(scene)
        assert diags == ["luminaire 0 at (1.8, 2.0, 3.5): outside room"]

    def test_reflectance_out_of_range(self):
        scene = build_pod(PodConfig(luminaire_power_w=1.0))
        wall = next(p for p in scene.panels if p.kind == "wall")
        object.__setattr__(wall, "reflectance", 1.2)
        diags = validate_scene(scene)
        assert len(diags) == 1 and "reflectance out of range" in diags[0]

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), 0.0, -1.0])
    def test_luminaire_power_must_be_positive_and_finite(self, power):
        with pytest.raises(ValueError, match="positive and finite"):
            Luminaire.make(vec3(1, 1, 3), power)
        scene = build_pod(PodConfig(luminaire_power_w=1.0))
        object.__setattr__(scene.luminaires[4], "power_w", power)
        diags = validate_scene(scene)
        assert len(diags) == 1 and "luminaire 4" in diags[0], diags

    def test_row_rule_uses_row_centre_not_mount(self):
        # two rows; the mount sits 0.3 m off the centreline of row 0, so no
        # luminaire shares its x, yet the ones over row 0 are its own
        lums = [Luminaire.make(vec3(x, y, 3.0), 1.0)
                for x in (2.0, 6.0) for y in (2.0, 4.0)]
        rows = [RackRow(x, (1.0, 7.0), 2.0) for x in (2.0, 6.0)]
        mount = vec3(2.3, 4.0, 2.0)
        scene = Scene(room=(8.0, 8.0, 3.0), panels=[], luminaires=lums,
                      rows=rows, mounts=[mount])
        assert scene.assigned_luminaires(mount) == (0, 1)
        assert validate_scene(scene) == []

    def test_mount_without_luminaire_above_its_row(self):
        # both units hang over row 0; mount 1 sits on row 1
        lums = [Luminaire.make(vec3(2.0, y, 3.0), 1.0) for y in (2.0, 4.0)]
        rows = [RackRow(x, (1.0, 7.0), 2.0) for x in (2.0, 6.0)]
        scene = Scene(room=(8.0, 8.0, 3.0), panels=[], luminaires=lums, rows=rows,
                      mounts=[vec3(2.0, 4.0, 2.0), vec3(6.0, 4.0, 2.0)])
        assert validate_scene(scene) == ["mount 1: no luminaire above its row"]

    @pytest.mark.parametrize("depth", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rack_depth_must_be_positive_and_finite(self, depth):
        scene = build_pod(PodConfig(luminaire_power_w=1.0, rack_depth_m=depth,
                                    rack_occluding=True))
        assert validate_scene(scene) == [
            f"rack row {k}: depth {depth} is not positive and finite"
            for k in range(3)]

    def test_reversed_row_span_rejected(self):
        # the shadowing test assumes y_min < y_max, and a reversed span
        # would shade differently from the same span written forwards
        scene = build_pod(PodConfig(luminaire_power_w=1.0, row_y_span=(7.0, 1.0),
                                    rack_occluding=True))
        assert validate_scene(scene) == [
            f"rack row {k}: y span (7.0, 1.0) is not increasing" for k in range(3)]

    def test_rack_above_ceiling(self):
        scene = build_pod(PodConfig(luminaire_power_w=1.0, rack_top_m=3.2))
        assert any("above ceiling" in d for d in validate_scene(scene))
