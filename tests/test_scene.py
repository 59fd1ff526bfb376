import numpy as np
import pytest

from owcsim.scene import (
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


class TestLambertianOrder:
    def test_60_deg_is_ideal_diffuse(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_45_deg(self):
        assert lambertian_order(45.0) == pytest.approx(2.0, abs=1e-12)

    def test_70_deg(self):
        assert lambertian_order(70.0) == pytest.approx(0.6461, abs=1e-4)

    def test_out_of_range_rejected(self):
        for bad in (0.0, -5.0, 90.0, 120.0):
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
        for mi, mount in enumerate(pod.mounts):
            ids = pod.assignment[mi]
            assert len(ids) == 3
            for i in ids:
                assert float(pod.luminaires[i].position[0]) == float(mount[0])

    def test_deterministic_construction(self):
        cfg = PodConfig(luminaire_power_w=2.5)
        a, b = build_pod(cfg), build_pod(cfg)
        assert a.room == b.room and a.assignment == b.assignment
        for pa, pb in zip(a.panels, b.panels):
            assert np.array_equal(pa.origin, pb.origin)
            assert pa.reflectance == pb.reflectance
        for la, lb in zip(a.luminaires, b.luminaires):
            assert np.array_equal(la.position, lb.position)
            assert la.order == lb.order and la.power_w == lb.power_w

    def test_assigned_luminaires_follows_nearest_row(self, pod):
        ids = pod.assigned_luminaires((4.0, 1.5, 2.0))
        assert ids == pod.assignment[1]
        ids = pod.assigned_luminaires((2.0, 6.0, 2.0))
        assert ids == pod.assignment[0]


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
            assert grid.total_area == pytest.approx(panel.area, rel=1e-9)

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
        assert grid.total_area == pytest.approx(0.9, rel=1e-12)

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
        el = discretize(panel, 0.5)[0]
        assert el.area == pytest.approx(0.25)
        assert el.reflectance == 0.35
        assert el.emission_order == 1.0


class TestValidateScene:
    def test_pod_is_clean(self, pod):
        assert validate_scene(pod) == []

    def test_luminaire_outside_room(self):
        scene = build_pod(PodConfig(luminaire_power_w=1.0))
        bad = scene.luminaires[0]
        object.__setattr__(bad, "position", vec3(1.8, 2.0, 3.5))
        diags = validate_scene(scene)
        assert len(diags) == 1 and "outside room" in diags[0]

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
                      rows=rows, mounts=[mount], assignment=[(0, 1)])
        assert validate_scene(scene) == []
        scene.assignment[0] = (0, 2)           # luminaire 2 is over row 1
        assert validate_scene(scene) == [
            "mount 0: assigned luminaire 2 is not above its row"]

    def test_rack_above_ceiling(self):
        scene = build_pod(PodConfig(luminaire_power_w=1.0, rack_top_m=3.2))
        assert any("above ceiling" in d for d in validate_scene(scene))
