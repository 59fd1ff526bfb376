import dataclasses
import functools
import gc
import itertools
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from owcsim import raytracer
from owcsim.linkmetrics import link_report
from owcsim.raytracer import (
    C_LIGHT,
    ArrivalField,
    HistRuns,
    ImpulseResponse,
    TraceConfig,
    _GEMV_BINS,
    _GEMV_BLOCK,
    _GROUP_CAP,
    _PIECE,
    _final_hop,
    _group_extent,
    _incident_power,
    _lit_grid,
    _occluder_boxes,
    _position_groups,
    _second_order_bins,
    _weighed_rows,
    compute_field,
    trace_fields,
)
from owcsim.receivers import (DetectorSpec, ReceiverSpec, block_slices,
                              capture_matrix, make_adr, make_imaging, make_wfov)
from owcsim.scene import (
    Luminaire,
    PodConfig,
    Scene,
    SurfacePanel,
    build_pod,
    unit,
    vec3,
)

from oracles import (
    Element,
    kernel_hist,
    los_gain,
    oracle_capture_matrix,
    oracle_field,
    oracle_final_hop,
    oracle_incident_power,
    oracle_los_sum,
    oracle_one_bounce,
    oracle_path_delay,
    oracle_points,
    oracle_second_order_hist,
    record_hists,
    reflected_path_gain,
)
from probes import detector_ir, probe


def detector(boresight=(0, 0, 1), fov=90.0):
    return DetectorSpec(np.asarray(boresight, dtype=float), fov)


def down_luminaire(pos, semi_angle=60.0, power=1.0):
    return Luminaire.make(vec3(*pos), power, semi_angle)


def unit_patch_scene(rho=0.8):
    """A 3 x 3 x 2 room with a single 5 cm reflecting patch at (1, 1, 0)."""
    patch = SurfacePanel(vec3(0.975, 0.975, 0.0), vec3(0.05, 0, 0),
                         vec3(0, 0.05, 0), vec3(0, 0, 1), rho, "floor")
    return Scene(room=(3.0, 3.0, 2.0), panels=[patch],
                 luminaires=[down_luminaire((1.0, 1.0, 1.0))],
                 rows=[], mounts=[])


class TestLosGain:
    def test_on_axis_metre(self):
        lum = down_luminaire((0, 0, 1))
        g = los_gain(lum, detector(), vec3(0, 0, 0))
        assert g == pytest.approx(1.27324e-6, rel=1e-5)
        assert g == pytest.approx(4e-6 / math.pi, rel=1e-12)

    def test_fov_gate(self):
        lum = down_luminaire((0, 0, 1))
        # tilt the detector so the arrival sits just past a 70 deg FOV
        tilt = math.radians(70.1)
        det = DetectorSpec(vec3(math.sin(tilt), 0.0, math.cos(tilt)), 70.0)
        assert los_gain(lum, det, vec3(0, 0, 0)) == 0.0

    def test_45_deg_closed_form(self):
        # d = sqrt(2), phi = theta = 45 deg, m = 1
        lum = down_luminaire((0, 0, 1))
        g = los_gain(lum, detector(), vec3(1, 0, 0))
        assert g == pytest.approx(3.1831e-7, rel=1e-5)

    def test_negative_cosine_is_dark(self):
        lum = down_luminaire((0, 0, 1))
        assert los_gain(lum, detector(), vec3(0, 0, 2)) == 0.0  # behind emitter
        face_down = detector(boresight=(0, 0, -1))
        assert los_gain(lum, face_down, vec3(0, 0, 0)) == 0.0   # facing away

    def test_coincident_raises(self):
        lum = down_luminaire((0, 0, 1))
        with pytest.raises(ValueError, match="degenerate"):
            los_gain(lum, detector(), vec3(0, 0, 1))


class TestReflectedPathGain:
    def spec_patch(self, rho=0.8):
        return Element(centre=vec3(1, 1, 0), normal=vec3(0, 0, 1),
                       area=2.5e-3, reflectance=rho)

    def test_absorbing_surface(self):
        lum = down_luminaire((1, 1, 1))
        det = detector(boresight=(0, 0, -1))
        g, _ = reflected_path_gain(lum, [self.spec_patch(rho=0.0)], det,
                                   vec3(2, 1, 1))
        assert g == 0.0

    def test_one_bounce_hand_value(self):
        # luminaire 1 m above a face-up 25 cm^2 patch, detector 1 m up and
        # 1 m across, face down, FOV 90: the product of the two hop factors
        # is (2/2pi)*dA * rho*(2/(2pi*2))*cos45*cos45*A = 2e-9/pi^2
        lum = down_luminaire((1, 1, 1))
        det = detector(boresight=(0, 0, -1))
        g, delay = reflected_path_gain(lum, [self.spec_patch()], det, vec3(2, 1, 1))
        oracle = oracle_one_bounce((1, 1, 1), (0, 0, -1), lum.order, 1.0,
                                   (1, 1, 0), (0, 0, 1), 2.5e-3, 0.8,
                                   (2, 1, 1), (0, 0, -1), 4e-6)
        assert g == pytest.approx(oracle, rel=1e-12)
        assert g == pytest.approx(2e-9 / math.pi ** 2, rel=1e-6)
        assert delay == pytest.approx(
            oracle_path_delay([(1, 1, 1), (1, 1, 0), (2, 1, 1)]), rel=1e-12)

    def test_mirror_symmetry(self):
        # elements mirrored about the luminaire-detector vertical plane
        lum = down_luminaire((1, 1, 1))
        det = detector(boresight=(0, 0, -1))
        left = Element(vec3(0.6, 1.5, 0), vec3(0, 0, 1), 2.5e-3, 0.8)
        right = Element(vec3(1.4, 1.5, 0), vec3(0, 0, 1), 2.5e-3, 0.8)
        gl, dl = reflected_path_gain(lum, [left], det, vec3(1, 2, 1))
        gr, dr = reflected_path_gain(lum, [right], det, vec3(1, 2, 1))
        assert gl == pytest.approx(gr, rel=1e-12)
        assert dl == pytest.approx(dr, rel=1e-12)
        assert gl > 0.0

    def test_two_bounce_composes_three_hops(self):
        lum = down_luminaire((1, 1, 1))
        e1 = Element(vec3(1, 1, 0), vec3(0, 0, 1), 2.5e-3, 0.8)
        e2 = Element(vec3(2, 1, 1.5), vec3(0, 0, -1), 2.5e-3, 0.5)
        det = detector(boresight=(0, 0, 1))
        g, delay = reflected_path_gain(lum, [e1, e2], det, vec3(2, 2, 0.5))
        # compose by hand from the two partial paths
        hop12 = oracle_one_bounce((1, 1, 1), (0, 0, -1), lum.order, 1.0,
                                  (1, 1, 0), (0, 0, 1), 2.5e-3, 0.8,
                                  (2, 1, 1.5), (0, 0, -1), 2.5e-3)
        v = np.array([2, 2, 0.5]) - np.array([2, 1, 1.5])
        d = float(np.linalg.norm(v))
        cos_out = float(v[2] / d) * -1.0
        cos_in = float(np.dot(-v / d, [0, 0, 1]))
        hop3 = 0.5 * (2.0 / (2 * math.pi * d * d)) * cos_out * cos_in * 4e-6
        assert g == pytest.approx(hop12 * hop3, rel=1e-12)
        assert delay == pytest.approx(oracle_path_delay(
            [(1, 1, 1), (1, 1, 0), (2, 1, 1.5), (2, 2, 0.5)]), rel=1e-12)

    def test_degenerate_hop_raises(self):
        lum = down_luminaire((1, 1, 0))
        det = detector()
        patch = Element(vec3(1, 1, 0), vec3(0, 0, 1), 2.5e-3, 0.8)
        with pytest.raises(ValueError, match="degenerate"):
            reflected_path_gain(lum, [patch], det, vec3(2, 1, 1))

    def test_path_length_bounds(self):
        lum = down_luminaire((1, 1, 1))
        det = detector()
        with pytest.raises(ValueError):
            reflected_path_gain(lum, [], det, vec3(2, 1, 1))


class TestImpulseResponse:
    def test_total_power_empty_and_single(self):
        empty = ImpulseResponse(50e-12, np.zeros(0))
        assert empty.total_power() == 0.0
        one = ImpulseResponse(50e-12, np.array([1e-6]))
        assert one.total_power() == 1e-6

    def test_total_power_linearity(self):
        rng = np.random.default_rng(3)
        bins = rng.uniform(0, 1e-6, 40)
        ir = ImpulseResponse(50e-12, bins)
        scaled = ImpulseResponse(50e-12, bins * 3.5)
        assert scaled.total_power() == pytest.approx(3.5 * ir.total_power(),
                                                     rel=1e-12)


class TestTraceConfig:
    @pytest.mark.parametrize("field", ["bin_width", "first_edge", "second_edge"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            TraceConfig(**{field: value})

    @pytest.mark.parametrize("order", [True, False, 3, -1])
    def test_order_must_be_0_1_or_2(self, order):
        with pytest.raises(ValueError, match="0, 1 or 2"):
            TraceConfig(max_order=order)


class TestTrace:
    def test_black_room_is_pure_los(self):
        pod = build_pod(PodConfig(luminaire_power_w=1.0, wall_reflectance=0.0,
                                  ceiling_reflectance=0.0, floor_reflectance=0.0))
        cfg = TraceConfig(max_order=2, first_edge=0.5, second_edge=1.0)
        det = detector(fov=70.0)
        ids, mount = pod.assigned_luminaires(pod.mounts[1]), pod.mounts[1]
        ir = detector_ir(compute_field(pod, ids, mount, cfg,
                                       receivers=[probe(det)]), det)
        expect = sum(los_gain(pod.luminaires[i], det, mount)
                     * pod.luminaires[i].power_w for i in ids)
        assert ir.total_power() == pytest.approx(expect, rel=1e-12)

    def test_empty_luminaire_set(self):
        # empty float IRs for every order and every receiver kind
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        mount = pod.mounts[0]
        rxs = [probe(detector())] + [make() for make in MAKERS.values()]
        for max_order in (0, 1, 2):
            field = compute_field(pod, (), mount, TraceConfig(max_order=max_order),
                                  receivers=rxs)
            irs = [ir for rx in rxs for ir in field.receiver_irs(rx)]
            assert len(irs) == 1 + 1 + 3 + 50
            for ir in irs:
                assert ir.bins.size == 0 and ir.bins.dtype == np.float64

    @pytest.mark.parametrize("occlusion", [False, True])
    def test_lit_elements_are_those_with_incident_power(self, occlusion):
        pod = build_pod(PodConfig(luminaire_power_w=1.0,
                                  rack_occluding=occlusion))
        lums = [pod.luminaires[i] for i in pod.assigned_luminaires(pod.mounts[1])]
        boxes = _occluder_boxes(pod)
        grid, incident, lit = _lit_grid(pod, lums, boxes, 0.2)
        power = oracle_incident_power(lums, grid, boxes)[0]
        assert incident[0].tobytes() == power.tobytes()
        assert lit.tolist() == np.flatnonzero(power.any(axis=0)).tolist()
        assert 0 < lit.size < len(grid)

    @pytest.mark.parametrize("occlusion", [False, True])
    def test_final_hop_from_a_subset_of_elements(self, occlusion):
        # each hop from an ascending subset is the reference's row at that
        # element, for subsets whose runs cross panel boundaries, and empty
        pod = build_pod(PodConfig(luminaire_power_w=1.0,
                                  rack_occluding=occlusion))
        grid, boxes = pod.surface_elements(0.4), _occluder_boxes(pod)
        rng = np.random.default_rng(7)
        edges = np.concatenate([grid.starts[1:] - 1, grid.starts[1:]])
        some = np.union1d(np.flatnonzero(rng.random(len(grid)) < 0.3), edges)
        panel = np.searchsorted(grid.starts, some, side="right")
        assert np.unique(panel).size == len(grid.starts) > 2
        for mount in pod.mounts:
            want = oracle_final_hop(grid, mount, boxes)
            for idx in (some, some[:1], np.arange(len(grid)),
                        np.empty(0, np.intp)):
                got = _final_hop(grid, idx, mount, boxes)
                for a, b in zip(got, want):
                    assert a.shape == b[idx].shape
                    assert a.tobytes() == b[idx].tobytes()

    def test_nothing_captured_gives_float_bins(self):
        # a face-down detector sees no LOS arrival; with no second order
        # its point bins alone make the IR
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        det = detector(boresight=(0, 0, -1))
        field = compute_field(pod, pod.assigned_luminaires(pod.mounts[0]),
                              pod.mounts[0], TraceConfig(max_order=0),
                              receivers=[probe(det)])
        ir = detector_ir(field, det)
        assert ir.bins.size == 0 and ir.bins.dtype == np.float64

    def test_single_patch_equals_closed_forms(self):
        scene = unit_patch_scene()
        cfg = TraceConfig(max_order=2, first_edge=0.05, second_edge=0.20)
        det = detector(boresight=(0, 0, -1))
        pos = vec3(2, 1, 1)
        ir = detector_ir(compute_field(scene, (0,), pos, cfg,
                                       receivers=[probe(det)]), det)
        lum = scene.luminaires[0]
        g_los = los_gain(lum, det, pos)           # zero: emitter points down
        grid = scene.surface_elements(0.05)
        patch = Element(grid.centres[0], grid.normals[0], float(grid.areas[0]),
                        float(grid.reflectances[0]))
        g_ref, delay = reflected_path_gain(lum, [patch], det, pos)
        assert g_los == 0.0
        assert ir.total_power() == pytest.approx(g_ref * lum.power_w, rel=1e-12)
        # the single contribution sits in the bin holding its delay
        k = int(delay / cfg.bin_width)
        assert ir.bins[k] == pytest.approx(g_ref * lum.power_w, rel=1e-12)
        assert np.count_nonzero(ir.bins) == 1

    def test_orders0_matches_oracle_on_random_poses(self):
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        cfg = TraceConfig(max_order=0)
        rng = np.random.default_rng(11)
        all_ids = tuple(range(9))
        for _ in range(20):
            pos = vec3(rng.uniform(0.2, 7.8), rng.uniform(0.2, 7.8),
                       rng.uniform(0.3, 2.9))
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            fov = float(rng.uniform(30.0, 90.0))
            det = DetectorSpec(b, fov)
            ir = detector_ir(compute_field(pod, all_ids, pos, cfg,
                                           receivers=[probe(det)]), det)
            want = oracle_los_sum(pod, b, fov, 4e-6, pos)
            assert ir.total_power() == pytest.approx(want, rel=1e-12, abs=1e-30)

    def test_bin_indices_match_delays(self):
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        cfg = TraceConfig(max_order=0)
        det = detector(fov=70.0)
        ids, mount = pod.assigned_luminaires(pod.mounts[1]), pod.mounts[1]
        ir = detector_ir(compute_field(pod, ids, mount, cfg,
                                       receivers=[probe(det)]), det)
        expected_bins = set()
        for i in ids:
            d = float(np.linalg.norm(mount - pod.luminaires[i].position))
            expected_bins.add(int(d / C_LIGHT / cfg.bin_width))
        assert set(np.nonzero(ir.bins)[0]) == expected_bins

    def test_reciprocity_of_single_hop(self):
        # order-1 emitter and cosine detector swap without changing the gain
        rng = np.random.default_rng(5)
        for _ in range(10):
            p1 = vec3(*rng.uniform(0.5, 2.5, 3))
            p2 = vec3(*rng.uniform(0.5, 2.5, 3))
            if np.linalg.norm(p2 - p1) < 0.2:
                continue
            u = (p2 - p1) / np.linalg.norm(p2 - p1)
            # aim both ends broadly at each other so cosines stay positive
            n1 = (u + 0.3 * rng.normal(size=3))
            n1 /= np.linalg.norm(n1)
            n2 = (-u + 0.3 * rng.normal(size=3))
            n2 /= np.linalg.norm(n2)
            if np.dot(u, n1) <= 0.05 or np.dot(-u, n2) <= 0.05:
                continue
            fwd = los_gain(Luminaire.make(p1, 1.0, 60.0),
                           detector(boresight=n2), p2, boresight=n1)
            rev = los_gain(Luminaire.make(p2, 1.0, 60.0),
                           detector(boresight=n1), p1, boresight=n2)
            assert fwd == pytest.approx(rev, rel=1e-12)

    def test_occluding_rack_blocks_los(self):
        base = dict(luminaire_power_w=1.0)
        pod_clear = build_pod(PodConfig(**base))
        pod_solid = build_pod(PodConfig(**base, rack_occluding=True))
        det = detector(fov=90.0)
        pos = vec3(2.9, 4.0, 0.5)  # in the aisle, below the rack tops
        cfg = TraceConfig(max_order=0)
        ir_clear, ir_solid = (
            detector_ir(compute_field(p, (4,), pos, cfg, receivers=[probe(det)]),
                        det)
            for p in (pod_clear, pod_solid))
        assert ir_clear.total_power() > 0.0     # rows not flagged as occluding
        assert ir_solid.total_power() == 0.0    # centre row shadows the aisle

    def test_occlusion_through_second_order(self):
        # occluding racks must only remove power, never add it, and must not
        # self-shadow a mount sitting on its own rack top
        pod_open, pod = (build_pod(PodConfig(luminaire_power_w=1.0,
                                             rack_occluding=occluding))
                         for occluding in (False, True))
        det = detector(fov=70.0)
        cfg = TraceConfig(max_order=2, first_edge=0.4, second_edge=0.8)
        ir_open, ir_occ = (
            detector_ir(compute_field(p, p.assigned_luminaires(p.mounts[1]),
                                      p.mounts[1], cfg, receivers=[probe(det)]),
                        det)
            for p in (pod_open, pod))
        assert 0.0 < ir_occ.total_power() < ir_open.total_power()
        n = min(ir_occ.bins.size, ir_open.bins.size)
        assert np.all(ir_occ.bins[:n] <= ir_open.bins[:n] + 1e-30)
        los = sum(los_gain(pod.luminaires[i], det, pod.mounts[1])
                  for i in pod.assigned_luminaires(pod.mounts[1]))
        assert ir_occ.bins.sum() >= los  # overhead LOS survives

    def test_invalid_pose_rejected(self):
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        with pytest.raises(ValueError, match=r"pose \(4\.0, 4\.0, 0\.1\) must be "
                           "inside the room and above the communication floor"):
            compute_field(pod, (0,), vec3(4, 4, 0.1), TraceConfig(max_order=0),
                          receivers=[])

    def test_invalid_scene_rejected(self):
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        object.__setattr__(pod.panels[0], "reflectance", 1.4)
        with pytest.raises(ValueError, match="reflectance"):
            compute_field(pod, (0,), vec3(4, 4, 2), TraceConfig(max_order=0),
                          receivers=[])

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_rejected(self, monkeypatch, threads):
        # refused before any stage traces, not clamped to one thread
        def traced(*args):
            raise AssertionError("traced with a bad thread count")
        monkeypatch.setattr(raytracer, "_los_arrivals", traced)
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            compute_field(pod, pod.assigned_luminaires(pod.mounts[0]),
                          pod.mounts[0], TraceConfig(), threads=threads,
                          receivers=[make_adr()])


COARSE = dict(max_order=2, first_edge=0.4, second_edge=0.4)


def tilted_panel_scene():
    """Two tilted 0.8 m panels facing each other, one luminaire above them,
    and one mount between them."""
    def panel(centre, normal):
        n = unit(normal)
        u = 0.8 * unit(np.cross(n, (1.0, 0.0, 0.0)))
        v = 0.8 * unit(np.cross(n, u))
        return SurfacePanel(vec3(*centre) - 0.5 * (u + v), u, v, n, 0.8, "wall")

    return Scene(room=(3.0, 3.0, 3.0),
                 panels=[panel((1.5, 2.0, 1.0), (-0.1, -0.5, 0.8)),
                         panel((1.5, 1.0, 1.0), (0.2, 0.5, 0.8))],
                 luminaires=[down_luminaire((1.5, 1.5, 2.9))],
                 rows=[], mounts=[vec3(1.4, 1.6, 1.8)])


def panel_room(edge, rho, tilt, lum, mount):
    """A 4 x 3 x 2.4 m box room whose floor is two panels of one normal
    (1.1 m and 2.9 m long, so their elements differ in area at any edge),
    with reflectances `rho`, plus a tilted panel whose normal has three
    non-zero terms, (tilt, 0.8) normalised, and one with exactly two,
    (0, 0.6, 0.8).  One luminaire at `lum` in the ceiling, one mount."""
    lx, ly, h = 4.0, 3.0, 2.4

    def tilted(centre, normal):
        n = unit(normal)
        u = 0.8 * unit(np.cross(n, (1.0, 0.0, 0.0)))
        v = 0.8 * unit(np.cross(n, u))
        return SurfacePanel(vec3(*centre) - 0.5 * (u + v), u, v, n, 0.6, "wall")

    panels = [
        SurfacePanel(vec3(0, 0, h), vec3(lx, 0, 0), vec3(0, ly, 0),
                     vec3(0, 0, -1), 0.8, "ceiling"),
        SurfacePanel(vec3(0, 0, 0), vec3(1.1, 0, 0), vec3(0, ly, 0),
                     vec3(0, 0, 1), rho[0], "floor"),
        SurfacePanel(vec3(1.1, 0, 0), vec3(2.9, 0, 0), vec3(0, ly, 0),
                     vec3(0, 0, 1), rho[1], "floor"),
        SurfacePanel(vec3(0, 0, 0), vec3(0, ly, 0), vec3(0, 0, h),
                     vec3(1, 0, 0), 0.7, "wall"),
        SurfacePanel(vec3(lx, 0, 0), vec3(0, ly, 0), vec3(0, 0, h),
                     vec3(-1, 0, 0), 0.7, "wall"),
        tilted((2.0, 2.2, 0.8), (*tilt, 0.8)),
        tilted((2.0, 0.8, 0.8), (0.0, 0.6, 0.8)),
        SurfacePanel(vec3(0, 0, 0), vec3(lx, 0, 0), vec3(0, 0, h),
                     vec3(0, 1, 0), 0.7, "wall"),
        SurfacePanel(vec3(0, ly, 0), vec3(lx, 0, 0), vec3(0, 0, h),
                     vec3(0, -1, 0), 0.7, "wall"),
    ]
    return Scene(room=(lx, ly, h), panels=panels,
                 luminaires=[down_luminaire((*lum, h))], rows=[],
                 mounts=[vec3(*mount)])


def sub_metre_scene():
    """A 0.1 x 0.1 x 0.25 m room (diagonal 0.29 m) with a floor, one wall,
    one luminaire and one mount."""
    floor = SurfacePanel(vec3(0, 0, 0), vec3(0.1, 0, 0), vec3(0, 0.1, 0),
                         vec3(0, 0, 1), 0.8, "floor")
    wall = SurfacePanel(vec3(0, 0, 0), vec3(0, 0.1, 0), vec3(0, 0, 0.25),
                        vec3(1, 0, 0), 0.8, "wall")
    return Scene(room=(0.1, 0.1, 0.25), panels=[floor, wall],
                 luminaires=[down_luminaire((0.05, 0.05, 0.25))],
                 rows=[], mounts=[vec3(0.08, 0.05, 0.25)])


@pytest.fixture
def windows(monkeypatch):
    """The (lo, width, span, nbins) delay window of every chunk binned onto
    a mount's columns of a column block, in call order."""
    seen = []
    window = raytracer._delay_window

    def spy(bins, nbins):
        got = window(bins, nbins)
        seen.append((*got, nbins))
        return got

    monkeypatch.setattr(raytracer, "_delay_window", spy)
    return seen


def run_stressed(trace):
    """(result, errors) of `trace()` run in a thread with a 1 us switch
    interval; fails if it does not finish in time."""
    out, errors = [None], []

    def run():
        try:
            out[0] = trace()
        except Exception as exc:          # returned to the caller
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive(), "threaded trace did not finish in time"
    return out[0], errors


def lit_chunk_count(pod, ids, chunk):
    """Chunks of `chunk` rows of the 0.4 m grid that a luminaire of `ids`
    lights, nothing occluding."""
    lit = _lit_grid(pod, [pod.luminaires[i] for i in ids], [], 0.4)[2]
    return np.unique(lit // chunk).size


class RecordingExecutor(ThreadPoolExecutor):
    """Thread pool that records its futures (the tracer's helper runners)
    and which of them had their result read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.futures = []
        self.read = set()
        RecordingExecutor.last = self

    def submit(self, fn, *args, **kwargs):
        fut = super().submit(fn, *args, **kwargs)
        result = fut.result

        def read_result(timeout=None):
            self.read.add(id(fut))
            return result(timeout)

        fut.result = read_result
        self.futures.append(fut)
        return fut


class TestSecondOrderKernel:
    """The second-order kernel over every column of the grid, against the
    reference loop's histogram of every element (`kernel_hist`)."""

    @pytest.mark.parametrize("occlusion", [False, True])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_histogram_matches_reference_loop(self, occlusion, threads):
        """The kernel's histogram is bit-equal to the reference loop's.

        The reference takes its dot products with `einsum` over full (N, 3)
        normals.  The kernel takes each cosine from only the non-zero terms
        of a panel's normal, as Python scalars, and clamps it at 0; on the
        pod's axis-aligned panels that is one product per cosine."""
        pod = build_pod(PodConfig(luminaire_power_w=1.0,
                                  rack_occluding=occlusion))
        cfg = TraceConfig(**COARSE)
        ids = pod.assigned_luminaires(pod.mounts[1])
        # the grid must hold a chunk with no lit row and one with some
        grid, _, lit = _lit_grid(pod, [pod.luminaires[i] for i in ids],
                                 _occluder_boxes(pod), cfg.second_edge)
        per_chunk = np.bincount(lit // raytracer._CHUNK,
                                minlength=-(-len(grid) // raytracer._CHUNK))
        assert (per_chunk == 0).any()
        assert ((0 < per_chunk) & (per_chunk < raytracer._CHUNK)).any()

        kept, totals, _ = kernel_hist(pod, ids, pod.mounts[1], cfg, threads)
        hist, second_w = oracle_second_order_hist(pod, ids, pod.mounts[1], cfg)
        assert kept.toarray().tobytes() == hist.tobytes()
        assert totals["second_bounce_coarse_w"] == second_w
        assert totals["second_rows_traced"] == lit.size
        assert totals["second_pairs_evaluated"] == lit.size * len(grid)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_tilted_panels_pin_summation_order(self, threads):
        """Bit-equal to the reference loop where every dot product has three
        non-zero terms.

        Every pod panel is axis-aligned, so the kernel's cosines there have
        one term and no order of summation to pin.  Two tilted panels facing
        each other make all three terms non-zero; the kernel adds them as
        (x + z) + y, the order `einsum` uses for a length-3 contraction."""
        scene = tilted_panel_scene()
        mount = scene.mounts[0]
        cfg = TraceConfig(first_edge=0.1, second_edge=0.1)
        kept, totals, _ = kernel_hist(scene, (0,), mount, cfg, threads)
        hist, second_w = oracle_second_order_hist(scene, (0,), mount, cfg)
        assert kept.shape[0] == 128
        assert np.count_nonzero(hist) > 1000
        assert kept.toarray().tobytes() == hist.tobytes()
        assert totals["second_bounce_coarse_w"] == second_w

    @settings(max_examples=10, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    @given(edge=st.floats(0.2, 0.4),
           rho=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).filter(
               lambda r: r[0] != r[1]),
           tilt=st.tuples(st.floats(-0.5, -0.1), st.floats(-0.6, -0.2)),
           lum=st.tuples(st.floats(0.5, 3.5), st.floats(0.5, 2.5)),
           mount=st.tuples(st.floats(0.3, 3.7), st.floats(0.3, 2.7),
                           st.floats(0.5, 2.2)))
    @example(edge=0.2, rho=(0.3, 0.7), tilt=(-0.3, -0.5), lum=(2.0, 1.5),
             mount=(1.0, 1.2, 1.5))
    def test_panel_runs_across_chunks_and_blocks(self, edge, rho, tilt, lum,
                                                 mount):
        """Bit-equal to the reference loop where chunks and column blocks
        hold runs of several panels: a box room, two adjacent floor panels
        with one normal and different reflectances and element areas, and
        tilted panels with three and with exactly two non-zero terms."""
        scene = panel_room(edge, rho, tilt, lum, mount)
        cfg = TraceConfig(first_edge=0.4, second_edge=edge)
        grid = scene.surface_elements(edge)
        # a point exactly above a floor element's centre, in the ceiling
        # plane: zero x and y differences there, zero z ones on the ceiling
        above = grid.centres[grid.starts[2]] * (1.0, 1.0, 0.0) + (0.0, 0.0, 2.4)
        lums = scene.luminaires + [down_luminaire(above)]
        _, incident, lit = _lit_grid(scene, lums, [], edge)
        assert (incident[0].tobytes()
                == oracle_incident_power(lums, grid, [])[0].tobytes())
        every = np.arange(len(grid))
        for point in (scene.mounts[0], above, above - (0.0, 0.0, 1.0)):
            for a, b in zip(_final_hop(grid, every, point, []),
                            oracle_final_hop(grid, point, [])):
                assert a.tobytes() == b.tobytes()
        # past the first, some column block (every column is traced) and
        # the lit rows of some chunk span two panels or more
        n, w = raytracer._CHUNK, raytracer._BLOCK
        assert len(grid) > n > w
        panel = np.searchsorted(grid.starts, np.arange(len(grid)), side="right")
        assert any(np.unique(panel[s:s + w]).size > 1
                   for s in range(w, len(grid), w))
        assert any(np.unique(panel[s:s + n]).size > 1
                   and np.unique(panel[lit[lit // n == s // n]]).size > 1
                   for s in range(n, len(grid), n))
        # the two floor panels share a normal, not a reflectance or an area
        a, b = grid.starts[1:3]
        assert grid.normals[a].tolist() == grid.normals[b].tolist()
        assert grid.areas[a] != grid.areas[b]
        hist, second_w = oracle_second_order_hist(scene, (0,), scene.mounts[0],
                                                  cfg)
        assert np.count_nonzero(hist) > 1000
        for threads in (1, 3):
            kept, totals, _ = kernel_hist(scene, (0,), scene.mounts[0], cfg, threads)
            assert kept.toarray().tobytes() == hist.tobytes()
            assert totals["second_bounce_coarse_w"] == second_w

    def test_coincident_elements_of_two_panels(self):
        """Two overlapping vertical panels 0.1 um apart face each other, so
        each element of the lit one and the element of the other that the
        mount sees make a coincident pair (d2 <= 1e-12) whose cosines are
        both positive: only the coincident-pair mask gives it zero weight,
        as the reference loop does."""
        lit = SurfacePanel(vec3(0.5, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1),
                           vec3(1, 0, 0), 0.8, "wall")
        seen = SurfacePanel(vec3(0.5 + 1e-7, 0, 0), vec3(0, 1, 0),
                            vec3(0, 0, 1), vec3(-1, 0, 0), 0.8, "wall")
        floor = SurfacePanel(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0),
                             vec3(0, 0, 1), 0.8, "floor")
        scene = Scene(room=(1.0, 1.0, 1.0), panels=[lit, seen, floor],
                      luminaires=[down_luminaire((0.8, 0.5, 1.0))], rows=[],
                      mounts=[vec3(0.2, 0.5, 0.5)])
        cfg = TraceConfig(first_edge=0.1, second_edge=0.1)
        grid = scene.surface_elements(cfg.second_edge)
        gap = grid.centres[100:200] - grid.centres[:100]
        assert np.all((gap * gap).sum(axis=1) <= 1e-12) and np.all(gap[:, 0] > 0)
        kept, totals, _ = kernel_hist(scene, (0,), scene.mounts[0], cfg)
        hist, second_w = oracle_second_order_hist(scene, (0,), scene.mounts[0],
                                                  cfg)
        assert np.count_nonzero(hist[100:200]) > 100
        assert kept.toarray().tobytes() == hist.tobytes()
        assert totals["second_bounce_coarse_w"] == second_w

    def test_room_smaller_than_a_metre(self, windows):
        # coincident e1 == e2 pairs get a 1 m stand-in distance and zero
        # weight; in a room with a diagonal under 1 m their bin lies past
        # the histogram and must be dropped, not break the reduction
        scene = sub_metre_scene()
        cfg = TraceConfig(first_edge=0.05, second_edge=0.05)
        kept, totals, _ = kernel_hist(scene, (0,), scene.mounts[0], cfg)
        hist, second_w = oracle_second_order_hist(scene, (0,), scene.mounts[0],
                                                  cfg)
        assert kept.toarray().tobytes() == hist.tobytes()
        assert totals["second_bounce_coarse_w"] == second_w > 0.0
        # the chunk's window is clipped at the end, the rest dropped
        (lo, width, span, nbins), = windows
        assert 0 < lo < lo + span == nbins < lo + width

    @pytest.mark.parametrize("scene, reach, window", [
        # from bin 0, ending before the last bin
        (tilted_panel_scene, 3.0, (0, 2, 2, 7)),
        # a single bin, past bin 0
        (tilted_panel_scene, 2.7, (1, 1, 1, 7)),
        # from bin 0 to the last bin: the coincident pairs' stand-in 1 m
        # puts them in it, every other pair in bin 0
        (sub_metre_scene, 0.9, (0, 2, 2, 2)),
    ], ids=["from-bin-0", "one-bin", "to-last-bin"])
    def test_window_edges(self, monkeypatch, windows, scene, reach, window):
        """A chunk is binned onto each column block over the delay window
        that block's own bins span; `reach` is the bin width in metres of
        light travel.  Narrower blocks split the window, not the bits."""
        scene = scene()
        mount = scene.mounts[0]
        cfg = TraceConfig(first_edge=0.1, second_edge=0.1,
                          bin_width=reach / C_LIGHT)
        # one block holds every column, then blocks of 64 split them
        monkeypatch.setattr(raytracer, "_BLOCK", 128)
        kept, totals, _ = kernel_hist(scene, (0,), mount, cfg)
        hist, second_w = oracle_second_order_hist(scene, (0,), mount, cfg)
        ne = len(scene.surface_elements(cfg.second_edge))
        assert ne <= raytracer._BLOCK
        assert windows == [window]
        assert hist.any()
        assert kept.toarray().tobytes() == hist.tobytes()
        assert totals["second_bounce_coarse_w"] == second_w
        windows.clear()
        monkeypatch.setattr(raytracer, "_BLOCK", 64)
        split, split_totals, _ = kernel_hist(scene, (0,), mount, cfg)
        lo, _, span, nbins = window
        assert len(windows) == -(-ne // 64)
        assert min(w[0] for w in windows) == lo
        assert max(w[0] + w[2] for w in windows) == lo + span
        assert {w[3] for w in windows} == {nbins}
        assert split.toarray().tobytes() == hist.tobytes()
        assert split_totals == totals

    def test_chunk_wholly_past_the_end(self, windows):
        # one floor element: its only pair is coincident, and the stand-in
        # 1 m puts that zero-weight pair past the end of a sub-metre room's
        # histogram, so the chunk's window is empty
        patch = SurfacePanel(vec3(0.025, 0.025, 0), vec3(0.05, 0, 0),
                             vec3(0, 0.05, 0), vec3(0, 0, 1), 0.8, "floor")
        scene = dataclasses.replace(sub_metre_scene(), panels=[patch])
        cfg = TraceConfig(first_edge=0.05, second_edge=0.05)
        kept, totals, _ = kernel_hist(scene, (0,), scene.mounts[0], cfg)
        hist, second_w = oracle_second_order_hist(scene, (0,), scene.mounts[0],
                                                  cfg)
        (lo, width, span, nbins), = windows
        assert lo >= nbins and width == 1 and span == 0
        assert totals["second_pairs_evaluated"] == 1
        assert kept.shape == (1, nbins)
        # no piece is kept: the row is pool piece 0's zeros
        assert kept.used == 0
        assert_kept_pieces(kept, hist, scene, (0,), scene.mounts[0], cfg)
        assert totals["second_bounce_coarse_w"] == second_w == 0.0

    @pytest.mark.parametrize("extra", [0, 1, 88],
                             ids=["whole-runs", "folded-run", "short-run"])
    def test_kept_runs_at_the_run_edges(self, extra):
        """A histogram of `2 * _GEMV_BINS + extra` bins has gemv runs of
        `_GEMV_BINS` bins, the last one `_GEMV_BINS + 1` wide when `extra`
        is 1 and `extra` wide when it is more, neither a multiple of
        `_PIECE`; it keeps the `_PIECE`-bin pieces of those runs that hold
        a non-zero value, at any thread count.  The racks occlude: the rows
        of the elements they hide from the mount keep no piece.  On the
        0.4 m grid the dense histogram crosses OpenBLAS's gemv threading
        threshold; the oracle's 256-bin blocks stay under it, so its bits
        do not depend on the host's BLAS threads."""
        pod = coarse_pod(True)
        mount = pod.mounts[1]
        ids = pod.assigned_luminaires(mount)
        nbins = 2 * _GEMV_BINS + extra
        reach = 3 * math.sqrt(sum(x * x for x in pod.room))
        # `_bin_count` gives int(reach / c / bin_width) + 2 bins
        cfg = TraceConfig(first_edge=0.4, second_edge=0.4,
                          bin_width=reach / C_LIGHT / (nbins - 1.5))
        hist, _ = oracle_second_order_hist(pod, ids, mount, cfg)
        assert hist.shape[1] == nbins
        widths = [b.stop - b.start for b in block_slices(nbins, _GEMV_BINS)]
        assert widths == {0: [256, 256], 1: [256, 257],
                          88: [256, 256, 88]}[extra]
        assert (widths[-1] % _PIECE != 0) == (extra != 0)
        assert not hist.any(axis=1).all()
        assert hist.shape[0] * max(widths) < 460_800 <= hist.size
        for threads in (1, 4):
            kept, _, _ = kernel_hist(pod, ids, mount, cfg, threads)
            assert kept.pool.shape[1] == _PIECE
            assert_kept_pieces(kept, hist, pod, ids, mount, cfg, threads)

    @pytest.mark.parametrize("occlusion", [False, True],
                             ids=["racks-clear", "racks-occluding"])
    def test_bits_do_not_depend_on_the_partition(self, monkeypatch, occlusion):
        """The same histograms and totals for any column-block width, unit
        order and thread count, and those of the reference loop: each
        histogram row has one writer, and every cell and column sum gets
        its terms in one order.  A width of `ne - 1` leaves a last block of
        a single column; a group of three positions covers blocks that
        hold only some of a position's columns."""
        pod, cfg = coarse_pod(occlusion), TraceConfig(**COARSE)
        mount = pod.mounts[1]
        ids = pod.assigned_luminaires(mount)
        hist, second_w = oracle_second_order_hist(pod, ids, mount, cfg)
        ne = len(pod.surface_elements(cfg.second_edge))
        blocks = raytracer._column_blocks
        runs, kernel_totals = [], []
        for width, reverse, threads in itertools.product(
                (8, 64, raytracer._BLOCK, ne - 1), (False, True), (1, 4)):
            with monkeypatch.context() as m:
                m.setattr(raytracer, "_BLOCK", width)
                if reverse:
                    m.setattr(raytracer, "_column_blocks",
                              lambda nu: blocks(nu)[::-1])
                kept, totals, _ = kernel_hist(pod, ids, mount, cfg, threads)
                group = traced_fields([0, 6, 12], threads, occlusion)
            assert kept.toarray().tobytes() == hist.tobytes()
            assert totals["second_bounce_coarse_w"] == second_w
            kernel_totals.append(totals)
            runs.append(group)
        assert all(t == kernel_totals[0] for t in kernel_totals)
        for run in runs[1:]:
            for a, b in zip(run, runs[0]):
                assert_same_field(a, b)

    def test_counts_are_zeroed_and_grow_to_the_largest_request(self,
                                                                monkeypatch):
        """A runner keeps each work array by name: a request no larger than
        the largest so far shares its memory, a larger one grows it to at
        least twice.  Every array is written before it is read, the counts
        zeroed for each block: with every request handed out with all its
        bytes set (NaN, -1, True), the fields are still the reference's."""
        s = raytracer._Scratch()
        first = s.get("counts", (6,))
        assert np.shares_memory(first, s.get("counts", (2, 3)))
        grown = s.get("counts", (9,))
        assert not np.shares_memory(first, grown)
        assert np.shares_memory(grown, s.get("counts", (3, 4)))
        assert not np.shares_memory(grown, s.get("counts", (13,)))
        assert s.get("flat", (2, 2), np.int64).dtype == np.int64
        get = raytracer._Scratch.get

        def poisoned(self, *args):
            out = get(self, *args)
            out.view(np.uint8).fill(0xFF)
            return out

        monkeypatch.setattr(raytracer._Scratch, "get", poisoned)
        pod, cfg = coarse_pod(False), TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[1]), pod.mounts[1]
        kept, totals, _ = kernel_hist(pod, ids, mount, cfg, threads=2)
        hist, second_w = oracle_second_order_hist(pod, ids, mount, cfg)
        assert kept.toarray().tobytes() == hist.tobytes()
        assert totals["second_bounce_coarse_w"] == second_w
        kinds = tuple(sorted(MAKERS))
        for k, grouped in zip((0, 6, 12), traced_fields([0, 6, 12], 2)):
            assert_same_field(grouped, lone_field(False, SWEEP_YS[k], kinds))

    def test_column_blocks_hold_at_most_block_rows(self, monkeypatch):
        # a block is a run of columns whose histogram rows (one per mount
        # that traces the column) add up to `_BLOCK` at most; a column of
        # more rows is a block of its own
        monkeypatch.setattr(raytracer, "_BLOCK", 7)
        blocks = raytracer._column_blocks(np.array([1, 4, 2, 3, 3, 1, 1, 1, 4,
                                                    4, 2]))
        assert [(b.start, b.stop) for b in blocks] == [(0, 3), (3, 6), (6, 9),
                                                       (9, 11)]
        monkeypatch.setattr(raytracer, "_BLOCK", 2)
        blocks = raytracer._column_blocks(np.array([3, 1, 1, 3]))
        assert [(b.start, b.stop) for b in blocks] == [(0, 1), (1, 3), (3, 4)]
        assert raytracer._column_blocks(np.zeros(0, dtype=int)) == []

    @pytest.mark.parametrize("cols", [1, 2, 3, 9])
    def test_column_sums_add_in_row_order(self, cols):
        # numpy sums a single column pairwise, several row by row; either
        # way each column's sum must be its rows added in order
        rng = np.random.default_rng(cols)
        a = rng.random((3, 200, cols)) * rng.random((1, 200, 1)) ** 8
        want = np.zeros((3, cols))
        for row in a.transpose(1, 0, 2):
            want += row
        assert raytracer._column_sums(a).tobytes() == want.tobytes()

    def test_unlit_ceiling_rows_are_not_traced(self):
        # the luminaires sit in the ceiling plane (cos = 0 to every ceiling
        # element); everything else is lit when nothing occludes
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        field = compute_field(pod, pod.assigned_luminaires(pod.mounts[0]),
                              pod.mounts[0], TraceConfig(**COARSE),
                              receivers=[make_wfov()])
        grid = pod.surface_elements(0.4)
        ceiling = int(np.sum(grid.normals[:, 2] == -1.0))
        assert ceiling > 0
        assert field.totals["second_rows_traced"] == len(grid) - ceiling

    def test_thread_stress_matches_one_thread(self, monkeypatch):
        # more threads than cores, a short switch interval and many small
        # chunks and column blocks taken by four runners must still give
        # the bits of one thread, and every helper must be done and read
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        cfg = TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[2]), pod.mounts[2]
        monkeypatch.setattr(raytracer, "_CHUNK", 32)
        monkeypatch.setattr(raytracer, "_BLOCK", 48)
        monkeypatch.setattr(raytracer, "ThreadPoolExecutor", RecordingExecutor)
        serial, serial_totals, _ = kernel_hist(pod, ids, mount, cfg, threads=1)
        got, errors = run_stressed(
            lambda: kernel_hist(pod, ids, mount, cfg, threads=4))
        assert not errors, errors
        kept, totals, _ = got
        assert kept.toarray().tobytes() == serial.toarray().tobytes()
        assert totals == serial_totals
        ex = RecordingExecutor.last
        assert lit_chunk_count(pod, ids, 32) > 2 * 4
        blocks = -(-len(pod.surface_elements(0.4)) // 48)
        assert blocks > 2 * 4
        assert len(ex.futures) == 4 - 1
        assert all(f.done() for f in ex.futures)
        assert ex.read == {id(f) for f in ex.futures}

    def test_one_thread_starts_no_thread(self, monkeypatch):
        # one thread traces every chunk in the calling thread and submits
        # no helper; two threads submit exactly one
        tracers = []
        pairs = raytracer._pair_geometry

        def record_thread(*args):
            tracers.append(threading.get_ident())
            return pairs(*args)

        monkeypatch.setattr(raytracer, "_pair_geometry", record_thread)
        monkeypatch.setattr(raytracer, "ThreadPoolExecutor", RecordingExecutor)
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        cfg = TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[1]), pod.mounts[1]
        kept, totals, _ = kernel_hist(pod, ids, mount, cfg, threads=1)
        assert RecordingExecutor.last.futures == []
        assert tracers and set(tracers) == {threading.get_ident()}
        hist, second_w = oracle_second_order_hist(pod, ids, mount, cfg)
        assert kept.toarray().tobytes() == hist.tobytes()
        assert totals["second_bounce_coarse_w"] == second_w
        kernel_hist(pod, ids, mount, cfg, threads=2)
        assert len(RecordingExecutor.last.futures) == 1

    def test_helpers_are_capped_at_the_column_blocks(self, monkeypatch):
        # a thread count far above the column blocks starts one runner per
        # block, the caller among them, and gives the bits of one thread
        monkeypatch.setattr(raytracer, "ThreadPoolExecutor", RecordingExecutor)
        pod = coarse_pod(False)
        cfg = TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[0]), pod.mounts[0]
        serial, serial_totals, _ = kernel_hist(pod, ids, mount, cfg, threads=1)
        kept, totals, _ = kernel_hist(pod, ids, mount, cfg, threads=64)
        blocks = -(-len(pod.surface_elements(0.4)) // raytracer._BLOCK)
        assert 1 < blocks < 64
        assert len(RecordingExecutor.last.futures) == blocks - 1
        assert kept.toarray().tobytes() == serial.toarray().tobytes()
        assert totals == serial_totals

    def test_no_traced_column_runs_no_chunk(self, monkeypatch):
        # `receivers=[]` captures no element: no column, no chunk and no
        # helper, and the same field at any thread count
        monkeypatch.setattr(raytracer, "ThreadPoolExecutor", RecordingExecutor)
        pod = coarse_pod(False)
        cfg = TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[0]), pod.mounts[0]
        fields = [compute_field(pod, ids, mount, cfg, threads=n, receivers=[])
                  for n in (1, 4)]
        assert RecordingExecutor.last.futures == []
        assert fields[0].totals["second_cols_traced"] == 0
        assert fields[0].totals["second_pairs_evaluated"] == 0
        assert_same_field(fields[1], fields[0])


MAKERS = {"wfov": make_wfov, "adr": make_adr, "imaging": make_imaging}


@functools.cache
def coarse_pod(occlusion):
    """One pod per occlusion setting, so its element grids are built once."""
    return build_pod(PodConfig(luminaire_power_w=1.0, rack_occluding=occlusion))


class TestReceiverCulledTrace:
    # each example traces two fields; a failing one is reported as drawn
    # (five small arguments), since shrinking would trace hundreds more
    @settings(max_examples=12, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    @given(row=st.integers(0, 2), frac=st.floats(0.0, 1.0),
           kinds=st.sets(st.sampled_from(sorted(MAKERS)), min_size=1),
           threads=st.sampled_from([1, 2]), occlusion=st.booleans())
    def test_culled_irs_equal_dense_irs(self, row, frac, kinds, threads,
                                        occlusion):
        # the culled histogram's rows are the full kernel's at the traced
        # elements, and the IRs the dense reference's over them
        pod = coarse_pod(occlusion)
        r = pod.rows[row]
        mount = vec3(r.centre_x, r.y_span[0] + frac * (r.y_span[1] - r.y_span[0]),
                     r.top_height)
        ids = pod.assigned_luminaires(mount)
        cfg = TraceConfig(**COARSE)
        rxs = [MAKERS[k]() for k in sorted(kinds)]
        with pytest.MonkeyPatch.context() as m:
            hists = record_hists(m)
            culled = compute_field(pod, ids, mount, cfg, threads=threads,
                                   receivers=rxs)
        (hist, mask, _), = hists
        full, _, _ = kernel_hist(pod, ids, mount, cfg)
        assert hist.tobytes() == full.toarray()[mask].tobytes()
        TestReceiverIrs.assert_equal_to_dense(
            culled, rxs, oracle_field(pod, ids, mount, cfg))

    def test_run_report_counts_traced_work(self, monkeypatch):
        pod = coarse_pod(False)
        cfg = TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[1]), pod.mounts[1]
        rxs = [make_wfov(), make_adr()]
        hists = record_hists(monkeypatch)
        culled = compute_field(pod, ids, mount, cfg, receivers=rxs)
        (hist, mask, _), = hists
        full, ft, _ = kernel_hist(pod, ids, mount, cfg)
        t = culled.totals
        ne = len(pod.surface_elements(cfg.second_edge))
        assert 0 < t["second_cols_traced"] == int(mask.sum()) < ne
        assert (t["second_pairs_evaluated"]
                == t["second_rows_traced"] * t["second_cols_traced"])
        assert ft["second_cols_traced"] == ne and mask.dtype == bool
        # the full coarse figure is never replaced by a partial one
        assert "second_bounce_coarse_w" not in t
        assert 0.0 < t["second_bounce_traced_w"] < ft["second_bounce_coarse_w"]
        assert ft["second_bounce_traced_w"] == ft["second_bounce_coarse_w"]
        # one row per traced column, equal to that column's row in the full kernel
        assert hist.shape == (t["second_cols_traced"], culled.nbins)
        assert hist.tobytes() == full.toarray()[mask].tobytes()
        ext = _group_extent(pod, ids, [mount], cfg, rxs)
        assert ext["rows"] == t["second_rows_traced"]
        assert ext["cols"] == t["second_cols_traced"]
        assert ext["pairs"] == t["second_pairs_evaluated"]
        # the dense histogram's bytes: a bound on what the field keeps
        assert ext["hist_bytes"] == hist.nbytes

    @pytest.mark.parametrize("mi", [0, 1, 2])
    def test_reference_mount_holds_only_traced_rows(self, mi):
        # the simulate-all trace: no (elements x nbins) array is allocated
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        mount, cfg = pod.mounts[mi], TraceConfig()
        ids, rxs = pod.assigned_luminaires(mount), TestReceiverIrs.receivers
        tracemalloc.start()
        try:
            field = compute_field(pod, ids, mount, cfg, receivers=rxs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ne = len(pod.surface_elements(cfg.second_edge))
        cols = field.totals["second_cols_traced"]
        assert 0 < cols < ne
        assert [bins.shape for _, bins in field.b2_bins] == [
            (rx.branch_count, field.nbins) for rx in rxs]
        assert (_group_extent(pod, ids, [mount], cfg, rxs)["hist_bytes"]
                == 8 * cols * field.nbins)
        assert peak < ne * field.nbins * 8

    def test_no_receivers_traces_no_pairs(self):
        # and bins no point arrival, though it counts every one
        pod = coarse_pod(False)
        cfg = TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[0]), pod.mounts[0]
        field = compute_field(pod, ids, mount, cfg, receivers=[])
        assert field.totals["second_pairs_evaluated"] == 0
        assert field.totals["second_bounce_traced_w"] == 0.0
        assert field.b2_bins == () and field.point_bins == ()
        flux, *_ = oracle_points(pod, ids, mount, cfg)
        assert field.totals["point_arrivals"] == flux.size > 3
        with pytest.raises(ValueError, match="did not trace"):
            field.receiver_irs(make_wfov())

    # every order, with racks occluding and clear; threads split only the
    # second order.  A 50 ns bin holds every LOS and first-order path of the
    # pod, so a branch's bin 0 then rests on the order of all its terms
    @pytest.mark.parametrize("max_order", [0, 1, 2])
    @pytest.mark.parametrize("occlusion", [False, True],
                             ids=["racks-clear", "racks-occluding"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("bin_width", [50e-12, 50e-9], ids=["50ps", "50ns"])
    def test_traced_irs_equal_dense_irs(self, max_order, occlusion,
                                        threads, bin_width):
        """A field bins its point arrivals as they are traced and keeps no
        point array; its IRs are the bits, and its arrival count the count,
        of the dense reference over every point arrival written out, and it
        refuses any other receiver, at order 0 too."""
        pod = coarse_pod(occlusion)
        cfg = TraceConfig(**{**COARSE, "max_order": max_order,
                             "bin_width": bin_width})
        rxs = TestReceiverIrs.receivers
        for mount in pod.mounts:
            ids = pod.assigned_luminaires(mount)
            with pytest.MonkeyPatch.context() as m:
                hists = record_hists(m)
                traced = compute_field(pod, ids, mount, cfg, threads=threads,
                                       receivers=rxs)
            assert len(hists) == (max_order == 2)
            want = oracle_field(pod, ids, mount, cfg)
            assert [rx for rx, _ in traced.point_bins] == rxs
            assert traced.totals["point_arrivals"] == want.points[0].size
            TestReceiverIrs.assert_equal_to_dense(traced, rxs, want)
            assert detector_ir(want, detector()).total_power() > 0.0
            with pytest.raises(ValueError, match="did not trace"):
                detector_ir(traced, detector())

    def test_untraced_capture_is_refused(self):
        pod = coarse_pod(False)
        cfg = TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[0]), pod.mounts[0]
        adr = make_adr()
        field = compute_field(pod, ids, mount, cfg, receivers=[adr])
        want = [ir.bins.tobytes() for ir in field.receiver_irs(adr)]
        assert field.receiver_irs(adr)[0].total_power() > 0.0
        # a receiver equal to the traced one by value is served its bits:
        # one built afresh, and one with copied boresights and FOVs
        copied = ReceiverSpec("adr", tuple(
            DetectorSpec(np.array(b.boresight), float(b.fov_deg))
            for b in adr.branches))
        for rx in (make_adr(), copied):
            assert [ir.bins.tobytes() for ir in field.receiver_irs(rx)] == want
        # any other is refused, even one that captures only traced elements
        def changed(j, **kw):
            branches = list(adr.branches)
            branches[j] = dataclasses.replace(branches[j], **kw)
            return ReceiverSpec("adr", tuple(branches))
        others = [make_wfov(), ReceiverSpec("detector", adr.branches),
                  ReceiverSpec("adr", adr.branches[:2]),
                  changed(1, fov_deg=19.0),
                  changed(2, boresight=adr.branches[1].boresight)]
        for rx in others:
            with pytest.raises(ValueError, match="did not trace"):
                field.receiver_irs(rx)
        with pytest.raises(ValueError, match="did not trace"):
            detector_ir(field, detector())

    def test_receivers_are_taken_once_and_checked_first(self, monkeypatch):
        # a generator of receivers traces what a list of them does; a
        # missing receiver list, or one holding anything but receivers, is
        # refused before any grid is built, and `receivers` is required
        pod, cfg = coarse_pod(False), TraceConfig(**COARSE)
        ids, mount = pod.assigned_luminaires(pod.mounts[1]), pod.mounts[1]
        rxs = [make_adr(), make_wfov()]
        want = compute_field(pod, ids, mount, cfg, receivers=rxs)
        assert want.totals["second_cols_traced"] > 0
        assert_same_field(compute_field(pod, ids, mount, cfg,
                                        receivers=(rx for rx in rxs)), want)
        field, = trace_fields(pod, [mount], cfg, receivers=iter(rxs))
        assert_same_field(field, want)
        monkeypatch.setattr(raytracer, "_lit_grid", lambda *args: pytest.fail(
            "built a grid for refused receivers"))
        for bad in [None, make_adr, [make_adr], make_adr(), [make_adr(), "wfov"]]:
            with pytest.raises(ValueError, match="receivers must be"):
                compute_field(pod, ids, mount, cfg, receivers=bad)
            with pytest.raises(ValueError, match="receivers must be"):
                trace_fields(pod, [mount], cfg, receivers=bad)
        with pytest.raises(TypeError, match="receivers"):
            compute_field(pod, ids, mount, cfg)
        with pytest.raises(TypeError, match="receivers"):
            trace_fields(pod, [mount], cfg)


# the reference sweep's 13 positions, on the centre row under one set
SWEEP_YS = tuple(1.0 + 0.5 * k for k in range(13))
# the x of the centre row and of one side row, each under its own set
ROW_XS = (4.0, 1.8)


def memory_owner(a: np.ndarray):
    """The object at the end of `a`'s chain of bases: what holds its memory."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a


def assert_kept_pieces(kept, hist, scene, ids, mount, cfg, threads=1):
    """`kept`, the kernel's histogram of every element, holds the rows of
    `hist` (`assert_holds`); a field traced at `mount` for every receiver
    traces those rows at its elements and serves the dense reference's
    IRs over them."""
    assert_holds(kept, hist)
    rxs = TestReceiverIrs.receivers
    with pytest.MonkeyPatch.context() as m:
        hists = record_hists(m)
        field = compute_field(scene, ids, mount, cfg, threads=threads,
                              receivers=rxs)
    (traced, mask, _), = hists
    assert traced.tobytes() == hist[mask].tobytes()
    TestReceiverIrs.assert_equal_to_dense(
        field, rxs, oracle_field(scene, ids, mount, cfg))


def assert_holds(kept: HistRuns, hist: np.ndarray):
    """`kept` holds `hist` as one pool piece per (row, piece) pair that
    holds a non-zero value, each pool piece used once, every piece inside
    one gemv run, and the pool's other cells +0.0."""
    nbins = hist.shape[1]
    assert kept.toarray().tobytes() == hist.tobytes()
    pieces = [slice(a, min(a + _PIECE, nbins)) for a in range(0, nbins, _PIECE)]
    assert all(sum(b.start <= p.start and p.stop <= b.stop for b in kept.runs)
               == 1 for p in pieces)
    held = (np.stack([(hist[:, p] != 0.0).any(axis=1) for p in pieces], axis=1)
            .reshape(len(hist), len(pieces)))
    assert kept.slots.dtype == np.int32
    assert kept.used == int(held.sum())
    assert ((kept.slots != 0) == held).all()
    assert sorted(kept.slots[held].tolist()) == list(range(1, kept.used + 1))
    # pool piece 0, the bins past `nbins` and the unused pieces are +0.0
    dense = kept.pool[kept.slots].reshape(len(hist), len(pieces) * _PIECE)
    assert not dense[:, nbins:].any() and not kept.pool[0].any()
    assert not kept.pool[kept.used + 1:].any()


def assert_same_field(a, b):
    """The mount equal by bytes, each traced receiver's point and
    second-order bins by bytes with receivers that capture alike, every
    other field equal by value."""
    for f in dataclasses.fields(ArrivalField):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("point_bins", "b2_bins") and x is not None:
            assert y is not None and len(x) == len(y), f.name
            for (rx, u), (ry, v) in zip(x, y):
                assert raytracer._same_capture(rx, ry), f.name
                assert (u.shape, u.tobytes()) == (v.shape, v.tobytes()), f.name
            continue
        if isinstance(x, np.ndarray):
            assert (x.shape, x.dtype) == (y.shape, y.dtype), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@functools.cache
def lone_field(occlusion, y, kinds, x=4.0):
    """The field at (x, y) on a row top, traced alone on one thread."""
    pod = coarse_pod(occlusion)
    mount = vec3(x, y, 2.0)
    return compute_field(pod, pod.assigned_luminaires(mount), mount,
                         TraceConfig(**COARSE),
                         receivers=[MAKERS[k]() for k in kinds])


def traced_fields(picks, threads, occlusion=False, kinds=tuple(sorted(MAKERS))):
    """`trace_fields`' fields of the positions `picks`, (row, index into
    `SWEEP_YS`) pairs or centre-row indices."""
    pod = coarse_pod(occlusion)
    picks = [p if isinstance(p, tuple) else (0, p) for p in picks]
    mounts = [vec3(ROW_XS[r], SWEEP_YS[k], 2.0) for r, k in picks]
    cfg, rxs = TraceConfig(**COARSE), [MAKERS[k]() for k in kinds]
    return list(trace_fields(pod, mounts, cfg, threads=threads, receivers=rxs))


class TestPositionGroups:
    """`trace_fields` traces positions that share a luminaire set together;
    each field must be the one its position gives traced alone, bit for bit."""

    # each example traces up to 16 positions; a failing one is reported as
    # drawn, since shrinking would trace hundreds more
    @settings(max_examples=16, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    @given(runs=st.lists(st.tuples(st.integers(0, len(ROW_XS) - 1),
                                   st.lists(st.integers(0, len(SWEEP_YS) - 1),
                                            min_size=1, max_size=2 * _GROUP_CAP)),
                         min_size=1, max_size=2),
           threads=st.sampled_from([1, 2, 4]), occlusion=st.booleans(),
           kinds=st.sets(st.sampled_from(sorted(MAKERS)), min_size=1))
    @example(runs=[(0, [0, 12, 6, 5])], threads=4, occlusion=True,
             kinds={"wfov", "adr", "imaging"})
    # a run longer than a group, a change of set midway and back, and a
    # position given twice
    @example(runs=[(0, [0, 2, 4, 6, 8, 10]), (1, [3, 3]), (0, [12])], threads=2,
             occlusion=False, kinds={"wfov", "adr", "imaging"})
    def test_grouped_fields_equal_lone_fields(self, runs, threads, occlusion,
                                              kinds):
        kinds = tuple(sorted(kinds))
        picks = [(r, k) for r, ks in runs for k in ks]
        fields = traced_fields(picks, threads, occlusion, kinds)
        assert len(fields) == len(picks)
        for (r, k), field in zip(picks, fields):
            assert_same_field(field, lone_field(occlusion, SWEEP_YS[k], kinds,
                                                ROW_XS[r]))

    def test_shared_work_is_done_once(self, monkeypatch):
        # the set's incident power once per grid, not once per position
        # (both orders use the 0.4 m grid here, each its own), and the pair
        # geometry of each lit chunk and each block of the union's columns
        # once
        calls = {"incident": 0, "pairs": []}
        incident, pairs = raytracer._incident_power, raytracer._pair_geometry

        def count_incident(*args):
            calls["incident"] += 1
            return incident(*args)

        def count_pairs(s, grid, rows, row_runs, cols, col_runs, boxes):
            calls["pairs"].append((int(rows[0]) // raytracer._CHUNK,
                                   tuple(cols.tolist())))
            return pairs(s, grid, rows, row_runs, cols, col_runs, boxes)

        monkeypatch.setattr(raytracer, "_incident_power", count_incident)
        monkeypatch.setattr(raytracer, "_pair_geometry", count_pairs)
        hists = record_hists(monkeypatch)
        fields = traced_fields([0, 4, 8, 12], threads=2)
        pod = coarse_pod(False)
        lit = np.flatnonzero(_incident_power(
            [pod.luminaires[i] for i in (3, 4, 5)], pod.surface_elements(0.4),
            [])[0].any(axis=0))
        chunks = set((lit // raytracer._CHUNK).tolist())
        masks = [mask for _, mask, _ in hists]
        union = np.flatnonzero(np.logical_or.reduce(masks))
        rows = np.sum([mask[union] for mask in masks], axis=0)
        blocks = raytracer._column_blocks(rows)
        assert calls["incident"] == 2
        assert len(blocks) > 1 and len(chunks) == lit_chunk_count(
            pod, (3, 4, 5), raytracer._CHUNK) > 1
        assert sorted(calls["pairs"]) == sorted(
            (k, tuple(union[b].tolist())) for k in chunks for b in blocks)
        # traced one at a time, the positions take more pair geometry
        assert sum(f.totals["second_cols_traced"] for f in fields) > union.size

    @pytest.mark.parametrize("where, threads", [
        ("binning", 4), ("reduction", 4), ("binning", 1), ("reduction", 1)],
        ids=["binning", "reduction", "binning-1-thread", "reduction-1-thread"])
    def test_failing_chunk_propagates_without_hang(self, monkeypatch, where,
                                                   threads):
        # one chunk of one column block raises, while it is binned or while
        # its reflected power is summed; the error must reach the caller,
        # and every runner must still come to its end
        monkeypatch.setattr(raytracer, "_CHUNK", 32)
        monkeypatch.setattr(raytracer, "_BLOCK", 24)
        monkeypatch.setattr(raytracer, "ThreadPoolExecutor", RecordingExecutor)
        calls = itertools.count()
        name = "_delay_window" if where == "binning" else "_column_sums"
        real = getattr(raytracer, name)

        def failing(*args):
            if next(calls) == 10:
                raise RuntimeError("chunk failed")
            return real(*args)

        monkeypatch.setattr(raytracer, name, failing)
        RecordingExecutor.last = None
        _, errors = run_stressed(
            lambda: traced_fields([0, 6, 12], threads=threads))
        assert [str(e) for e in errors] == ["chunk failed"]
        ex = RecordingExecutor.last
        assert lit_chunk_count(coarse_pod(False), (3, 4, 5), 32) > 2 * 4
        assert len(ex.futures) == threads - 1
        # every runner ran to its end: none was cancelled
        assert all(f.done() and not f.cancelled() for f in ex.futures)

    def test_thread_stress_matches_one_thread(self, monkeypatch):
        # a group under more threads than cores, a short switch interval
        # and many small chunks and column blocks taken by four runners:
        # the bits of one thread, and every helper done and read
        picks = [1, 5, 9, 12]
        monkeypatch.setattr(raytracer, "_CHUNK", 32)
        monkeypatch.setattr(raytracer, "_BLOCK", 24)
        hists = record_hists(monkeypatch)
        serial = traced_fields(picks, threads=1)
        masks = [mask for _, mask, _ in hists]
        monkeypatch.setattr(raytracer, "ThreadPoolExecutor", RecordingExecutor)
        fields, errors = run_stressed(lambda: traced_fields(picks, threads=4))
        assert not errors, errors
        for field, want in zip(fields, serial):
            assert_same_field(field, want)
        ex = RecordingExecutor.last
        assert lit_chunk_count(coarse_pod(False), (3, 4, 5), 32) > 2 * 4
        rows = np.sum(masks, axis=0)
        assert len(raytracer._column_blocks(rows[rows > 0])) > 2 * 4
        assert len(ex.futures) == 4 - 1
        assert all(f.done() for f in ex.futures)
        assert ex.read == {id(f) for f in ex.futures}

    def test_shared_work_is_dropped_with_the_last_field(self, monkeypatch):
        # a group lets go of the set's incident power on both grids once
        # its last field is out, while the caller still holds that field;
        # five positions make groups of two and three
        refs, incident = [], raytracer._incident_power

        def record(*args):
            out = incident(*args)
            refs.extend(weakref.ref(a) for a in out)
            return out

        monkeypatch.setattr(raytracer, "_incident_power", record)
        pod = coarse_pod(False)
        cfg = TraceConfig(max_order=2, first_edge=0.2, second_edge=0.4)
        mounts = [vec3(4.0, y, 2.0) for y in (2.0, 3.0, 4.0, 5.0, 6.0)]
        fields = trace_fields(pod, mounts, cfg, receivers=[make_adr()])
        gc.disable()
        try:
            live = []
            for _ in mounts:
                field = next(fields)
                live.append(sum(r() is not None for r in refs))
                del field
        finally:
            gc.enable()
        assert len(refs) == 8
        # the fine grid's power and length are kept for the group's next
        # field, nothing once its last field is out
        assert live == [2, 0, 2, 2, 0]

    def test_closing_the_iterator_lets_go_of_the_rest(self, monkeypatch):
        # one group of four: closing the iterator after its first field
        # lets go of the other positions' branch bins at once, and the
        # first field's go with that field
        pod, picks = coarse_pod(False), [1, 5, 9, 12]
        mounts = [vec3(4.0, SWEEP_YS[k], 2.0) for k in picks]
        cfg, kinds = TraceConfig(**COARSE), tuple(sorted(MAKERS))
        lone = lone_field(False, SWEEP_YS[picks[0]], kinds)
        refs, reduce = [], raytracer._receiver_bins

        def record(*args):
            out = reduce(*args)
            refs.append(weakref.ref(out[0][0][1]))
            return out

        monkeypatch.setattr(raytracer, "_receiver_bins", record)
        gc.disable()
        try:
            fields = trace_fields(pod, mounts, cfg,
                                  receivers=[MAKERS[k]() for k in kinds])
            first = next(fields)
            assert [r() is None for r in refs] == [False] * 4
            fields.close()
            assert [r() is None for r in refs] == [False, True, True, True]
            assert_same_field(first, lone)
            del first
            assert refs[0]() is None
        finally:
            gc.enable()

    def test_group_fields_hold_no_histogram(self, monkeypatch):
        # one group of four traced for its receivers: every position's
        # histogram mapping and slot table go back to the OS once its
        # receivers' bins are taken, before the next position's are, and
        # no field holds a `HistRuns`; each is still the field its position
        # gives alone
        pod, picks = coarse_pod(False), [1, 5, 9, 12]
        mounts = [vec3(4.0, SWEEP_YS[k], 2.0) for k in picks]
        cfg, kinds = TraceConfig(**COARSE), tuple(sorted(MAKERS))
        rxs = [MAKERS[k]() for k in kinds]
        refs, hists = [], raytracer._second_order_hists

        def record(*args):
            out = hists(*args)
            refs.extend((weakref.ref(memory_owner(h.pool)),
                         weakref.ref(h.slots)) for h, *_ in out)
            return out

        reduce, calls = raytracer._receiver_bins, []

        def gone(held):
            return all(p() is None and t() is None for p, t in held)

        def reducing(*args):
            assert gone(refs[:len(calls)]), "a reduced histogram is held"
            calls.append(None)
            return reduce(*args)

        first = raytracer._los_arrivals

        def checked(*args):
            assert gone(refs), "a histogram is held"
            return first(*args)

        monkeypatch.setattr(raytracer, "_second_order_hists", record)
        monkeypatch.setattr(raytracer, "_receiver_bins", reducing)
        monkeypatch.setattr(raytracer, "_los_arrivals", checked)
        gc.disable()
        try:
            fields = list(trace_fields(pod, mounts, cfg, receivers=rxs))
        finally:
            gc.enable()
        assert len(calls) == len(refs) == 4 and gone(refs)
        for k, field in zip(picks, fields):
            assert not any(isinstance(v, HistRuns) for v in vars(field).values())
            assert [rx.kind for rx, _ in field.b2_bins] == list(kinds)
            assert_same_field(field, lone_field(False, SWEEP_YS[k], kinds))

    def test_dropped_field_leaves_nothing_behind(self):
        # at a reference mount, a field dropped before the next is asked
        # for takes everything its trace allocated with it
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        cfg = TraceConfig()
        for edge in (cfg.first_edge, cfg.second_edge):
            pod.surface_elements(edge)    # the scene keeps its grids
        fields = trace_fields(pod, pod.mounts, cfg,
                              receivers=TestReceiverIrs.receivers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            field = next(fields)
            assert field.b2_bins
            del field
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert abs(after - before) < 1e6

    def test_reference_sweep_groups(self):
        pod = coarse_pod(False)
        mounts = [vec3(4.0, y, 2.0) for y in SWEEP_YS]
        groups = _position_groups(pod, mounts)
        assert [len(g) for _, g in groups] == [3, 3, 3, 4]
        assert np.array_equal(np.concatenate([g for _, g in groups]), mounts)
        assert {ids for ids, _ in groups} == {(3, 4, 5)}
        # a change of luminaire set starts a new group
        other = [vec3(1.8, 2.0, 2.0), vec3(1.8, 3.0, 2.0)]
        groups = _position_groups(pod, mounts[:2] + other + mounts[2:3])
        assert [len(g) for _, g in groups] == [2, 2, 1]
        assert [ids for ids, _ in groups] == [(3, 4, 5), (0, 1, 2), (3, 4, 5)]

    def test_misuse_is_refused(self, monkeypatch):
        pod = coarse_pod(False)
        cfg, rxs = TraceConfig(**COARSE), [make_adr()]
        mount = pod.mounts[1]
        ids = pod.assigned_luminaires(mount)
        # ids out of range, repeated or not integers are refused before
        # any trace: -5 would trace luminaire 4, (4, 4) it twice
        assert len(pod.luminaires) == 9
        for bad in [(-5,), (4, 4), (9,), (4.0,), (True,), ([4],), (3, 4, 3)]:
            with pytest.raises(ValueError, match="distinct integers"):
                compute_field(pod, bad, mount, TraceConfig(max_order=0),
                              receivers=rxs)
        compute_field(pod, (np.int64(4),), mount, TraceConfig(max_order=0),
                      receivers=rxs)
        # a thread count that is not an integer of at least 1 is refused
        # before any trace, numpy integers accepted
        with monkeypatch.context() as m:
            m.setattr(raytracer, "_los_arrivals", lambda *args: pytest.fail(
                "traced with a bad thread count"))
            for bad in [True, math.nan, 2.5, 0, -1]:
                with pytest.raises(ValueError, match="thread count"):
                    compute_field(pod, ids, mount, cfg, threads=bad,
                                  receivers=rxs)
        compute_field(pod, ids, mount, cfg, threads=np.int64(2), receivers=rxs)

    def test_bad_calls_are_refused_before_tracing(self, monkeypatch):
        # `trace_fields` checks everything at the call, before any field
        # is asked for, down to the last pose of the last group
        def traced(*args):
            raise AssertionError("traced a refused call")

        monkeypatch.setattr(raytracer, "_incident_power", traced)
        monkeypatch.setattr(raytracer, "_los_arrivals", traced)
        pod = coarse_pod(False)
        cfg, rxs = TraceConfig(**COARSE), [make_adr()]
        mounts = [vec3(4.0, 2.0, 2.0), vec3(1.8, 2.0, 2.0)]
        for bad in [True, math.nan, 2.5, 0, -1]:
            with pytest.raises(ValueError, match="thread count"):
                trace_fields(pod, mounts, cfg, threads=bad, receivers=rxs)
        outside = vec3(4.0, 2.0, 3.5)
        assert len(_position_groups(pod, mounts + [vec3(4.0, 2.0, 2.5)])) == 3
        with pytest.raises(ValueError, match=r"detector pose \(4\.0, 2\.0, 3\.5\)"):
            trace_fields(pod, mounts + [outside], cfg, receivers=rxs)
        broken = build_pod(PodConfig(luminaire_power_w=1.0))
        object.__setattr__(broken.panels[0], "reflectance", 1.4)
        with pytest.raises(ValueError, match="invalid scene: .*reflectance"):
            trace_fields(broken, mounts, cfg, receivers=rxs)
        fields = trace_fields(pod, mounts, cfg, threads=np.int64(2), receivers=rxs)
        with pytest.raises(AssertionError, match="traced a refused call"):
            next(fields)

    @pytest.mark.parametrize("pose", [[4, 4], [[4, 4, 2]], [4, 4, 2, 0],
                                      [4, math.inf, 2], [4, 4, math.nan]],
                             ids=["two", "nested", "four", "inf", "nan"])
    def test_pose_not_a_finite_3_vector_is_refused(self, monkeypatch, pose):
        # refused by the pose check, before any grid is built
        monkeypatch.setattr(raytracer, "_lit_grid", lambda *args: pytest.fail(
            "built a grid for a refused pose"))
        pod = coarse_pod(False)
        with pytest.raises(ValueError, match="finite 3-vector"):
            trace_fields(pod, [pod.mounts[1], pose], TraceConfig(**COARSE),
                         receivers=[make_adr()])


class TestReceiverIrs:
    """`receiver_irs` against the dense per-branch path it replaced.

    Each receiver is built once and applied at every mount."""

    receivers = [make() for make in MAKERS.values()]

    @staticmethod
    def assert_equal_to_dense(field, rxs, want):
        """`want`: the field's `oracle_field`."""
        for rx in rxs:
            got, dense = field.receiver_irs(rx), want.receiver_irs(rx)
            assert len(got) == len(dense) == rx.branch_count
            for a, b in zip(got, dense):
                assert a.bins.tobytes() == b.bins.tobytes()

    @pytest.mark.parametrize("mi", [0, 1, 2])
    def test_reference_mounts(self, monkeypatch, mi):
        # every thread count traces the same histogram and gives the
        # dense reference's bits
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        mount = pod.mounts[mi]
        ids, cfg = pod.assigned_luminaires(mount), TraceConfig()
        hists = record_hists(monkeypatch)
        fields = [compute_field(pod, ids, mount, cfg, threads=threads,
                                receivers=self.receivers)
                  for threads in (1, 2, 4)]
        assert len({h.tobytes() for h, _, _ in hists}) == 1
        dense = oracle_field(pod, ids, mount, cfg)
        for rx in self.receivers:
            want = dense.receiver_irs(rx)
            for field in fields:
                got = field.receiver_irs(rx)
                assert len(got) == len(want) == rx.branch_count
                for a, b in zip(got, want):
                    assert a.bins.tobytes() == b.bins.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_coarse_grid_with_occlusion(self, threads):
        self.assert_coarse_mounts(True, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_coarse_grid_racks_clear(self, threads):
        self.assert_coarse_mounts(False, threads)

    def assert_coarse_mounts(self, occlusion, threads):
        """Fields traced for the receivers at every mount of the coarse pod
        serve the dense reference's bits."""
        pod = coarse_pod(occlusion)
        cfg = TraceConfig(**COARSE)
        for mount in pod.mounts:
            ids = pod.assigned_luminaires(mount)
            field = compute_field(pod, ids, mount, cfg, threads=threads,
                                  receivers=self.receivers)
            self.assert_equal_to_dense(
                field, self.receivers,
                oracle_field(pod, ids, mount, cfg))

    @pytest.mark.parametrize("max_order", [0, 1])
    def test_without_second_order(self, max_order):
        pod = coarse_pod(False)
        cfg = TraceConfig(max_order=max_order, first_edge=0.4, second_edge=0.4)
        ids, mount = pod.assigned_luminaires(pod.mounts[1]), pod.mounts[1]
        field = compute_field(pod, ids, mount, cfg, receivers=self.receivers)
        assert field.b2_bins is None
        self.assert_equal_to_dense(field, self.receivers,
                                   oracle_field(pod, ids, mount, cfg))


@st.composite
def sparse_weights(draw):
    """A weight vector over 1..200 elements with at most 16 non-zero entries."""
    w = np.zeros(draw(st.integers(1, 200)))
    picks = draw(st.dictionaries(st.integers(0, w.size - 1),
                                 st.floats(1e-9, 1e-2), max_size=16))
    w[list(picks)] = list(picks.values())
    return w


@st.composite
def traced_weights(draw):
    """`sparse_weights` and a traced-element mask holding every non-zero
    weight, so every untraced element weighs exactly 0.0."""
    w = draw(sparse_weights())
    traced = np.array(draw(st.lists(st.booleans(), min_size=w.size,
                                    max_size=w.size)))
    return w, traced | (w != 0.0)


# 200 weighed elements, every one traced: many terms in every bin
DENSE_WEIGHTS = (np.linspace(1e-5, 1e-2, 200), np.ones(200, dtype=bool))


def kept_pieces(hist: np.ndarray) -> HistRuns:
    """`hist` as the kernel keeps it: its pieces that hold a non-zero
    value, by `HistRuns.keep`."""
    kept = HistRuns(*hist.shape)
    kept.keep(slice(None), hist, (0, hist.shape[1]), threading.Lock())
    return kept


class TestBlockGather:
    """Each branch's gemv runs over only the aligned row blocks it weighs;
    its bits must be those of the full gemv over every row."""

    def test_element_count_not_a_multiple_of_the_block(self):
        pod = coarse_pod(False)
        cfg = TraceConfig(max_order=2, first_edge=0.4, second_edge=0.6)
        assert len(pod.surface_elements(cfg.second_edge)) % _GEMV_BLOCK != 0
        for mount in pod.mounts:
            ids = pod.assigned_luminaires(mount)
            field = compute_field(pod, ids, mount, cfg,
                                  receivers=TestReceiverIrs.receivers)
            TestReceiverIrs.assert_equal_to_dense(
                field, TestReceiverIrs.receivers,
                oracle_field(pod, ids, mount, cfg))

    def test_empty_gather_and_final_partial_block(self):
        # 21 rows: rows 0..19 arrive from above, row 20 (in the partial
        # third block) from below, and nothing from the side
        ne, nbins = 21, 40
        rng = np.random.default_rng(12)
        dirs = np.tile(unit((0.1, 0.2, -1.0)), (ne, 1))
        dirs[-1] = unit((0.1, 0.0, 1.0))
        hist = rng.random((ne, nbins)) * (rng.random((ne, nbins)) < 0.4)
        rx = ReceiverSpec("adr", (detector((0, 0, 1), 60.0),
                                  detector((0, 0, -1), 60.0),
                                  detector((1, 0, 0), 10.0)))
        acc = capture_matrix(rx, dirs)
        rows = _weighed_rows(acc)
        assert rows[0].all()
        assert rows[1].tolist() == [False] * 16 + [True] * 5
        assert not rows[2].any()
        got = _second_order_bins(acc, kept_pieces(hist), np.ones(ne, dtype=bool))
        up, down, side = got
        assert up.any() and down.any() and not side.any()
        # the full gemv of each branch's dense capture over every row
        for a, w in zip(got, oracle_capture_matrix(rx, dirs)):
            assert a.tobytes() == (w @ hist).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(w=sparse_weights(), nbins=st.integers(1, 80),
           seed=st.integers(0, 2**32 - 1))
    def test_gather_equals_full_gemv(self, w, nbins, seed):
        rng = np.random.default_rng(seed)
        hist = rng.random((w.size, nbins)) * (rng.random((w.size, nbins)) < 0.3)
        rows = _weighed_rows(w[None])[0]
        assert rows[w != 0.0].all()
        # whole blocks, aligned at row 0
        padded = np.pad(rows, (0, -w.size % _GEMV_BLOCK), mode="edge")
        blocks = padded.reshape(-1, _GEMV_BLOCK)
        assert (blocks == blocks[:, :1]).all()
        assert (w[rows] @ hist[rows]).tobytes() == (w @ hist).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(wt=traced_weights(), nbins=st.integers(1, 2 * _GEMV_BINS + 40),
           zero_runs=st.sets(st.integers(0, 2)),
           zero_pieces=st.sets(st.integers(0, (2 * _GEMV_BINS + 40) // _PIECE)),
           seed=st.integers(0, 2**32 - 1))
    # weighed blocks [0, 8) and the partial [8, 11) both hold untraced
    # elements, element 0 among them, before the first traced row
    @example(wt=(np.array([0, 0, 1e-3, 0, 0, 0, 0, 0, 0, 2e-3, 0]),
                 np.array([0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0], dtype=bool)),
             nbins=7, zero_runs=set(), zero_pieces=set(), seed=3)
    # a last bin block of one bin, which must join the block before it: in
    # these two, a 1-bin gemv gives other bits in the last bin
    @example(wt=DENSE_WEIGHTS, nbins=_GEMV_BINS + 1, zero_runs=set(),
             zero_pieces=set(), seed=2)
    @example(wt=DENSE_WEIGHTS, nbins=2 * _GEMV_BINS + 1, zero_runs=set(),
             zero_pieces=set(), seed=2)
    # whole runs of zeros in every row at the start, in the middle and at
    # the end, the last a short one
    @example(wt=DENSE_WEIGHTS, nbins=2 * _GEMV_BINS + 40, zero_runs={0},
             zero_pieces=set(), seed=4)
    @example(wt=DENSE_WEIGHTS, nbins=2 * _GEMV_BINS + 40, zero_runs={1},
             zero_pieces=set(), seed=4)
    @example(wt=DENSE_WEIGHTS, nbins=2 * _GEMV_BINS + 40, zero_runs={0, 2},
             zero_pieces=set(), seed=4)
    # zeroed pieces in half the rows: a run's first and last piece, and
    # the histogram's short last one
    @example(wt=DENSE_WEIGHTS, nbins=2 * _GEMV_BINS + 40, zero_runs=set(),
             zero_pieces={0, 7, 8, 17}, seed=4)
    def test_compact_gather_equals_full_gemv(self, wt, nbins, zero_runs,
                                             zero_pieces, seed):
        """The gather through the compact-row index, one run of the kept
        histogram at a time from its pieces, reads the bits of the full
        gemv over a histogram whose untraced rows are zero, also where
        every row holds a run as zeros and no gemv runs over it, and where
        some rows hold some of a run's pieces as zeros.  Every size here
        is under OpenBLAS's threading threshold (rows x bins < 460 800), so
        the full gemv runs on one thread, as every run of the kernel does."""
        w, traced = wt
        rng = np.random.default_rng(seed)
        nc = int(traced.sum())
        hist = rng.random((nc, nbins)) * (rng.random((nc, nbins)) < 0.3)
        runs = block_slices(nbins, _GEMV_BINS)
        for j in zero_runs & set(range(len(runs))):
            hist[:, runs[j]] = 0.0
        for k in sorted(zero_pieces):
            hist[rng.random(nc) < 0.5, k * _PIECE:(k + 1) * _PIECE] = 0.0
        full = np.zeros((w.size, nbins))
        full[traced] = hist
        kept = kept_pieces(hist)
        assert_holds(kept, hist)
        got, = _second_order_bins(w[None], kept, traced)
        assert got.tobytes() == (w @ full).tobytes()


class TestHistPieces:
    """`HistRuns` keeps a histogram as its `_PIECE`-bin pieces that hold a
    non-zero value, whatever blocks of rows and bands it is kept in, and in
    whatever order they come."""

    def test_row_within_one_piece(self):
        nbins = 2 * _GEMV_BINS + 1     # a folded last run: a 1-bin last piece
        hist = np.zeros((4, nbins))
        hist[0, _PIECE + 3:2 * _PIECE - 1] = 0.25    # inside one piece
        hist[1, 2 * _PIECE] = 1.0                    # a piece's first bin
        hist[2, nbins - 1] = 0.5                     # the 1-bin piece
        kept = kept_pieces(hist)                     # row 3: all zeros
        assert_holds(kept, hist)
        assert kept.used == 3
        assert np.count_nonzero(kept.slots, axis=1).tolist() == [1, 1, 1, 0]
        assert kept.slots[0, 1] and kept.slots[1, 2] and kept.slots[2, -1]
        w = np.linspace(0.1, 0.4, 4)
        got, = _second_order_bins(w[None], kept, np.ones(4, dtype=bool))
        assert got.tobytes() == (w @ hist).tobytes()

    def test_blocks_kept_in_any_order(self):
        """Blocks of rows, each +0.0 outside its own band, kept last block
        first, as runners that finish out of order keep them; one band
        reaches the short last piece of a 600-bin histogram."""
        nbins = 2 * _GEMV_BINS + 88
        rng = np.random.default_rng(5)
        hist, lock = np.zeros((9, nbins)), threading.Lock()
        kept = HistRuns(*hist.shape)
        for a, lo, hi in [(6, 500, nbins), (3, 40, 41), (0, 0, 300)]:
            band = hist[a:a + 3, lo:hi]
            band[...] = rng.random(band.shape) * (rng.random(band.shape) < 0.2)
            kept.keep(slice(a, a + 3), hist[a:a + 3], (lo, hi), lock)
        assert hist[6:, nbins - 1].any()
        assert_holds(kept, hist)

    def test_slot_table_is_int32(self):
        # refused before any table or pool is allocated
        with pytest.raises(MemoryError, match="int32"):
            HistRuns(1 << 20, (1 << 11) * _PIECE)


class TestReceiverIrsMemory:
    """Receiver work at reference mount 0, as traced by tracemalloc, which
    sees numpy's allocations: the trace-time imaging capture holds no
    (directions x pixels) cosines, the second-order gemv that reduces a
    histogram to a receiver's branch bins no (weighed rows x bins) gather,
    and the LOS and first-order stage no point array."""

    @pytest.fixture(scope="class")
    def traced(self):
        """The field traced for the receivers; its share of the second
        order as `_second_order_hists` returned it, histogram included;
        the arguments of `_field`, its LOS and first-order stage; and that
        stage's tracemalloc peak."""
        pod = build_pod(PodConfig(luminaire_power_w=1.0))
        mount = pod.mounts[0]
        seconds, calls = [], []
        hists, field = raytracer._second_order_hists, raytracer._field

        def record(*args):
            out = hists(*args)
            seconds.extend(out)
            return out

        def first_order(*args):
            tracemalloc.start()
            try:
                out = field(*args)
                calls.append((args, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(raytracer, "_second_order_hists", record)
            m.setattr(raytracer, "_field", first_order)
            traced = compute_field(pod, pod.assigned_luminaires(mount), mount,
                                   TraceConfig(), receivers=TestReceiverIrs.receivers)
        return traced, seconds[0], *calls[0]

    @staticmethod
    def traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_imaging_capture_runs_in_blocks(self, traced, monkeypatch):
        field, _, args, _ = traced
        rx = make_imaging()
        calls, point_bins = [], raytracer._point_bins

        def record(receivers, los, dirs, hops, nbins):
            # each hop's arrays are reused for the next: keep copies
            hops = [tuple(a.copy() for a in hop) for hop in hops]
            calls.append((los, dirs, hops, nbins))
            return point_bins(receivers, los, dirs, iter(hops), nbins)

        monkeypatch.setattr(raytracer, "_point_bins", record)
        raytracer._field(*args)
        los, dirs, hops, nbins = calls[0]

        def bin_points():
            return point_bins([rx], los, dirs, iter(hops), nbins)

        # the binning step, as the trace runs it, gives the field's bins
        ((_, bins),), count = bin_points()
        assert count == field.totals["point_arrivals"]
        assert [bins.tobytes()] == [b.tobytes() for r, b in field.point_bins
                                    if r.kind == "imaging"]
        cosines = len(dirs) * rx.branch_count * 8
        assert self.traced_peak(bin_points) < cosines / 4

    def test_field_holds_only_branch_bins(self, traced):
        # no point array: nothing the field holds is longer than its
        # largest branch bins, and the stage peaks at 5.5 MiB, against
        # 6.6 MiB while it took the final hop from every element, 6.7 MiB
        # while it built a direction table and 12.4 MiB while it built the
        # point arrays
        field, _, _, peak = traced
        bins = [b for _, b in field.point_bins + field.b2_bins]
        held = bins + [v for v in vars(field).values()
                       if isinstance(v, np.ndarray)]
        assert max(a.size for a in held) == max(b.size for b in bins)
        assert peak < 6.5 * 2**20

    def test_first_order_hops_from_the_lit_elements(self, traced,
                                                     monkeypatch):
        # every unit points straight down, so no ceiling element is lit:
        # the stage takes the final hop from the other 64 000 of the 89 600
        # elements alone, and runs each luminaire's hop pass over them
        field, _, args, _ = traced
        lums, boxes, (grid, _, _) = args[0], args[3], args[6]
        calls, sizes = [], []
        final_hop, one_bounce = raytracer._final_hop, raytracer._one_bounce

        def record_hop(grid, idx, mount, boxes):
            calls.append(idx.copy())
            return final_hop(grid, idx, mount, boxes)

        def record_bounce(*args):
            for hop in one_bounce(*args):
                sizes.append([a.size for a in hop])
                yield hop

        monkeypatch.setattr(raytracer, "_final_hop", record_hop)
        monkeypatch.setattr(raytracer, "_one_bounce", record_bounce)
        again = raytracer._field(*args)
        assert [b.tobytes() for _, b in again.point_bins] == [
            b.tobytes() for _, b in field.point_bins]
        idx, = calls
        ceiling = grid.normals[:, 2] == -1.0
        lit = oracle_incident_power(lums, grid, boxes)[0].any(axis=0)
        assert len(grid) == 89_600 and np.count_nonzero(ceiling) == 25_600
        assert idx.tolist() == np.flatnonzero(lit).tolist()
        assert idx.tolist() == np.flatnonzero(~ceiling).tolist()
        assert sizes == [[64_000] * 3] * len(lums)

    def test_wfov_gemv_runs_in_bin_blocks(self, traced):
        field, second, *_ = traced
        rx = make_wfov()
        rows = int(_weighed_rows(capture_matrix(rx, second[2])).sum())
        # the reduction step, as the trace runs it, gives the field's bins
        bins, _ = raytracer._receiver_bins([rx], *second)
        assert bins[0][1].tobytes() == field.b2_bins[0][1].tobytes()
        peak = self.traced_peak(lambda: raytracer._receiver_bins([rx], *second))
        assert peak < rows * field.nbins * 8 / 4


class TestSuppliedFieldMustMatch:
    cfg = TraceConfig(max_order=0)

    def test_matching_field_is_used(self):
        pod = coarse_pod(False)
        rx = make_adr()
        field = compute_field(pod, pod.assigned_luminaires(pod.mounts[2]),
                              pod.mounts[2], self.cfg, receivers=[rx])
        rep = link_report(field, rx, 1e9)
        assert rep.mount == tuple(field.mount) == tuple(pod.mounts[2])
        assert rep.branch_power_w == tuple(
            ir.total_power() for ir in field.receiver_irs(rx))


# Physical invariants as properties, on grids small enough to trace in
# milliseconds.  Examples are drawn, not shrunk (shrinking would trace
# hundreds more).
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True,
                    database=None, phases=(Phase.explicit, Phase.generate))
SMALL = dict(max_order=2, first_edge=0.4, second_edge=0.8)


def branch_totals(pod, mi, cfg, makers):
    mount = pod.mounts[mi]
    field = compute_field(pod, pod.assigned_luminaires(mount), mount, cfg,
                          receivers=[make() for make in makers])
    return [ir.total_power() for make in makers
            for ir in field.receiver_irs(make())]


class TestPhysicalProperties:
    # Tolerance: 1e-12 relative.  Every path's power is a product that
    # starts with the luminaire power, so the two traces differ only in
    # rounding (measured at most 5e-16 on these grids).
    @PROPERTY
    @given(power=st.floats(0.01, 100.0), factor=st.floats(0.1, 10.0),
           mi=st.integers(0, 2), occlusion=st.booleans())
    def test_received_power_is_linear_in_luminaire_power(self, power, factor,
                                                         mi, occlusion):
        cfg = TraceConfig(**SMALL)
        base, scaled = (
            branch_totals(build_pod(PodConfig(luminaire_power_w=p,
                                              rack_occluding=occlusion)),
                          mi, cfg, MAKERS.values())
            for p in (power, power * factor))
        assert any(base)
        for a, b in zip(base, scaled):
            assert math.isclose(b, factor * a, rel_tol=1e-12, abs_tol=0.0)

    # Mounts 0 and 2 are mirror images about x = 4 m, and so are their
    # luminaires, racks and surface grids.  Tolerance: 1e-12 relative (the
    # mirrored coordinates round differently; the totals measured equal).
    # The WFOV and every ADR branch map onto themselves under the mirror;
    # the imaging receiver does not (its 7-pixel ring has no pixel at the
    # mirrored azimuths), so it is left out.
    @PROPERTY
    @given(wall=st.floats(0.0, 1.0), ceiling=st.floats(0.0, 1.0),
           floor=st.floats(0.0, 1.0), semi_angle=st.floats(20.0, 85.0),
           occlusion=st.booleans())
    def test_mounts_0_and_2_are_mirror_images(self, wall, ceiling, floor,
                                              semi_angle, occlusion):
        pod = build_pod(PodConfig(
            luminaire_power_w=1.0, wall_reflectance=wall,
            ceiling_reflectance=ceiling, floor_reflectance=floor,
            semi_angle_deg=semi_angle, rack_occluding=occlusion))
        cfg = TraceConfig(**SMALL)
        left, right = (branch_totals(pod, mi, cfg, (make_wfov, make_adr))
                       for mi in (0, 2))
        assert any(left)
        for a, b in zip(left, right):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
