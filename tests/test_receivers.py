import math

import numpy as np
import pytest

from owcsim.receivers import (
    Orientation,
    assign_pixel,
    capture_matrix,
    default_pixel_layout,
    detector_acceptance,
    lens_transmission,
    load_pixel_layout,
    make_adr,
    make_imaging,
    make_wfov,
)

from oracles import oracle_acceptance

MOUNT = np.array([4.0, 4.0, 2.0])


class TestOrientation:
    def test_mapping(self):
        d = Orientation(90.0, 25.0).to_direction()
        assert d == pytest.approx([0.0, math.cos(math.radians(25)),
                                   math.sin(math.radians(25))], abs=1e-12)
        assert np.allclose(d, [0.0, 0.9063, 0.4226], atol=1e-4)

    def test_straight_up_is_exact(self):
        assert list(Orientation(0.0, 90.0).to_direction()) == [0.0, 0.0, 1.0]

    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            Orientation(360.0, 10.0)
        with pytest.raises(ValueError):
            Orientation(0.0, 95.0)


class TestMakeReceivers:
    def test_wfov(self):
        rx = make_wfov(MOUNT)
        assert rx.branch_count == 1
        det = rx.branches[0]
        assert det.fov_deg == 70.0 and det.responsivity == 0.4
        assert det.area == 4e-6
        assert list(det.boresight) == [0.0, 0.0, 1.0]
        assert rx.lens is None

    def test_adr(self):
        rx = make_adr(MOUNT)
        assert rx.branch_count == 3
        assert all(b.fov_deg == 20.0 for b in rx.branches)
        assert rx.branches[0].boresight == pytest.approx([0, 0, 1], abs=1e-12)
        assert rx.branches[1].boresight == pytest.approx(
            [0.0, 0.9063, 0.4226], abs=1e-4)
        assert rx.branches[2].boresight == pytest.approx(
            [0.0, -0.9063, 0.4226], abs=1e-4)

    def test_adr_boresights_unit_and_distinct(self):
        rx = make_adr(MOUNT)
        for a in rx.branches:
            assert np.linalg.norm(a.boresight) == pytest.approx(1.0, abs=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.allclose(rx.branches[i].boresight,
                                       rx.branches[j].boresight)

    def test_imaging_default_layout(self):
        rx = make_imaging(MOUNT)
        assert rx.branch_count == 50
        assert all(b.fov_deg == 17.0 and b.area == 4e-6 for b in rx.branches)
        assert rx.lens is not None and rx.lens.fov_deg == 65.0
        min_cos = math.cos(math.radians(65.0))
        for b in rx.branches:
            assert b.boresight[2] >= min_cos - 1e-12

    def test_default_ring_populations(self):
        layout = default_pixel_layout()
        by_el = {}
        for o in layout:
            by_el.setdefault(o.el_deg, []).append(o.az_deg)
        assert {el: len(az) for el, az in by_el.items()} == {
            90.0: 1, 73.0: 7, 56.0: 14, 39.0: 28}
        assert sum(len(az) for az in by_el.values()) == 50

    def test_imaging_rejects_bad_layouts(self):
        with pytest.raises(ValueError, match="exactly 50"):
            make_imaging(MOUNT, default_pixel_layout()[:49])
        outside = list(default_pixel_layout())
        outside[10] = Orientation(0.0, 10.0)   # 80 deg off axis > 65 deg cone
        with pytest.raises(ValueError, match="lens cone"):
            make_imaging(MOUNT, outside)

    def test_uniform_constants_across_kinds(self):
        for rx in (make_wfov(MOUNT), make_adr(MOUNT), make_imaging(MOUNT)):
            assert all(b.responsivity == 0.4 and b.area == 4e-6
                       for b in rx.branches)


class TestLensTransmission:
    def test_normal_incidence(self):
        assert lens_transmission(0.0) == 0.8778

    def test_one_radian(self):
        assert lens_transmission(1.0) == pytest.approx(0.7221, abs=1e-12)

    def test_beyond_acceptance(self):
        assert lens_transmission(1.2) == 0.0   # 1.2 rad > 65 deg

    def test_clamped_to_unit_interval(self):
        for y in np.linspace(0.0, math.radians(65.0), 50):
            assert 0.0 <= lens_transmission(float(y)) <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lens_transmission(-0.1)


class TestDetectorAcceptance:
    def test_antiparallel_is_unity(self):
        det = make_wfov(MOUNT).branches[0]
        assert detector_acceptance(det, np.array([0.0, 0.0, -1.0])) == 1.0

    def test_outside_fov_is_zero(self):
        det = make_adr(MOUNT).branches[0]   # up, FOV 20
        ang = math.radians(20.5)
        incoming = -np.array([math.sin(ang), 0.0, math.cos(ang)])
        assert detector_acceptance(det, incoming) == 0.0

    def test_adr_tilted_branch_rejects_zenith_ray(self):
        det = make_adr(MOUNT).branches[1]   # Az 90, El 25
        assert detector_acceptance(det, np.array([0.0, 0.0, -1.0])) == 0.0

    def test_lens_factor_applied(self):
        rx = make_imaging(MOUNT)
        got = detector_acceptance(rx.branches[0], np.array([0.0, 0.0, -1.0]),
                                  rx.lens)
        assert got == pytest.approx(0.8778, abs=1e-12)

    def test_continuous_inside_fov(self):
        det = make_wfov(MOUNT).branches[0]
        angles = np.linspace(0.0, math.radians(69.9), 200)
        vals = []
        for a in angles:
            incoming = -np.array([math.sin(a), 0.0, math.cos(a)])
            vals.append(detector_acceptance(det, incoming))
        diffs = np.abs(np.diff(vals))
        assert vals == sorted(vals, reverse=True)
        assert diffs.max() < 0.02
        assert min(vals) >= 0.0


class TestAssignPixel:
    def test_exact_boresight_hit(self):
        rx = make_imaging(MOUNT)
        for k in (0, 5, 23, 49):
            incoming = -rx.branches[k].boresight
            assert assign_pixel(rx, incoming) == k

    def test_outside_lens_cone(self):
        rx = make_imaging(MOUNT)
        ang = math.radians(70.0)
        incoming = -np.array([math.sin(ang), 0.0, math.cos(ang)])
        assert assign_pixel(rx, incoming) is None

    def test_tie_goes_to_lowest_index(self):
        layout = list(default_pixel_layout())
        layout[7] = layout[3]                 # duplicate boresight: exact tie
        rx = make_imaging(MOUNT, layout)
        incoming = -rx.branches[3].boresight
        assert assign_pixel(rx, incoming) == 3

    def test_non_imaging_rejected(self):
        with pytest.raises(ValueError, match="imaging"):
            assign_pixel(make_adr(MOUNT), np.array([0.0, 0.0, -1.0]))

    def test_single_assignment_over_random_directions(self):
        rx = make_imaging(MOUNT)
        rng = np.random.default_rng(21)
        n = 400
        az = rng.uniform(0, 2 * math.pi, n)
        pol = np.arccos(rng.uniform(math.cos(math.radians(64.9)), 1.0, n))
        toward = np.stack([np.sin(pol) * np.cos(az),
                           np.sin(pol) * np.sin(az), np.cos(pol)], axis=1)
        dirs = -toward
        acc = capture_matrix(rx, dirs)
        hit_count = (acc > 0).sum(axis=0)
        assert hit_count.max() <= 1            # never double-counted
        for i in range(n):
            k = assign_pixel(rx, dirs[i])
            nz = np.nonzero(acc[:, i])[0]
            if nz.size:                        # may be dropped by pixel FOV
                assert nz[0] == k


class TestCaptureMatrix:
    def test_matches_scalar_acceptance(self):
        rng = np.random.default_rng(9)
        toward = rng.normal(size=(100, 3))
        toward /= np.linalg.norm(toward, axis=1, keepdims=True)
        dirs = -toward
        for rx in (make_wfov(MOUNT), make_adr(MOUNT)):
            acc = capture_matrix(rx, dirs)
            for j, det in enumerate(rx.branches):
                for i in range(toward.shape[0]):
                    want = oracle_acceptance(det, dirs[i]) * det.area
                    assert acc[j, i] == pytest.approx(want, rel=1e-12, abs=1e-30)

    def test_imaging_includes_lens_and_assignment(self):
        rx = make_imaging(MOUNT)
        dirs = -np.stack([b.boresight for b in rx.branches])
        acc = capture_matrix(rx, dirs)
        for k in range(50):
            cos_y = float(rx.branches[k].boresight[2])
            want = 4e-6 * lens_transmission(math.acos(min(1.0, cos_y)))
            assert acc[k, k] == pytest.approx(want, rel=1e-12)
            others = np.delete(acc[:, k], k)
            assert np.all(others == 0.0)


class TestLayoutFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "layout.csv"
        lines = ["pixel_index,az_deg,el_deg"]
        for i, o in enumerate(default_pixel_layout()):
            lines.append(f"{i},{o.az_deg},{o.el_deg}")
        path.write_text("\n".join(lines) + "\n")
        layout = load_pixel_layout(path)
        assert layout == default_pixel_layout()
        make_imaging(MOUNT, layout)   # accepted

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "layout.csv"
        path.write_text("pixel_index,az_deg,el_deg\n0,0.0,90.0\n")
        with pytest.raises(ValueError, match="0..49"):
            load_pixel_layout(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "layout.csv"
        path.write_text("idx,az,el\n")
        with pytest.raises(ValueError, match="header"):
            load_pixel_layout(path)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "layout.csv"
        rows = ["pixel_index,az_deg,el_deg"]
        rows += [f"0,{10 * k},45.0" for k in range(50)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_pixel_layout(path)
