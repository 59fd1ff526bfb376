import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from owcsim.receivers import (
    LENS_FOV_DEG,
    LENS_POLY,
    DetectorSpec,
    ReceiverSpec,
    _CAPTURE_ROWS,
    _boresight,
    block_slices,
    capture_matrix,
    make_adr,
    make_imaging,
    make_wfov,
    sparse_capture,
)

from owcsim.raytracer import _point_bins
from owcsim.scene import unit

from oracles import oracle_acceptance, oracle_capture_matrix, oracle_point_bins
from probes import lens_transmission, tied_imaging


class TestBoresight:
    def test_mapping(self):
        d = _boresight(90.0, 25.0)
        assert d == pytest.approx([0.0, math.cos(math.radians(25)),
                                   math.sin(math.radians(25))], abs=1e-12)
        assert np.allclose(d, [0.0, 0.9063, 0.4226], atol=1e-4)

    def test_straight_up_is_exact(self):
        assert list(_boresight(0.0, 90.0)) == [0.0, 0.0, 1.0]
        assert list(make_adr().branches[0].boresight) == [0.0, 0.0, 1.0]
        assert list(make_imaging().branches[0].boresight) == [0.0, 0.0, 1.0]


class TestMakeReceivers:
    def test_wfov(self):
        rx = make_wfov()
        assert rx.branch_count == 1
        det = rx.branches[0]
        assert det.fov_deg == 70.0
        assert list(det.boresight) == [0.0, 0.0, 1.0]

    def test_adr(self):
        rx = make_adr()
        assert rx.branch_count == 3
        assert all(b.fov_deg == 20.0 for b in rx.branches)
        assert rx.branches[0].boresight == pytest.approx([0, 0, 1], abs=1e-12)
        assert rx.branches[1].boresight == pytest.approx(
            [0.0, 0.9063, 0.4226], abs=1e-4)
        assert rx.branches[2].boresight == pytest.approx(
            [0.0, -0.9063, 0.4226], abs=1e-4)

    def test_adr_boresights_unit_and_distinct(self):
        rx = make_adr()
        for a in rx.branches:
            assert np.linalg.norm(a.boresight) == pytest.approx(1.0, abs=1e-12)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.allclose(rx.branches[i].boresight,
                                       rx.branches[j].boresight)

    def test_imaging_default_layout(self):
        # every pixel is a unit boresight inside the lens cone
        rx = make_imaging()
        assert rx.branch_count == 50
        assert all(b.fov_deg == 17.0 for b in rx.branches)
        min_cos = math.cos(math.radians(LENS_FOV_DEG))
        for b in rx.branches:
            assert np.linalg.norm(b.boresight) == pytest.approx(1.0, abs=1e-12)
            assert b.boresight[2] >= min_cos

    def test_default_ring_populations(self):
        # rings of 1 + 7 + 14 + 28 pixels, read from the boresight elevations
        els = [round(math.degrees(math.asin(b.boresight[2])), 9)
               for b in make_imaging().branches]
        rings = [(el, len(list(run))) for el, run in itertools.groupby(els)]
        assert rings == [(90.0, 1), (73.0, 7), (56.0, 14), (39.0, 28)]

    def test_uniform_constants_across_kinds(self):
        # every branch of every kind captures a ray along its boresight
        # with the one 4 mm^2 area, times the lens for the imaging pixels
        for rx in (make_wfov(), make_adr(), make_imaging()):
            dirs = -np.stack([b.boresight for b in rx.branches])
            lens = (lens_transmission(np.arccos(-dirs[:, 2]))
                    if rx.kind == "imaging" else 1.0)
            assert np.diag(capture_matrix(rx, dirs)) == pytest.approx(
                4e-6 * lens, rel=1e-12)

    @pytest.mark.parametrize("kind", ["imagin", "all", ""])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(ValueError, match="receiver kind"):
            ReceiverSpec(kind, make_wfov().branches)

    def test_no_branches_refused(self):
        with pytest.raises(ValueError, match="at least one branch"):
            ReceiverSpec("adr", ())


class TestLensTransmission:
    """The lens polynomial as the capture path applies it, read through a
    one-branch probe."""

    def test_normal_incidence(self):
        assert lens_transmission(0.0)[0] == 0.8778

    def test_one_radian(self):
        assert lens_transmission(1.0)[0] == pytest.approx(0.7221, abs=1e-12)

    def test_beyond_acceptance(self):
        assert lens_transmission(1.2)[0] == 0.0   # 1.2 rad > 65 deg

    def test_polynomial_inside_unit_interval_over_the_cone(self):
        # why the capture path needs no clamp: a concave quadratic's
        # minimum over [0, cone] is at an end, its maximum at the vertex
        a, b, c = LENS_POLY
        cone = math.radians(LENS_FOV_DEG)
        y = np.concatenate([np.linspace(0.0, cone, 1001), [-b / (2 * a)]])
        t = a * y * y + b * y + c
        assert a < 0.0 and 0.0 <= -b / (2 * a) <= cone
        assert 0.0 <= t.min() and t.max() <= 1.0
        assert t.min() == pytest.approx(0.6709, abs=1e-4)
        assert t.max() == pytest.approx(0.8801, abs=1e-4)


class TestDetectorSpec:
    @pytest.mark.parametrize("fov", [math.nan, math.inf, -math.inf, 0.0, 90.5])
    def test_fov_in_range(self, fov):
        with pytest.raises(ValueError, match="FOV"):
            DetectorSpec(np.array([0.0, 0.0, 1.0]), fov)

    @pytest.mark.parametrize("boresight", [
        [0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [[0.0, 0.0, 1.0]],
        [0.0, math.nan, 1.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 2.0],
        [0.0, 0.0, 0.0]])
    def test_boresight_must_be_a_finite_unit_vector(self, boresight):
        with pytest.raises(ValueError, match="boresight"):
            DetectorSpec(np.array(boresight), 30.0)


DOWN = np.array([[0.0, 0.0, -1.0]])     # a ray from the zenith


class TestDetectorAcceptance:
    """Per-branch gains of `capture_matrix`: area times cos(theta) inside
    the FOV, 0 outside, times the lens transmission under a lens."""

    def test_antiparallel_is_unity(self):
        assert capture_matrix(make_wfov(), DOWN)[0, 0] == 4e-6

    def test_outside_fov_is_zero(self):
        ang = math.radians(20.5)                # ADR branch 0: up, FOV 20
        incoming = -np.array([[math.sin(ang), 0.0, math.cos(ang)]])
        assert capture_matrix(make_adr(), incoming)[0, 0] == 0.0

    def test_adr_tilted_branch_rejects_zenith_ray(self):
        assert capture_matrix(make_adr(), DOWN)[1, 0] == 0.0   # Az 90, El 25

    def test_lens_factor_applied(self):
        got = capture_matrix(make_imaging(), DOWN)[0, 0]
        assert got == pytest.approx(4e-6 * 0.8778, rel=1e-12)

    def test_continuous_inside_fov(self):
        angles = np.linspace(0.0, math.radians(69.9), 200)
        incoming = -np.stack([np.sin(angles), np.zeros(200), np.cos(angles)], axis=1)
        vals = capture_matrix(make_wfov(), incoming)[0] / 4e-6
        assert np.all(np.diff(vals) <= 0.0)
        assert np.abs(np.diff(vals)).max() < 0.02
        assert vals.min() >= 0.0


class TestAssignPixel:
    """An imaging arrival feeds one pixel of `sparse_capture`: the closest
    boresight, ties to the lowest index, none outside the lens cone."""

    @staticmethod
    def pixels(rx, incoming):
        branch, _, _ = sparse_capture(rx, np.reshape(incoming, (-1, 3)))
        return branch.tolist()

    def test_exact_boresight_hit(self):
        rx = make_imaging()
        for k in (0, 5, 23, 49):
            assert self.pixels(rx, -rx.branches[k].boresight) == [k]

    def test_outside_lens_cone(self):
        ang = math.radians(70.0)
        incoming = -np.array([math.sin(ang), 0.0, math.cos(ang)])
        assert self.pixels(make_imaging(), incoming) == []

    def test_tie_goes_to_lowest_index(self):
        rx = tied_imaging()                   # pixel 7 shares pixel 3's boresight
        assert self.pixels(rx, -rx.branches[3].boresight) == [3]

    def test_single_assignment_over_random_directions(self):
        rx = make_imaging()
        rng = np.random.default_rng(21)
        n = 400
        az = rng.uniform(0, 2 * math.pi, n)
        pol = np.arccos(rng.uniform(math.cos(math.radians(64.9)), 1.0, n))
        toward = np.stack([np.sin(pol) * np.cos(az),
                           np.sin(pol) * np.sin(az), np.cos(pol)], axis=1)
        branch, arrival, _ = sparse_capture(rx, -toward)
        assert np.all(np.diff(arrival) > 0)    # never double-counted
        bores = [tuple(float(c) for c in b.boresight) for b in rx.branches]
        for k, i in zip(branch, arrival):      # some dropped by the pixel FOV
            dots = [sum(a * b for a, b in zip(toward[i], bore)) for bore in bores]
            assert k == dots.index(max(dots))


class TestCaptureMatrix:
    def test_matches_scalar_acceptance(self):
        rng = np.random.default_rng(9)
        toward = rng.normal(size=(100, 3))
        toward /= np.linalg.norm(toward, axis=1, keepdims=True)
        dirs = -toward
        for rx in (make_wfov(), make_adr()):
            acc = capture_matrix(rx, dirs)
            for j, det in enumerate(rx.branches):
                for i in range(toward.shape[0]):
                    want = oracle_acceptance(det, dirs[i]) * 4e-6
                    assert acc[j, i] == pytest.approx(want, rel=1e-12, abs=1e-30)

    def test_imaging_includes_lens_and_assignment(self):
        rx = make_imaging()
        dirs = -np.stack([b.boresight for b in rx.branches])
        acc = capture_matrix(rx, dirs)
        for k in range(50):
            cos_y = float(rx.branches[k].boresight[2])
            want = 4e-6 * lens_transmission(math.acos(min(1.0, cos_y)))[0]
            assert acc[k, k] == pytest.approx(want, rel=1e-12)
            others = np.delete(acc[:, k], k)
            assert np.all(others == 0.0)


def _tilted(bore, angle, azimuth):
    """Unit vector at `angle` (rad) from `bore`, turned by `azimuth` about it."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(bore[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    p = np.cross(bore, helper)
    p /= np.linalg.norm(p)
    q = np.cross(bore, p)
    return (math.cos(angle) * bore
            + math.sin(angle) * (math.cos(azimuth) * p + math.sin(azimuth) * q))


def gate_edge_directions(rx, rng, n_random):
    """Propagation directions that probe every gate of `rx`: random ones over
    the whole sphere (half of them below the horizon), exact boresight hits,
    directions on and a hair either side of each branch's FOV edge and of
    the lens cone, and on the horizon."""
    toward = [rng.normal(size=(n_random, 3))]
    toward[0] /= np.linalg.norm(toward[0], axis=1, keepdims=True)
    for b in rx.branches:
        fov = math.radians(b.fov_deg)
        toward.append([b.boresight] + [
            _tilted(b.boresight, fov * (1.0 + s), rng.uniform(0.0, 2 * math.pi))
            for s in (-1e-12, 0.0, 1e-12)])
    cone = math.radians(LENS_FOV_DEG)
    for s in (-1e-12, 0.0, 1e-12, None):
        polar = math.pi / 2 if s is None else cone * (1.0 + s)
        az = rng.uniform(0.0, 2 * math.pi, 8)
        toward.append(np.stack([np.full(8, math.sin(polar)) * np.cos(az),
                                np.full(8, math.sin(polar)) * np.sin(az),
                                np.full(8, math.cos(polar))], axis=1))
    return -np.concatenate([np.asarray(t, dtype=float) for t in toward])


KINDS = ["wfov", "adr", "imaging", "detector", "lensed detector"]


def receiver_under_test(kind, tie):
    """One receiver of `kind`, where "lensed detector" is one tilted element
    under the lens (a one-branch imaging receiver) and "detector" the same
    element bare; `tie` gives two imaging pixels one boresight, so their
    cosines tie exactly."""
    if kind == "imaging":
        return tied_imaging() if tie else make_imaging()
    if kind in ("detector", "lensed detector"):
        det = DetectorSpec(np.array([0.3, -0.2, 0.9]) / math.sqrt(0.94), 35.0)
        return ReceiverSpec("imaging" if kind == "lensed detector" else "detector",
                            (det,))
    return {"wfov": make_wfov, "adr": make_adr}[kind]()


class TestSparseCapture:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(KINDS), tie=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_capture_matrix_equals_dense_reference(self, kind, tie, seed):
        rx = receiver_under_test(kind, tie)
        dirs = gate_edge_directions(rx, np.random.default_rng(seed), 300)
        got = capture_matrix(rx, dirs)
        want = oracle_capture_matrix(rx, dirs)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_entries_are_non_zero_and_ordered(self, kind):
        rx = receiver_under_test(kind, True)
        dirs = gate_edge_directions(rx, np.random.default_rng(4), 2000)
        branch, arrival, weight = sparse_capture(rx, dirs)
        assert np.all(weight > 0.0)
        for j in range(rx.branch_count):
            assert np.all(np.diff(arrival[branch == j]) > 0)
        if kind == "imaging":
            assert np.all(np.diff(arrival) > 0)     # one pixel per arrival

    @pytest.mark.parametrize("n", [_CAPTURE_ROWS + 1, 2 * _CAPTURE_ROWS + 1])
    def test_imaging_blocks_equal_dense_reference(self, n):
        """The cosines are taken `_CAPTURE_ROWS` directions at a time, and
        a last block of one direction joins the block before it; the bits
        are those of one (N, J) product.  Pixels 3 and 7 tie exactly on
        either side of every block edge.  The last direction is captured,
        and a 1-row product gives other bits for it."""
        rx = tied_imaging()
        dirs = gate_edge_directions(rx, np.random.default_rng(n), n)[-n:]
        ties = [r for e in range(_CAPTURE_ROWS, n, _CAPTURE_ROWS)
                for r in (e - 1, e) if r < n - 1]
        dirs[ties] = -np.asarray(rx.branches[3].boresight)
        dirs[-1] = -np.array(unit((0.4, 0.4, 0.9)))
        branch, arrival, _ = sparse_capture(rx, dirs)
        assert set(ties) <= set(arrival[branch == 3]) and 7 not in branch
        assert arrival[-1] == n - 1
        got = capture_matrix(rx, dirs)
        assert got.tobytes() == oracle_capture_matrix(rx, dirs).tobytes()

    def test_empty_directions(self):
        for kind in ("wfov", "imaging"):
            rx = receiver_under_test(kind, False)
            assert capture_matrix(rx, np.zeros((0, 3))).shape == (rx.branch_count, 0)


class TestBlockSlices:
    @pytest.mark.parametrize("n, want", [
        (0, [(0, 0)]), (1, [(0, 1)]), (4, [(0, 4)]), (5, [(0, 5)]),
        (8, [(0, 4), (4, 8)]), (9, [(0, 4), (4, 9)]),
        (10, [(0, 4), (4, 8), (8, 10)])])
    def test_runs_cover_the_axis_and_none_is_one_wide(self, n, want):
        assert [(s.start, s.stop) for s in block_slices(n, 4)] == want


class TestPointBins:
    """Point arrivals are binned at trace time (`raytracer._point_bins`)
    from one capture of each distinct direction, shared by the arrivals
    that have it; the bins must be those of the per-arrival capture, bit
    for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(KINDS), tie=st.booleans(),
           seed=st.integers(0, 2**32 - 1), lums=st.integers(1, 4),
           unseen=st.integers(0, 40))
    def test_binned_per_direction_equals_per_arrival(self, kind, tie, seed,
                                                     lums, unseen):
        rx = receiver_under_test(kind, tie)
        rng = np.random.default_rng(seed)
        # the LOS directions, one per luminaire, then one per element
        # that passes any luminaire's flux; `unseen` elements pass none
        table = gate_edge_directions(rx, rng, 60)
        ne, nbins = len(table) - lums + unseen, 24
        seen = np.zeros(ne, dtype=bool)
        seen[rng.choice(ne, len(table) - lums, replace=False)] = True
        passes = rng.random((lums, ne)) < 0.5
        passes[rng.integers(0, lums, ne), np.arange(ne)] = True
        passes &= seen
        hops = [(p, np.where(p, rng.random(ne), 0.0), rng.integers(0, nbins, ne))
                for p in passes]
        los = (rng.random(lums), rng.integers(0, nbins, lums))
        (got_rx, got), = _point_bins([rx], los, table, seen, iter(hops), nbins)
        assert got_rx is rx

        # every arrival in trace order: the LOS ones, then each
        # luminaire's, in element order, each with its direction row
        erow = np.cumsum(seen) - 1 + lums
        rows, flux, idx = (np.concatenate(a) for a in zip(
            (np.arange(lums), *los), *((erow[p], f[p], b[p]) for p, f, b in hops)))
        dirs = table[rows]
        assert np.unique(rows).size == len(table) <= rows.size
        want = oracle_point_bins(rx, dirs, idx, flux, nbins)
        assert got.tobytes() == want.tobytes()
        # some arrivals lie outside every FOV or behind every detector
        assert np.unique(sparse_capture(rx, dirs)[1]).size < rows.size
        if kind == "imaging" and tie:
            # pixel 7 shares pixel 3's boresight: the lower index wins
            assert got[3].any() and not got[7].any()
