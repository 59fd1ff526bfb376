"""System-level acceptance suite.

One test per criterion; each prints a `[criterion N] PASS/FAIL` line with
the measured values before asserting (run with `pytest -v -s` to see the
lines for passing criteria too).

Three checks encode expected ratios this model does not reproduce and fail
honestly with the measurements printed: the ADR/imaging delay-spread ratio
measures about 2.7 against a [3, 30] window (criterion 7), the wide-FOV
channel at the centre mount has no 3-dB point at all (criterion 8, its
spectral floor sits near -2.3 dB), and the ADR's combiner gap exceeds the
imaging receiver's (criterion 9).  Each failing assert carries a comment
with the physical cause; everything else must stay green.
"""

import math
import time
from importlib.resources import files

import numpy as np
import pytest

import owcsim as o
from owcsim.cli import main as cli_main

from oracles import oracle_los_sum, oracle_one_bounce, oracle_q

BITRATE = 2e9          # matches the shipped reference config
NOISE = o.NoiseParams()


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def pod():
    return o.build_pod(o.PodConfig(luminaire_power_w=1.0))


@pytest.fixture(scope="module")
def fields(pod):
    """One traced arrival field per mount at the reference settings."""
    cfg = o.TraceConfig(max_order=2)
    return [o.compute_field(pod, pod.assignment[i], pod.mounts[i], cfg,
                            threads=2) for i in range(3)]


@pytest.fixture(scope="module")
def reports(pod, fields):
    """LinkReport per (mount, receiver kind)."""
    out = []
    for mi, field in enumerate(fields):
        mount = pod.mounts[mi]
        per_kind = {}
        for kind, make in (("wfov", o.make_wfov), ("adr", o.make_adr),
                           ("imaging", o.make_imaging)):
            per_kind[kind] = o.link_report(field, make(mount), BITRATE, NOISE)
        out.append(per_kind)
    return out


def test_criterion_1_los_oracle_equivalence(pod):
    cfg = o.TraceConfig(max_order=0)
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        pos = np.array([rng.uniform(0.2, 7.8), rng.uniform(0.2, 7.8),
                        rng.uniform(0.3, 2.9)])
        bore = rng.normal(size=3)
        bore /= np.linalg.norm(bore)
        fov = float(rng.uniform(30.0, 90.0))
        det = o.DetectorSpec(4e-6, 0.4, bore, fov)
        got = o.compute_field(pod, tuple(range(9)), pos,
                              cfg).detector_ir(det).total_power()
        want = oracle_los_sum(pod, bore, fov, 4e-6, pos)
        if want > 0.0:
            worst = max(worst, abs(got - want) / want)
        else:
            worst = max(worst, abs(got))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, f"20 random poses, worst relative error "
                         f"{worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_one_bounce_unit(pod):
    # luminaire 1 m above a face-up 25 cm^2 patch (rho 0.8), detector 1 m up
    # and 1 m across, face down; hand product of the two documented hop
    # factors is (2/2pi)*dA * rho*(2/(2pi*2))*cos45*cos45*A = 2e-9/pi^2
    scene = o.Scene(
        room=(3.0, 3.0, 2.0),
        panels=[o.SurfacePanel(np.array([0.975, 0.975, 0.0]),
                               np.array([0.05, 0.0, 0.0]),
                               np.array([0.0, 0.05, 0.0]),
                               np.array([0.0, 0.0, 1.0]), 0.8, "floor")],
        luminaires=[o.Luminaire.make(np.array([1.0, 1.0, 1.0]), 1.0, 60.0)],
        rows=[], mounts=[], assignment=[])
    # widen the patch grid so the panel is one element; detector wide open
    cfg = o.TraceConfig(max_order=1, first_edge=0.05)
    det = o.DetectorSpec(4e-6, 0.4, np.array([0.0, 0.0, -1.0]), 90.0)
    t0 = time.perf_counter()
    got = o.compute_field(scene, (0,), np.array([2.0, 1.0, 1.0]),
                          cfg).detector_ir(det).total_power()
    elapsed = time.perf_counter() - t0
    hand = oracle_one_bounce((1, 1, 1), (0, 0, -1), scene.luminaires[0].order,
                             1.0, (1, 1, 0), (0, 0, 1), 2.5e-3, 0.8,
                             (2, 1, 1), (0, 0, -1), 4e-6)
    closed_form = 2e-9 / math.pi ** 2
    ok = (abs(got - hand) / hand <= 1e-6
          and abs(hand - closed_form) / closed_form <= 1e-6
          and elapsed < 1.0)
    assert report(2, ok, f"single-patch gain {got:.6e} vs hand-derived "
                         f"{hand:.6e} (= 2e-9/pi^2), {elapsed:.2f} s")


def test_criterion_3_combining_laws():
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    for _ in range(1000):
        j = int(rng.integers(1, 9))
        snrs = rng.uniform(0.0, 500.0, j)
        sc = o.combine_sc(snrs)
        mrc = o.combine_mrc(snrs)
        assert sc == snrs.max()
        assert mrc == pytest.approx(snrs.sum(), rel=1e-12)
        assert mrc >= sc
        if j == 1:
            assert sc == mrc == snrs[0]
    elapsed = time.perf_counter() - t0
    assert report(3, elapsed < 1.0,
                  f"1000 random branch vectors, SC=max / MRC=sum / MRC>=SC, "
                  f"{elapsed:.2f} s")


def test_criterion_4_q_and_ber():
    t0 = time.perf_counter()
    worst = 0.0
    for x in np.arange(0.0, 8.01, 0.5):
        worst = max(worst, abs(o.q_function(float(x)) - oracle_q(float(x))))
    ber = o.ber_from_snr(36.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and abs(ber - 9.866e-10) <= 1e-12 and elapsed < 1.0
    assert report(4, ok, f"max |Q - oracle| = {worst:.2e} on x in [0, 8]; "
                         f"BER(SNR=36) = {ber:.4e}; {elapsed:.2f} s")


def test_criterion_5_lens_polynomial():
    t0 = time.perf_counter()
    exact_at_zero = o.lens_transmission(0.0) == 0.8778
    clamped = all(0.0 <= o.lens_transmission(float(y)) <= 1.0
                  for y in np.linspace(0.0, 1.6, 200))
    beyond = (o.lens_transmission(math.radians(65.0) + 1e-6) == 0.0
              and o.lens_transmission(1.2) == 0.0)
    elapsed = time.perf_counter() - t0
    ok = exact_at_zero and clamped and beyond and elapsed < 1.0
    assert report(5, ok, f"Tc(0)={o.lens_transmission(0.0)}, clamped to "
                         f"[0,1], zero beyond 65 deg; {elapsed:.2f} s")


def test_criterion_6_conservation_and_convergence(pod, fields):
    t0 = time.perf_counter()
    rho_max = 0.8
    cons = []
    for field in fields:
        first = field.totals["first_bounce_coarse_w"]
        second = field.totals["second_bounce_coarse_w"]
        cons.append(second <= rho_max * first)
    det = o.DetectorSpec(4e-6, 0.4, np.array([0.0, 0.0, 1.0]), 70.0)
    changes = []
    for mi in range(3):
        totals = []
        for edge in (0.10, 0.05):
            cfg = o.TraceConfig(max_order=1, first_edge=edge)
            f = o.compute_field(pod, pod.assignment[mi], pod.mounts[mi], cfg)
            totals.append(f.detector_ir(det).total_power())
        changes.append(abs(totals[1] - totals[0]) / totals[1])
    elapsed = time.perf_counter() - t0
    ok = all(cons) and all(c < 0.05 for c in changes) and elapsed < 1800
    assert report(6, ok,
                  f"second <= rho*first at all mounts: {all(cons)}; grid "
                  f"refinement changes {[f'{100 * c:.3f}%' for c in changes]}")


def test_criterion_7_delay_spread_ordering(reports):
    wa, ai, wi = [], [], []
    for per_kind in reports:
        dw = per_kind["wfov"].delay.rms_spread
        da = per_kind["adr"].delay.rms_spread
        di = per_kind["imaging"].delay.rms_spread
        wa.append(dw / da)
        ai.append(da / di)
        wi.append(dw / di)
    ok_wa = all(r >= 30.0 for r in wa)
    ok_ai = all(3.0 <= r <= 30.0 for r in ai)
    detail = (f"D(WFOV)/D(ADR) = {[f'{r:.1f}' for r in wa]} (need >= 30); "
              f"D(ADR)/D(ImR) = {[f'{r:.3f}' for r in ai]} (need [3, 30]); "
              f"D(WFOV)/D(ImR) = {[f'{r:.0f}' for r in wi]} (recorded, not "
              f"gated)")
    report(7, ok_wa and ok_ai, detail)
    assert ok_wa, detail
    # Known-failing: the zenith pixel's acceptance cone (about 8.5 deg to
    # its Voronoi boundary against the next ring) collects about 1/2.7 of
    # the ADR up-branch's second-order ceiling glow, not the 1/3..1/30 the
    # window asks for, because that glow concentrates near the overhead
    # unit.
    assert ok_ai, detail


def test_criterion_8_wfov_bandwidth_and_rate(reports):
    rep = reports[1]["wfov"]                 # centre mount
    bw = rep.bandwidth_hz
    rate = rep.max_rate_bps
    ok_bw = 50e6 <= bw <= 800e6
    ok_rate = 285e6 / 3.0 <= rate <= 285e6 * 3.0
    detail = (f"3-dB bandwidth = {bw} Hz (need [50 MHz, 800 MHz]); "
              f"max rate = {rate / 1e6:.1f} Mbps (need within 3x of 285)")
    report(8, ok_bw and ok_rate, detail)
    assert ok_rate, detail
    # Known-failing: with three same-data units per row the centre-mount
    # wide-FOV spectrum only dips to ~0.78 of |H(0)| (about -2.2 dB), so
    # no 3-dB frequency exists and the unbounded sentinel is returned.
    assert ok_bw, detail


def test_criterion_9_adr_vs_imaging_snr(reports):
    ra = reports[1]["adr"]
    ri = reports[1]["imaging"]
    gap = ra.snr_mrc_db - ri.snr_mrc_db
    ok_gap = 0.2 <= gap <= 3.0
    ok_mrc = ra.snr_mrc >= ra.snr_sc and ri.snr_mrc >= ri.snr_sc
    comb_a = ra.snr_mrc_db - ra.snr_sc_db
    comb_i = ri.snr_mrc_db - ri.snr_sc_db
    ok_comb = comb_i > comb_a
    detail = (f"MRC(ADR) - MRC(ImR) = {gap:.3f} dB (need [0.2, 3]); "
              f"MRC-SC gaps: ADR {comb_a:.3f} dB, ImR {comb_i:.3f} dB "
              f"(need ImR > ADR)")
    report(9, ok_gap and ok_mrc and ok_comb, detail)
    assert ok_gap and ok_mrc, detail
    # Known-failing: the lens obliquity penalty makes the imaging flanker
    # pixels weaker relative to their zenith pixel than the ADR's tilted
    # branches are to its up branch, so the ADR keeps the larger combiner
    # gap.
    assert ok_comb, detail


def test_criterion_10_thread_determinism(tmp_path):
    ref = files("owcsim").joinpath("data/pod_reference.ini").read_text()
    cfg_path = tmp_path / "ref.ini"
    cfg_path.write_text(ref)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out",
                     str(out1), "--threads", "1"]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out",
                     str(out2), "--threads", "2"]) == 0
    names1 = sorted(p.name for p in out1.glob("*.csv"))
    names2 = sorted(p.name for p in out2.glob("*.csv"))
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)
    assert report(10, identical,
                  f"{len(names1)} IR dumps byte-identical for 1 vs 2 threads")
