import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from owcsim.linkmetrics import (
    EyePowers,
    NoiseParams,
    UNBOUNDED,
    bandwidth_3db,
    ber_from_snr,
    combine_mrc,
    combine_sc,
    delay_stats,
    eye_powers,
    link_report,
    max_data_rate,
    noise_budget,
    q_function,
    snr_ook,
)
from owcsim.raytracer import ImpulseResponse, TraceConfig, compute_field
from owcsim.receivers import make_adr, make_wfov
from owcsim.scene import PodConfig, build_pod

from oracles import oracle_bandwidth_scan, oracle_q, oracle_two_path_bandwidth

Q_ELECTRON = 1.602e-19


def ir_from(bins, bin_width=1e-9):
    return ImpulseResponse(bin_width, np.asarray(bins, dtype=float))


class TestDelayStats:
    def test_single_bin_has_zero_spread(self):
        st = delay_stats(ir_from([0, 0, 2e-6]))
        assert st.rms_spread == 0.0

    def test_symmetric_two_bins(self):
        st = delay_stats(ir_from([1e-6, 1e-6]))  # centres 0.5 ns and 1.5 ns
        assert st.mean_delay == pytest.approx(1.0e-9, rel=1e-12)
        assert st.rms_spread == pytest.approx(0.5e-9, rel=1e-12)

    def test_power_squared_weighting(self):
        # powers 0.9 at t=0.5 ns and 0.1 at t=1.5 ns
        ir = ir_from([0.9, 0.1], bin_width=1e-9)
        st = delay_stats(ir)
        assert st.mean_delay == pytest.approx(0.512195e-9, rel=1e-6)
        assert st.rms_spread == pytest.approx(0.10975e-9, rel=1e-4)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        bins = rng.uniform(0.0, 1e-6, 64)
        base = delay_stats(ir_from(bins))
        shifted = delay_stats(ir_from(np.concatenate([np.zeros(33), bins])))
        scaled = delay_stats(ir_from(bins * 7.5))
        assert shifted.rms_spread == pytest.approx(base.rms_spread, rel=1e-12)
        assert shifted.mean_delay == pytest.approx(base.mean_delay + 33e-9,
                                                   rel=1e-9)
        assert scaled.rms_spread == pytest.approx(base.rms_spread, rel=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="zero-power"):
            delay_stats(ir_from([0.0, 0.0]))


class TestBandwidth:
    def test_single_bin_unbounded(self):
        assert bandwidth_3db(ir_from([0, 1e-6])) == UNBOUNDED

    def test_two_equal_paths_1ns(self):
        bins = np.zeros(21)
        bins[0] = bins[20] = 1e-6          # 50 ps bins, centres 1 ns apart
        got = bandwidth_3db(ImpulseResponse(50e-12, bins))
        assert got == pytest.approx(oracle_two_path_bandwidth(1e-9), abs=1e6)
        assert got == pytest.approx(250e6, abs=1e6)

    def test_two_equal_paths_2ns(self):
        bins = np.zeros(41)
        bins[0] = bins[40] = 1e-6
        got = bandwidth_3db(ImpulseResponse(50e-12, bins))
        assert got == pytest.approx(oracle_two_path_bandwidth(2e-9), abs=1e6)

    def test_amplitude_scaling_invariance(self):
        bins = np.zeros(21)
        bins[0] = bins[20] = 1e-6
        a = bandwidth_3db(ImpulseResponse(50e-12, bins))
        b = bandwidth_3db(ImpulseResponse(50e-12, bins * 123.0))
        assert a == pytest.approx(b, rel=1e-9)

    def test_weak_echo_never_crosses(self):
        bins = np.zeros(21)
        bins[0], bins[20] = 1.0, 0.05      # min |H| ratio 0.905: no 3-dB point
        assert bandwidth_3db(ImpulseResponse(50e-12, bins)) == UNBOUNDED

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_3db(ir_from([0.0]))

    @staticmethod
    def dtft_frequencies(monkeypatch, ir):
        """Run bandwidth_3db and count the frequencies at which it evaluates
        the exact DTFT (each evaluation is one np.exp over freqs x taps)."""
        counted = []
        real_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            counted.append(np.shape(x)[0])
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        return bandwidth_3db(ir), sum(counted)

    def test_crossing_evaluates_only_the_bisection(self, monkeypatch):
        # the FFT brackets the crossing to 1 MHz; bisecting down to 1 kHz
        # takes 10 DTFT evaluations (a full 1 MHz scan would take >= 4 096)
        bins = np.zeros(21)
        bins[0] = bins[20] = 1e-6
        got, freqs = self.dtft_frequencies(
            monkeypatch, ImpulseResponse(50e-12, bins))
        assert got == 250000488.28125
        assert freqs <= 10

    def test_dominant_bin_evaluates_no_dtft(self, monkeypatch):
        # one strong arrival and a weak tail: |H(f)| >= (2*1.0 - 1.15)/1.15
        # = 0.739 of H(0) everywhere, so no FFT sample falls below the line
        bins = np.zeros(41)
        bins[0] = 1.0
        bins[[5, 12, 30, 40]] = [0.05, 0.04, 0.03, 0.03]
        got, freqs = self.dtft_frequencies(
            monkeypatch, ImpulseResponse(50e-12, bins))
        assert got == UNBOUNDED
        assert freqs == 0

    def test_no_crossing_evaluates_no_dtft(self, monkeypatch):
        # one arrival and an exponential tail of a quarter of its power: the
        # spectrum floor is about 0.78 of H(0), as for the WFOV at the centre
        # mount, while the triangle-inequality floor (2 - 1.25) / 1.25 = 0.6
        # is below the 3-dB line and proves nothing
        bins = np.zeros(101)
        bins[0] = 1.0
        tail = 0.8 ** np.arange(100)
        bins[1:] = 0.25 * tail / tail.sum()
        h0 = bins.sum()
        assert (2.0 * bins.max() - h0) / h0 < 1.0 / math.sqrt(2.0)
        floor = np.abs(np.fft.rfft(bins, 100_000)).min() / h0
        assert 0.77 < floor < 0.79
        got, freqs = self.dtft_frequencies(
            monkeypatch, ImpulseResponse(50e-12, bins))
        assert got == UNBOUNDED
        assert freqs == 0

    @pytest.mark.parametrize("echo, want", [
        (1.0, 250000488.28125),            # equal pair
        (0.19, 415800292.96875),           # minimum 0.681, below the 3-dB line
        (0.17, UNBOUNDED),                 # minimum 0.709, above it
    ])
    def test_two_bin_values_unchanged(self, echo, want):
        # exact values of the earlier 1 MHz DTFT scan, which the FFT bracket
        # reproduces at 50 ps; for two bins the minimum of |H(f)|/H(0) is
        # (1 - a)/(1 + a)
        bins = np.zeros(21)
        bins[0], bins[20] = 1e-6, echo * 1e-6
        assert bandwidth_3db(ImpulseResponse(50e-12, bins)) == want


@st.composite
def sparse_bins(draw):
    """2-300 bins of which 1-12 carry power."""
    size = draw(st.integers(2, 300))
    taps = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12,
                         unique=True))
    powers = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(taps),
                           max_size=len(taps)))
    bins = np.zeros(size)
    bins[taps] = powers
    return bins


class TestBandwidthMatchesScan:
    """The FFT bracket against the earlier 1 MHz DTFT scan."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(bins=sparse_bins())
    @example(bins=np.array([0.0, 1.0, 0.0, 1.0]))
    def test_exact_where_the_grid_is_1mhz(self, bins):
        # at these widths 1 / (n x bin_width) is exactly 1 MHz: same bracket,
        # same bisection, same bits.  The example puts a grid sample on the
        # 3-dB line (two equal taps 100 ps apart, 2.5 GHz at 50 ps), where
        # the FFT and the exact DTFT round to opposite sides of it
        for width in (50e-12, 25e-12, 100e-12):
            ir = ImpulseResponse(width, bins)
            assert bandwidth_3db(ir) == oracle_bandwidth_scan(ir)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(bins=sparse_bins())
    def test_within_the_bisection_stop_elsewhere(self, bins):
        # elsewhere the grid step is 1 / (n x bin_width), close to but not
        # 1 MHz; both bisections stop within 1 kHz of the same crossing
        for width in (30e-12, 75e-12, 1e-9):
            ir = ImpulseResponse(width, bins)
            got, want = bandwidth_3db(ir), oracle_bandwidth_scan(ir)
            assert (got == want == UNBOUNDED) or abs(got - want) <= 1e3


class TestEyePowers:
    def test_all_inside_one_bit(self):
        eye = eye_powers(ir_from([1e-6, 2e-6], bin_width=0.1e-9), 1e9)
        assert eye.ps0 == 0.0
        assert eye.ps1 == pytest.approx(3e-6, rel=1e-12)

    def test_eighty_twenty_split(self):
        bins = np.zeros(30)
        bins[0] = 0.8e-6
        bins[25] = 0.2e-6                  # 2.5 ns after the first arrival
        eye = eye_powers(ImpulseResponse(0.1e-9, bins), 1e9)
        assert eye.ps1 == pytest.approx(0.8e-6, rel=1e-12)
        assert eye.ps0 == pytest.approx(0.2e-6, rel=1e-12)

    def test_two_bin_classification_at_1gbps(self):
        # 0.7 uW at 0.2 ns and 0.3 uW at 1.4 ns (0.4 ns bins)
        ir = ir_from([0.7e-6, 0, 0, 0.3e-6], bin_width=0.4e-9)
        assert ir.times()[0] == pytest.approx(0.2e-9)
        assert ir.times()[3] == pytest.approx(1.4e-9)
        eye = eye_powers(ir, 1e9)
        assert eye.ps1 == pytest.approx(0.7e-6, rel=1e-12)
        assert eye.ps0 == pytest.approx(0.3e-6, rel=1e-12)

    def test_conserves_total_power(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            bins = rng.uniform(0, 1e-6, 50) * (rng.random(50) > 0.4)
            ir = ir_from(bins, bin_width=0.2e-9)
            rb = float(rng.uniform(1e8, 1e10))
            eye = eye_powers(ir, rb)
            assert eye.ps1 + eye.ps0 == pytest.approx(ir.total_power(),
                                                      rel=1e-12, abs=1e-30)
            assert eye.ps1 >= 0 and eye.ps0 >= 0

    def test_bad_bitrate(self):
        with pytest.raises(ValueError):
            eye_powers(ir_from([1e-6]), 0.0)

    @pytest.mark.parametrize("bitrate", [math.nan, math.inf, -math.inf])
    def test_non_finite_bitrate_is_refused(self, bitrate):
        # nan and inf pass a `<= 0` test and gave ps1 = 0, a closed eye
        with pytest.raises(ValueError, match="bit rate must be positive and finite"):
            eye_powers(ir_from([1e-6, 2e-6]), bitrate)


class TestNoiseBudget:
    def test_preamp_only(self):
        nb = noise_budget(0.0, 1e9, 0.0, 4.5e-12)
        assert nb.sigma_total == nb.sigma_preamp
        assert nb.sigma_total == pytest.approx(4.5e-12 * math.sqrt(1e9),
                                               rel=1e-12)

    def test_pythagorean_sum(self):
        # choose inputs so the components come out 3, 4 and 0
        eta = 3.0
        bg = 16.0 / (2.0 * Q_ELECTRON)
        nb = noise_budget(0.0, 1.0, bg, eta)
        assert nb.sigma_preamp == pytest.approx(3.0, rel=1e-12)
        assert nb.sigma_background == pytest.approx(4.0, rel=1e-12)
        assert nb.sigma_signal == 0.0
        assert nb.sigma_total == pytest.approx(5.0, rel=1e-12)

    def test_signal_shot_noise_value(self):
        nb = noise_budget(1e-6, 1e9, 0.0, 0.0)
        assert nb.sigma_signal == pytest.approx(1.1321e-8, rel=1e-4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            noise_budget(1e-6, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            noise_budget(-1e-6, 1e9, 0.0, 0.0)

    @pytest.mark.parametrize("arg", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_inputs(self, arg, bad):
        args = [1e-6, 1e9, 100e-6, 4.5e-12]
        args[arg] = bad
        with pytest.raises(ValueError, match="finite"):
            noise_budget(*args)


class TestNoiseParams:
    # a NaN preamp density once gave snr_sc_db = -inf, ber = nan and
    # max_rate_bps = inf from link_report without an error
    @pytest.mark.parametrize("field, values", [
        ("preamp_density", [math.nan, math.inf, -1e-12]),
        ("background_current", [math.nan, math.inf, -1e-6]),
        ("bandwidth_factor", [math.nan, math.inf, 0.0, -0.7]),
    ])
    def test_rejects_non_finite_and_out_of_range(self, field, values):
        for value in values:
            with pytest.raises(ValueError, match="finite"):
                NoiseParams(**{field: value})

    def test_range_edges_accepted(self):
        noise = NoiseParams(preamp_density=0.0, background_current=0.0,
                            bandwidth_factor=1e-3)
        assert noise.bandwidth(2e9) == pytest.approx(2e6)


class TestSnrAndCombining:
    def test_closed_eye(self):
        assert snr_ook(EyePowers(2e-6, 2e-6), 1e-8) == 0.0

    def test_direct_substitution(self):
        # (R (ps1 - ps0) / sigma)^2 with R = 0.4 A/W
        assert snr_ook(EyePowers(3.0, 0.0), 1.0) == pytest.approx(1.44)

    def test_reference_case(self):
        snr = snr_ook(EyePowers(1e-6, 0.0), 1e-8)
        assert snr == pytest.approx(1600.0, rel=1e-12)
        assert 10 * math.log10(snr) == pytest.approx(32.04, abs=5e-3)

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            snr_ook(EyePowers(1e-6, 0.0), 0.0)

    def test_combiner_examples(self):
        assert combine_sc([9.0]) == 9.0
        assert combine_sc([4.0, 9.0]) == 9.0
        assert combine_sc([1.0, 1.0, 1.0]) == 1.0
        assert combine_mrc([9.0]) == 9.0
        assert combine_mrc([4.0, 9.0]) == 13.0
        assert combine_mrc([1.0, 1.0, 1.0]) == pytest.approx(3.0)
        assert 10 * math.log10(3.0) == pytest.approx(4.77, abs=5e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_sc([])
        with pytest.raises(ValueError):
            combine_mrc([])

    def test_eye_scaling_squares_into_snr(self):
        # scaling every branch's eye opening by k scales SC/MRC by k^2 and
        # leaves the selected branch unchanged
        rng = np.random.default_rng(14)
        diffs = rng.uniform(0.1e-6, 2e-6, 5)
        k = 3.7
        base = [snr_ook(EyePowers(d, 0.0), 2e-8) for d in diffs]
        scaled = [snr_ook(EyePowers(k * d, 0.0), 2e-8) for d in diffs]
        assert combine_sc(scaled) == pytest.approx(k * k * combine_sc(base),
                                                   rel=1e-12)
        assert combine_mrc(scaled) == pytest.approx(k * k * combine_mrc(base),
                                                    rel=1e-12)
        assert int(np.argmax(scaled)) == int(np.argmax(base))


class TestQAndBer:
    def test_q_zero(self):
        assert q_function(0.0) == 0.5

    def test_q_six_vs_oracle(self):
        assert q_function(6.0) == pytest.approx(9.866e-10, abs=1e-12)
        assert q_function(6.0) == pytest.approx(oracle_q(6.0), abs=1e-14)

    def test_q_symmetry(self):
        assert q_function(-1.7) == pytest.approx(1.0 - q_function(1.7),
                                                 abs=1e-15)

    def test_q_monotone(self):
        xs = np.linspace(0, 8, 100)
        qs = [q_function(float(x)) for x in xs]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_ber_values(self):
        assert ber_from_snr(0.0) == 0.5
        assert ber_from_snr(36.0) == pytest.approx(9.866e-10, abs=1e-12)
        assert ber_from_snr(100.0) < ber_from_snr(36.0)

    def test_ber_rejects_negative(self):
        with pytest.raises(ValueError):
            ber_from_snr(-1.0)

    @pytest.mark.parametrize("snr", [math.nan, math.inf])
    def test_ber_rejects_non_finite(self, snr):
        with pytest.raises(ValueError, match="SNR must be non-negative and finite"):
            ber_from_snr(snr)


class TestMaxDataRate:
    def test_zero_spread_unbounded(self):
        from owcsim.linkmetrics import DelayStats
        assert max_data_rate(DelayStats(0.0, 0.0)) == UNBOUNDED

    def test_reference_rates(self):
        from owcsim.linkmetrics import DelayStats
        assert max_data_rate(DelayStats(0, 351e-12)) == pytest.approx(
            285e6, rel=2e-3)
        assert max_data_rate(DelayStats(0, 7.04e-12)) == pytest.approx(
            14.2e9, rel=2e-3)


@pytest.fixture(scope="module")
def pod():
    return build_pod(PodConfig(luminaire_power_w=1.0))


def report_at(pod, mi, make, cfg):
    """Link report of one receiver kind at reference mount `mi`."""
    mount = pod.mounts[mi]
    field = compute_field(pod, pod.assigned_luminaires(mount), mount, cfg)
    return link_report(field, make(), 1e9)


class TestLinkReport:
    def test_wfov_collapses_combiners(self, pod):
        rep = report_at(pod, 0, make_wfov, TraceConfig(max_order=1, first_edge=0.2))
        assert rep.snr_sc == rep.snr_mrc == rep.branch_snr[0]
        assert rep.sc_branch == 0

    def test_adr_mrc_at_least_sc(self, pod):
        rep = report_at(pod, 1, make_adr, TraceConfig(max_order=1, first_edge=0.2))
        assert rep.snr_mrc >= rep.snr_sc >= max(rep.branch_snr) - 1e-30
        assert rep.snr_sc == max(rep.branch_snr)
        assert 0.0 <= rep.ber <= 0.5

    def test_branch_snr_scaling_moves_combined(self, pod):
        # doubling luminaire power quadruples linear SNR where the eye is
        # shot-noise-light; at least check ordering and argmax stability
        cfg = TraceConfig(max_order=0)
        weak = report_at(pod, 1, make_adr, cfg)
        strong = report_at(build_pod(PodConfig(luminaire_power_w=2.0)), 1,
                           make_adr, cfg)
        assert strong.snr_sc > weak.snr_sc
        assert strong.sc_branch == weak.sc_branch

    def test_noise_bandwidth_rule(self):
        assert NoiseParams().bandwidth(2e9) == pytest.approx(1.4e9)
