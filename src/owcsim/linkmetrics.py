"""Link-level figures of merit derived from impulse responses.

Covers delay statistics, 3-dB channel bandwidth, the two-level OOK eye
decomposition, the receiver noise budget, per-branch SNR, selection and
maximum-ratio combining, BER and the delay-spread-limited data rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raytracer import ArrivalField, ImpulseResponse
from .receivers import RESPONSIVITY_A_W, ReceiverSpec

Q_ELECTRON = 1.602e-19        # C

UNBOUNDED = math.inf          # sentinel for flat spectra / zero delay spread

BW_SCAN_STEP_HZ = 1e6         # FFT grid step that brackets the 3-dB point


def to_db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0.0 else float("-inf")


@dataclass(frozen=True)
class DelayStats:
    mean_delay: float         # s
    rms_spread: float         # s


@dataclass(frozen=True)
class EyePowers:
    ps1: float                # W, power inside the bit slot (logic 1)
    ps0: float                # W, power spilling past the slot (worst-case 0)


@dataclass(frozen=True)
class NoiseBudget:
    """RMS noise currents at the receiver, combined in quadrature.

    The bandwidth, background current and preamplifier density they come
    from are the arguments of `noise_budget`.
    """

    sigma_preamp: float       # A
    sigma_background: float   # A
    sigma_signal: float       # A
    sigma_total: float        # A


@dataclass(frozen=True)
class NoiseParams:
    """Receiver noise configuration; the noise bandwidth is
    `bandwidth_factor` x bit rate (0.7 by default)."""

    preamp_density: float = 4.5e-12      # A/sqrt(Hz)
    background_current: float = 100e-6   # A
    bandwidth_factor: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.preamp_density < math.inf:
            raise ValueError("preamp density must be non-negative and finite, "
                             f"got {self.preamp_density}")
        if not 0.0 <= self.background_current < math.inf:
            raise ValueError("background current must be non-negative and "
                             f"finite, got {self.background_current}")
        if not 0.0 < self.bandwidth_factor < math.inf:
            raise ValueError("bandwidth factor must be positive and finite, "
                             f"got {self.bandwidth_factor}")

    def bandwidth(self, bitrate: float) -> float:
        return self.bandwidth_factor * bitrate


@dataclass(frozen=True)
class LinkReport:
    """Everything the evaluation prints for one receiver at one mount."""

    mount: tuple
    receiver_kind: str
    bitrate: float
    branch_power_w: tuple     # total received power per branch
    branch_snr: tuple         # linear, per branch
    branch_snr_db: tuple
    sc_branch: int            # index selected by SC
    snr_sc: float
    snr_sc_db: float
    snr_mrc: float
    snr_mrc_db: float
    ber: float                # at the MRC SNR
    delay: DelayStats         # of the SC-selected branch
    bandwidth_hz: float       # 3-dB bandwidth of the SC-selected branch
    max_rate_bps: float


def delay_stats(ir: ImpulseResponse) -> DelayStats:
    """Mean delay and RMS delay spread of a power delay profile, weighted by
    the squared bin powers."""
    p = ir.bins
    if p.size == 0 or float(p.sum()) <= 0.0:
        raise ValueError("delay statistics undefined for a zero-power impulse response")
    w = p * p
    t = ir.times()
    wsum = float(w.sum())
    mu = float((t * w).sum()) / wsum
    var = float(((t - mu) ** 2 * w).sum()) / wsum
    return DelayStats(mean_delay=mu, rms_spread=math.sqrt(max(0.0, var)))


def bandwidth_3db(ir: ImpulseResponse) -> float:
    """Lowest frequency where |H(f)| falls to 1/sqrt(2) of |H(0)|.

    H is the discrete-time Fourier transform of the binned impulse
    response.  A zero-padded FFT samples |H| up to the bin Nyquist
    frequency on a grid of about `BW_SCAN_STEP_HZ` (exactly that step when
    1 / (step x bin width) is an integer, as at 50 ps); the first sample
    below the 3-dB line brackets the crossing, which bisection of the exact
    DTFT then refines to 1 kHz.  An FFT sample within rounding of the line
    is decided by the exact DTFT instead.  Returns the UNBOUNDED sentinel
    when the spectrum never crosses the 3-dB line (e.g. a single-bin IR).
    """
    p = ir.bins
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        raise ValueError("bandwidth undefined for a zero-power impulse response")
    t = ir.times()[nz]
    p = p[nz]
    h0 = float(p.sum())
    target = 1.0 / math.sqrt(2.0)
    tie = 1e-9          # |H|/H(0) this close to the line is a tie

    # an n-point DFT samples H at k / (n * bin_width), k = 0 .. n // 2; taking
    # n no shorter than the IR means the FFT never truncates it.  The FFT is
    # 2n long: its even samples are that grid, its odd ones the midpoints
    # where the bisection starts
    n = max(ir.bins.size, round(1.0 / (BW_SCAN_STEP_HZ * ir.bin_width)))
    step = 1.0 / (n * ir.bin_width)
    fft = np.abs(np.fft.rfft(ir.bins, 2 * n)) / h0

    def below(freq, j=None):
        # FFT sample j stands for the exact DTFT at freq unless the two could
        # round to opposite sides of the line
        if j is not None and abs(fft[j] - target) > tie:
            return bool(fft[j] < target)
        ph = np.exp(-2j * math.pi * np.multiply.outer(np.array([freq]), t))
        return float(np.abs(ph @ p)[0] / h0) < target

    grid = fft[2::2]
    for k in np.flatnonzero(grid < target + tie) + 1:
        if below(k * step, 2 * k):
            break
    else:
        return UNBOUNDED
    lo, hi = (k - 1) * step, k * step
    # bisect the exact DTFT inside the bracketing interval
    j = 2 * k - 1
    for _ in range(60):
        if hi - lo <= 1e3:
            break
        mid = 0.5 * (lo + hi)
        if below(mid, j):
            hi = mid
        else:
            lo = mid
        j = None
    return 0.5 * (lo + hi)


def eye_powers(ir: ImpulseResponse, bitrate: float) -> EyePowers:
    """Worst-case OOK eye decomposition at the given bit rate.

    Power arriving within one bit period of the first arrival counts toward
    logic 1; everything later is intersymbol spill-over that raises the
    logic-0 level.  ps1 + ps0 equals the total power exactly.
    """
    if bitrate <= 0.0:
        raise ValueError("bit rate must be positive")
    p = ir.bins
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        return EyePowers(0.0, 0.0)
    t = ir.times()
    rel = t - t[nz[0]]
    slot = rel < 1.0 / bitrate
    return EyePowers(ps1=float(p[slot].sum()), ps0=float(p[~slot].sum()))


def noise_budget(avg_power_w: float, bandwidth: float,
                 background_current: float, preamp_density: float) -> NoiseBudget:
    """Shot, background and preamplifier noise currents for one branch.

    sigma_signal = sqrt(2 q R P B), with R = RESPONSIVITY_A_W,
    sigma_background = sqrt(2 q I_b B), sigma_preamp = eta sqrt(B); the
    total is their quadrature sum.
    """
    if not 0.0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    if not all(0.0 <= x < math.inf for x in
               (avg_power_w, background_current, preamp_density)):
        raise ValueError("noise inputs must be non-negative and finite")
    s_sig = math.sqrt(2.0 * Q_ELECTRON * RESPONSIVITY_A_W * avg_power_w * bandwidth)
    s_bn = math.sqrt(2.0 * Q_ELECTRON * background_current * bandwidth)
    s_pr = preamp_density * math.sqrt(bandwidth)
    s_t = math.sqrt(s_pr * s_pr + s_bn * s_bn + s_sig * s_sig)
    return NoiseBudget(s_pr, s_bn, s_sig, s_t)


def snr_ook(eye: EyePowers, sigma_total: float) -> float:
    """Linear electrical SNR of the two-level eye: (R (ps1 - ps0) / sigma)^2,
    with R = RESPONSIVITY_A_W."""
    if sigma_total <= 0.0:
        raise ValueError("total noise must be positive")
    x = RESPONSIVITY_A_W * (eye.ps1 - eye.ps0) / sigma_total
    return x * x


def combine_sc(branch_snrs) -> float:
    """Selection combining: the best single branch."""
    snrs = list(branch_snrs)
    if not snrs:
        raise ValueError("selection combining needs at least one branch")
    return max(snrs)


def combine_mrc(branch_snrs) -> float:
    """Maximum-ratio combining: branch SNRs add."""
    snrs = list(branch_snrs)
    if not snrs:
        raise ValueError("maximum-ratio combining needs at least one branch")
    return float(sum(snrs))


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = erfc(x / sqrt(2)) / 2."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_from_snr(snr_linear: float) -> float:
    """OOK bit error rate Q(sqrt(SNR))."""
    if snr_linear < 0.0:
        raise ValueError("SNR must be non-negative")
    return q_function(math.sqrt(snr_linear))


def max_data_rate(stats: DelayStats) -> float:
    """Delay-spread-limited bit rate: 1 / (10 D), unbounded when D = 0."""
    if stats.rms_spread < 0.0:
        raise ValueError("delay spread must be non-negative")
    if stats.rms_spread == 0.0:
        return UNBOUNDED
    return 1.0 / (10.0 * stats.rms_spread)


def link_report(field: ArrivalField, receiver: ReceiverSpec, bitrate: float,
                noise: NoiseParams = NoiseParams()) -> LinkReport:
    """Evaluate the full OOK link of a receiver from a traced field.

    The branch impulse responses are `field.receiver_irs(receiver)`: the
    receiver sits at the field's mount, which the report carries, and the
    link is served by the luminaires the field was traced from.  Per-branch
    eyes feed the noise budget (average received power at 50 % duty), SC
    picks the best branch, MRC sums all branches, and the BER is reported at
    the MRC SNR.  Delay statistics, bandwidth and the maximum data rate
    describe the SC-selected branch.
    """
    irs = field.receiver_irs(receiver)
    bw = noise.bandwidth(bitrate)
    snrs, powers = [], []
    for ir in irs:
        eye = eye_powers(ir, bitrate)
        avg_power = 0.5 * (eye.ps1 + eye.ps0)    # equiprobable OOK symbols
        budget = noise_budget(avg_power, bw, noise.background_current,
                              noise.preamp_density)
        snrs.append(snr_ook(eye, budget.sigma_total))
        powers.append(ir.total_power())
    sc_idx = int(np.argmax(snrs))
    snr_sc = combine_sc(snrs)
    snr_mrc = combine_mrc(snrs)
    if powers[sc_idx] <= 0.0:
        raise ValueError("no branch received any power; link is dark")
    stats = delay_stats(irs[sc_idx])
    return LinkReport(
        mount=tuple(float(c) for c in field.mount),
        receiver_kind=receiver.kind,
        bitrate=bitrate,
        branch_power_w=tuple(powers),
        branch_snr=tuple(snrs),
        branch_snr_db=tuple(to_db(s) for s in snrs),
        sc_branch=sc_idx,
        snr_sc=snr_sc,
        snr_sc_db=to_db(snr_sc),
        snr_mrc=snr_mrc,
        snr_mrc_db=to_db(snr_mrc),
        ber=ber_from_snr(snr_mrc),
        delay=stats,
        bandwidth_hz=bandwidth_3db(irs[sc_idx]),
        max_rate_bps=max_data_rate(stats),
    )
