"""Synthetic burst test signals with exactly known instantaneous frequency.

Two generators are provided:

* ``gen_x1``: a noiseless pair of fixed tones (20 and 40 Hz) sharing a
  two-burst raised-cosine envelope.  Useful for cross-term studies
  because the two tones produce interference midway at 30 Hz in bilinear
  distributions.
* ``gen_x2``: a 40 Hz tone plus a quadratic-IF chirp on the same burst
  supports, contaminated with white Gaussian noise at a configurable SNR.

Both return the clean per-component waveforms and exact IF trajectories so
estimators can be scored against ground truth.  The burst layout (supports,
peaks and envelope shape) is stated once, in ``_bursts``; each signal's
``params["segments"]`` (``params.segments`` in ``truth.json``) records it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import IFTrajectory, SampledSignal, add_white_noise

@dataclass(frozen=True)
class SyntheticSignal:
    """Generated test signal bundled with its exact ground truth.

    ``components`` holds each clean constituent separately; ``clean`` is
    their sum before noise; ``signal`` is what an estimator actually sees.
    ``true_if[i].valid`` marks exactly where component i's envelope is
    nonzero.
    """

    signal: SampledSignal
    clean: SampledSignal
    components: tuple
    true_if: tuple
    signal_id: str
    params: dict

    def __post_init__(self):
        n = len(self.signal)
        if len(self.clean) != n or any(len(c) != n for c in self.components):
            raise ValueError("component lengths must match the signal")
        for traj in self.true_if:
            if len(traj) != n:
                raise ValueError("trajectory length must match the signal")


def true_if(sig: SyntheticSignal, component: int) -> IFTrajectory:
    """Exact IF trajectory of one component on the signal's time grid."""
    if not 0 <= component < len(sig.true_if):
        raise ValueError(
            f"component {component} out of range (signal has {len(sig.true_if)})"
        )
    return sig.true_if[component]


def _bursts(
    sample_rate_hz: float, duration_s: float, peaks: tuple, t_ref_mode: str, shared_t_ref_s: float
) -> tuple:
    """Time axis, envelope and bursts of the two-burst layout.

    The bursts sit on (0.25, 0.40] and (0.70, 0.83] with the given peaks and
    a 7 Hz raised cosine.  ``t_ref_mode`` "onset" references each burst's
    cosine to its own onset so the envelope rises from zero; "shared"
    references both bursts to ``shared_t_ref_s``, reproducing a piecewise
    definition written against a common clock (which can start a burst at
    nonzero amplitude).  Each burst is (onset, support mask, parameter
    record).
    """
    # written so that NaN fails them too
    if not 160.0 <= sample_rate_hz < math.inf:
        raise ValueError(
            f"sample_rate_hz must be finite and at least 160 (got {sample_rate_hz}); "
            "the 40 Hz component needs headroom below Nyquist"
        )
    if not 1.0 <= duration_s < math.inf:
        raise ValueError(
            f"duration_s must be finite and at least 1 to span the burst layout (got {duration_s})"
        )
    if t_ref_mode not in ("onset", "shared"):
        raise ValueError(f"t_ref_mode must be 'onset' or 'shared', got {t_ref_mode!r}")
    n = sample_rate_hz * duration_s
    if not n < np.iinfo(np.intp).max:  # inf included
        raise ValueError(f"sample_rate_hz x duration_s = {sample_rate_hz} x {duration_s}: "
                         "more samples than an array can hold")
    t = np.arange(int(round(n))) / sample_rate_hz
    env = np.zeros_like(t)
    bursts = []
    for onset, end, peak in zip((0.25, 0.70), (0.40, 0.83), peaks):
        t_ref = shared_t_ref_s if t_ref_mode == "shared" else onset
        m = (t > onset) & (t <= end)
        env[m] = peak * (0.5 - 0.5 * np.cos(2.0 * np.pi * 7.0 * (t[m] - t_ref)))
        record = {"t_start_s": onset, "t_end_s": end, "form": "raised_cosine",
                  "peak": peak, "rate_hz": 7.0, "t_ref_s": t_ref}
        bursts.append((onset, m, record))
    return t, env, bursts


def _synthetic(
    signal_id: str, sample_rate_hz: float, t: np.ndarray, valid: np.ndarray,
    waves: tuple, freqs: tuple, params: dict,
) -> SyntheticSignal:
    """Noiseless record of two components; each IF (a constant or an array)
    is valid where ``valid``."""
    # not sum(): 0 + (-0.0) would flip the sign of negative-zero samples
    clean = SampledSignal(waves[0] + waves[1], sample_rate_hz)
    return SyntheticSignal(
        signal=clean,
        clean=clean,
        components=tuple(SampledSignal(w, sample_rate_hz) for w in waves),
        true_if=tuple(IFTrajectory(t, np.full(t.size, f), valid) for f in freqs),
        signal_id=signal_id,
        params=params,
    )


def gen_x1(
    sample_rate_hz: float = 320.0,
    duration_s: float = 1.0,
    t_ref_mode: str = "onset",
    shared_t_ref_s: float = 0.75,
) -> SyntheticSignal:
    """Two-tone burst signal: -A(t) sin(2*pi*20*t + 94) + 0.9 A(t) sin(2*pi*40*t + 188).

    A(t) is zero outside two raised-cosine bursts on (0.25, 0.40] (peak 1.0)
    and (0.70, 0.83] (peak 0.90).  Phase offsets are radians.  Ground truth
    is the pair of constant trajectories at 20 and 40 Hz on the burst
    support.  Deterministic (no noise).
    """
    t, env, bursts = _bursts(sample_rate_hz, duration_s, (1.0, 0.90), t_ref_mode, shared_t_ref_s)
    comp0 = -env * np.sin(2.0 * np.pi * 20.0 * t + 94.0)
    comp1 = 0.9 * env * np.sin(2.0 * np.pi * 40.0 * t + 188.0)
    params = {
        "sample_rate_hz": sample_rate_hz,
        "duration_s": duration_s,
        "tones_hz": [20.0, 40.0],
        "tone_scales": [-1.0, 0.9],
        "phases_rad": [94.0, 188.0],
        "t_ref_mode": t_ref_mode,
        "segments": [record for _, _, record in bursts],
    }
    return _synthetic("x1", sample_rate_hz, t, env > 0.0, (comp0, comp1), (20.0, 40.0), params)


def chirp_if_hz(tau: np.ndarray, phase_coeffs: Sequence[float] = (870.0, -215.0, 20.0)) -> np.ndarray:
    """IF of the burst chirp at local time tau since burst onset.

    The chirp phase is 2*pi*(c2*tau^2 + c1*tau + c0)*tau, so the IF is the
    phase derivative over 2*pi: 3*c2*tau^2 + 2*c1*tau + c0.
    """
    c2, c1, c0 = phase_coeffs
    tau = np.asarray(tau, dtype=np.float64)
    return 3.0 * c2 * tau**2 + 2.0 * c1 * tau + c0


def gen_x2(
    sample_rate_hz: float = 320.0,
    duration_s: float = 1.0,
    snr: float = 10.0,
    seed: int = 1,
    t_ref_mode: str = "onset",
    shared_t_ref_s: float = 0.75,
    tone_hz: float = 40.0,
    tone_scale: float = -0.5,
    chirp_coeffs: tuple[float, float, float] = (870.0, -215.0, 20.0),
    snr_is_db: bool = False,
) -> SyntheticSignal:
    """Tone-plus-chirp burst signal in white Gaussian noise.

    Component 0 is ``tone_scale * A(t) * sin(2*pi*tone_hz*t)``; component 1
    restarts a polynomial-phase chirp at each burst onset,
    ``A(t) * sin(2*pi*(c2*tau^2 + c1*tau + c0)*tau)`` with tau the time since
    onset, giving IF ``3*c2*tau^2 + 2*c1*tau + c0`` (20 Hz at onset for the
    default coefficients).  Bursts sit on (0.25, 0.40] (peak 1.0) and
    (0.70, 0.83] (peak 0.5).  ``snr`` is a linear power ratio unless
    ``snr_is_db``; ``core.add_white_noise`` states which values are valid
    (a positive ratio; in dB, 0 and negative values too, and a ratio past
    the float range is noiseless).  Pass ``math.inf`` for a noiseless
    signal.  Deterministic given ``seed``.
    """
    t, env, bursts = _bursts(sample_rate_hz, duration_s, (1.0, 0.5), t_ref_mode, shared_t_ref_s)
    comp_tone = tone_scale * env * np.sin(2.0 * np.pi * tone_hz * t)

    c2, c1, c0 = chirp_coeffs
    comp_chirp = np.zeros_like(t)
    if_chirp = np.zeros_like(t)
    for onset, m, _ in bursts:
        tau = t[m] - onset
        phase = 2.0 * np.pi * (c2 * tau**2 + c1 * tau + c0) * tau
        comp_chirp[m] = env[m] * np.sin(phase)
        if_chirp[m] = chirp_if_hz(tau, chirp_coeffs)

    active = env > 0.0
    if tone_hz >= sample_rate_hz / 2.0 or np.any(if_chirp[active] >= sample_rate_hz / 2.0):
        raise ValueError("component IF reaches Nyquist; raise sample_rate_hz")
    if np.any(if_chirp[active] < 0.0):
        raise ValueError("chirp IF goes negative on its support; check chirp_coeffs")

    params = {
        "sample_rate_hz": sample_rate_hz,
        "duration_s": duration_s,
        "snr": snr,
        "snr_is_db": snr_is_db,
        "seed": seed,
        "tone_hz": tone_hz,
        "tone_scale": tone_scale,
        "chirp_phase_coeffs": list(chirp_coeffs),
        "t_ref_mode": t_ref_mode,
        "segments": [record for _, _, record in bursts],
    }
    waves, freqs = (comp_tone, comp_chirp), (tone_hz, if_chirp)
    sig = _synthetic("x2", sample_rate_hz, t, active, waves, freqs, params)
    return replace(sig, signal=add_white_noise(sig.clean, snr, seed, db=snr_is_db))


GENERATORS = {"x1": gen_x1, "x2": gen_x2}
