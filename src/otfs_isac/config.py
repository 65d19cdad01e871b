"""System configuration and target/path descriptions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import COUNT, field_errors, param

SPEED_OF_LIGHT = 299_792_458.0

# Physical bounds of the frame and array geometry. Each spans every real link
# by orders of magnitude and keeps the quantities derived from it (1/df, the
# wavelength, lambda/g) normal floats, where 5e-324 or 1e300 overflows or
# divides by zero. Subcarrier spacing: 1 Hz to 1 GHz (5G NR uses 15 to 960
# kHz). Carrier: 1 MHz (MF radio) to 10 THz (far infrared). Antenna spacing:
# 1 um to 1 km.
SUBCARRIER_SPACING_BOUND_HZ = "[1, 1e9]"
CARRIER_FREQ_BOUND_HZ = "[1e6, 1e13]"
ANTENNA_SPACING_BOUND_M = "[1e-6, 1e3]"
# A target moves slower than light, |v| < c, so its Doppler 2 v f_c / c stays
# below 2 f_c. A velocity of 1e300 m/s would make the Doppler inf and the
# channel grid NaN, and a comm-ber run would still exit 0.
VELOCITY_BOUND_MPS = "(-299792458, 299792458)"


@dataclass(frozen=True)
class SystemConfig:
    """Frame geometry, array geometry, and operating point.

    The frame is N subsymbols by M subcarriers. Subsymbol duration is tied to
    subcarrier spacing by dt = 1/df (orthogonality). Antenna spacings are in
    meters; None (the default) means half a wavelength. Each field's unit and
    bound are the scenario schema's (``schema.param``).
    """

    n_doppler: int = param(64, bound=COUNT)              # N, subsymbols
    m_delay: int = param(128, bound=COUNT)               # M, subcarriers
    subcarrier_spacing_hz: float = param(120e3, "Hz", SUBCARRIER_SPACING_BOUND_HZ)
    carrier_freq_hz: float = param(24.25e9, "Hz", CARRIER_FREQ_BOUND_HZ)
    n_tx: int = param(4, bound=COUNT)
    n_rx: int = param(16, bound=COUNT)
    n_comm_rx: int = param(8, bound=COUNT)
    tx_spacing_m: float | None = param(None, "m", ANTENNA_SPACING_BOUND_M)    # None: lambda/2
    rx_spacing_m: float | None = param(None, "m", ANTENNA_SPACING_BOUND_M)

    def __post_init__(self):
        errors = field_errors(self)
        if errors:
            raise ValueError("; ".join(errors))

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def doppler_spacing_hz(self) -> float:
        return 1.0 / (self.n_doppler * self.symbol_duration_s)

    @property
    def delay_spacing_s(self) -> float:
        return 1.0 / (self.m_delay * self.subcarrier_spacing_hz)

    @property
    def g_t(self) -> float:
        return self.tx_spacing_m if self.tx_spacing_m is not None else 0.5 * self.wavelength_m

    @property
    def g_r(self) -> float:
        return self.rx_spacing_m if self.rx_spacing_m is not None else 0.5 * self.wavelength_m


@dataclass(frozen=True)
class Target:
    """One scatterer / propagation path.

    angle is the steering angle in radians, delay the round-trip delay in
    seconds, doppler the round-trip Doppler shift in Hz.
    """

    angle_rad: float
    delay_s: float
    doppler_hz: float
    gain: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("delay must be non-negative")
        if abs(self.angle_rad) >= np.pi / 2:
            raise ValueError("angle must lie in (-pi/2, pi/2)")

    @staticmethod
    def from_range_velocity(angle_deg: float, range_m: float, velocity_mps: float,
                            carrier_freq_hz: float, gain: complex = 1.0 + 0.0j) -> "Target":
        return Target(
            angle_rad=np.deg2rad(angle_deg),
            delay_s=2.0 * range_m / SPEED_OF_LIGHT,
            doppler_hz=2.0 * velocity_mps * carrier_freq_hz / SPEED_OF_LIGHT,
            gain=gain,
        )

    @property
    def range_m(self) -> float:
        return self.delay_s * SPEED_OF_LIGHT / 2.0

    def velocity_mps(self, carrier_freq_hz: float) -> float:
        return self.doppler_hz * SPEED_OF_LIGHT / (2.0 * carrier_freq_hz)


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Derive an independent RNG stream from a master seed and integer keys.

    Streams for distinct key tuples are statistically independent, which keeps
    parallel Monte Carlo trials reproducible regardless of execution order.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in keys)))


def unit_phases(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-magnitude complex values with phases uniform on [0, 2pi)."""
    return np.exp(2j * np.pi * rng.random(shape))
