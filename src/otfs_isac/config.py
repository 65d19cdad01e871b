"""System configuration and target/path descriptions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class SystemConfig:
    """Frame geometry, array geometry, and operating point.

    The frame is N subsymbols by M subcarriers. Subsymbol duration is tied to
    subcarrier spacing by dt = 1/df (orthogonality). Antenna spacings are in
    meters; ``half_wavelength_spacing`` builds the usual 0.5-lambda arrays.
    """

    n_doppler: int = 64          # N, subsymbols
    m_delay: int = 128           # M, subcarriers
    subcarrier_spacing_hz: float = 120e3
    carrier_freq_hz: float = 24.25e9
    n_tx: int = 4
    n_rx: int = 16
    n_comm_rx: int = 8
    tx_spacing_m: float | None = None   # defaults to lambda/2
    rx_spacing_m: float | None = None
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_doppler, self.m_delay, self.n_tx, self.n_rx, self.n_comm_rx) <= 0:
            raise ValueError("counts must be positive")
        if self.subcarrier_spacing_hz <= 0 or self.carrier_freq_hz <= 0:
            raise ValueError("frequencies must be positive")

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
