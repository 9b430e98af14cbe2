"""Propagation, link feasibility, airtime and energy costs.

Shared by every protocol: log-distance path loss calibrated so that the
configured radio range meets the reception threshold exactly, plus a
first-order radio energy model (electronics + amplifier terms).
"""

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class RadioParams:
    """Propagation calibration.

    ``tx_power`` is derived so that ``received_power(radio_range)`` equals
    ``reception_threshold`` exactly; the two Table-style knobs (range and
    threshold) therefore stay mutually consistent.
    """

    path_loss_exponent: float
    reference_distance: float   # m
    reception_threshold: float  # dBm
    radio_range: float          # m
    bandwidth: float            # bits/s

    def __post_init__(self):
        # a non-finite calibration makes every power NaN or infinite, and
        # link_bounds would then search for the range edge forever
        if not 2 <= self.path_loss_exponent < math.inf:
            raise ValueError("path loss exponent must be finite and >= 2")
        if not math.inf > self.radio_range > self.reference_distance > 0:
            raise ValueError("require inf > radio_range > reference_distance > 0")
        if not math.isfinite(self.reception_threshold):
            raise ValueError("reception_threshold must be finite")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def tx_power(self) -> float:
        """Transmit power in dBm, derived from the calibration constraint."""
        return self.reception_threshold + 10.0 * self.path_loss_exponent * math.log10(
            self.radio_range / self.reference_distance
        )


def received_power(params: RadioParams, distance: float) -> float:
    """Received power in dBm at ``distance`` metres (log-distance model)."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    d = max(distance, params.reference_distance)
    return params.tx_power - 10.0 * params.path_loss_exponent * math.log10(
        d / params.reference_distance
    )


def link_feasible(params: RadioParams, distance: float) -> bool:
    """True iff a frame sent over ``distance`` arrives above the threshold.

    By calibration this is equivalent to ``distance <= radio_range``; the
    power comparison is kept as the definition, the distance shortcut is
    what tests check it against.
    """
    return received_power(params, distance) >= params.reception_threshold


def link_bounds(params: RadioParams) -> Tuple[float, float]:
    """Distances ``(inner, outer)`` that bracket the edge of link_feasible.

    ``link_feasible`` holds at every distance up to ``inner`` and fails at
    every distance from ``outer`` on; only distances strictly between need
    the power comparison. By calibration the edge is ``radio_range``, but
    the comparison may round either way there, so each bound starts at
    ``radio_range`` and moves outwards until the comparison agrees with it.
    Received power never rises with distance, so one distance that agrees
    settles every distance beyond it.
    """
    inner = outer = params.radio_range
    step = params.radio_range * 2.0 ** -40
    while not link_feasible(params, inner):
        inner = max(inner - step, 0.0)
        step *= 2
    step = params.radio_range * 2.0 ** -40
    while link_feasible(params, outer):
        outer += step
        step *= 2
    return inner, outer


def frame_airtime(params: RadioParams, bits: int) -> float:
    """Channel occupancy of a ``bits``-bit frame, in seconds."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return bits / params.bandwidth


@dataclass(frozen=True)
class EnergyCoefficients:
    """First-order radio model coefficients."""

    elec: float  # J/bit, electronics (both tx and rx)
    amp: float   # J/bit/m^2, amplifier

    def __post_init__(self):
        if not (0 < self.elec < math.inf and 0 < self.amp < math.inf):  # NaN too
            raise ValueError("energy coefficients must be positive and finite")


def tx_energy(coeff: EnergyCoefficients, bits: int, distance: float) -> float:
    """Energy to transmit ``bits`` over ``distance`` metres, in joules."""
    if bits < 0 or distance < 0:
        raise ValueError("bits and distance must be non-negative")
    return coeff.elec * bits + coeff.amp * bits * distance * distance


def rx_energy(coeff: EnergyCoefficients, bits: int) -> float:
    """Energy to receive ``bits``, in joules (distance independent)."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return coeff.elec * bits

