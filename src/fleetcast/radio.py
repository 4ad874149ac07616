"""Point-to-point radio model: rate law, its power inversion, subrange energies.

Edge weights used throughout the planner are per-packet transmission
*energies* in joules (required power times the slot length), so summing them
over a plan yields a physically additive quantity. Display scaling to other
units is a presentation concern handled by the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jsonio import check_int, check_number

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer constants plus packet/slot sizing.

    bandwidth_hz:       channel bandwidth in Hz.
    path_loss_exponent: power-law decay of the received signal with distance.
    noise_density:      thermal noise spectral density in W/Hz.
    packet_bits:        size of one piece of information in bits.
    slot_seconds:       length of one time unit in seconds.
    """

    bandwidth_hz: float
    path_loss_exponent: float
    noise_density: float
    packet_bits: int
    slot_seconds: float

    def __post_init__(self):
        for name in ("bandwidth_hz", "path_loss_exponent", "noise_density",
                     "slot_seconds"):
            check_number(getattr(self, name), name, ValueError, positive=True)
        check_int(self.packet_bits, "packet_bits", ValueError, low=1)


def transmission_rate(params: RadioParams, power: float, distance: float) -> float:
    """Achievable rate in bits/s when sending at `power` W over `distance` m."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if power < 0:
        raise ValueError(f"power must be nonnegative, got {power}")
    snr = (power * distance ** (-params.path_loss_exponent)
           / (params.noise_density * params.bandwidth_hz))
    # log1p keeps tiny rates accurate; plain log2 keeps 1 + snr = 2^k exact
    if snr < 1.0:
        return params.bandwidth_hz * math.log1p(snr) / _LN2
    return params.bandwidth_hz * math.log2(1.0 + snr)


def required_power(params: RadioParams, distance: float, rate_demand: float) -> float:
    """Transmit power in W sustaining `rate_demand` bits/s over `distance` m.

    Algebraic inverse of :func:`transmission_rate`; the pair round-trips to
    within 1e-9 relative error.
    """
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if rate_demand < 0:
        raise ValueError(f"rate_demand must be nonnegative, got {rate_demand}")
    x = rate_demand / params.bandwidth_hz
    # expm1 below one bandwidth multiple mirrors the log1p branch of the rate
    snr = math.expm1(x * _LN2) if x < 1.0 else 2.0 ** x - 1.0
    return snr * params.noise_density * params.bandwidth_hz \
        * distance ** params.path_loss_exponent


def packet_rate_demand(params: RadioParams) -> float:
    """Rate needed to move one whole packet across a link within one slot."""
    return params.packet_bits / params.slot_seconds


def subrange_weight(params: RadioParams, outer_radius: float) -> float:
    """Per-packet transmission energy in J charged for a given subrange.

    Every receiver inside a subrange is charged the energy needed to reach
    the subrange's outer edge, the worst case within it.
    """
    if outer_radius <= 0:
        raise ValueError(f"outer_radius must be positive, got {outer_radius}")
    return required_power(params, outer_radius, packet_rate_demand(params)) \
        * params.slot_seconds
