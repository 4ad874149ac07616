"""Radio model: frozen worked values, inversion round trip, scaling laws."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetcast.radio import (RadioParams, packet_rate_demand, required_power,
                             subrange_weight, transmission_rate)

PAPER = RadioParams(bandwidth_hz=40e6, path_loss_exponent=2.0,
                    noise_density=1e-9, packet_bits=1_600_000,
                    slot_seconds=0.01)


def test_rate_zero_power():
    assert transmission_rate(PAPER, 0.0, 10.0) == 0.0


def test_rate_unit_snr_gives_bandwidth():
    # power * d^-a / (N0 * B) == 1  =>  rate == B exactly
    power = PAPER.noise_density * PAPER.bandwidth_hz * 10.0 ** 2
    assert transmission_rate(PAPER, power, 10.0) == PAPER.bandwidth_hz


def test_rate_worked_value():
    # SNR = 60 * 10^-2 / (1e-9 * 4e7) = 15, log2(16) = 4, rate = 1.6e8
    assert transmission_rate(PAPER, 60.0, 10.0) == pytest.approx(1.6e8, rel=1e-12)


def test_rate_rejects_bad_domain():
    with pytest.raises(ValueError):
        transmission_rate(PAPER, 10.0, 0.0)
    with pytest.raises(ValueError):
        transmission_rate(PAPER, 10.0, -1.0)
    with pytest.raises(ValueError):
        transmission_rate(PAPER, -1.0, 10.0)


def test_required_power_zero_rate():
    assert required_power(PAPER, 123.0, 0.0) == 0.0


def test_required_power_worked_values():
    assert required_power(PAPER, 10.0, 1.6e8) == pytest.approx(60.0, rel=1e-12)
    # d^alpha quadruples the power at alpha = 2
    assert required_power(PAPER, 20.0, 1.6e8) == pytest.approx(240.0, rel=1e-12)


def test_packet_rate_demand():
    assert packet_rate_demand(PAPER) == pytest.approx(1.6e8, rel=1e-12)
    tiny = RadioParams(bandwidth_hz=1.0, path_loss_exponent=1.0,
                       noise_density=1.0, packet_bits=8, slot_seconds=1.0)
    assert packet_rate_demand(tiny) == 8.0


def test_params_reject_nonpositive_fields():
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=40e6, path_loss_exponent=2.0,
                    noise_density=1e-9, packet_bits=0, slot_seconds=0.01)
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=-1.0, path_loss_exponent=2.0,
                    noise_density=1e-9, packet_bits=8, slot_seconds=0.01)
    with pytest.raises(ValueError):
        RadioParams(bandwidth_hz=40e6, path_loss_exponent=2.0,
                    noise_density=1e-9, packet_bits=8, slot_seconds=0.0)


def test_subrange_weight_worked_value():
    # 60 W for one 0.01 s slot
    assert subrange_weight(PAPER, 10.0) == pytest.approx(0.6, rel=1e-12)


def test_subrange_weight_power_law():
    assert subrange_weight(PAPER, 20.0) == pytest.approx(
        4 * subrange_weight(PAPER, 10.0), rel=1e-12)


def test_subrange_weight_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        subrange_weight(PAPER, 0.0)


@st.composite
def radio_params(draw):
    return RadioParams(
        bandwidth_hz=draw(st.floats(1e5, 1e9)),
        path_loss_exponent=draw(st.floats(1.0, 4.0)),
        noise_density=draw(st.floats(1e-12, 1e-6)),
        packet_bits=draw(st.integers(1, 10_000_000)),
        slot_seconds=draw(st.floats(1e-4, 10.0)),
    )


@given(radio_params(), st.floats(0.1, 5e3), st.floats(0.0, 40.0))
@settings(max_examples=300)
def test_round_trip(params, distance, rate_over_bw):
    # rate expressed as a multiple of bandwidth keeps 2**x in range
    rate = rate_over_bw * params.bandwidth_hz
    power = required_power(params, distance, rate)
    back = transmission_rate(params, power, distance)
    assert abs(back - rate) / max(rate, 1.0) <= 1e-9


@given(radio_params(), st.floats(0.1, 5e3),
       st.floats(0.1, 30.0), st.floats(1e-6, 5.0))
@settings(max_examples=200)
def test_rate_monotone_in_power(params, distance, rate_over_bw, bump):
    power = required_power(params, distance, rate_over_bw * params.bandwidth_hz)
    higher = power * (1.0 + bump) + bump  # representable increase at any scale
    assert transmission_rate(params, higher, distance) \
        > transmission_rate(params, power, distance)


@given(radio_params(), st.floats(0.1, 1e3), st.floats(1.01, 4.0),
       st.floats(0.1, 30.0))
@settings(max_examples=200)
def test_required_power_scaling_law(params, distance, factor, rate_over_bw):
    # power(c*d) == c^alpha * power(d)
    rate = rate_over_bw * params.bandwidth_hz
    scaled = required_power(params, factor * distance, rate)
    expected = factor ** params.path_loss_exponent \
        * required_power(params, distance, rate)
    assert scaled == pytest.approx(expected, rel=1e-9)


@given(radio_params(), st.floats(0.1, 1e3), st.floats(0.1, 20.0),
       st.floats(0.1, 20.0))
@settings(max_examples=200)
@example(RadioParams(bandwidth_hz=1e5, path_loss_exponent=2.0,
                     noise_density=9.391670797815675e-07, packet_bits=1,
                     slot_seconds=1e-4),
         0.1, 0.1, 0.10000000000000002)  # rates one float apart, same power
def test_required_power_monotone(params, distance, r1, r2):
    lo, hi = sorted([r1, r2])
    rate_lo = lo * params.bandwidth_hz
    rate_hi = hi * params.bandwidth_hz
    p_lo = required_power(params, distance, rate_lo)
    p_hi = required_power(params, distance, rate_hi)
    # rates closer than rounding error may round to the same power, but
    # never to a lower one; beyond that margin the increase must show
    if hi > lo * (1.0 + 1e-9):
        assert p_lo < p_hi
    else:
        assert p_lo <= p_hi
    assert p_hi < required_power(params, distance * 1.5, rate_hi)
