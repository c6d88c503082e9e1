"""Reference-CPU time scaling."""

import time

from perfbench import calibration
from perfbench.calibration import REFERENCE_KERNEL_US, SpeedProbe, scaled_records


class _Clockless:
    """A transport stand-in; the tests feed samples directly."""

    time_scale = 1000.0


def _probe(samples):
    probe = SpeedProbe(_Clockless())
    for t, us in samples:
        probe.stamps.append(t)
        probe.kernel_us.append(us)
    return probe


def test_scale_is_reference_over_measured():
    probe = _probe([(10.1, 260.0), (10.5, 260.0), (11.2, 130.0)])
    assert probe.scale(10.0, 11.0) == REFERENCE_KERNEL_US / 260.0
    # An interval without samples borrows the median of all of them.
    assert probe.scale(10.2, 10.3) == REFERENCE_KERNEL_US / 260.0
    assert probe.scale_at(10.7, fallback=999.0) == 0.5
    assert probe.scale_at(11.9, fallback=999.0) == 1.0
    # A bucket without samples falls back to the given kernel time.
    assert probe.scale_at(20.0, fallback=65.0) == 2.0


def test_scaled_records_halve_latency_on_a_half_speed_host():
    probe = _probe([(100.2, 2 * REFERENCE_KERNEL_US), (100.6, 2 * REFERENCE_KERNEL_US)])
    (kind, ms, scale), = scaled_records(probe, [("reserve", 100.0, 100.8)], REFERENCE_KERNEL_US)
    assert kind == "reserve" and scale == 0.5
    assert abs(ms - 400.0) < 1e-9


def test_kernel_is_deterministic_work():
    assert calibration.kernel() == sum(j * j for j in range(2000))


def test_sleep_reference_stretches_on_a_slow_host():
    probe = _probe([])
    now = time.perf_counter()
    # Every sample reads twice the reference kernel time: half speed.
    for i in range(40):
        probe.stamps.append(now - 1.0 + i * 0.05)
        probe.kernel_us.append(2 * REFERENCE_KERNEL_US)
    orig = probe.median_us
    probe.median_us = lambda t0, t1: 2 * REFERENCE_KERNEL_US
    try:
        slept = calibration.sleep_reference(probe, 0.1, step=0.01)
    finally:
        probe.median_us = orig
    assert slept >= 0.2


def test_sleep_reference_stretch_is_capped():
    probe = _probe([])
    probe.median_us = lambda t0, t1: 100 * REFERENCE_KERNEL_US
    slept = calibration.sleep_reference(probe, 0.05, step=0.01)
    assert slept < calibration.MAX_STRETCH * 0.05 + 0.05
