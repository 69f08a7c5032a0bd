"""The host-speed scale applied to a run's leg timings."""

from __future__ import annotations

import time

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REFERENCE_S, HostSpeed
from perfbench.workloads import timed_leg


def _speed(times: list[float], samples: list[float]) -> HostSpeed:
    speed = HostSpeed()
    speed.times, speed.samples = times, samples
    return speed


def test_probe_mean_covers_only_the_legs():
    speed = _speed([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.001, 0.002, 0.003, 0.004, 0.005, 0.006])
    speed.leg(0.5, 2.5)
    # A sample taken exactly at a leg's edge belongs to the leg.
    speed.leg(5.0, 5.5)
    assert speed.probe_mean() == pytest.approx((0.001 + 0.002 + 0.005) / 3)
    assert speed.scale() == pytest.approx(REFERENCE_S * 3 / 0.008)


def test_legs_without_samples_fall_back_to_the_whole_run():
    speed = _speed([1.0, 2.0], [0.001, 0.003])
    speed.leg(1.2, 1.4)
    assert speed.probe_mean() == pytest.approx(0.002)


def test_timed_legs_report_to_the_active_sampler():
    speed = HostSpeed()
    speed.start()
    hostspeed.ACTIVE = speed
    try:
        with timed_leg(None, "cold") as leg:
            time.sleep(0.3)
    finally:
        hostspeed.ACTIVE = None
        speed.stop()
    [(started, ended)] = speed.legs
    assert ended - started == pytest.approx(leg.wall_s)
    assert speed.samples and all(sample > 0 for sample in speed.samples)
    assert not speed._thread.is_alive()
