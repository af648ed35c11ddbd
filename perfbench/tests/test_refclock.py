"""Reference time: scaling by the calibration kernel, and where it runs."""

import pytest

from mvmae import data as mdata
from mvmae import pipeline
from mvmae.config import tiny_config
from refclock import KERNEL_REFERENCE_MS, RefClock, WallClock
import workloads


def _clock(marks):
    clock = RefClock()
    clock.marks = list(marks)
    return clock


def test_wall_clock_is_plain_wall_time():
    assert WallClock().seconds(1.0, 3.5) == 2.5


def test_stretches_scale_by_the_kernel_time_at_their_ends():
    ref = KERNEL_REFERENCE_MS / 1e3
    # kernel runs of ref, ref and 3 * ref seconds
    clock = _clock([(0.0, ref), (1.0, 1.0 + ref), (2.0, 2.0 + 3 * ref)])
    first = 1.0 - ref  # at reference speed: counted as is
    second = 1.0 - ref  # kernel twice as slow on average: counted as half
    assert clock.seconds(ref, 1.0) == pytest.approx(first)
    assert clock.seconds(1.0 + ref, 2.0) == pytest.approx(second / 2)
    assert clock.seconds(0.0, 2.0 + 3 * ref) == pytest.approx(first + second / 2)
    # kernel runs count as no time; past the last one, its stretch's rate holds
    assert clock.seconds(1.0, 1.0 + ref) == 0.0
    end = 2.0 + 3 * ref
    assert clock.seconds(end, end + 1.0) == pytest.approx(0.5)
    assert clock.seconds(-1.0, 0.0) == pytest.approx(1.0)


def test_reference_time_needs_two_calibrations():
    clock = _clock([(0.0, 0.004)])
    with pytest.raises(ValueError):
        clock.seconds(0.0, 1.0)


def test_tick_calibrates_only_after_the_interval():
    clock = RefClock(interval=3600.0)
    clock.tick()
    clock.tick()
    assert len(clock.marks) == 1
    clock.calibrate()
    assert len(clock.marks) == 2
    assert all(ms > 0 for ms in clock.kernel_ms())


def _hooked():
    return (mdata.generate_shape, pipeline.augment, pipeline.adamw_step, pipeline.encoder_features)


def test_untraced_phase_calibrates_between_operations_and_restores():
    cfg = tiny_config()
    originals = _hooked()
    clock = RefClock(interval=0.0)
    inst = workloads.Instrument(cfg, clock)
    with inst.phase("bench.setup", "setup0", False):
        clouds, _ = mdata.make_dataset(cfg.data)
    # one run on entering the phase, one per generated cloud, one on leaving
    assert len(clock.marks) == len(clouds) + 2
    assert _hooked() == originals
    assert inst.op_ends == []
