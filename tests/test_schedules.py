"""Cyclic learning rate, a run's recovery rate, and sweep planning."""

import pytest

from obsprune.schedules import LrSchedule, lr_at, recovery_lr, sweep_targets


def checkpoint_steps(targets, interval):
    """(step, target) where each checkpoint is emitted: one recovery window
    after its event."""
    return [((i + 1) * interval, t) for i, t in enumerate(targets)]


class TestCyclicLr:
    def test_default_values_at_landmark_steps(self):
        """Defaults 5e-4 -> 1e-5 over T = 20: starts at the top, midpoint is
        the average minus half a step of slope, wraps back at t = T."""
        s = LrSchedule()
        assert lr_at(s, 0) == pytest.approx(5e-4)
        assert lr_at(s, 10) == pytest.approx(2.55e-4)
        assert lr_at(s, 19) == pytest.approx(5e-4 - 4.9e-4 * 19 / 20)
        assert lr_at(s, 20) == pytest.approx(5e-4)  # new cycle
        assert lr_at(s, 30) == lr_at(s, 10)

    def test_periodicity_exact(self):
        s = LrSchedule(3e-3, 1e-4, 7)
        for t in range(70):
            assert lr_at(s, t) == lr_at(s, t + 7)
            assert lr_at(s, t) == lr_at(s, t % 7)

    def test_linear_within_one_cycle(self):
        s = LrSchedule(1.0, 0.2, 4)
        got = [lr_at(s, t) for t in range(5)]
        assert got == pytest.approx([1.0, 0.8, 0.6, 0.4, 1.0])

    def test_bounds(self):
        s = LrSchedule(2e-3, 5e-5, 13)
        vals = [lr_at(s, t) for t in range(39)]
        assert max(vals) == 2e-3
        assert min(vals) >= 5e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(1e-5, 5e-4, 20)  # max below min
        with pytest.raises(ValueError):
            LrSchedule(5e-4, 1e-5, 0)

    @pytest.mark.parametrize("fields", [
        {"lr_max": 1e-3, "lr_min": 1e-3}, {"lr_min": 0.0}, {"period": -4},
    ], ids=["equal", "zero-min", "negative-period"])
    def test_rejects_a_schedule_that_cannot_decay(self, fields):
        with pytest.raises(ValueError):
            LrSchedule(**fields)

    def test_field_defaults_fill_what_is_not_given(self):
        s = LrSchedule(lr_max=1e-3)
        assert (s.lr_max, s.lr_min, s.period) == (1e-3, 1e-5, 20)

    def test_a_negative_step_is_refused(self):
        with pytest.raises(ValueError):
            lr_at(LrSchedule(), -1)


class TestRecoveryLr:
    def test_cyclic_is_the_cycle(self):
        s = LrSchedule(1.0, 0.2, 4)
        lr = recovery_lr(s, acyclic=False, total_steps=12)
        assert [lr(t) for t in range(20)] == [lr_at(s, t) for t in range(20)]

    def test_acyclic_decays_once_then_stays_at_lr_min(self):
        lr = recovery_lr(LrSchedule(1.0, 0.2, 4), acyclic=True, total_steps=8)
        assert [lr(t) for t in range(11)] == pytest.approx(
            [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.2, 0.2])

    def test_acyclic_over_no_steps_is_lr_min_after_the_first(self):
        lr = recovery_lr(LrSchedule(1.0, 0.2, 4), acyclic=True, total_steps=0)
        assert [lr(t) for t in range(3)] == pytest.approx([1.0, 0.2, 0.2])


class TestSweepTargets:
    def test_events_and_checkpoints(self):
        targets = sweep_targets([0.5, 0.75, 0.9], 20)
        assert targets == (0.5, 0.75, 0.9)
        assert checkpoint_steps(targets, 20) == [(20, 0.5), (40, 0.75), (60, 0.9)]

    def test_targets_must_increase(self):
        with pytest.raises(ValueError):
            sweep_targets([0.5, 0.5], 10)
        with pytest.raises(ValueError):
            sweep_targets([0.9, 0.5], 10)
        with pytest.raises(ValueError):
            sweep_targets([], 10)
        with pytest.raises(ValueError):
            sweep_targets([0.5, 1.0], 10)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval must be >= 1"):
            sweep_targets([0.5], 0)

