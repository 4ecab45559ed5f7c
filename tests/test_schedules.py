"""Cyclic learning rate, sweep planning, and the key-value config format."""

import pytest

from obsprune.schedules import (
    DEFAULT_LR_MAX,
    DEFAULT_LR_MIN,
    DEFAULT_PERIOD,
    LrSchedule,
    lr_at,
    parse_config,
    plan_sweep,
)


def schedule_from_config(cfg):
    """An LrSchedule from parsed config keys, defaults for the missing ones."""
    return LrSchedule(
        lr_max=float(cfg.get("lr.max", DEFAULT_LR_MAX)),
        lr_min=float(cfg.get("lr.min", DEFAULT_LR_MIN)),
        period=int(cfg.get("lr.period", DEFAULT_PERIOD)),
    )


def checkpoint_steps(plan):
    """(step, target) where each checkpoint is emitted: one recovery window
    after its event."""
    return [((i + 1) * plan.interval, t) for i, t in enumerate(plan.targets)]


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


class TestSweepPlan:
    def test_events_and_checkpoints(self):
        plan = plan_sweep([0.5, 0.75, 0.9], 20)
        assert (plan.targets, plan.interval) == ((0.5, 0.75, 0.9), 20)
        assert checkpoint_steps(plan) == [(20, 0.5), (40, 0.75), (60, 0.9)]

    def test_targets_must_increase(self):
        with pytest.raises(ValueError):
            plan_sweep([0.5, 0.5], 10)
        with pytest.raises(ValueError):
            plan_sweep([0.9, 0.5], 10)
        with pytest.raises(ValueError):
            plan_sweep([], 10)
        with pytest.raises(ValueError):
            plan_sweep([0.5, 1.0], 10)


class TestConfig:
    def test_parse_known_keys(self):
        text = """
        # schedule
        lr.max = 1e-3
        lr.min = 2e-5
        lr.period = 25

        sweep.targets = 0.5, 0.75, 0.9
        sweep.interval = 25
        """
        cfg = parse_config(text)
        assert cfg["lr.max"] == 1e-3
        assert cfg["lr.period"] == 25
        assert cfg["sweep.targets"] == (0.5, 0.75, 0.9)
        assert cfg["sweep.interval"] == 25

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("lr.maximum = 1e-3")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config("lr.max 1e-3")

    def test_schedule_from_config_fills_defaults(self):
        s = schedule_from_config(parse_config("lr.max = 1e-3"))
        assert s.lr_max == 1e-3
        assert s.lr_min == 1e-5
        assert s.period == 20

    def test_comments_and_blanks_ignored(self):
        assert parse_config("\n# nothing\n\n") == {}
