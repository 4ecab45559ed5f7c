"""Learning-rate cycling and sparsity sweep planning.

The recovery learning rate decays linearly within a cycle of length T and
snaps back at every cycle boundary:

    lr(t) = lr_max - (lr_max - lr_min) * (t mod T) / T

so lr(0) = lr_max and the value stays strictly above lr_min. The cycle
length is meant to equal the sweep interval so each pruning event starts
a fresh cycle.

A sweep prunes to ``targets[i]`` at step ``i * interval`` and emits a
checkpoint after the recovery window that follows each event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

@dataclass(frozen=True)
class LrSchedule:
    """Cyclic linear decay from lr_max toward (never reaching) lr_min."""

    lr_max: float = 5e-4
    lr_min: float = 1e-5
    period: int = 20

    def __post_init__(self) -> None:
        if not self.lr_max > self.lr_min > 0.0:
            raise ValueError(
                f"need lr_max > lr_min > 0, got {self.lr_max} and {self.lr_min}"
            )
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate at integer step ``step`` (>= 0)."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    frac = (step % schedule.period) / schedule.period
    return schedule.lr_max - (schedule.lr_max - schedule.lr_min) * frac


def recovery_lr(schedule: LrSchedule, acyclic: bool, total_steps: int) -> Callable[[int], float]:
    """The learning rate of step t of a run's recovery: ``lr_at``'s cycle,
    or with ``acyclic`` one linear decay from lr_max that reaches lr_min at
    step ``total_steps`` and stays there."""
    if not acyclic:
        return lambda t: lr_at(schedule, t)
    span = max(total_steps, 1)
    return lambda t: schedule.lr_max - (schedule.lr_max - schedule.lr_min) * min(t, span) / span


def sweep_targets(targets: Iterable[float], interval: int) -> tuple[float, ...]:
    """A sweep's sparsity targets as floats; refuses an empty, out of
    (0, 1) or not strictly increasing list and an interval below 1."""
    targets = tuple(float(t) for t in targets)
    if len(targets) == 0:
        raise ValueError("a sweep needs at least one target")
    if any(not 0.0 < t < 1.0 for t in targets):
        raise ValueError(f"targets must lie in (0, 1), got {targets}")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError(f"targets must be strictly increasing, got {targets}")
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    return targets
