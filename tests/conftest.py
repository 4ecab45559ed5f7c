"""Shared helpers for the test suite."""

import re

import numpy as np
import pytest

from obsprune.fisher import FisherBlockInverse

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.rsplit("::", 1)[-1]
        _ACCEPTANCE_RESULTS.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE_RESULTS):
        m = re.match(r"test_criterion_(\d+)_(.*)", name)
        label = f"{int(m.group(1)):2d} {m.group(2).replace('_', ' ')}" if m else name
        terminalreporter.write_line(
            f"{'PASS' if outcome == 'passed' else 'FAIL'}  criterion {label}"
        )


def dense_fisher(rows: np.ndarray, damp: float) -> np.ndarray:
    """Reference Fisher built the obvious way: damp*I + rows'rows/N."""
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape
    return damp * np.eye(d) + rows.T @ rows / n


def inverse_from_dense(fisher: np.ndarray) -> FisherBlockInverse:
    """Wrap a dense SPD matrix as a single-block inverse."""
    return FisherBlockInverse(blocks=[np.linalg.inv(fisher)])


def random_spd(rng: np.random.Generator, d: int, damp: float = 1e-3) -> np.ndarray:
    a = rng.standard_normal((d + 2, d))
    return dense_fisher(a, damp)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
