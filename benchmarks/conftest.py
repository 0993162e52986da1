"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures (see DESIGN.md's
experiment index) and prints the rows it produces, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the evaluation section end to end.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The seed engines the benchmarks time as baselines live in the test suite
# as oracles: ``object_engine`` (NoC) and ``dense_decoder`` (LDPC).
sys.path[:0] = [
    str(Path(__file__).resolve().parent.parent / "tests" / package)
    for package in ("noc", "ldpc")
]

import perf_utils
from repro.chips import all_configurations, get_configuration


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="waive wall-clock speedup floors (structural guards stay strict); "
        "for noisy shared CI runners",
    )


def pytest_configure(config):
    perf_utils.SMOKE = config.getoption("--smoke")


def pytest_sessionfinish(session, exitstatus):
    """Write the machine-readable perf records collected by the benchmarks."""
    path = perf_utils.flush()
    if path is not None:
        print(f"\nperf records written to {path}")


@pytest.fixture(scope="session")
def configurations():
    """All five chip configurations, built once per benchmark session."""
    return all_configurations()


@pytest.fixture(scope="session")
def chip_a():
    return get_configuration("A")


@pytest.fixture(scope="session")
def chip_e():
    return get_configuration("E")


def print_rows(title, rows):
    """Uniform row printer used by every benchmark."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{key:>18}" for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(f"{str(row[key]):>18}" for key in keys))
