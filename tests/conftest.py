"""Shared fixtures: the two canonical instances exercised across the suite.

``product_instance`` is the hand-enumerable Product run whose greedy trace is
{Rejected, worker 3, worker 1, worker 2}; ``tabulated_instance`` is the
non-order-preserving table on which greedy (reward 2) is beaten by the
offline optimum (reward 3).
"""

from __future__ import annotations

import contextlib
import math
import signal

import pytest
from hypothesis import strategies as st

from sstap import Instance, Interval, ThresholdFunction, Worker, eval_f

PRODUCT_RATES = (0.4, 0.5, 0.6, 0.7)
PRODUCT_JOBS = (0.0975, 0.275, 0.9575, 0.4854)
PRODUCT_ALPHA = 0.15

TABULATED_JOBS = (1.0, 2.0, 3.0)
TABULATED_RATES = (0.25, 0.5, 0.75)
TABULATED_ALPHA = 0.1
NON_ORDER_PRESERVING_TABLE = {
    (1.0, 0.25): 0.5,
    (2.0, 0.25): 0.08,
    (3.0, 0.25): 0.5,
    (1.0, 0.5): 0.4,
    (2.0, 0.5): 0.1,
    (3.0, 0.5): 0.4,
    (1.0, 0.75): 0.7,
    (2.0, 0.75): 0.03,
    (3.0, 0.75): 0.1,
}


def make_workers(rates, cycle_rate=float("inf")):
    return tuple(
        Worker(id=i, rate=rate, cycle_rate=cycle_rate)
        for i, rate in enumerate(rates, start=1)
    )


@pytest.fixture
def product_f() -> ThresholdFunction:
    return ThresholdFunction.product(Interval(0.0, 1.0))


@pytest.fixture
def product_instance(product_f) -> Instance:
    return Instance(
        alpha=PRODUCT_ALPHA, f=product_f, workers=make_workers(PRODUCT_RATES)
    )


@pytest.fixture
def tabulated_f() -> ThresholdFunction:
    return ThresholdFunction.tabulated(NON_ORDER_PRESERVING_TABLE)


@pytest.fixture
def tabulated_instance(tabulated_f) -> Instance:
    return Instance(
        alpha=TABULATED_ALPHA, f=tabulated_f, workers=make_workers(TABULATED_RATES)
    )


@st.composite
def functions_jobs_rates(draw):
    """A product, ratio or partial tabulated f with job values and rates.

    About a quarter of the job values fall outside the domain or are NaN;
    tabulated job values also hit pairs missing from the table.
    """
    kind = draw(st.sampled_from(["product", "ratio", "tabulated"]))
    if kind == "tabulated":
        grid = [(x, p) for x in (0.5, 1.0, 1.5) for p in (0.25, 0.5, 0.75)]
        present = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(present), max_size=len(present)))
        f = ThresholdFunction.tabulated(dict(zip(present, values)), Interval(0.5, 1.5))
        inside = st.sampled_from([0.5, 1.0, 1.5])
        rate = st.sampled_from([0.25, 0.5, 0.75])
    else:
        f = ThresholdFunction.product() if kind == "product" else ThresholdFunction.ratio(Interval(0.1, 2.0))
        inside = st.floats(f.domain.lo, f.domain.hi)
        rate = st.floats(0.01, 1.0)
    outside = st.sampled_from([f.domain.lo - 0.25, f.domain.hi + 0.25, math.nan])
    job = st.one_of(inside, inside, inside, outside)
    return f, draw(st.lists(job, max_size=6)), draw(st.lists(rate, max_size=6))


def outer_reference(f, xs, ps):
    """f over every (job, rate) pair by ``eval_f``, row by row.

    Every job value is checked against the domain first, even with no
    rates, so a DomainError names the first job outside it.
    """
    outside = [x for x in xs if not f.domain.lo <= x <= f.domain.hi]
    if outside:
        eval_f(f, outside[0], 0.5)
    return [[eval_f(f, x, p) for p in ps] for x in xs]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once it has run for the given seconds."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
