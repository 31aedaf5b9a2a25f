"""The max_qps staircase: where it settles, and what a fast spell does.

Each case feeds the staircase a capacity as a function of the rung
number: a rung passes when its rate is within the capacity.
"""

import pytest

from perfbench import serve

RUNGS = 40
CAPACITY = 80_000.0


def _search(capacity) -> serve.Staircase:
    search = serve.Staircase(serve.ACQUIRE_QPS)
    for k in range(RUNGS):
        search.record(search.rate <= capacity(k))
    return search


def test_settles_within_three_fine_steps_below_the_capacity():
    search = _search(lambda k: CAPACITY)
    assert not search.climbing
    assert len(search.settled) > RUNGS // 2
    assert CAPACITY / serve.STEP_FACTOR**3 <= search.estimate <= CAPACITY


def test_a_fast_spell_over_the_last_quarter_barely_moves_the_estimate():
    steady = _search(lambda k: CAPACITY)
    spell = _search(
        lambda k: 2 * CAPACITY if k >= RUNGS * 3 // 4 else CAPACITY
    )
    # The rate climbs one step per rung through the spell ...
    assert max(spell.settled) > CAPACITY * serve.STEP_FACTOR**5
    # ... but the slower quartile of the rates hardly notices it.
    assert spell.estimate == pytest.approx(steady.estimate, rel=0.03)


def test_too_few_rungs_report_the_highest_rate_that_passed():
    search = serve.Staircase(serve.ACQUIRE_QPS)
    search.record(True)
    search.record(False)
    assert search.estimate == serve.ACQUIRE_QPS
