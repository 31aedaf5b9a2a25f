"""Table 1 — validate the buffer model against the LRU simulation.

Paper claim: model and simulation agree within 2% ("less than the
confidence intervals returned from the simulation").  Our acceptance
band: 4% for every buffer size of at least half the per-query
footprint; the tiny-buffer regime (B=10 on trees whose queries touch
~5-17 nodes) is reported but judged at 20% — the model's warm-up
granularity is a whole query, so buffers smaller than one query's
footprint are outside its intended regime (see EXPERIMENTS.md).
"""

from repro.experiments import table1
from repro.experiments.common import RunConfig, run_config

from .conftest import run_once

ARTEFACT_BUDGET = RunConfig(sim_batches=10, sim_queries=5_000)
"""The committed ``benchmarks/out/table1.txt``'s budget, the default
here; ``REPRO_SIM_BATCHES`` / ``REPRO_SIM_QUERIES`` override it."""


def test_table1_model_matches_simulation(benchmark, record):
    config = run_config(defaults=ARTEFACT_BUDGET)
    result = run_once(
        benchmark,
        lambda: table1.run(
            n_batches=config.sim_batches, batch_size=config.sim_queries
        ),
    )
    record("table1", result.to_text())
    assert isinstance(result, table1.Table1Result)
    assert all(isinstance(row, table1.Table1Row) for row in result.rows)

    # The paper's 1,668-node trees.
    assert all(nodes == 1668 for nodes in result.total_nodes.values())

    for row in result.rows:
        if row.buffer_size >= 50:
            assert abs(row.percent_difference) < 4.0, row
        else:
            assert abs(row.percent_difference) < 20.0, row
