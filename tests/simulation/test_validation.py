"""Tests for the validate_model API."""

import pytest

from repro.packing import pack_description
from repro.queries import UniformPointWorkload
from repro.simulation import ValidationReport, validate_model
from tests.conftest import random_rects


@pytest.fixture(scope="module")
def desc():
    import numpy as np

    return pack_description(
        random_rects(np.random.default_rng(77), 8000, max_side=0.02), 25, "hs"
    )


class TestValidateModel:
    def test_report_structure(self, desc):
        report = validate_model(
            desc,
            UniformPointWorkload(),
            buffer_sizes=(10, 50),
            n_batches=4,
            batch_size=1500,
            rng=1,
        )
        assert isinstance(report, ValidationReport)
        assert [r.buffer_size for r in report.rows] == [10, 50]
        assert report.pinned_levels == 0
        assert report.policy == "lru"

    def test_agreement_on_well_behaved_setup(self, desc):
        report = validate_model(
            desc,
            UniformPointWorkload(),
            buffer_sizes=(40, 120),
            n_batches=8,
            batch_size=4000,
            rng=2,
        )
        assert report.max_abs_percent_difference < 6.0

    def test_zero_cost_rows_have_zero_difference(self, desc):
        report = validate_model(
            desc,
            UniformPointWorkload(),
            buffer_sizes=(desc.total_nodes,),
            n_batches=2,
            batch_size=200,
            rng=3,
        )
        row = report.rows[0]
        assert row.model == 0.0
        assert row.simulated == 0.0
        assert row.percent_difference == 0.0

    def test_pinned_validation(self, desc):
        pinned_pages = desc.pages_in_top_levels(2)
        report = validate_model(
            desc,
            UniformPointWorkload(),
            buffer_sizes=(pinned_pages + 30,),
            pinned_levels=2,
            n_batches=6,
            batch_size=3000,
            rng=4,
        )
        assert report.pinned_levels == 2
        assert abs(report.rows[0].percent_difference) < 10.0

    def test_to_text(self, desc):
        report = validate_model(
            desc,
            UniformPointWorkload(),
            buffer_sizes=(10,),
            n_batches=2,
            batch_size=500,
            rng=5,
        )
        text = report.to_text("My validation")
        assert "My validation" in text
        assert "diff %" in text

    def test_within_ci_flag(self, desc):
        report = validate_model(
            desc,
            UniformPointWorkload(),
            buffer_sizes=(desc.total_nodes,),
            n_batches=2,
            batch_size=100,
            rng=6,
        )
        assert report.rows[0].within_ci  # 0 == 0 exactly

    def test_rejects_generator_rng(self, desc):
        import numpy as np

        # Every buffer size is measured on the stream of one seed; a
        # live generator cannot be replayed per size.
        with pytest.raises(TypeError, match="reproducible seed"):
            validate_model(
                desc,
                UniformPointWorkload(),
                buffer_sizes=(10,),
                n_batches=2,
                batch_size=100,
                rng=np.random.default_rng(0),
            )
