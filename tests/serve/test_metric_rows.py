"""Served metric rows come from each cost's kept metric summary.

The summary must hold exactly what the ``METRICS`` extractors compute
(``==``, not approx), be computed once per cost, and stay out of the
pickled state the disk cache and pool workers see.
"""

import pickle

import pytest

from repro.models import MODEL_BUILDERS
from repro.passes.scenarios import SCENARIO_ORDER
from repro.serve import result_to_json
from repro.sweep import METRICS, GraphCache, SweepCell, SweepRow, price_cell

TINY_MODELS = sorted(m for m in MODEL_BUILDERS if m.startswith("tiny_"))


class _CountingNodes(list):
    """A node list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.fixture(scope="module")
def cache():
    return GraphCache()


@pytest.mark.parametrize("precision", ["fp32", "fp16"])
@pytest.mark.parametrize("scenario", SCENARIO_ORDER)
@pytest.mark.parametrize("model", TINY_MODELS)
def test_row_metrics_equal_fresh_extractors(cache, model, scenario,
                                            precision):
    cell = SweepCell(model=model, hardware="skylake_2s", scenario=scenario,
                     batch=8, precision=precision)
    cost = price_cell(cell, cache)
    fresh = price_cell(cell, GraphCache())
    unread = pickle.dumps(cost)

    row = result_to_json(cell, cost)["metrics"]
    assert list(row) == list(METRICS)
    for name, fn in METRICS.items():
        assert row[name] == fn(fresh)
        assert row[name] == fn(cost)
        assert SweepRow(cell, cost).value(name) == fn(fresh)
    assert pickle.dumps(cost) == unread


def test_summary_is_computed_once_and_rows_are_copies():
    cell = SweepCell(model="tiny_densenet", hardware="skylake_2s",
                     scenario="bnff", batch=8)
    cost = price_cell(cell, GraphCache())
    cost.nodes = _CountingNodes(cost.nodes)

    first = result_to_json(cell, cost)
    walks = cost.nodes.walks
    assert walks > 0
    second = result_to_json(cell, cost)
    assert SweepRow(cell, cost).value("total_time_s") \
        == first["metrics"]["total_time_s"]
    assert cost.nodes.walks == walks
    assert second == first

    # A caller editing its row cannot change the kept summary.
    first["metrics"]["total_time_s"] = -1.0
    assert result_to_json(cell, cost) == second
    with pytest.raises(TypeError):
        cost.metrics["total_time_s"] = -1.0


def test_unpickled_cost_recomputes_the_same_summary(cache):
    cell = SweepCell(model="tiny_resnet", hardware="skylake_2s",
                     scenario="rcf_mvf", batch=8, precision="fp16")
    cost = price_cell(cell, cache)
    row = dict(cost.metrics)
    clone = pickle.loads(pickle.dumps(cost))
    assert "_metrics" not in vars(clone)
    assert dict(clone.metrics) == row
