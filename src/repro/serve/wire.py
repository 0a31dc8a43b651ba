"""Wire format for the cost-query service: JSON <-> sweep objects.

One canonical translation, shared by the HTTP server, the sync client
and the CLI, so a cell serialized anywhere deserializes everywhere:

* a **cell** is a JSON object with the seven axis fields of
  :class:`~repro.sweep.spec.SweepCell` (only ``model`` is required;
  omitted fields take :data:`CELL_DEFAULTS` / the dataclass defaults);
* a **grid** is a JSON object with the plural axis fields of
  :class:`~repro.sweep.spec.SweepSpec` (``models`` required), expanding
  server-side to its cross product — N clients asking for overlapping
  grids therefore share cached/in-flight cells per the service's
  coalescing, not per any client-side enumeration;
* a **result** pairs the echoed cell with its content key and every
  metric column the sweep store defines (:data:`repro.perf.report.METRICS`),
  read from the cost's kept metric summary (:attr:`IterationCost.metrics`).

Validation rides the sweep layer's own: unknown models/hardware/
scenarios/precisions raise :class:`~repro.errors.SweepSpecError` with
the available choices listed, which the HTTP layer maps to a 400.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Union

from repro.errors import SweepSpecError
from repro.perf.report import IterationCost
from repro.sweep.spec import AXES, SweepCell, SweepSpec

#: SweepCell field -> SweepSpec (plural) field, for single-cell validation.
_AXIS_TO_SPEC_FIELD = {
    "model": "models", "hardware": "hardware", "scenario": "scenarios",
    "batch": "batches", "precision": "precisions",
    "infinite_bw": "infinite_bw", "bandwidth_scale": "bandwidth_scales",
}

#: Wire-level defaults for the cell fields :class:`SweepCell` requires
#: but a terse query may omit — the single-cell analogues of
#: :class:`SweepSpec`'s own axis defaults (scenario narrows to the
#: paper's baseline: a one-cell query can't mean "all five").
CELL_DEFAULTS = {"hardware": "skylake_2s", "scenario": "baseline",
                 "batch": 120}


def cell_from_json(obj: Union[Mapping[str, Any], SweepCell]) -> SweepCell:
    """Parse and validate one cell object; raises ``SweepSpecError``."""
    if isinstance(obj, SweepCell):
        cell = obj
    else:
        if not isinstance(obj, Mapping):
            raise SweepSpecError(f"cell must be an object, got {type(obj).__name__}")
        unknown = set(obj) - set(AXES)
        if unknown:
            raise SweepSpecError(
                f"unknown cell fields {sorted(unknown)}; axes: {AXES}"
            )
        if "model" not in obj:
            raise SweepSpecError("cell is missing the required 'model' field")
        try:
            cell = SweepCell(**{**CELL_DEFAULTS, **obj})
        except TypeError as e:
            raise SweepSpecError(f"bad cell: {e}") from None
    # A one-cell spec reuses the sweep layer's full axis validation
    # (registry membership, batch positivity, value types).
    spec = SweepSpec(name="wire", **{
        _AXIS_TO_SPEC_FIELD[axis]: (getattr(cell, axis),) for axis in AXES
    })
    spec.validate()
    return cell


def cells_from_json(payload: Any, cache: Any = None) -> List[SweepCell]:
    """Parse a request payload: ``cells`` list and/or a ``grid`` object.

    Cells concatenate in request order (grid cells after explicit ones);
    duplicates are legal — the service deduplicates by content key.

    When the service's :class:`~repro.sweep.cache.GraphCache` is passed
    (and ``REPRO_VERIFY_GRAPHS`` is on), each requested cell whose scenario
    graph is already cached in memory is additionally checked by the
    static verifier — a malformed cached graph rejects the request as a
    ``SweepSpecError`` (HTTP 400) *before* any pricing work is admitted.
    """
    if not isinstance(payload, Mapping):
        raise SweepSpecError("request body must be a JSON object")
    if "cells" not in payload and "grid" not in payload:
        raise SweepSpecError("request needs a 'cells' list or a 'grid' object")
    cells: List[SweepCell] = []
    raw = payload.get("cells", [])
    if not isinstance(raw, (list, tuple)):
        raise SweepSpecError("'cells' must be a list of cell objects")
    for obj in raw:
        cells.append(cell_from_json(obj))
    if "grid" in payload:
        cells.extend(grid_from_json(payload["grid"]).cells())
    if cache is not None:
        _verify_cached_graphs(cells, cache)
    return cells


def _verify_cached_graphs(cells: List[SweepCell], cache: Any) -> None:
    """Static check of the already-cached scenario graphs a request needs."""
    from repro.config import verify_graphs_enabled

    if not verify_graphs_enabled():
        return
    from repro.analysis.static.verifier import check_graph
    from repro.sweep.spec import scenario_key

    checked = set()
    for cell in cells:
        key = scenario_key(cell.model, cell.batch, cell.scenario,
                           cell.precision)
        if key in checked:
            continue
        checked.add(key)
        graph = cache.cached_scenario_graph(key)
        if graph is None:
            continue  # cold: the pricing path builds and verifies it
        findings = check_graph(graph)
        if findings:
            raise SweepSpecError(
                f"cell {cell.key()} ({cell.model}/{cell.scenario}"
                f"@{cell.precision}, batch {cell.batch}): cached scenario "
                f"graph is malformed: {findings[0]}"
            )


def grid_from_json(obj: Any) -> SweepSpec:
    """Parse a grid object into a validated :class:`SweepSpec`."""
    if not isinstance(obj, Mapping):
        raise SweepSpecError("'grid' must be an object of spec axes")
    allowed = set(_AXIS_TO_SPEC_FIELD.values()) | {"name"}
    unknown = set(obj) - allowed
    if unknown:
        raise SweepSpecError(
            f"unknown grid fields {sorted(unknown)}; "
            f"available: {sorted(allowed)}"
        )
    if "models" not in obj:
        raise SweepSpecError("grid is missing the required 'models' field")
    try:
        spec = SweepSpec(**dict(obj))
    except (TypeError, SweepSpecError) as e:
        raise SweepSpecError(f"bad grid: {e}") from None
    spec.validate()
    return spec


def cell_to_json(cell: SweepCell) -> Dict[str, Any]:
    return {axis: getattr(cell, axis) for axis in AXES}


def result_to_json(cell: SweepCell, cost: IterationCost) -> Dict[str, Any]:
    """One priced cell as a response row: echoed axes, key, all metrics."""
    return {
        "cell": cell_to_json(cell),
        "key": cell.key(),
        "metrics": dict(cost.metrics),
    }
