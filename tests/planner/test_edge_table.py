"""Per-step edge tables: one ``transition_cost`` call per layout pair.

Every solver prices its layer steps through :func:`_edge_tables`, which
calls :func:`transition_cost` once per distinct ``(prev layout, next
layout)`` pair and shares the price across the candidate pairs of that
layout pair.  These tests pin the three things that makes safe: each
table entry is exactly the per-pair price, the call count is bounded by
the layout pairs, and dp/beam/oracle pick the same chains as the
per-candidate-pair loops they replaced (kept below as the reference).
"""

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import w_mp_plus_plus
from repro.params import DEFAULT_PARAMS
from repro.planner import (
    OBJECTIVES,
    StrategyKnobs,
    TransitionCostModel,
    layer_candidates,
    preset,
    preset_names,
    transition_cost,
)
from repro.planner import solver
from repro.planner.transition import layout_key
from repro.workloads import wide_resnet_40_10

CONFIG = w_mp_plus_plus()
BATCH = 256
WIDENED = StrategyKnobs(search_transforms=True, batch_splits=(1, 2, 4, 8))
LAYERS = tuple(wide_resnet_40_10().conv_layers)


def spaces(layer_ids, workers=256, limit=None):
    """Widened candidate tuples for the given layers, optionally
    truncated to ``limit`` candidates each (keeps the oracle small)."""
    layers = tuple(LAYERS[i] for i in layer_ids)
    per_layer = [
        layer_candidates(layer, BATCH, CONFIG, workers, WIDENED)[:limit]
        for layer in layers
    ]
    return per_layer, layers


def layouts(candidates):
    return len({layout_key(c) for c in candidates})


# ---- the per-candidate-pair reference solvers --------------------------------


def _pair_edge(transition, prev, nxt, layer, objective):
    return transition_cost(
        transition, prev, nxt, layer, BATCH, DEFAULT_PARAMS
    ).cost_in(objective)


def reference_dp(per_layer, layers, transition, objective) -> Tuple[int, ...]:
    fold = solver._step_total
    totals = [fold(0.0, 0.0, c.cost_in(objective)) for c in per_layer[0]]
    back: List[List[int]] = []
    for i in range(1, len(per_layer)):
        new_totals: List[float] = []
        pointers: List[int] = []
        for cand in per_layer[i]:
            cand_cost = cand.cost_in(objective)
            best = None
            best_j = 0
            for j, prev_cand in enumerate(per_layer[i - 1]):
                edge = _pair_edge(transition, prev_cand, cand, layers[i], objective)
                value = fold(totals[j], edge, cand_cost)
                if best is None or value < best:
                    best = value
                    best_j = j
            new_totals.append(best)
            pointers.append(best_j)
        back.append(pointers)
        totals = new_totals
    best_j = 0
    for j in range(1, len(totals)):
        if totals[j] < totals[best_j]:
            best_j = j
    chain = [best_j]
    for pointers in reversed(back):
        chain.append(pointers[chain[-1]])
    return tuple(reversed(chain))


def reference_oracle(per_layer, layers, transition, objective) -> Tuple[int, ...]:
    fold = solver._step_total
    n = len(per_layer)
    indices = [0] * n
    best_total: Optional[float] = None
    best_indices: Tuple[int, ...] = tuple(indices)
    while True:
        total = 0.0
        prev_cand = None
        for i in range(n):
            cand = per_layer[i][indices[i]]
            edge = _pair_edge(transition, prev_cand, cand, layers[i], objective)
            total = fold(total, edge, cand.cost_in(objective))
            prev_cand = cand
        if best_total is None or total < best_total:
            best_total = total
            best_indices = tuple(indices)
        position = n - 1
        while position >= 0:
            indices[position] += 1
            if indices[position] < len(per_layer[position]):
                break
            indices[position] = 0
            position -= 1
        if position < 0:
            return best_indices


def reference_beam(per_layer, layers, transition, objective, width):
    fold = solver._step_total
    states = sorted(
        (fold(0.0, 0.0, cand.cost_in(objective)), (j,))
        for j, cand in enumerate(per_layer[0])
    )[:width]
    for i in range(1, len(per_layer)):
        expanded = []
        for total, path in states:
            prev_cand = per_layer[i - 1][path[-1]]
            for j, cand in enumerate(per_layer[i]):
                edge = _pair_edge(transition, prev_cand, cand, layers[i], objective)
                expanded.append(
                    (fold(total, edge, cand.cost_in(objective)), path + (j,))
                )
        states = sorted(expanded)[:width]
    return states[0][1]


# ---- tests ------------------------------------------------------------------

factors = st.floats(
    min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False
)
latencies = st.floats(
    min_value=0.0, max_value=1e-4, allow_nan=False, allow_infinity=False
)
models = st.one_of(
    st.sampled_from([preset(name) for name in preset_names()]),
    st.builds(
        TransitionCostModel,
        name=st.just("prop"),
        weight_factor=factors,
        activation_factor=factors,
        latency_s=latencies,
    ),
)


class TestEntries:
    @settings(max_examples=25, deadline=None)
    @given(
        transition=models,
        objective=st.sampled_from(OBJECTIVES),
        step=st.integers(min_value=1, max_value=len(LAYERS) - 1),
        workers=st.sampled_from([16, 64, 256]),
    )
    def test_every_entry_is_the_pair_price(
        self, transition, objective, step, workers
    ):
        per_layer, layers = spaces((step - 1, step), workers)
        (table,) = solver._edge_tables(
            transition, per_layer, layers, BATCH, DEFAULT_PARAMS, objective
        )
        prev, nxt = per_layer
        layer = layers[1]
        assert len(table) == len(nxt)
        for k, cand in enumerate(nxt):
            assert len(table[k]) == len(prev)
            for j, prev_cand in enumerate(prev):
                assert table[k][j] == _pair_edge(
                    transition, prev_cand, cand, layer, objective
                )


class TestCallCount:
    @pytest.mark.parametrize(
        "mode, layer_ids, limit",
        [
            ("dp", tuple(range(8)), None),
            ("beam", tuple(range(8)), None),
            ("oracle", (0, 1, 2), 24),
        ],
    )
    def test_one_call_per_layout_pair(self, monkeypatch, mode, layer_ids, limit):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return transition_cost(*args, **kwargs)

        monkeypatch.setattr(solver, "transition_cost", counting)
        per_layer, layers = spaces(layer_ids, limit=limit)
        args = (
            per_layer, layers, BATCH, preset("rerouted"), "time",
            DEFAULT_PARAMS,
        )
        if mode == "dp":
            solver._solve_dp(*args)
        elif mode == "beam":
            solver._solve_beam(*args, 4)
        else:
            solver._solve_oracle(*args)
        layout_pairs = sum(
            layouts(per_layer[i - 1]) * layouts(per_layer[i])
            for i in range(1, len(per_layer))
        )
        candidate_pairs = sum(
            len(per_layer[i - 1]) * len(per_layer[i])
            for i in range(1, len(per_layer))
        )
        assert 0 < len(calls) <= layout_pairs
        # The widened space really has fewer layouts than candidates,
        # so the bound above is a real saving, not a tautology.
        assert layout_pairs < candidate_pairs


class TestSameChainsAsPairLoop:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("preset_name", preset_names())
    def test_dp_and_beam(self, preset_name, objective):
        transition = preset(preset_name)
        per_layer, layers = spaces(tuple(range(10)))
        args = (per_layer, layers, BATCH, transition, objective, DEFAULT_PARAMS)
        if not transition.is_zero:  # the zero preset never reaches the table
            assert solver._solve_dp(*args) == reference_dp(
                per_layer, layers, transition, objective
            )
        for width in (1, 4, 16):
            assert solver._solve_beam(*args, width) == reference_beam(
                per_layer, layers, transition, objective, width
            )

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("preset_name", preset_names())
    def test_oracle(self, preset_name, objective):
        transition = preset(preset_name)
        per_layer, layers = spaces((0, 1, 2), limit=16)
        args = (per_layer, layers, BATCH, transition, objective, DEFAULT_PARAMS)
        assert solver._solve_oracle(*args) == reference_oracle(
            per_layer, layers, transition, objective
        )
