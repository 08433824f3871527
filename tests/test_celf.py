"""CELF: equivalence with exhaustive lazy-free greedy on synthetic
submodular objectives, bound-keyed pruning."""
import numpy as np
import pytest

from repro.influence.celf import celf


def coverage_instance(seed, n_items=40, n_sets=12):
    """Random weighted-coverage objective (monotone submodular)."""
    g = np.random.default_rng(seed)
    sets = [set(g.choice(n_items, size=g.integers(2, 9), replace=False).tolist())
            for _ in range(n_sets)]
    w = g.random(n_items) + 0.1

    def value(S):
        cov = set().union(*(sets[i] for i in S)) if S else set()
        return float(sum(w[i] for i in cov))

    def marginal(u, S, _state):
        return value(list(S) + [u]) - value(list(S))

    return sets, value, marginal


def plain_greedy(n_sets, marginal, k):
    S = []
    total = 0.0
    for _ in range(k):
        best, bg = None, -1.0
        for u in range(n_sets):
            if u in S:
                continue
            g = marginal(u, S, None)
            if g > bg:
                best, bg = u, g
        S.append(best)
        total += bg
    return S, total


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_celf_equals_plain_greedy(seed, k):
    sets, value, marginal = coverage_instance(seed)
    want_S, want_v = plain_greedy(len(sets), marginal, k)
    got_S, got_v, _ = celf(range(len(sets)), marginal, k)
    assert abs(got_v - want_v) < 1e-9
    assert abs(value(got_S) - value(want_S)) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_valid_bounds_preserve_answer_and_prune(seed):
    sets, value, marginal = coverage_instance(seed)
    n = len(sets)
    _, base_v, base_evals = celf(range(n), marginal, 4)
    ub = {u: marginal(u, [], None) * 1.5 + 0.5 for u in range(n)}  # valid, loose
    S, v, evals = celf(range(n), marginal, 4, upper_bounds=ub)
    assert abs(v - base_v) < 1e-9
    assert evals <= base_evals + 4  # lazy loop never does worse than eager


def test_tight_bounds_prune_hard():
    sets, value, marginal = coverage_instance(7)
    n = len(sets)
    ub = {u: marginal(u, [], None) for u in range(n)}  # exact first-round gains
    S, v, evals = celf(range(n), marginal, 3, upper_bounds=ub)
    _, base_v, base_evals = celf(range(n), marginal, 3)
    assert abs(v - base_v) < 1e-9
    assert evals < base_evals


def test_k_exceeds_candidates():
    sets, value, marginal = coverage_instance(1, n_sets=3)
    S, v, _ = celf(range(3), marginal, 10)
    assert len(S) == 3


def test_state_update_called():
    calls = []

    def marginal(u, S, state):
        assert state == len(S)
        return 10.0 - u

    def update(S):
        calls.append(list(S))
        return len(S)

    S, v, _ = celf(range(5), marginal, 2, state_update=update)
    assert S == [0, 1]
    assert calls[0] == [] and calls[-1] == [0, 1]


def test_empty_candidates():
    S, v, n = celf([], lambda u, s, st: 1.0, 3)
    assert S == [] and v == 0.0 and n == 0
