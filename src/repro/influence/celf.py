"""CELF lazy greedy (Leskovec et al.) — the seed-selection loop shared by
every IM variant in this repo.

Submodularity makes marginal gains non-increasing as the seed set grows,
so a stale gain is a valid upper bound and most candidates never need
re-evaluation. OCTOPUS's best-effort framework plugs in *precomputed*
upper bounds as the initial keys ("preferentially computes the exact
influence spread for the users with larger upper bounds"). The output is
identical to plain greedy whenever every initial key dominates the true
first-round gain.
"""
import heapq


def celf(
    candidates,
    marginal_fn,
    k: int,
    *,
    upper_bounds=None,
    state_update=None,
):
    """Select ``k`` seeds maximizing a submodular objective.

    Parameters
    ----------
    candidates : iterable of hashable candidate ids.
    marginal_fn : ``f(u, seeds, state) -> float`` exact marginal gain of
        ``u`` on top of ``seeds``; ``state`` is whatever ``state_update``
        returned for the current seed set (e.g. an activation-prob map).
    k : number of seeds, ≥ 0 (``ValueError`` otherwise).
    upper_bounds : optional ``{u: bound}`` or array-like indexed by ``u``.
        When given, candidates start in the queue keyed by their bound and
        are only evaluated exactly when they surface — the best-effort
        strategy. Bounds must dominate the true first-round marginal for
        the output to equal plain greedy.
    state_update : optional ``f(seeds) -> state`` called once up front and
        after each selection.

    An exact tie between gains goes to the smaller id (heap order), as in
    plain greedy.

    Returns ``(seeds, total_spread_gain, n_exact_evaluations)``.
    """
    if k < 0:
        raise ValueError(f"k = {k}: the number of seeds cannot be negative")
    state = state_update([]) if state_update is not None else None
    heap: list = []
    n_evals = 0
    if upper_bounds is None:
        for u in candidates:
            g = marginal_fn(u, [], state)
            n_evals += 1
            heap.append((-g, u, 0))
        heapq.heapify(heap)
    else:
        heap = [(-float(upper_bounds[u]), u, -1) for u in candidates]
        heapq.heapify(heap)

    seeds: list = []
    chosen: set = set()
    total = 0.0
    round_no = 0

    def select(u, g):
        nonlocal total, round_no, state
        seeds.append(u)
        chosen.add(u)
        total += g
        round_no += 1
        if state_update is not None:
            state = state_update(seeds)

    while heap and len(seeds) < k:
        neg_g, u, r = heapq.heappop(heap)
        if u in chosen:
            continue
        if r == round_no:
            select(u, -neg_g)
            continue
        g = marginal_fn(u, seeds, state)
        n_evals += 1
        fresh = (-g, u, round_no)
        # Select u iff its fresh entry would pop before the top, so equal
        # gains break by id whether the top is bound-keyed or fresh, exactly
        # as in plain greedy.
        if not heap or fresh <= heap[0]:
            select(u, g)
        else:
            heapq.heappush(heap, fresh)
    return seeds, total, n_evals
