"""Properties of the MIA kernel on random graphs with zero-probability
edges: trees equal max-probability paths (forward and reverse, θ at its
limits), PB, NB and min(PB, NB) dominate the exact spread, and best-effort
returns the exact greedy answer for every k up to n."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keyword_im import best_effort_im, naive_mia_im
from repro.core.mia import mia_sigma_single, miia, mioa
from repro.core.model import TopicAwareInfluenceModel
from repro.graphlib.builder import LocalGraph
from repro.influence.bounds import best_upper_bounds, nb_bounds, pb_bounds, precompute_local
from repro.topics.keywords import Vocabulary
from tests.conftest import random_local_graph

SETTINGS = settings(max_examples=40, deadline=None)


def graph_with_zeros(seed: int, n: int, zero_frac: float, Z: int = 2) -> LocalGraph:
    """``random_local_graph`` with a ``zero_frac`` share of its edges at
    probability 0 in every topic."""
    g = random_local_graph(seed, n=n, Z=Z, avg_deg=3)
    probs = g.probs.copy()
    probs[np.random.default_rng(seed + 1).random(len(probs)) < zero_frac] = 0.0
    return LocalGraph.from_edges(g.e_src, g.e_dst, probs, n=n)


graphs = st.builds(
    graph_with_zeros,
    seed=st.integers(0, 2**31),
    n=st.integers(2, 12),
    zero_frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
gammas = st.integers(0, 2**31).map(lambda s: np.random.default_rng(s).dirichlet([0.5, 0.5]))


def max_path_probs(g: LocalGraph, p: np.ndarray, root: int, forward: bool) -> dict:
    """Best path probability from (or, reversed, into) ``root`` by
    Bellman-Ford on products: p ≤ 1, so no cycle improves a path."""
    best = {root: 1.0}
    tails, heads = (g.e_src, g.e_dst) if forward else (g.e_dst, g.e_src)
    for _ in range(g.n):
        for a, b, pe in zip(tails.tolist(), heads.tolist(), p.tolist()):
            if pe > 0 and a in best and best[a] * pe > best.get(b, 0.0):
                best[b] = best[a] * pe
    return best


@SETTINGS
@given(g=graphs, gamma=gammas, drawn=st.floats(1e-3, 1.0), data=st.data())
def test_trees_are_max_probability_paths(g, gamma, drawn, data):
    p = g.effective_probs(gamma)
    root = data.draw(st.integers(0, g.n - 1))
    for forward, tree_fn in ((True, mioa), (False, miia)):
        best = max_path_probs(g, p, root, forward)
        for theta in (0.0, drawn, 1.0):
            tree = tree_fn(g, p, root, theta)
            # Paths within 1e-9 of θ may fall either side of the cut.
            assert {v for v, b in best.items() if b >= theta * (1 + 1e-9)} <= set(tree)
            assert set(tree) <= {v for v, b in best.items() if b >= theta * (1 - 1e-9)}
            assert tree[root] == (1.0, -1)
            for v, (prob, _) in tree.items():
                assert abs(prob - best[v]) < 1e-9


@SETTINGS
@given(g=graphs, gamma=gammas, drawn=st.floats(1e-3, 1.0))
def test_bounds_dominate_exact_spread(g, gamma, drawn):
    p = g.effective_probs(gamma)
    for theta in (0.0, drawn, 1.0):
        pre = precompute_local(g, theta=theta)
        pb, nb = pb_bounds(pre), nb_bounds(g, p, pre)
        both = best_upper_bounds(g, p, pre)
        for u in range(g.n):
            exact = mia_sigma_single(g, p, u, theta) - 1e-9
            assert pb[u] >= exact and nb[u] >= exact and both[u] >= exact


@SETTINGS
@given(g=graphs, theta=st.sampled_from([0.0, 0.01, 0.1]), data=st.data())
def test_best_effort_equals_exact_greedy(g, theta, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    words = [f"w{i}" for i in range(6)]
    vocab = Vocabulary(words=words, pwz=rng.dirichlet(np.ones(6), size=g.Z),
                       pi=rng.dirichlet(np.ones(g.Z)))
    model = TopicAwareInfluenceModel(graph=g, vocab=vocab, theta=theta)
    pre = precompute_local(g, theta=theta)
    W = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
    k = data.draw(st.integers(1, g.n))
    a = naive_mia_im(model, W, k)
    b = best_effort_im(model, pre, W, k)
    assert b.seeds == a.seeds
    assert abs(b.mia_spread - a.mia_spread) <= 1e-9 * a.mia_spread
