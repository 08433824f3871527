"""Model assembly: ground truth or EM fit → model → (γ, pp_γ) per query."""
import numpy as np

from repro.core.model import TopicAwareInfluenceModel
from repro.topics.em import em_fit_local


def unit_gamma(Z, z):
    g = np.zeros(Z)
    g[z] = 1.0
    return g


class TestModelAssembly:
    def test_from_network(self, model, net):
        assert model.Z == net.Z
        assert model.graph.n == net.n_users
        assert model.items is not None

    def test_query_probs_pipeline(self, model, net):
        gm, p = model.query_probs([net.words[0]])
        assert abs(gm.sum() - 1.0) < 1e-9
        assert p.shape == (model.graph.n_edges,)
        assert np.allclose(p, model.graph.probs @ gm)

    def test_from_em_pipeline(self, net, log):
        """Full OCTOPUS pipeline: logs → EM → model → query."""
        fit = em_fit_local(log.items, log.trials, Z=net.Z, n_iter=3, seed=0)
        derived = (
            log.trials[["src", "dst"]].drop_duplicates().reset_index(drop=True)
        )
        m = TopicAwareInfluenceModel.from_em(
            fit, derived, n_users=net.n_users, Z=net.Z, items=log.items
        )
        assert m.graph.n_edges == len(derived)
        gm, p = m.query_probs([fit.words[0]])
        assert p.shape == (len(derived),)
        assert (p >= 0).all() and (p <= 1).all()

    def test_edge_probs_linear_in_gamma(self, model):
        g1 = unit_gamma(model.Z, 0)
        g2 = unit_gamma(model.Z, 1)
        mix = 0.3 * g1 + 0.7 * g2
        assert np.allclose(
            model.edge_probs(mix),
            0.3 * model.edge_probs(g1) + 0.7 * model.edge_probs(g2),
        )
