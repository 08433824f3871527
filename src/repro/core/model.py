"""The topic-aware influence model (paper §II-B).

Bundles the social graph (per-topic edge probabilities), the keyword
model, and the action-log items into the object the three analysis tools
query. The two model operations are:

* keyword set ``W`` → topic distribution ``γ`` (Bayes, via ``topics``),
* ``γ`` → effective activation probabilities ``pp_γ(e) = Σ_z γ_z pp^z_e``
  for every edge — the *query-graph materialization*, one (E, Z) @ (Z,)
  matvec on the collected ``LocalGraph``.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphlib.builder import LocalGraph, local_graph_from_network
from repro.topics.keywords import Vocabulary, gamma_from_keywords


@dataclass
class TopicAwareInfluenceModel:
    """Graph + topic model + (optional) action-log items."""

    graph: LocalGraph
    vocab: Vocabulary
    items: pd.DataFrame | None = None
    theta: float = 0.01

    @property
    def Z(self) -> int:
        return self.graph.Z

    @classmethod
    def from_network(cls, net, log=None, *, theta: float = 0.01) -> "TopicAwareInfluenceModel":
        """Assemble from the synthetic generator's ground truth."""
        return cls(
            graph=local_graph_from_network(net),
            vocab=Vocabulary.from_network(net),
            items=None if log is None else log.items,
            theta=theta,
        )

    @classmethod
    def from_em(cls, em_result, graph_edges: pd.DataFrame, n_users: int, Z: int,
                items: pd.DataFrame | None = None, *, theta: float = 0.01) -> "TopicAwareInfluenceModel":
        """Assemble from EM-learned parameters over a derived edge list
        (the full OCTOPUS pipeline: action logs → model → analysis)."""
        src = graph_edges["src"].to_numpy()
        dst = graph_edges["dst"].to_numpy()
        probs = em_result.edge_prob_matrix(src, dst, Z)
        graph = LocalGraph.from_edges(src, dst, probs, n=n_users)
        vocab = Vocabulary(words=em_result.words, pwz=em_result.pwz, pi=em_result.pi)
        return cls(graph=graph, vocab=vocab, items=items, theta=theta)

    def gamma(self, keywords) -> np.ndarray:
        """Topic distribution captured by a keyword set."""
        return gamma_from_keywords(self.vocab, keywords)

    def edge_probs(self, gamma: np.ndarray) -> np.ndarray:
        """(E,) effective probabilities for a query γ (online path)."""
        return self.graph.effective_probs(gamma)

    def query_probs(self, keywords) -> tuple:
        """Convenience: keywords → (γ, pp_γ)."""
        gm = self.gamma(keywords)
        return gm, self.edge_probs(gm)
