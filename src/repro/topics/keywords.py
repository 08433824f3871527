"""Keyword interpretation of topics (paper §II-B).

Topics are latent distributions end-users cannot read; OCTOPUS exposes
keywords instead. Given keyword distributions ``p(w|z)`` and prior ``π``,
a query keyword set ``W`` induces the topic distribution

    γ_z = p(z | W) ∝ π_z · Π_{w∈W} p(w|z)        (Bayes, as in [6])

computed in log space, once per query by the online engine.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass
class Vocabulary:
    """Keyword model: vocabulary + p(w|z) + topic prior π."""

    words: list            # length V
    pwz: np.ndarray        # (Z, V), rows sum to 1
    pi: np.ndarray         # (Z,)

    def __post_init__(self):
        self.word_index = {w: i for i, w in enumerate(self.words)}

    @property
    def Z(self) -> int:
        return len(self.pi)

    @classmethod
    def from_network(cls, net) -> "Vocabulary":
        """Ground-truth vocabulary of a ``synth_data.SocialNetwork``."""
        return cls(words=list(net.words), pwz=net.pwz, pi=net.pi)

    def topic_radar(self, word: str) -> np.ndarray:
        """p(z | w) — the radar-diagram interpretation shown in Scenario 2."""
        return gamma_from_keywords(self, [word])


def gamma_from_keywords(vocab: Vocabulary, keywords) -> np.ndarray:
    """Topic distribution γ captured by a keyword set (numpy, online path).

    Unknown keywords are ignored; an empty/fully-unknown set falls back to
    the prior π. Computed in log space for numerical stability.
    """
    logg = np.log(np.maximum(vocab.pi, 1e-300)).copy()
    hit = False
    for w in keywords:
        i = vocab.word_index.get(w)
        if i is None:
            continue
        hit = True
        logg += np.log(np.maximum(vocab.pwz[:, i], 1e-300))
    if not hit:
        return vocab.pi / vocab.pi.sum()
    logg -= logg.max()
    g = np.exp(logg)
    return g / g.sum()


def user_keywords(items_pdf: pd.DataFrame, user: int, *, max_candidates: int = 40) -> list:
    """Candidate keywords for Scenario 2: the keywords appearing in the
    target user's own items (paper: 'extracted from paper titles of the
    researcher'), most frequent first."""
    mine = items_pdf[items_pdf["author"] == user]
    counts: dict = {}
    for kws in mine["keywords"]:
        for kw in kws:
            counts[kw] = counts.get(kw, 0) + 1
    ranked = sorted(counts.items(), key=lambda t: (-t[1], t[0]))
    return [w for w, _ in ranked[:max_candidates]]
