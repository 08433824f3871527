"""Keyword→topic Bayes inference and candidate keyword extraction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topics.keywords import Vocabulary, gamma_from_keywords, user_keywords


@pytest.fixture(scope="module")
def vocab(net):
    return Vocabulary.from_network(net)


class TestGammaNumpy:
    def test_is_distribution(self, vocab, net):
        g = gamma_from_keywords(vocab, [net.words[0], net.words[1]])
        assert g.shape == (net.Z,)
        assert abs(g.sum() - 1.0) < 1e-9 and (g >= 0).all()

    def test_empty_falls_back_to_prior(self, vocab, net):
        assert np.allclose(gamma_from_keywords(vocab, []), net.pi / net.pi.sum())

    def test_unknown_word_ignored(self, vocab, net):
        w = net.words[0]
        assert np.allclose(
            gamma_from_keywords(vocab, [w, "no-such-word"]),
            gamma_from_keywords(vocab, [w]),
        )

    def test_all_unknown_falls_back_to_prior(self, vocab, net):
        assert np.allclose(
            gamma_from_keywords(vocab, ["x", "y"]), net.pi / net.pi.sum()
        )

    def test_topic_word_peaks_own_topic(self, vocab, net):
        wpt = len(net.words) // net.Z
        for z in range(net.Z):
            g = gamma_from_keywords(vocab, [net.words[z * wpt]])
            assert g.argmax() == z

    def test_more_keywords_sharpen(self, vocab, net):
        wpt = len(net.words) // net.Z
        one = gamma_from_keywords(vocab, [net.words[0]])
        two = gamma_from_keywords(vocab, [net.words[0], net.words[1]])
        assert two[0] >= one[0] - 1e-12

    def test_cross_topic_mixture(self, vocab, net):
        wpt = len(net.words) // net.Z
        g = gamma_from_keywords(vocab, [net.words[0], net.words[wpt]])
        assert g[0] > 0.05 and g[1] > 0.05

    def test_order_invariant(self, vocab, net):
        a = gamma_from_keywords(vocab, [net.words[3], net.words[40]])
        b = gamma_from_keywords(vocab, [net.words[40], net.words[3]])
        assert np.allclose(a, b)

    def test_topic_radar_is_gamma_of_single_word(self, vocab, net):
        w = net.words[7]
        assert np.allclose(vocab.topic_radar(w), gamma_from_keywords(vocab, [w]))

    @given(st.lists(st.integers(min_value=0, max_value=149), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_simplex_property(self, vocab, net, idxs):
        g = gamma_from_keywords(vocab, [net.words[i] for i in idxs])
        assert abs(g.sum() - 1.0) < 1e-9 and (g >= 0).all() and (g <= 1).all()


class TestUserKeywords:
    def test_only_own_keywords(self, log):
        u = int(log.items["author"].iloc[0])
        mine = {w for ks in log.items[log.items["author"] == u]["keywords"] for w in ks}
        assert set(user_keywords(log.items, u)) <= mine

    def test_frequency_order(self, log):
        u = int(log.items["author"].value_counts().index[0])
        ks = user_keywords(log.items, u)
        counts = {}
        for kws in log.items[log.items["author"] == u]["keywords"]:
            for w in kws:
                counts[w] = counts.get(w, 0) + 1
        got = [counts[w] for w in ks]
        assert got == sorted(got, reverse=True)

    def test_max_candidates_cap(self, log):
        u = int(log.items["author"].value_counts().index[0])
        assert len(user_keywords(log.items, u, max_candidates=3)) <= 3

    def test_unknown_user_empty(self, log):
        assert user_keywords(log.items, 10**9) == []
