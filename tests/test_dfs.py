import math

import numpy as np
import pytest

from streammem.dfs import (dfs_select, distance_index, dpc_knn_select,
                           format_selection_report, frame_relevance,
                           local_density, parse_selection_centers,
                           pool_tokens, select_top_L, sq_dist_matrix,
                           uniform_select)
from streammem.memory import FeatureBuffer, MemoryBank, MemoryEntry, append
from streammem.stream import InstructionEncoding
from streammem.verify import dpc_bruteforce, random_cluster_instance

from oracles import (frame_relevance_loop, select_top_L_loop,
                     sq_dist_matrix_unblocked)


def _bank_from_tokens(token_list, d):
    bank = MemoryBank(W=token_list[0].shape[0], d=d)
    for t, tokens in enumerate(token_list):
        append(bank, MemoryEntry(t, 0, tokens))
    return bank


def _scored_bank(values, d=4):
    """A bank whose frame relevance against the all-ones mean is controlled
    per frame: token rows are value/d broadcast so max dot = value."""
    tokens = [np.full((2, d), v / d) for v in values]
    return _bank_from_tokens(tokens, d)


class TestFrameRelevance:
    def test_controlled_scores(self):
        bank = _scored_bank([3.0, 1.0, 2.0])
        scores = frame_relevance(bank, np.ones(4))
        scale = 1.0 / math.sqrt(4)
        assert np.allclose(scores, [3 * scale, 1 * scale, 2 * scale])

    def test_max_over_tokens(self):
        tokens = np.zeros((2, 4))
        tokens[1] = 2.5 / 4
        bank = _bank_from_tokens([tokens], 4)
        (relevance,) = frame_relevance(bank, np.ones(4))
        assert np.isclose(relevance, 2.5 / math.sqrt(4))

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            frame_relevance(MemoryBank(W=2, d=4), np.ones(4))

    def test_zero_instruction_flat_scores(self):
        bank = _scored_bank([3.0, 1.0, 2.0])
        scores = frame_relevance(bank, np.zeros(4))
        assert np.all(scores == 0.0)


class TestSelectTopL:
    def test_ties_go_to_smaller_frame(self):
        bank = _scored_bank([3.0, 1.0, 3.0, 2.0])
        scores = frame_relevance(bank, np.ones(4))
        cand = select_top_L(scores, 2, bank)
        assert cand.frames == [0, 2]
        cand1 = select_top_L(scores, 1, bank)
        assert cand1.frames == [0]

    def test_L_clamped_to_population(self):
        bank = _scored_bank([1.0, 2.0])
        scores = frame_relevance(bank, np.ones(4))
        cand = select_top_L(scores, 64, bank)
        assert sorted(cand.frames) == [0, 1]
        assert cand.L == 64

    def test_mean_representation(self):
        tokens = np.arange(8.0).reshape(2, 4)
        bank = _bank_from_tokens([tokens], 4)
        scores = frame_relevance(bank, np.ones(4))
        cand = select_top_L(scores, 1, bank, z_repr="mean")
        assert np.array_equal(cand.vectors[0], tokens.mean(axis=0))

    def test_concat_representation(self):
        tokens = np.arange(8.0).reshape(2, 4)
        bank = _bank_from_tokens([tokens], 4)
        scores = frame_relevance(bank, np.ones(4))
        cand = select_top_L(scores, 1, bank, z_repr="concat")
        assert np.array_equal(cand.vectors[0], tokens.reshape(-1))

    def test_bad_L_rejected(self):
        bank = _scored_bank([1.0])
        with pytest.raises(ValueError):
            select_top_L(frame_relevance(bank, np.ones(4)), 0, bank)

    def test_scores_of_another_bank_rejected(self):
        scores = frame_relevance(_scored_bank([1.0, 2.0]), np.ones(4))
        with pytest.raises(ValueError):
            select_top_L(scores, 1, _scored_bank([1.0, 2.0, 3.0]))


class TestStage2MatchesEntryLoop:
    """The array forms equal per-entry loops bit for bit."""

    @pytest.mark.parametrize("seed,T,W,d", [(0, 1, 2, 4), (1, 37, 2, 64),
                                            (2, 300, 3, 16), (3, 64, 1, 8)])
    def test_relevance_and_top_L(self, seed, T, W, d):
        rng = np.random.default_rng(seed)
        bank = MemoryBank(W=W, d=d)
        for t in range(T):
            tokens = rng.standard_normal((W, d))
            if t % 5 == 3:  # exact ties with the previous frame
                tokens = bank.entries[-1].tokens.copy()
            append(bank, MemoryEntry(3 * t + 1, t // 8, tokens))
        mean = rng.standard_normal(d)
        _, relevance = frame_relevance_loop(bank, mean)
        scores = frame_relevance(bank, mean)
        assert np.array_equal(scores, relevance)
        for z_repr in ("mean", "concat"):
            for L in (1, T // 2 + 1, T + 5):
                cand = select_top_L(scores, L, bank, z_repr)
                top, vectors, rel = select_top_L_loop(bank, mean, L, z_repr)
                assert cand.frames == top
                assert np.array_equal(cand.vectors, vectors)
                assert np.array_equal(cand.relevance, rel)

    @pytest.mark.parametrize("n,d", [(1, 4), (31, 3), (32, 64), (33, 64),
                                     (100, 128), (256, 64)])
    def test_blocked_distances(self, n, d):
        z = np.random.default_rng(n).standard_normal((n, d))
        assert np.array_equal(sq_dist_matrix(z), sq_dist_matrix_unblocked(z))


class TestDensityAndDistance:
    def test_density_formula_small_case(self):
        vectors = np.array([[0.0], [1.0], [10.0]])
        sigma = local_density(vectors, 2)
        # point 0: mean of squared dists to its 2 neighbors (1, 100)
        assert np.isclose(sigma[0], math.exp(-(1 + 100) / 2))
        assert np.isclose(sigma[1], math.exp(-(1 + 81) / 2))
        assert np.isclose(sigma[2], math.exp(-(81 + 100) / 2))

    def test_K_clamped(self):
        vectors = np.array([[0.0], [2.0]])
        sigma = local_density(vectors, 50)
        assert np.allclose(sigma, math.exp(-4.0))

    def test_distance_index_max_for_densest(self):
        vectors = np.array([[0.0], [0.1], [5.0]])
        sigma = local_density(vectors, 1)
        rho = distance_index(vectors, sigma)
        densest = int(np.argmax(sigma))
        assert rho[densest] == np.max(
            (vectors - vectors[densest]) ** 2)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            local_density(np.zeros((1, 2)), 1)


class TestDpcKnnSelect:
    def test_two_tight_groups_yield_one_center_each(self):
        rng = np.random.default_rng(0)
        group_a = rng.standard_normal((5, 2)) * 0.01
        group_b = rng.standard_normal((5, 2)) * 0.01 + 50.0
        vectors = np.vstack([group_a, group_b])
        frames = list(range(10))
        from streammem.dfs import CandidateSet
        cand = CandidateSet(frames=frames, vectors=vectors,
                            relevance=np.zeros(10), L=10)
        diag = dpc_knn_select(cand, K=3, K_c=2)
        assert len(diag.centers) == 2
        assert sum(c < 5 for c in diag.centers) == 1
        assert sum(c >= 5 for c in diag.centers) == 1

    def test_degenerate_single_candidate(self):
        from streammem.dfs import CandidateSet
        cand = CandidateSet(frames=[7], vectors=np.ones((1, 3)),
                            relevance=np.zeros(1), L=4)
        diag = dpc_knn_select(cand, K=5, K_c=8)
        assert diag.centers == [7]
        assert diag.sigma.tolist() == [1.0]
        assert diag.rho.tolist() == [0.0]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce_oracle(self, seed):
        frames, vectors, K, K_c = random_cluster_instance(seed)
        from streammem.dfs import CandidateSet
        cand = CandidateSet(frames=frames, vectors=vectors,
                            relevance=np.zeros(len(frames)), L=len(frames))
        diag = dpc_knn_select(cand, K, K_c)
        sigma, rho, centers = dpc_bruteforce(frames, vectors.tolist(), K, K_c)
        assert diag.centers == centers
        assert np.allclose(diag.sigma, sigma, atol=1e-12, rtol=1e-12)
        assert np.allclose(diag.rho, rho, atol=1e-12, rtol=1e-12)


class TestPoolTokens:
    def test_uneven_groups_larger_first(self):
        raw = np.arange(10.0).reshape(5, 2)
        pooled = pool_tokens(raw, 2)
        # groups are {0,1,2} and {3,4}
        assert np.array_equal(pooled[0], raw[:3].mean(axis=0))
        assert np.array_equal(pooled[1], raw[3:].mean(axis=0))

    def test_identity_when_p_equals_P(self):
        raw = np.random.default_rng(1).standard_normal((4, 3))
        assert np.array_equal(pool_tokens(raw, 4), raw)

    def test_single_group_is_global_mean(self):
        raw = np.random.default_rng(2).standard_normal((6, 3))
        assert np.allclose(pool_tokens(raw, 1)[0], raw.mean(axis=0))

    def test_out_of_range_rejected(self):
        raw = np.zeros((3, 2))
        with pytest.raises(ValueError):
            pool_tokens(raw, 4)
        with pytest.raises(ValueError):
            pool_tokens(raw, 0)


def _populated(seed, T=32, W=2, d=4, P=6):
    rng = np.random.default_rng(seed)
    bank = MemoryBank(W=W, d=d)
    buffer = FeatureBuffer()
    for t in range(T):
        append(bank, MemoryEntry(t, t // 8, rng.standard_normal((W, d))))
        buffer.store(t, rng.standard_normal((P, d)))
    return bank, buffer


def _instruction(d, rng):
    mean = rng.standard_normal(d)
    return InstructionEncoding(tokens=mean[None, :], mean=mean)


class TestDfsSelectEndToEnd:
    @pytest.mark.parametrize("seed", range(5))
    def test_monolithic_oracle(self, seed):
        """Re-derive the whole selection with plain loops and compare."""
        bank, buffer = _populated(seed)
        rng = np.random.default_rng(100 + seed)
        instr = _instruction(4, rng)
        L, K, K_c, p = 12, 3, 4, 2
        result = dfs_select(bank, buffer, instr, L, K, K_c, p)

        scale = 1.0 / math.sqrt(4)
        rel = {e.frame_index: max(float(row @ instr.mean) for row in e.tokens)
               * scale for e in bank.entries}
        top = sorted(rel, key=lambda f: (-rel[f], f))[:L]
        z = [bank.entries[f].tokens.mean(axis=0).tolist() for f in top]
        _, _, centers = dpc_bruteforce(top, z, K, K_c)
        assert result.centers == sorted(centers)
        for center, pooled in zip(result.centers, result.pooled):
            raw = buffer.get(center)
            assert np.allclose(pooled[0], raw[:3].mean(axis=0), atol=1e-12)
            assert np.allclose(pooled[1], raw[3:].mean(axis=0), atol=1e-12)

    def test_deterministic_across_calls(self):
        bank, buffer = _populated(9)
        instr = _instruction(4, np.random.default_rng(9))
        a = dfs_select(bank, buffer, instr, 16, 3, 4, 2)
        b = dfs_select(bank, buffer, instr, 16, 3, 4, 2)
        assert a.centers == b.centers
        assert format_selection_report(a) == format_selection_report(b)

    def test_instruction_scale_invariance_of_ranking(self):
        # scaling the instruction scales every relevance equally, so the
        # top-L set, the clustering, and the centers are unchanged
        bank, buffer = _populated(10)
        instr = _instruction(4, np.random.default_rng(10))
        scaled = InstructionEncoding(tokens=instr.tokens * 7.0,
                                     mean=instr.mean * 7.0)
        a = dfs_select(bank, buffer, instr, 16, 3, 4, 2)
        b = dfs_select(bank, buffer, scaled, 16, 3, 4, 2)
        assert a.centers == b.centers
        assert a.candidates.frames == b.candidates.frames

    def test_centers_ascending(self):
        bank, buffer = _populated(11)
        instr = _instruction(4, np.random.default_rng(11))
        result = dfs_select(bank, buffer, instr, 16, 3, 4, 2)
        assert result.centers == sorted(result.centers)
        assert result.strategy == "dfs"


class TestUniformSelect:
    def test_evenly_spaced(self):
        bank, buffer = _populated(12, T=16)
        result = uniform_select(bank, buffer, K_c=4, p=2)
        assert result.centers == [0, 4, 8, 12]
        assert result.strategy == "uniform"

    def test_short_stream(self):
        bank, buffer = _populated(13, T=3)
        result = uniform_select(bank, buffer, K_c=8, p=2)
        assert result.centers == [0, 1, 2]


class TestSelectionReport:
    def test_round_trip_centers(self):
        bank, buffer = _populated(14)
        instr = _instruction(4, np.random.default_rng(14))
        result = dfs_select(bank, buffer, instr, 16, 3, 4, 2)
        text = format_selection_report(result)
        assert parse_selection_centers(text) == result.centers
        assert text.splitlines()[0] == "# selection strategy=dfs"
        body = text.splitlines()[3:]
        assert len(body) == len(result.candidates.frames)
        for line in body:
            fields = line.split()
            assert len(fields) == 6
            assert fields[5] in ("0", "1")

    def test_missing_centers_line_rejected(self):
        with pytest.raises(ValueError):
            parse_selection_centers("no centers here\n")
