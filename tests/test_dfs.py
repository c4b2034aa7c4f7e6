import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streammem.dfs
from streammem.dfs import (_DIST_SCRATCH, CandidateSet, ClusterDiagnostics,
                           SelectionResult, dfs_select, distance_index,
                           dpc_knn_select, format_selection_report,
                           frame_relevance, local_density,
                           parse_selection_centers, pool_tokens,
                           select_top_L, sq_dist_matrix, uniform_select)
from streammem.memory import FeatureBuffer, MemoryBank, append, buffer_store
from streammem.stream import InstructionEncoding
from streammem.verify import dpc_bruteforce, random_cluster_instance

from oracles import (distance_index_loop, dpc_rank_loop,
                     format_selection_report_indexed,
                     frame_relevance_loop, local_density_loop,
                     pool_tokens_loop, select_top_L_full_sort,
                     select_top_L_loop, sq_dist_matrix_unblocked)


def _bank_from_tokens(token_list, d, frames=None):
    """A bank of the (W, d) token rows at `frames` (default 0..T-1)."""
    bank = MemoryBank(W=token_list[0].shape[0], d=d)
    append(bank, range(len(token_list)) if frames is None else frames, 0,
           np.stack(token_list))
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


def _rows_covering(n, W, T, seed):
    """(T, W) indices into n choices: every W-tuple once, then random."""
    idx = np.random.default_rng(seed).integers(n, size=(T, W))
    combos = np.array(list(itertools.product(range(n), repeat=W)))
    idx[:len(combos)] = combos[:T]
    return idx


# d=16 token rows against the mean (2, -2, 2, -2, ...). The gemv sums from
# +0.0, so both signed-zero rows dot to +0.0; the 1e308 rows overflow to
# +inf or -inf, or give inf - inf = NaN inside one dot product.
_EDGE_MEAN = np.tile([2.0, -2.0], 8)
_EDGE_ROWS = np.array([np.tile(pair, 8) for pair in (
    (0.0, 0.0), (-0.0, -0.0), (1e308, -1e308), (-1e308, 1e308),
    (1e308, 1e308), (0.5, 0.25), (-1.0, 0.0))])


class _PresetDots:
    """Stands in for a bank's flattened tokens: `tokens @ mean` gives the
    preset T*W dot products, so the max over the W columns meets dots a
    real gemv never returns, such as -0.0."""

    def __init__(self, dots):
        self.dots, self.dtype = dots, dots.dtype

    def __matmul__(self, mean):
        return self.dots.copy()


class _PresetBank:
    def __init__(self, dots, d=4):
        self.frames = np.arange(len(dots))
        self.W, self.d = dots.shape[1], d
        self._tokens = _PresetDots(dots.reshape(-1))

    def all_tokens(self):
        return self._tokens

    def __len__(self):
        return len(self.frames)


class TestRelevanceBytes:
    """frame_relevance writes the bytes of the per-frame reduce, signed
    zeros and NaN bits included; `np.array_equal` would miss both."""

    @pytest.mark.parametrize("W", [1, 2, 3])
    @pytest.mark.parametrize("T", [1, 37, 4384])
    def test_edge_dots_match_loop(self, W, T):
        idx = _rows_covering(len(_EDGE_ROWS), W, T, seed=T + W)
        bank = _bank_from_tokens(_EDGE_ROWS[idx], 16)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = frame_relevance(bank, _EDGE_MEAN)
            _, relevance = frame_relevance_loop(bank, _EDGE_MEAN)
        assert scores.tobytes() == np.array(relevance).tobytes()
        if T == 4384:  # every kind of maximum occurs
            assert {np.isnan(scores).any(), np.isinf(scores).any(),
                    (scores == 0).any()} == {True}

    @pytest.mark.parametrize("W", [1, 2, 3])
    def test_float32_bank_scores_in_float32(self, W):
        """A float32 bank, as Stage 1 and `load_bank` build it, is scored
        in float32 with the float64 mean cast to it."""
        rng = np.random.default_rng(W)
        bank = MemoryBank(W=W, d=64, dtype=np.float32)
        append(bank, range(300), 0, rng.standard_normal((300, W, 64)))
        mean = rng.standard_normal(64)
        scores = frame_relevance(bank, mean)
        _, relevance = frame_relevance_loop(bank, mean)
        assert scores.dtype == np.float32
        assert scores.tobytes() == np.array(relevance).tobytes()

    @pytest.mark.parametrize("W", [1, 2, 3, 9])
    @pytest.mark.parametrize("T", [7, 4384])
    def test_signed_zero_and_nan_dots_match_loop(self, W, T):
        """Dots of +0.0 and -0.0 in both orders, with NaNs of either sign
        (numpy's reduce writes a NaN first in its row as +NaN): at W=9
        numpy's vectorised reduce picks its own zero sign too."""
        values = np.array([0.0, -0.0, -1.0, np.nan, -np.nan])
        n = len(values) if W < 9 else 3
        dots = values[_rows_covering(n, W, T, seed=W)]
        bank = _PresetBank(dots)
        _, relevance = frame_relevance_loop(bank, np.ones(4))
        assert frame_relevance(bank, np.ones(4)).tobytes() == \
            np.array(relevance).tobytes()


# relevance values with dense ties, both zeros, both infinities and NaNs
# of both signs
_TIED = [-1.5, -0.0, 0.0, 1.0, 2.5, np.inf, -np.inf, np.nan, -np.nan]


class TestTopLMatchesFullSort:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.sampled_from(_TIED), min_size=1, max_size=60),
           gaps=st.lists(st.integers(1, 5), min_size=60, max_size=60),
           z_repr=st.sampled_from(["mean", "concat"]))
    def test_matches_full_sort(self, values, gaps, z_repr):
        """Every L from 1 to past T that matters: 1, each tie boundary
        (the L-th and L+1-th keys equal, NaN with NaN too), T - 1, T and
        T + 5, on increasing frames with gaps."""
        T, relevance = len(values), np.array(values)
        frames = np.cumsum(gaps[:T])
        rng = np.random.default_rng(T)
        bank = _bank_from_tokens(rng.standard_normal((T, 2, 3)), 3, frames)
        keys = -relevance[np.lexsort((frames, -relevance))]
        ties = [L for L in range(1, T)
                if keys[L - 1] == keys[L]
                or np.isnan(keys[L - 1]) and np.isnan(keys[L])]
        for L in {1, T - 1, T, T + 5, *ties} - {0}:
            cand = select_top_L(relevance, L, bank, z_repr)
            want = select_top_L_full_sort(relevance, L, bank, z_repr)
            assert cand.frames == want[0]
            assert cand.vectors.tobytes() == want[1].tobytes()
            assert cand.relevance.tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("levels", [400, None])
    def test_sorts_only_the_top_L_and_its_ties(self, monkeypatch, levels):
        """At T=4,384 and L=64 the sort sees at most L frames plus the ties
        at the L-th key, never the whole bank: relevance drawn from 400
        levels (about 11 frames per level) or continuous (no ties)."""
        T, L = 4384, 64
        rng = np.random.default_rng(64)
        relevance = (rng.integers(levels, size=T).astype(float) if levels
                     else rng.standard_normal(T))
        bank = _bank_from_tokens(rng.standard_normal((T, 2, 4)), 4)
        want = select_top_L_full_sort(relevance, L, bank, "mean")
        sorted_sizes, lexsort = [], np.lexsort

        def counting_lexsort(keys, *args, **kwargs):
            sorted_sizes.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(streammem.dfs.np, "lexsort", counting_lexsort)
        cand = select_top_L(relevance, L, bank)
        kth = np.sort(-relevance)[L - 1]
        assert sorted_sizes
        assert max(sorted_sizes) <= L + np.count_nonzero(-relevance == kth)
        assert cand.frames == want[0]


class TestStage2MatchesEntryLoop:
    """The array forms equal per-entry loops bit for bit."""

    @pytest.mark.parametrize("seed,T,W,d", [(0, 1, 2, 4), (1, 37, 2, 64),
                                            (2, 300, 3, 16), (3, 64, 1, 8)])
    def test_relevance_and_top_L(self, seed, T, W, d):
        rng = np.random.default_rng(seed)
        bank = MemoryBank(W=W, d=d)
        for t in range(T):
            tokens = rng.standard_normal((1, W, d))
            if t % 5 == 3:  # exact ties with the previous frame
                tokens = bank.tokens[-1:].copy()
            append(bank, [3 * t + 1], t // 8, tokens)
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

    @pytest.mark.parametrize("n,d", [(1, 4), (2, 64), (13, 64), (31, 3),
                                     (32, 64), (33, 64), (65, 64),
                                     (100, 128), (256, 64)])
    def test_blocked_distances(self, n, d):
        z = np.random.default_rng(n).standard_normal((n, d))
        assert np.array_equal(sq_dist_matrix(z), sq_dist_matrix_unblocked(z))

    @pytest.mark.parametrize("n,d", [
        (0, 64), (1, 64), (2, 64), (3, 64), (255, 64), (256, 64), (257, 64),
        (15, 4096), (16, 4096), (17, 4096),  # blocks of 1, 1 and 0 -> 1 row
        (257, 256), (256, 1), (257, 1)])
    def test_scratch_distances(self, n, d):
        """Blocks of as many rows as the scratch holds (4, 4 and 3 rows at
        d=64 for n=255..257, so the last block is short or full; one row
        when a single row overfills it; one block for d=1) give the
        unblocked sums bit for bit. The input is only read, so a read-only
        array works and keeps its bytes."""
        assert _DIST_SCRATCH // (257 * 64) == 3
        z = np.random.default_rng(1000 + n + d).standard_normal((n, d))
        before = z.copy()
        z.flags.writeable = False
        assert np.array_equal(sq_dist_matrix(z), sq_dist_matrix_unblocked(z))
        assert np.array_equal(z, before)


class TestDensityAndDistance:
    def test_density_formula_small_case(self):
        vectors = np.array([[0.0], [1.0], [10.0]])
        sigma = local_density(sq_dist_matrix(vectors), 2)
        # point 0: mean of squared dists to its 2 neighbors (1, 100)
        assert np.isclose(sigma[0], math.exp(-(1 + 100) / 2))
        assert np.isclose(sigma[1], math.exp(-(1 + 81) / 2))
        assert np.isclose(sigma[2], math.exp(-(81 + 100) / 2))

    def test_K_clamped(self):
        vectors = np.array([[0.0], [2.0]])
        sigma = local_density(sq_dist_matrix(vectors), 50)
        assert np.allclose(sigma, math.exp(-4.0))

    def test_distance_index_max_for_densest(self):
        vectors = np.array([[0.0], [0.1], [5.0]])
        dists = sq_dist_matrix(vectors)
        sigma = local_density(dists, 1)
        rho = distance_index(dists, sigma)
        densest = int(np.argmax(sigma))
        assert rho[densest] == np.max(
            (vectors - vectors[densest]) ** 2)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            local_density(sq_dist_matrix(np.zeros((1, 2))), 1)


def _cluster_vectors(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d))
    if kind == "duplicates":  # many exact copies: zero distances off the diagonal
        z = z[rng.integers(0, max(1, n // 4), n)]
    elif kind == "ties":  # integer grid: equal distances and equal densities
        z = np.round(z)
    return z


class TestDpcMatchesLoops:
    """The vectorised density, distance index and ranking equal the
    per-candidate loops bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "duplicates", "ties"])
    @pytest.mark.parametrize("seed, n, d, K", [
        (0, 2, 1, 1), (1, 3, 2, 5), (2, 17, 4, 3), (3, 64, 8, 8),
        (4, 256, 64, 5), (5, 100, 1, 99), (6, 40, 3, 39)])
    def test_bit_exact(self, kind, seed, n, d, K):
        z = _cluster_vectors(seed, n, d, kind)
        dists = sq_dist_matrix(z)
        sigma = local_density(dists, K)
        assert np.array_equal(sigma, local_density_loop(dists, K))
        rho = distance_index(dists, sigma)
        assert np.array_equal(rho, distance_index_loop(dists, sigma))

    @pytest.mark.parametrize("kind", ["random", "duplicates", "ties"])
    @pytest.mark.parametrize("seed", range(6))
    def test_centers_match_sorted_ranking(self, kind, seed):
        from streammem.dfs import CandidateSet
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        z = _cluster_vectors(seed, n, 3, kind)
        frames = [int(f) for f in rng.permutation(3 * n)[:n]]
        cand = CandidateSet(frames=frames, vectors=z, relevance=np.zeros(n),
                            L=n)
        diag = dpc_knn_select(cand, 4, 8)
        assert diag.centers == dpc_rank_loop(frames, diag.weighted, 8)
        assert all(type(c) is int for c in diag.centers)

    def test_equal_weights_rank_by_frame(self):
        from streammem.dfs import CandidateSet
        z = np.zeros((5, 2))  # every sigma * rho is 0
        cand = CandidateSet(frames=[9, 3, 7, 1, 5], vectors=z,
                            relevance=np.zeros(5), L=5)
        assert dpc_knn_select(cand, 2, 3).centers == [1, 3, 5]


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

    @pytest.mark.parametrize("dtype,d", [(np.float32, 64), (np.float64, 64),
                                         (np.float64, 1)])
    def test_matches_one_mean_per_group(self, dtype, d):
        rng = np.random.default_rng(d)
        for P in range(1, 65):
            raw = rng.standard_normal((P, d)).astype(dtype)
            for p in range(1, P + 1):
                assert np.array_equal(pool_tokens(raw, p),
                                      pool_tokens_loop(raw, p)), (P, p)

    @pytest.mark.parametrize("P,p", [(32, 5), (33, 4), (7, 3), (32, 1),
                                     (32, 32), (1, 1)])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_stack_matches_one_frame_at_a_time(self, P, p, k):
        """One call on a (k, P, d) stack pools each frame to the bytes a
        call per frame gives."""
        raw = np.random.default_rng(100 * P + p + k).standard_normal(
            (k, P, 64))
        pooled = pool_tokens(raw, p)
        assert pooled.shape == (k, p, 64)
        assert pooled.tobytes() == np.stack(
            [pool_tokens_loop(frame, p) for frame in raw]).tobytes()

    def test_out_of_range_rejected(self):
        for raw in (np.zeros((3, 2)), np.zeros((4, 3, 2))):
            with pytest.raises(ValueError):
                pool_tokens(raw, 4)
            with pytest.raises(ValueError):
                pool_tokens(raw, 0)


def _populated(seed, T=32, W=2, d=4, P=6):
    rng = np.random.default_rng(seed)
    bank = MemoryBank(W=W, d=d)
    frames = np.empty((T, P, d))
    for t in range(T):
        append(bank, [t], t // 8, rng.standard_normal((1, W, d)))
        frames[t] = rng.standard_normal((P, d))
    buffer = FeatureBuffer(frames)
    buffer_store(buffer, T)
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
        rows = dict(zip(bank.frames.tolist(), bank.tokens))
        rel = {f: max(float(row @ instr.mean) for row in tokens) * scale
               for f, tokens in rows.items()}
        top = sorted(rel, key=lambda f: (-rel[f], f))[:L]
        z = [rows[f].mean(axis=0).tolist() for f in top]
        _, _, centers = dpc_bruteforce(top, z, K, K_c)
        assert result.centers == sorted(centers)
        for center, pooled in zip(result.centers, result.pooled):
            raw = buffer.get(center)
            assert np.allclose(pooled[0], raw[:3].mean(axis=0), atol=1e-12)
            assert np.allclose(pooled[1], raw[3:].mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("strategy", ["dfs", "uniform"])
    def test_one_pooling_call_per_selection(self, monkeypatch, strategy):
        """The selected frames are pooled from one stack in one call, to
        the bytes of one call per frame."""
        bank, buffer = _populated(8)
        calls, pool = [], pool_tokens

        def counting_pool(raw, p):
            calls.append(raw.shape)
            return pool(raw, p)

        monkeypatch.setattr(streammem.dfs, "pool_tokens", counting_pool)
        if strategy == "dfs":
            instr = _instruction(4, np.random.default_rng(8))
            result = dfs_select(bank, buffer, instr, 12, 3, 4, 4)
        else:
            result = uniform_select(bank, buffer, K_c=4, p=4)
        assert calls == [(len(result.centers), 6, 4)]
        for center, pooled in zip(result.centers, result.pooled,
                                  strict=True):
            assert pooled.tobytes() == \
                pool_tokens_loop(buffer.get(center), 4).tobytes()

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

    @staticmethod
    def _result(relevance, sigma, rho, weighted, strategy="dfs"):
        n = len(relevance)
        frames = [3 * i + 1 for i in range(n)][::-1]
        diag = ClusterDiagnostics(sigma=np.array(sigma), rho=np.array(rho),
                                  weighted=np.array(weighted),
                                  centers=frames[:2])
        cand = CandidateSet(frames=frames, vectors=np.zeros((n, 2)),
                            relevance=np.array(relevance), L=n)
        return SelectionResult(centers=sorted(frames[:2]),
                               pooled=np.zeros((2, 1, 2)),
                               diagnostics=diag, candidates=cand,
                               strategy=strategy)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0, -0.0],
        [5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310],
        [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308],
        [1.0, -3.0, 2.0 ** 53, 1e16],
        [0.1, 1 / 3, -2.5e-7, 123456.789],
    ], ids=["signed_zero", "subnormal", "huge", "integer_valued", "mixed"])
    def test_format_matches_indexed_oracle(self, values):
        """Each field in each position: the values, rotated one field per
        column, so every value lands in relevance, sigma, rho and weighted."""
        cols = [values[k:] + values[:k] for k in range(4)]
        result = self._result(*cols)
        assert format_selection_report(result) == \
            format_selection_report_indexed(result)

    def test_format_matches_indexed_oracle_on_selections(self):
        bank, buffer = _populated(15, T=16)
        instr = _instruction(4, np.random.default_rng(15))
        for result in (dfs_select(bank, buffer, instr, 16, 3, 4, 2),
                       uniform_select(bank, buffer, K_c=4, p=2)):
            assert format_selection_report(result) == \
                format_selection_report_indexed(result)
        # the uniform baseline reports all-zero diagnostics
        assert all(line.split()[1:5] == ["0"] * 4
                   for line in format_selection_report(result)
                   .splitlines()[3:])

    def test_missing_centers_line_rejected(self):
        with pytest.raises(ValueError):
            parse_selection_centers("no centers here\n")
