"""Stage-2 dynamic frame selection: instruction-relevance top-L over memory,
density-peaks KNN clustering, and pooling of buffered raw tokens.

All tie-breaks go toward the smaller frame index, which makes selection
fully deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .memory import MemoryBank
from .special import float_array
from .stream import InstructionEncoding

# float64s in sq_dist_matrix's difference scratch (512 kB): a block takes
# as many rows as fit, 4 at n=256, d=64 and 16 at n=64. Measured in the
# requery loop, 8 rows of 256 (1 MB) made the process fault more pages.
_DIST_SCRATCH = 65536


@dataclass
class CandidateSet:
    frames: list  # frame indices, in descending-relevance order
    vectors: np.ndarray  # (|Z|, dz) candidate representations z_l
    relevance: np.ndarray  # per candidate, aligned with frames
    L: int


@dataclass
class ClusterDiagnostics:
    sigma: np.ndarray  # local densities per candidate
    rho: np.ndarray  # distance indices per candidate
    weighted: np.ndarray  # sigma * rho
    centers: list  # chosen frame indices, selection order


@dataclass
class SelectionResult:
    centers: list  # chosen frame indices, ascending
    pooled: np.ndarray  # (k, p, d): row i pools centers[i]
    diagnostics: ClusterDiagnostics
    candidates: CandidateSet
    strategy: str = "dfs"


def frame_relevance(bank: MemoryBank,
                    instruction_mean: np.ndarray) -> np.ndarray:
    """Per frame, the max over its W memory tokens of the scaled dot product
    with the mean instruction vector, as a (T,) array in bank order. Raw
    logits: the row softmax the selection is defined through is monotone,
    so the top-L ranking is the same and the logits are kept for numerical
    simplicity.

    The scores are in the bank's dtype: the mean is cast to it, and one
    (T*W, d) gemv over the flattened memory gives every token's dot
    product. The max over the W columns is W - 1 elementwise `np.maximum`
    calls, not a reduce over the short axis, which runs numpy's inner loop
    once per frame. Both give the same maximum value; they can differ only
    in how they write it: the sign of a zero maximum and the bits of a NaN
    one (numpy's reduce writes +NaN for a row that starts with a NaN).
    Rows whose maximum is a zero or a NaN, which takes an exactly zero or
    an overflowing dot product, are taken from the reduce, so every byte
    is the reduce's.
    """
    if len(bank) == 0:
        raise ValueError("cannot score an empty memory bank")
    if instruction_mean.shape != (bank.d,):
        raise ValueError("instruction mean must have length d")
    scale = 1.0 / math.sqrt(bank.d)
    tokens = bank.all_tokens()
    mean = instruction_mean.astype(tokens.dtype, copy=False)
    dots = (tokens @ mean).reshape(len(bank), bank.W)
    best = dots[:, 0]
    for w in range(1, bank.W):
        best = np.maximum(best, dots[:, w])
    zero_or_nan = (best == 0) | np.isnan(best)
    if zero_or_nan.any():
        best[zero_or_nan] = dots[zero_or_nan].max(axis=1)
    return best * scale


def _candidate_vectors(tokens: np.ndarray, z_repr: str) -> np.ndarray:
    """(n, W, d) memory tokens -> (n, dz) candidate representations."""
    if z_repr == "mean":
        return tokens.mean(axis=1)
    if z_repr == "concat":
        return tokens.reshape(len(tokens), -1)
    raise ValueError(f"unknown z_repr mode {z_repr!r}")


def select_top_L(relevance: np.ndarray, L: int, bank: MemoryBank,
                 z_repr: str = "mean") -> CandidateSet:
    """The min(L, T) highest-relevance frames; ties toward smaller frame
    index, NaN relevance last. `relevance` is frame_relevance of this bank.

    The order is the full sort by (-relevance, frame), found without
    sorting the whole bank: a partition finds the L-th smallest key, and
    only the frames whose key is at or below it, L plus the ties at the
    L-th key, are sorted. Every other frame sorts after all of them, so
    the first L of the full order are the first L of theirs. A NaN L-th
    key has no frames above it to leave out, so every frame is sorted.
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    if relevance.shape != (len(bank),):
        raise ValueError("relevance must hold one score per bank frame")
    key = -relevance
    keep = np.arange(len(key))
    if L < len(key):
        kth = np.partition(key, L - 1)[L - 1]
        if not np.isnan(kth):
            keep = np.flatnonzero(key <= kth)
    chosen = keep[np.lexsort((keep, key[keep]))[:L]]
    return CandidateSet(frames=chosen.tolist(),
                        vectors=_candidate_vectors(bank.tokens[chosen],
                                                   z_repr),
                        relevance=relevance[chosen], L=L)


def sq_dist_matrix(z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (n, n), by explicit differences.

    The difference form (rather than the Gram-matrix trick) keeps results
    accurate enough to compare against loop oracles at 1e-12. Rows go in
    blocks, and each block is computed against the columns from its own
    first row on only: a - b is exactly -(b - a), so the entries below the
    diagonal are the transposed blocks, and each entry is the same sum as
    one full (n, n, d) difference gives. Every block subtracts into the
    leading, C-contiguous part of one (rows, n, d) scratch allocated per
    call, so the differences lie in memory as a fresh block would and a
    call allocates no difference temporary per block. `z` is only read.
    """
    n, d = z.shape
    rows = max(min(_DIST_SCRATCH // max(n * d, 1), n), 1)
    out = np.empty((n, n))
    scratch = np.empty(rows * n * d)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        shape = (stop - start, n - start, d)
        diff = scratch[:math.prod(shape)].reshape(shape)
        np.subtract(z[start:stop, None, :], z[None, start:, :], out=diff)
        block = np.einsum("ijk,ijk->ij", diff, diff)
        out[start:stop, start:] = block
        out[start:, start:stop] = block.T
    return out


def local_density(dists: np.ndarray, K: int) -> np.ndarray:
    """exp of the negative mean squared distance to the K nearest neighbors,
    self excluded; K is clamped to |Z|-1. `dists` is the candidates'
    sq_dist_matrix.

    Each row of `dists` is sorted once. A candidate's distance to itself is
    an exact 0, the row minimum, so the sorted row without its first
    column holds the same values as the row without the self entry.
    """
    n = dists.shape[0]
    if n < 2:
        raise ValueError("local density needs at least two candidates")
    if K < 1:
        raise ValueError("K must be at least 1")
    K = min(K, n - 1)
    nearest = np.sort(dists, axis=1)[:, 1:K + 1]
    # math.exp, not np.exp: numpy's SIMD exp may round differently
    return np.array([math.exp(-total / K) for total in nearest.sum(axis=1)])


def distance_index(dists: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Squared distance to the nearest strictly-denser candidate; candidates
    of globally maximal density take the farthest distance instead.
    `dists` is the candidates' sq_dist_matrix."""
    higher = sigma[None, :] > sigma[:, None]
    nearest_denser = np.where(higher, dists, np.inf).min(axis=1)
    return np.where(higher.any(axis=1), nearest_denser, dists.max(axis=1))


def dpc_knn_select(candidates: CandidateSet, K: int,
                   K_c: int) -> ClusterDiagnostics:
    """Rank candidates by sigma * rho and keep the top min(K_c, |Z|)."""
    if K_c < 1:
        raise ValueError("K_c must be at least 1")
    n = len(candidates.frames)
    if n == 1:
        return ClusterDiagnostics(sigma=np.array([1.0]), rho=np.array([0.0]),
                                  weighted=np.array([0.0]),
                                  centers=list(candidates.frames))
    dists = sq_dist_matrix(np.ascontiguousarray(candidates.vectors,
                                                dtype=np.float64))
    sigma = local_density(dists, K)
    rho = distance_index(dists, sigma)
    weighted = sigma * rho
    order = np.lexsort((candidates.frames, -weighted))[:min(K_c, n)]
    centers = [candidates.frames[i] for i in order]
    return ClusterDiagnostics(sigma=sigma, rho=rho, weighted=weighted,
                              centers=centers)


def pool_tokens(raw: np.ndarray, p: int) -> np.ndarray:
    """Mean-pool token rows into p contiguous groups of near-equal size;
    larger groups come first. `raw` is one frame's (P, d) rows or a
    (k, P, d) stack of frames, pooled to (p, d) or (k, p, d) in its dtype
    (`special.float_array`).

    The first `rem` groups hold base + 1 rows and the rest base rows, so
    each run of equal groups is one reshaped mean over every frame at
    once. Reducing the group's row axis adds each group's rows in order,
    as one mean per group and frame would, so the values are the same bit
    for bit.
    """
    raw = float_array(raw)
    *lead, P, d = raw.shape
    if not (1 <= p <= P):
        raise ValueError(f"pool size {p} out of range [1, {P}]")
    base, rem = divmod(P, p)
    split = rem * (base + 1)
    out = np.empty((*lead, p, d), dtype=raw.dtype)
    out[..., :rem, :] = raw[..., :split, :].reshape(
        *lead, rem, base + 1, d).mean(axis=-2)
    out[..., rem:, :] = raw[..., split:, :].reshape(
        *lead, p - rem, base, d).mean(axis=-2)
    return out


def _pool_frames(buffer, frames, p: int) -> np.ndarray:
    """The buffered rows of `frames`, stacked and pooled in one call: the
    (k, p, d) array whose row i pools frames[i]."""
    return pool_tokens(np.stack([buffer.get(f) for f in frames]), p)


def dfs_select(bank: MemoryBank, buffer, instruction: InstructionEncoding,
               L: int, K: int, K_c: int, p: int,
               z_repr: str = "mean") -> SelectionResult:
    """Full Stage-2 selection: relevance -> top-L -> clustering -> pooling.

    Each step reads the memory once: one gemv and W - 1 elementwise
    maxima score every frame, a partition keeps the top L before anything
    is sorted, and the centers' buffered rows are pooled in one call.
    Every step gives the bytes of its per-frame form, so the selection
    does too. Centers are reported in ascending frame order.
    """
    scores = frame_relevance(bank, instruction.mean)
    candidates = select_top_L(scores, L, bank, z_repr)
    diagnostics = dpc_knn_select(candidates, K, K_c)
    centers = sorted(diagnostics.centers)
    pooled = _pool_frames(buffer, centers, p)
    return SelectionResult(centers=centers, pooled=pooled,
                           diagnostics=diagnostics, candidates=candidates)


def uniform_select(bank: MemoryBank, buffer, K_c: int,
                   p: int) -> SelectionResult:
    """Harness baseline: K_c evenly spaced frames, index floor(i*T/K_c)."""
    T = len(bank)
    positions = sorted({(i * T) // K_c for i in range(K_c)})
    pooled = _pool_frames(buffer, positions, p)
    n = len(positions)
    diagnostics = ClusterDiagnostics(sigma=np.zeros(n), rho=np.zeros(n),
                                     weighted=np.zeros(n),
                                     centers=list(positions))
    candidates = CandidateSet(frames=list(positions),
                              vectors=np.zeros((n, bank.d)),
                              relevance=np.zeros(n), L=K_c)
    return SelectionResult(centers=list(positions), pooled=pooled,
                           diagnostics=diagnostics, candidates=candidates,
                           strategy="uniform")


def format_selection_report(result: SelectionResult) -> str:
    """Machine-readable report: one candidate per line, fields in the order
    frame_index relevance sigma rho weighted chosen. Scores are formatted
    from Python floats (`tolist`), which print as the float64 values do
    (the float32 relevance as its exact value), through one %-format per
    line."""
    lines = [
        f"# selection strategy={result.strategy}",
        "# centers: " + " ".join(str(c) for c in result.centers),
        "# fields: frame_index relevance sigma rho weighted chosen",
    ]
    diag, cand = result.diagnostics, result.candidates
    chosen = set(diag.centers)
    lines += ["%d %.17g %.17g %.17g %.17g %d" % (*row, row[0] in chosen)
              for row in zip(cand.frames, cand.relevance.tolist(),
                             diag.sigma.tolist(), diag.rho.tolist(),
                             diag.weighted.tolist(), strict=True)]
    return "\n".join(lines) + "\n"


def parse_selection_centers(text: str):
    for line in text.splitlines():
        if line.startswith("# centers:"):
            return [int(tok) for tok in line.split(":", 1)[1].split()]
    raise ValueError("selection report has no centers line")
