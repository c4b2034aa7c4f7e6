"""Stage-2 dynamic frame selection: instruction-relevance top-L over memory,
density-peaks KNN clustering, and pooling of buffered raw tokens.

All tie-breaks go toward the smaller frame index, which makes selection
fully deterministic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .memory import MemoryBank
from .stream import InstructionEncoding

_DIST_BLOCK = 32


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
    pooled: list  # one (p, d) matrix per center, aligned with centers
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

    The stacked (T, W, d) @ (d,) product runs one gemv per frame, as a
    per-frame loop would; one flattened (T*W, d) gemv rounds differently.
    """
    if len(bank) == 0:
        raise ValueError("cannot score an empty memory bank")
    if instruction_mean.shape != (bank.d,):
        raise ValueError("instruction mean must have length d")
    scale = 1.0 / math.sqrt(bank.d)
    return (bank.tokens @ instruction_mean).max(axis=1) * scale


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
    index. `relevance` is frame_relevance of this bank."""
    if L < 1:
        raise ValueError("L must be at least 1")
    if relevance.shape != (len(bank),):
        raise ValueError("relevance must hold one score per bank frame")
    chosen = np.lexsort((bank.frames, -relevance))[:L]
    return CandidateSet(frames=bank.frames[chosen].tolist(),
                        vectors=_candidate_vectors(bank.tokens[chosen],
                                                   z_repr),
                        relevance=relevance[chosen], L=L)


def sq_dist_matrix(z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, (n, n), by explicit differences.

    The difference form (rather than the Gram-matrix trick) keeps results
    accurate enough to compare against loop oracles at 1e-12. Rows go in
    blocks, so the difference temporary is (_DIST_BLOCK, n, d), not
    (n, n, d); each entry is the same sum either way.
    """
    n = z.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, _DIST_BLOCK):
        diff = z[start:start + _DIST_BLOCK, None, :] - z[None, :, :]
        out[start:start + _DIST_BLOCK] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _pairwise(vectors: np.ndarray) -> np.ndarray:
    return sq_dist_matrix(np.ascontiguousarray(vectors, dtype=np.float64))


def local_density(vectors: np.ndarray, K: int, dists=None) -> np.ndarray:
    """exp of the negative mean squared distance to the K nearest neighbors,
    self excluded; K is clamped to |Z|-1. `dists` is the candidates'
    sq_dist_matrix when the caller already has it."""
    n = vectors.shape[0]
    if n < 2:
        raise ValueError("local density needs at least two candidates")
    if K < 1:
        raise ValueError("K must be at least 1")
    K = min(K, n - 1)
    if dists is None:
        dists = _pairwise(vectors)
    sigma = np.empty(n)
    for l in range(n):
        row = np.delete(dists[l], l)
        row.sort()
        sigma[l] = math.exp(-row[:K].sum() / K)
    return sigma


def distance_index(vectors: np.ndarray, sigma: np.ndarray,
                   dists=None) -> np.ndarray:
    """Squared distance to the nearest strictly-denser candidate; candidates
    of globally maximal density take the farthest distance instead.
    `dists` is as for local_density."""
    n = vectors.shape[0]
    if dists is None:
        dists = _pairwise(vectors)
    rho = np.empty(n)
    for l in range(n):
        higher = sigma > sigma[l]
        if higher.any():
            rho[l] = dists[l][higher].min()
        else:
            rho[l] = dists[l].max()
    return rho


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
    dists = _pairwise(candidates.vectors)
    sigma = local_density(candidates.vectors, K, dists)
    rho = distance_index(candidates.vectors, sigma, dists)
    weighted = sigma * rho
    order = sorted(range(n),
                   key=lambda i: (-weighted[i], candidates.frames[i]))
    centers = [candidates.frames[i] for i in order[:min(K_c, n)]]
    return ClusterDiagnostics(sigma=sigma, rho=rho, weighted=weighted,
                              centers=centers)


def pool_tokens(raw: np.ndarray, p: int) -> np.ndarray:
    """Mean-pool token rows into p contiguous groups of near-equal size;
    larger groups come first."""
    P = raw.shape[0]
    if not (1 <= p <= P):
        raise ValueError(f"pool size {p} out of range [1, {P}]")
    base, rem = divmod(P, p)
    out = np.empty((p, raw.shape[1]))
    start = 0
    for g in range(p):
        size = base + (1 if g < rem else 0)
        out[g] = raw[start:start + size].mean(axis=0)
        start += size
    return out


def dfs_select(bank: MemoryBank, buffer, instruction: InstructionEncoding,
               L: int, K: int, K_c: int, p: int,
               z_repr: str = "mean") -> SelectionResult:
    """Full Stage-2 selection: relevance -> top-L -> clustering -> pooling.

    Centers are reported in ascending frame order.
    """
    scores = frame_relevance(bank, instruction.mean)
    candidates = select_top_L(scores, L, bank, z_repr)
    diagnostics = dpc_knn_select(candidates, K, K_c)
    centers = sorted(diagnostics.centers)
    pooled = [pool_tokens(buffer.get(f), p) for f in centers]
    return SelectionResult(centers=centers, pooled=pooled,
                           diagnostics=diagnostics, candidates=candidates)


def uniform_select(bank: MemoryBank, buffer, K_c: int,
                   p: int) -> SelectionResult:
    """Harness baseline: K_c evenly spaced frames, index floor(i*T/K_c)."""
    frames = bank.frame_indices()
    T = len(frames)
    positions = sorted({frames[(i * T) // K_c] for i in range(K_c)})
    pooled = [pool_tokens(buffer.get(f), p) for f in positions]
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
    frame_index relevance sigma rho weighted chosen."""
    lines = [
        f"# selection strategy={result.strategy}",
        "# centers: " + " ".join(str(c) for c in result.centers),
        "# fields: frame_index relevance sigma rho weighted chosen",
    ]
    chosen = set(result.diagnostics.centers)
    cand = result.candidates
    for i, frame in enumerate(cand.frames):
        sigma = result.diagnostics.sigma[i]
        rho = result.diagnostics.rho[i]
        weighted = result.diagnostics.weighted[i]
        lines.append(f"{frame} {cand.relevance[i]:.17g} {sigma:.17g} "
                     f"{rho:.17g} {weighted:.17g} {int(frame in chosen)}")
    return "\n".join(lines) + "\n"


def parse_selection_centers(text: str):
    for line in text.splitlines():
        if line.startswith("# centers:"):
            return [int(tok) for tok in line.split(":", 1)[1].split()]
    raise ValueError("selection report has no centers line")
