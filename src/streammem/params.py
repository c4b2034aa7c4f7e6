"""Model parameters: query bank, perceiver layer stack, separator row, and
the RWPM checkpoint format.

All parameters are derived from the run seed in one documented draw order
(which is also the checkpoint tensor order):

    1. read queries (N_R x d), standard normal
    2. write queries (W x d), standard normal
    3. read attention w_q, w_k, w_v, w_o (d x d, std 0.02)
    4. write attention, same layout
    5. per layer: cross attention block, cross ln gain/bias (ones/zeros),
       temporal attention block, temporal ln gain/bias, ffn w1 (d x 4d),
       b1 (4d), w2 (4d x d), b2 (d), ffn ln gain/bias
    6. separator row tau (d), standard normal

Each tensor is drawn in float64 and rounded to float32 once, so the model
that runs is exactly the one RWPM stores, and a run from a loaded
checkpoint is the run that saved it. The read and write attentions have
no pre-norm, so RWPM v3, unlike v2, stores none for them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codec import Format
from .config import TEMPORAL_MODES, RunConfig
from .errors import MalformedArtifactError
from .memory import QueryBank
from .perceiver import PerceiverLayerParams, PerceiverParams
from .tensor import AttentionParams


def _payload(h):
    """The float32 count of the tensors `_build` draws."""
    attention = 4 * h.d * h.d
    layer = 2 * attention + 2 * h.d * h.hidden + h.hidden + 7 * h.d
    queries = (h.n_read + h.n_write + 1) * h.d
    return "<f4", (queries + 2 * attention + h.layers * layer,)


RWPM = Format(b"RWPM", 3, ("d", "heads", "layers", "n_read", "n_write",
                           "hidden", "temporal_mode"), _payload)

WEIGHT_STD = 0.02


@dataclass
class ModelParams:
    query_bank: QueryBank
    perceiver: PerceiverParams
    tau: np.ndarray  # (d,) separator row
    header: tuple  # the RWPM.Header of the checkpoint
    payload: np.ndarray  # its float32 payload: every tensor is a view of it

    def nbytes(self) -> int:
        """The bytes of every tensor: the weights a run keeps resident."""
        return self.payload.nbytes


def _ffn_hidden(d: int) -> int:
    return 4 * d


def _build(h, payload, fill=None) -> ModelParams:
    """The parameters of the RWPM header `h`, each tensor the next slice of
    `payload` in draw order. With `fill`, each slice is first written with
    `fill[kind](shape)`; kind is "normal" for the queries and tau,
    "weight" for projections, and "ones" or "zeros"."""
    d, hidden = h.d, h.hidden
    pos = 0

    def tensor(shape, kind):
        nonlocal pos
        pos += math.prod(shape)
        view = payload[pos - math.prod(shape):pos].reshape(shape)
        if fill is not None:
            view[...] = fill[kind](shape)
        return view

    def attention():
        return AttentionParams(h.heads, d, *(tensor((d, d), "weight")
                                             for _ in range(4)))

    def norm():
        return tensor((d,), "ones"), tensor((d,), "zeros")

    query_bank = QueryBank(tensor((h.n_read, d), "normal"),
                           tensor((h.n_write, d), "normal"),
                           attention(), attention())
    layers = [PerceiverLayerParams(
        attention(), *norm(), attention(), *norm(),
        tensor((d, hidden), "weight"), tensor((hidden,), "zeros"),
        tensor((hidden, d), "weight"), tensor((d,), "zeros"), *norm())
        for _ in range(h.layers)]
    perceiver = PerceiverParams(layers=layers, n_queries=h.n_read, d=d,
                                temporal_mode=TEMPORAL_MODES[h.temporal_mode])
    return ModelParams(query_bank, perceiver, tensor((d,), "normal"), h,
                       payload)


def init_model_params(config: RunConfig) -> ModelParams:
    rng = np.random.default_rng(config.seed)
    draw = {"normal": rng.standard_normal, "ones": np.ones, "zeros": np.zeros,
            "weight": lambda shape: rng.standard_normal(shape) * WEIGHT_STD}
    h = RWPM.Header(config.d, config.heads, config.layers, config.n_read,
                    config.n_write, _ffn_hidden(config.d),
                    TEMPORAL_MODES.index(config.temporal))
    return _build(h, np.empty(RWPM.layout(h)[1], np.float32), draw)


def save_params(params: ModelParams, path) -> None:
    RWPM.save(path, params.payload, **params.header._asdict())


def load_params(path) -> ModelParams:
    h, values = RWPM.load(path)
    if (min(h.heads, h.d, h.layers, h.n_read, h.n_write) < 1
            or h.d % h.heads or h.hidden != _ffn_hidden(h.d)
            or h.temporal_mode >= len(TEMPORAL_MODES)):
        raise MalformedArtifactError(f"RWPM header {tuple(h)} is not a model")
    return _build(h, values)
