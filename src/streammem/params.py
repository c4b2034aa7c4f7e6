"""Model parameters: query bank, perceiver layer stack, separator row, and
the RWPM checkpoint format.

All parameters are derived from the run seed in one documented draw order
(which is also the checkpoint tensor order):

    1. read queries (N_R x d), standard normal
    2. write queries (W x d), standard normal
    3. read attention  w_q, w_k, w_v, w_o (std 0.02), ln gain/bias (ones/zeros)
    4. write attention, same layout
    5. per layer: cross attention block, temporal attention block,
       ffn w1 (d x 4d), b1 (4d), w2 (4d x d), b2 (d), ffn ln gain/bias
    6. separator row tau (d), standard normal
"""

import struct
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import BadMagicError, BadVersionError, TruncatedPayloadError
from .memory import QueryBank
from .perceiver import PerceiverLayerParams, PerceiverParams
from .tensor import AttentionParams, make_attention_params

RWPM_MAGIC = b"RWPM"
RWPM_VERSION = 1
_HEADER = struct.Struct("<4sIIIIIII")

WEIGHT_STD = 0.02


@dataclass
class ModelParams:
    query_bank: QueryBank
    perceiver: PerceiverParams
    tau: np.ndarray  # (d,) separator row


def _ffn_hidden(d: int) -> int:
    return 4 * d


def init_model_params(config: RunConfig) -> ModelParams:
    rng = np.random.default_rng(config.seed)
    d, heads = config.d, config.heads
    read_queries = rng.standard_normal((config.n_read, d))
    write_queries = rng.standard_normal((config.n_write, d))
    query_bank = QueryBank(
        read_queries=read_queries,
        write_queries=write_queries,
        read_attention=make_attention_params(rng, d, heads, WEIGHT_STD),
        write_attention=make_attention_params(rng, d, heads, WEIGHT_STD),
    )
    hidden = _ffn_hidden(d)
    layers = []
    for _ in range(config.layers):
        layers.append(PerceiverLayerParams(
            cross=make_attention_params(rng, d, heads, WEIGHT_STD),
            temporal=make_attention_params(rng, d, heads, WEIGHT_STD),
            w1=rng.standard_normal((d, hidden)) * WEIGHT_STD,
            b1=np.zeros(hidden),
            w2=rng.standard_normal((hidden, d)) * WEIGHT_STD,
            b2=np.zeros(d),
            ffn_ln_gain=np.ones(d),
            ffn_ln_bias=np.zeros(d),
        ))
    perceiver = PerceiverParams(layers=layers, n_queries=config.n_read, d=d,
                                temporal_mode=config.temporal)
    tau = rng.standard_normal(d)
    return ModelParams(query_bank=query_bank, perceiver=perceiver, tau=tau)


def _attention_tensors(params: AttentionParams):
    return [params.w_q, params.w_k, params.w_v, params.w_o,
            params.ln_gain, params.ln_bias]


def _model_tensors(params: ModelParams):
    out = [params.query_bank.read_queries, params.query_bank.write_queries]
    out += _attention_tensors(params.query_bank.read_attention)
    out += _attention_tensors(params.query_bank.write_attention)
    for layer in params.perceiver.layers:
        out += _attention_tensors(layer.cross)
        out += _attention_tensors(layer.temporal)
        out += [layer.w1, layer.b1, layer.w2, layer.b2,
                layer.ffn_ln_gain, layer.ffn_ln_bias]
    out.append(params.tau)
    return out


def save_params(params: ModelParams, path) -> None:
    bank = params.query_bank
    perceiver = params.perceiver
    d = perceiver.d
    header = _HEADER.pack(RWPM_MAGIC, RWPM_VERSION, d,
                          bank.read_attention.heads, len(perceiver.layers),
                          perceiver.n_queries, bank.n_write, _ffn_hidden(d))
    with open(path, "wb") as fh:
        fh.write(header)
        for tensor in _model_tensors(params):
            fh.write(np.ascontiguousarray(tensor, dtype=np.float32).tobytes())


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise TruncatedPayloadError("RWPM header truncated")
    magic, version, d, heads, n_layers, n_q, n_w, hidden = \
        _HEADER.unpack_from(data)
    if magic != RWPM_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {RWPM_MAGIC!r}")
    if version != RWPM_VERSION:
        raise BadVersionError(f"unsupported RWPM version {version}")

    pos = _HEADER.size

    def take(shape):
        nonlocal pos
        count = int(np.prod(shape))
        end = pos + count * 4
        if end > len(data):
            raise TruncatedPayloadError("RWPM payload truncated")
        values = np.frombuffer(data, dtype="<f4", count=count,
                               offset=pos).astype(np.float64)
        pos = end
        return values.reshape(shape)

    def take_attention():
        return AttentionParams(heads=heads, dim_model=d,
                               w_q=take((d, d)), w_k=take((d, d)),
                               w_v=take((d, d)), w_o=take((d, d)),
                               ln_gain=take((d,)), ln_bias=take((d,)))

    read_queries = take((n_q, d))
    write_queries = take((n_w, d))
    query_bank = QueryBank(read_queries=read_queries,
                           write_queries=write_queries,
                           read_attention=take_attention(),
                           write_attention=take_attention())
    layers = []
    for _ in range(n_layers):
        layers.append(PerceiverLayerParams(
            cross=take_attention(), temporal=take_attention(),
            w1=take((d, hidden)), b1=take((hidden,)),
            w2=take((hidden, d)), b2=take((d,)),
            ffn_ln_gain=take((d,)), ffn_ln_bias=take((d,))))
    tau = take((d,))
    if pos != len(data):
        raise TruncatedPayloadError(
            f"trailing bytes: {len(data) - pos} past end of checkpoint")
    perceiver = PerceiverParams(layers=layers, n_queries=n_q, d=d)
    return ModelParams(query_bank=query_bank, perceiver=perceiver, tau=tau)
