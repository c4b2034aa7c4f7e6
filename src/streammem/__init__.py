"""Streaming memory engine over abstract per-frame token streams.

Stage 1 runs a read-perceive-write cycle that compresses each frame into a
fixed number of memory tokens; Stage 2 selects instruction-relevant key
frames from memory via density-peaks clustering and re-attaches their
high-resolution tokens. Everything is deterministic for a fixed seed.
"""

from .assembly import LLMInputSequence, assemble, load_llm_input, save_llm_input
from .config import RunConfig, format_config, load_config, parse_config
from .dfs import (CandidateSet, ClusterDiagnostics, SelectionResult,
                  dfs_select, distance_index, dpc_knn_select, frame_relevance,
                  local_density, pool_tokens, select_top_L, uniform_select)
from .errors import (BadMagicError, BadVersionError, ConfigError, EngineError,
                     FormatError, MalformedArtifactError,
                     NonFiniteDataError, NumericError, TruncatedPayloadError)
from .memory import (AccountingReport, DiskFeatureBuffer, FeatureBuffer,
                     MemoryBank, QueryBank, accounting_report, append,
                     buffer_store, load_bank, read_context, save_bank,
                     write_frame)
from .params import ModelParams, init_model_params, load_params, save_params
from .perceiver import (PerceiverLayerParams, PerceiverParams,
                        perceive_subclip, process_stream)
from .pipeline import run_pipeline, stage1_peak_resident_bytes
from .stream import (FrameTokenStream, InstructionEncoding,
                     encode_instruction, empty_instruction, load_stream,
                     save_stream, split_into_subclips, synth_stream)
from .tensor import (AttentionParams, attention, gelu, grad_check, layer_norm,
                     make_attention_params, softmax_rows)

__version__ = "0.1.0"
