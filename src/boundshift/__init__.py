"""Reversible data embedding for 8-bit grayscale images full of boundary pixels.

The package clears boundary pixels with an invertible prediction-driven
checkerboard shift, compresses the resulting location map, and embeds the
map and a payload in-band with a histogram-shifting embedder, so a blind
decoder recovers both the payload and the original image bit for bit.
"""

from .codec import CompressedMap, compress, compress_binary_baseline, decompress
from .embedder import PredictionErrorEmbedder
from .errors import BoundShiftError, CapacityError, CorruptionError, PgmFormatError, ValidationError
from .formats import deserialize_map, serialize_map
from .imagecore import LocationMap, count_boundary_pixels, psnr
from .pgm import load_pgm, read_pgm, save_pgm, write_pgm
from .pipeline import (EmbedResult, SweepRecord, embed_full, evaluate_cell, extract_full,
                       max_payload, max_payload_baseline, sweep)
from .preprocess import PreprocessOutput, PreprocessParams, forward, inverse

__version__ = "0.1.0"

__all__ = [
    "BoundShiftError",
    "CapacityError",
    "CompressedMap",
    "CorruptionError",
    "EmbedResult",
    "LocationMap",
    "PgmFormatError",
    "PredictionErrorEmbedder",
    "PreprocessOutput",
    "PreprocessParams",
    "SweepRecord",
    "ValidationError",
    "compress",
    "compress_binary_baseline",
    "count_boundary_pixels",
    "decompress",
    "deserialize_map",
    "embed_full",
    "evaluate_cell",
    "extract_full",
    "forward",
    "inverse",
    "load_pgm",
    "max_payload",
    "max_payload_baseline",
    "psnr",
    "read_pgm",
    "save_pgm",
    "serialize_map",
    "sweep",
    "write_pgm",
]
