"""Serialization and compression cost tables.

All CPU costs are seconds per MB of *uncompressed* data on a reference
core; compression ratios are compressed/uncompressed size.  Values follow
published JVM serializer and codec throughput measurements (Kryo ~2-4x
faster and ~40% denser than Java serialization; LZ4/Snappy ~GB/s with
mild ratios; Zstd slower but denser).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "Codec",
    "Serializer",
    "CODECS",
    "SERIALIZERS",
    "codec_of",
    "serializer_of",
]


@dataclass(frozen=True)
class Codec:
    name: str
    ratio: float            # compressed size / uncompressed size
    compress_s_per_mb: float
    decompress_s_per_mb: float


@dataclass(frozen=True)
class Serializer:
    name: str
    serialize_s_per_mb: float
    deserialize_s_per_mb: float
    #: in-memory expansion of deserialized objects vs serialized bytes
    expansion: float
    #: serialized cache density vs raw data size
    serialized_ratio: float


CODECS: dict[str, Codec] = {
    "lz4": Codec("lz4", ratio=0.55, compress_s_per_mb=0.0028, decompress_s_per_mb=0.0012),
    "snappy": Codec("snappy", ratio=0.58, compress_s_per_mb=0.0024, decompress_s_per_mb=0.0012),
    "zstd": Codec("zstd", ratio=0.42, compress_s_per_mb=0.0095, decompress_s_per_mb=0.0030),
}

SERIALIZERS: dict[str, Serializer] = {
    "java": Serializer("java", serialize_s_per_mb=0.0140, deserialize_s_per_mb=0.0120,
                       expansion=3.0, serialized_ratio=1.15),
    "kryo": Serializer("kryo", serialize_s_per_mb=0.0050, deserialize_s_per_mb=0.0042,
                       expansion=2.1, serialized_ratio=0.85),
}


def codec_of(config: Mapping) -> Codec:
    return CODECS[config["spark.io.compression.codec"]]


def serializer_of(config: Mapping) -> Serializer:
    return SERIALIZERS[config["spark.serializer"]]
