"""Versioned binary model files.

Layout (all integers little-endian):

    magic           8 bytes  b"SEQTAG01"
    version         u32
    int header      u32 count, then per entry: name (u16 length + utf-8), i64 value
    float header    u32 count, then per entry: name (u16 length + utf-8), f64 value
    vocabularies    u32 count, then per vocabulary:
                        name (u16 length + utf-8), u32 entries,
                        each entry u32 length + utf-8, in id order
    tensors         u32 count, then per tensor:
                        name (u16 length + utf-8), u32 ndim, u32 per dim,
                        raw float64 values, row-major little-endian

The int header carries every `ModelDims` field in declaration order,
with `n_feats` written as `n_feat_columns` plus one `n_feat<k>` per
column and `blocks` as 0/1; the float header carries the dropout rate
and the L2 coefficient used at training time.  A human-readable JSON
manifest is written next to the binary as `<path>.manifest.json`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .data import Vocabulary, VocabSet
from .errors import IngestionError
from .model import ModelDims, ModelParameters

MAGIC = b"SEQTAG01"
FORMAT_VERSION = 1


def _write_str(out, s: str, fmt: str = "<H"):
    raw = s.encode("utf-8")
    out.write(struct.pack(fmt, len(raw)))
    out.write(raw)


def _write(out, params: ModelParameters, vocabs: VocabSet, meta_float: dict[str, float]):
    """The model file's sections in order; each tensor's float64 buffer
    goes to `out` as it is, copied only if it is not contiguous
    little-endian already."""
    meta_int: dict[str, int] = {}
    for f in dataclasses.fields(ModelDims):
        value = getattr(params.dims, f.name)
        if f.name == "n_feats":
            meta_int["n_feat_columns"] = len(value)
            meta_int.update({f"n_feat{k}": n for k, n in enumerate(value)})
        else:
            meta_int[f.name] = int(value)
    out.write(MAGIC)
    out.write(struct.pack("<I", FORMAT_VERSION))
    out.write(struct.pack("<I", len(meta_int)))
    for name, value in meta_int.items():
        _write_str(out, name)
        out.write(struct.pack("<q", value))
    out.write(struct.pack("<I", len(meta_float)))
    for name, value in meta_float.items():
        _write_str(out, name)
        out.write(struct.pack("<d", value))
    vocab_items = [("word", vocabs.word), ("char", vocabs.char), ("label", vocabs.label)]
    vocab_items += [(f"feat{k}", v) for k, v in enumerate(vocabs.feats)]
    out.write(struct.pack("<I", len(vocab_items)))
    for name, vocab in vocab_items:
        _write_str(out, name)
        out.write(struct.pack("<I", len(vocab)))
        for s in vocab.strings:
            _write_str(out, s, "<I")
    tensors = params.named_tensors()
    out.write(struct.pack("<I", len(tensors)))
    for name, tensor in tensors:
        _write_str(out, name)
        out.write(struct.pack("<I", tensor.values.ndim))
        out.write(struct.pack(f"<{tensor.values.ndim}I", *tensor.values.shape))
        out.write(np.ascontiguousarray(tensor.values, dtype="<f8").data)


def save_model(path, params: ModelParameters, vocabs: VocabSet, meta_float: dict[str, float]):
    """Write the model file, header first and then each tensor straight
    from its array, with no whole-file buffer; and its manifest."""
    path = Path(path)
    with path.open("wb") as out:
        _write(out, params, vocabs, meta_float)
    manifest = {
        "format_version": FORMAT_VERSION,
        "dimensions": {name: getattr(params.dims, name) for name in ModelDims.layer_names()},
        "hyper_parameters": meta_float,
        "vocabulary_sizes": {
            "word": len(vocabs.word),
            "char": len(vocabs.char),
            "label": len(vocabs.label),
            **{f"feat{k}": len(v) for k, v in enumerate(vocabs.feats)},
        },
        "tensors": [
            {"name": name, "shape": list(tensor.values.shape)}
            for name, tensor in params.named_tensors()
        ],
    }
    Path(str(path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


class _Reader:
    """Reads from an open model file, each checked against the bytes the
    file has left, so a truncated file fails before a read runs past its
    end."""

    def __init__(self, file, path):
        self.file = file
        self.path = path
        self.left = os.fstat(file.fileno()).st_size

    def _claim(self, n: int):
        if n > self.left:
            raise IngestionError(f"{self.path}: truncated model file")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.file.read(n)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self, fmt: str = "<H") -> str:
        (n,) = self.unpack(fmt)
        return self.take(n).decode("utf-8")

    def fill(self, values: np.ndarray):
        """Read the next little-endian float64 entries straight into the
        contiguous `values`."""
        self._claim(values.nbytes)
        self.file.readinto(values)
        if sys.byteorder != "little":
            values.byteswap(inplace=True)


def load_model(path):
    """Read a model file back into (params, vocabs, meta) where meta holds
    both header sections.  Each tensor is read straight into the new
    model's array, with no whole-file buffer; the model holds no
    gradients.  A file that is truncated, has bytes after the last
    tensor, lacks a header key or vocabulary, or whose tensors do not
    match the model its header describes (missing, extra, duplicated, or
    of another shape) raises IngestionError."""
    with open(path, "rb") as file:
        return _read(_Reader(file, path))


def _read(reader: _Reader):
    path = reader.path
    if reader.take(len(MAGIC)) != MAGIC:
        raise IngestionError(f"{path}: not a model file (bad magic)")
    (version,) = reader.unpack("<I")
    if version != FORMAT_VERSION:
        raise IngestionError(f"{path}: unsupported format version {version}")
    meta_int: dict[str, int] = {}
    (n,) = reader.unpack("<I")
    for _ in range(n):
        name = reader.string()
        (meta_int[name],) = reader.unpack("<q")
    meta_float: dict[str, float] = {}
    (n,) = reader.unpack("<I")
    for _ in range(n):
        name = reader.string()
        (meta_float[name],) = reader.unpack("<d")
    vocab_map: dict[str, Vocabulary] = {}
    (n,) = reader.unpack("<I")
    for _ in range(n):
        name = reader.string()
        (count,) = reader.unpack("<I")
        vocab_map[name] = Vocabulary.from_strings([reader.string("<I") for _ in range(count)])

    def lookup(section: dict, what: str, key: str):
        if key not in section:
            raise IngestionError(f"{path}: {what} {key!r} missing")
        return section[key]

    def header(key: str) -> int:
        return lookup(meta_int, "header key", key)

    def vocab(key: str) -> Vocabulary:
        return lookup(vocab_map, "vocabulary", key)

    n_feat_cols = header("n_feat_columns")
    vocabs = VocabSet(
        word=vocab("word"),
        char=vocab("char"),
        label=vocab("label"),
        feats=[vocab(f"feat{k}") for k in range(n_feat_cols)],
    )
    dims = {}
    for f in dataclasses.fields(ModelDims):
        if f.name == "n_feats":
            dims[f.name] = tuple(header(f"n_feat{k}") for k in range(n_feat_cols))
        else:
            value = header(f.name)
            dims[f.name] = bool(value) if isinstance(f.default, bool) else value
    params = ModelParameters(ModelDims(**dims), rng=None)
    expected = dict(params.named_tensors())
    (n,) = reader.unpack("<I")
    read: set[str] = set()
    for _ in range(n):
        name = reader.string()
        if name in read:
            raise IngestionError(f"{path}: tensor {name!r} appears twice")
        if name not in expected:
            raise IngestionError(f"{path}: unexpected tensor {name!r}")
        (ndim,) = reader.unpack("<I")
        shape = reader.unpack(f"<{ndim}I")
        values = expected[name].values
        if shape != values.shape:
            raise IngestionError(
                f"{path}: tensor {name!r} has shape {shape}, the header implies {values.shape}"
            )
        reader.fill(values)
        read.add(name)
    missing = [name for name in expected if name not in read]
    if missing:
        raise IngestionError(f"{path}: tensors missing: {missing}")
    if reader.left:
        raise IngestionError(f"{path}: {reader.left} bytes after the last tensor")
    return params, vocabs, {"int": meta_int, "float": meta_float}
