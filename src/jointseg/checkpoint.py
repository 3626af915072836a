"""Deterministic binary checkpoints.

A plain struct-packed container (no archive metadata), so two runs that
compute identical parameters write byte-identical files. Loading goes through
``data.ByteReader``: any malformed, truncated, oversized or trailing content,
and an array name given twice, raise ``CheckpointError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ByteReader


class CheckpointError(ValueError):
    pass


_MAGIC = b"JSEGCKP1"
_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class Checkpoint:
    version: int
    iteration: int
    optimizer_step: int
    config_digest: str
    model_digest: str
    parameters: dict[str, np.ndarray]
    optimizer_state: dict[str, np.ndarray]


def _write_array_map(f, arrays: dict[str, np.ndarray]) -> None:
    f.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = arrays[name]
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise CheckpointError(f"array {name!r} has unsupported dtype {arr.dtype}")
        encoded = name.encode()
        f.write(struct.pack("<I", len(encoded)))
        f.write(encoded)
        f.write(struct.pack("<BB", code, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes())


def save_checkpoint(path, parameters: dict[str, np.ndarray], optimizer_state: dict[str, np.ndarray],
                    iteration: int, optimizer_step: int, config_digest: str, model_digest: str) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IQQ", _VERSION, iteration, optimizer_step))
        for digest in (config_digest, model_digest):
            raw = digest.encode()
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
        _write_array_map(f, parameters)
        _write_array_map(f, optimizer_state)


def _read_array_map(r: ByteReader) -> dict[str, np.ndarray]:
    (count,) = r.unpack("<I", "array count")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        at = r.off
        (name_len,) = r.unpack("<I", "name length")
        name = r.text(name_len, "name")
        if name in out:
            raise CheckpointError(f"array {name!r} at byte {at} repeats an earlier entry")
        code, ndim = r.unpack("<BB", "dtype/ndim")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"array {name!r}: unknown dtype code {code}")
        shape = r.unpack(f"<{ndim}Q", "shape")
        out[name] = r.array(_CODE_DTYPES[code], shape, f"data of {name!r}")
    return out


def load_checkpoint(path) -> Checkpoint:
    r = ByteReader(Path(path).read_bytes(), CheckpointError)
    if r.unpack("8s", "magic")[0] != _MAGIC:
        raise CheckpointError("bad checkpoint magic at byte 0")
    version, iteration, opt_step = r.unpack("<IQQ", "header")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} at byte 8")
    digests = [r.text(r.unpack("<I", "digest length")[0], "digest") for _ in range(2)]
    params, state = _read_array_map(r), _read_array_map(r)
    r.end()
    return Checkpoint(version=version, iteration=iteration, optimizer_step=opt_step,
                      config_digest=digests[0], model_digest=digests[1],
                      parameters=params, optimizer_state=state)
