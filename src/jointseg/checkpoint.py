"""Deterministic binary checkpoints.

A plain struct-packed container (no archive metadata), so two runs that
compute identical parameters write byte-identical files.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


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


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, count: int, why: str) -> bytes:
        if self.off + count > len(self.data):
            raise CheckpointError(
                f"truncated checkpoint: needed {count} bytes for {why} at byte {self.off}")
        raw = self.data[self.off: self.off + count]
        self.off += count
        return raw

    def text(self, count: int, why: str) -> str:
        at = self.off
        try:
            return self.take(count, why).decode()
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{why} at byte {at} is not UTF-8: {e}") from e

    def unpack(self, fmt: str, why: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), why))


def _read_array_map(r: _Reader) -> dict[str, np.ndarray]:
    (count,) = r.unpack("<I", "array count")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<I", "name length")
        name = r.text(name_len, "name")
        code, ndim = r.unpack("<BB", "dtype/ndim")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"array {name!r}: unknown dtype code {code}")
        shape = r.unpack(f"<{ndim}Q", "shape")
        dtype = _CODE_DTYPES[code]
        n = int(np.prod(shape)) if shape else 1
        raw = r.take(n * dtype.itemsize, f"data of {name!r}")
        out[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return out


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    if r.take(8, "magic") != _MAGIC:
        raise CheckpointError("bad checkpoint magic at byte 0")
    version, iteration, opt_step = r.unpack("<IQQ", "header")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    digests = []
    for _ in range(2):
        (dlen,) = r.unpack("<I", "digest length")
        digests.append(r.text(dlen, "digest"))
    params = _read_array_map(r)
    state = _read_array_map(r)
    if r.off != len(data):
        raise CheckpointError(f"{len(data) - r.off} unexpected trailing bytes at byte {r.off}")
    return Checkpoint(version=version, iteration=iteration, optimizer_step=opt_step,
                      config_digest=digests[0], model_digest=digests[1],
                      parameters=params, optimizer_state=state)
