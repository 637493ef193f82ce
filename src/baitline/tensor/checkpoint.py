"""Model containers: the named-tensor checkpoint and the JSON model container,
and the two readers every text and JSON file goes through.

Checkpoint layout: one UTF-8 JSON header line carrying the format name,
version, and the ordered tensor directory (name + shape), followed by each
tensor's row-major little-endian float64 payload in directory order.  Every
model directory holds one JSON model container, ``model.json``: one object
with the format name, version, family, config, per-epoch losses, then the
family's own fields.  Every reader and loader raises ValueError, naming the
file, for any defect; what it means is the caller's to decide.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import os
import sys

import numpy as np

TENSORS_HEADER = {"format": "baitline-tensors", "version": 1}
MODEL_FILE = "model.json"
MODEL_HEADER = {"format": "baitline-model", "version": 2}


def is_finite_number(value) -> bool:
    """Whether a JSON value is a number, not a boolean, that is a finite float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def finite_array(path, what: str, values, n: int) -> np.ndarray:
    """``values``, a JSON list of ``n`` finite numbers, as a float64 array;
    anything else raises ValueError naming the file and ``what``."""
    if not (type(values) is list and len(values) == n and all(is_finite_number(v) for v in values)):
        raise ValueError(f"{path}: {what} is not a list of {n} finite numbers")
    return np.array(values, dtype=np.float64)


def check_header(path, kind: str, header, expected: dict) -> None:
    """Raise ValueError, naming the file and the format and version found,
    unless ``header`` is a JSON object that carries the format and version in
    ``expected``, each of the same JSON type: ``"version": 2.0`` or ``true``
    is not version 2 or 1."""
    found = header if isinstance(header, dict) else {}
    if any((type(found.get(key)), found.get(key)) != (type(value), value)
           for key, value in expected.items()):
        raise ValueError(f"{path}: unsupported {kind}: format={found.get('format')!r} "
                         f"version={found.get('version')!r}")


def numbered_lines(path):
    """(1-based line number, text) for each line, split at line feeds only, of
    the UTF-8 file ``path``; a line that is not UTF-8 raises ValueError naming
    the file and the line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not UTF-8: {exc}") from None


def read_json(path):
    """The JSON value stored in the UTF-8 file ``path``; a file that is not
    UTF-8 JSON, or nests too deeply for the decoder, raises ValueError naming
    it and the line (where the value starts)."""
    text = "".join(line for _, line in numbered_lines(path))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: not JSON: {exc.msg} at column {exc.colno}") from None
    except RecursionError:
        line = text[: len(text) - len(text.lstrip())].count("\n") + 1
        raise ValueError(f"{path}:{line}: not JSON: nested too deeply") from None


def require_same_names(path, kind: str, expected: set[str], found: set[str]) -> None:
    """Raise ValueError naming the file and the missing and unexpected names
    unless ``found`` is exactly ``expected``: at most ten of each, then how
    many there are, so the message stays short however large the defect."""
    defects = [f"{what} {kind} {heapq.nsmallest(10, names)}"
               + (f" (first 10 of {len(names)})" if len(names) > 10 else "")
               for what, names in (("missing", expected - found), ("unexpected", found - expected))
               if names]
    if defects:
        raise ValueError(f"{path}: {' and '.join(defects)}")


def save_model_json(path, family: str, config, losses, fields: dict) -> None:
    """Write a JSON model container: the header, the family, its config
    dataclass, its per-epoch losses, then the family's own fields."""
    with open(path, "w", encoding="utf-8") as fh:
        # dumps encodes in C; dump streams the same bytes through the Python encoder
        fh.write(json.dumps({**MODEL_HEADER, "family": family, "config": dataclasses.asdict(config),
                             "losses": list(losses), **fields}))


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    names = sorted(tensors)
    header = {**TENSORS_HEADER,
              "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f8").reshape(-1).view(np.uint8))


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            raise ValueError(f"{path}:1: not a tensor checkpoint") from None
        check_header(path, "tensor checkpoint", header, TENSORS_HEADER)
        entries = header.get("tensors")
        if not isinstance(entries, list):
            raise ValueError(f"{path}: checkpoint header has no 'tensors' list")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        out: dict[str, np.ndarray] = {}
        for index, entry in enumerate(entries):
            name, shape = _directory_entry(path, index, entry)
            nbytes = 8 * math.prod(shape)
            if nbytes > left:  # checked before allocating, so a huge shape fails here
                raise ValueError(f"{path}: tensor {name!r} of shape {shape} needs {nbytes} bytes, "
                                 f"but {left} are left in the file")
            left -= nbytes
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ValueError(f"{path}: truncated payload for tensor {name!r}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: tensor {name!r} holds a non-finite value")
            out[name] = arr
    return out


def _directory_entry(path, index: int, entry) -> tuple[str, tuple[int, ...]]:
    """The name and shape of one checkpoint directory entry, validated."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str) or "shape" not in entry:
        raise ValueError(f"{path}: tensor entry {index} needs a string 'name' and a 'shape': "
                         f"{entry!r}")
    name, shape = entry["name"], entry["shape"]
    if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
        raise ValueError(f"{path}: tensor {name!r} has shape {shape!r}, "
                         "not a list of non-negative integers")
    return name, tuple(shape)
