"""Persistence: versioned flow and matrix files, reports and run manifests.

Binary files are little-endian float64 with a magic tag, a format version and
a trailing CRC32; CSV files carry the same metadata in a header comment and
round trip through repr-exact decimal formatting.  Nothing written here
contains timestamps, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ChecksumMismatch, FormatVersionMismatch, ParseError
from .grids import MarginalFlow, SpatialGrid, TimeGrid

FLOW_MAGIC = b"MFSBFL01"
MATRIX_MAGIC = b"MFSBMX01"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class _Layout:
    """Header of one kind of file: binary after the magic, CSV in a comment.

    Both carry the version first; a string field is stored null-padded in
    the binary header.
    """

    tag: str               # CSV header tag
    magic: bytes
    header: struct.Struct
    fields: tuple          # names of the binary header's values, in order
    shape: Callable        # binary header values -> shape of the payload


_FLOW = _Layout("mfsb-flow", FLOW_MAGIC, struct.Struct("<IdQdQ"),
                ("version", "half_width", "n_cells", "horizon", "n_steps"),
                lambda h: (h["n_steps"] + 1, h["n_cells"]))
_MATRIX = _Layout("mfsb-matrix", MATRIX_MAGIC, struct.Struct("<IQQ24s"),
                  ("version", "rows", "cols", "name"),
                  lambda h: (h["rows"], h["cols"]))


def _write(path, layout: _Layout, meta: dict, values: np.ndarray, fmt: str):
    """Write 2-D values under the header meta (in CSV order, version first)."""
    path = Path(path)
    if fmt == "bin":
        header = layout.header.pack(*(
            meta[key].encode() if isinstance(meta[key], str) else meta[key]
            for key in layout.fields))
        payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
        crc = zlib.crc32(header + payload) & 0xFFFFFFFF
        path.write_bytes(layout.magic + header + payload + struct.pack("<I", crc))
    elif fmt == "csv":
        lines = [",".join([f"# {layout.tag}", *(f"{k}={v}" for k, v in meta.items())])]
        lines += [",".join(f"{v:.17g}" for v in row) for row in values]
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _read(path, layout: _Layout) -> tuple[dict, np.ndarray]:
    """Header and values of a file _write wrote, auto-detecting the format.

    Binary header values keep their types; CSV ones are strings.  The
    version is checked before the values are read.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        binary = fh.read(len(layout.magic)) == layout.magic
    if binary:
        blob = path.read_bytes()
        if len(blob) < len(layout.magic) + layout.header.size + 4:
            raise ParseError(f"{path} is not a {layout.magic.decode()} file")
        body, (crc,) = blob[len(layout.magic):-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise ChecksumMismatch(f"{path} failed its integrity check")
        header = layout.header.unpack(body[:layout.header.size])
        meta = {key: value.rstrip(b"\0").decode() if isinstance(value, bytes) else value
                for key, value in zip(layout.fields, header)}
    else:
        text = path.read_text().splitlines()
        if not text or not text[0].startswith(f"# {layout.tag},"):
            raise ParseError(f"missing {layout.tag} header")
        meta = dict(item.partition("=")[::2] for item in text[0][2:].split(",")[1:])
    if int(meta["version"]) != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{layout.tag} format v{meta['version']}, expected v{FORMAT_VERSION}")
    if binary:
        values = np.frombuffer(body[layout.header.size:], dtype="<f8")
        return meta, values.reshape(layout.shape(meta)).copy()
    return meta, np.array([[float(v) for v in line.split(",")]
                           for line in text[1:] if line])


def save_flow(path, flow: MarginalFlow, fmt: str = "bin"):
    """Persist a marginal flow; binary round trips bitwise, CSV to 1e-12."""
    _write(path, _FLOW, {"version": FORMAT_VERSION,
                         "half_width": flow.grid.half_width,
                         "n_cells": flow.grid.n_cells,
                         "horizon": flow.time_grid.horizon,
                         "n_steps": flow.time_grid.n_steps}, flow.values, fmt)


def load_flow(path) -> MarginalFlow:
    """Load a flow saved by save_flow, auto-detecting the format."""
    meta, values = _read(path, _FLOW)
    return MarginalFlow(TimeGrid(float(meta["horizon"]), int(meta["n_steps"])),
                        SpatialGrid(float(meta["half_width"]), int(meta["n_cells"])),
                        values)


def save_matrix(path, name: str, values: np.ndarray, fmt: str = "bin"):
    """Persist a named 2-D array (particle paths, fields, plot tables)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    _write(path, _MATRIX, {"version": FORMAT_VERSION, "name": name,
                           "rows": values.shape[0], "cols": values.shape[1]},
           values, fmt)


def load_matrix(path):
    """Load a named matrix saved by save_matrix; returns (name, values)."""
    meta, values = _read(path, _MATRIX)
    return meta["name"], values


def write_json(path, document: dict):
    """Deterministic JSON artifact (sorted keys, no timestamps)."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def write_manifest(path, *, command: str, scenario_hash: str, scenario_name: str,
                   seed: int, grid: SpatialGrid, time_grid: TimeGrid,
                   out_format: str, package_version: str,
                   extra: dict | None = None):
    """Run manifest: everything needed to reproduce the artifacts bitwise."""
    doc = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "scenario": scenario_name,
        "scenario_hash": scenario_hash,
        "seed": seed,
        "grid": {"half_width": grid.half_width, "n_cells": grid.n_cells},
        "time": {"horizon": time_grid.horizon, "n_steps": time_grid.n_steps},
        "out_format": out_format,
        "package_version": package_version,
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)
