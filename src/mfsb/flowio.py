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
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, FormatVersionMismatch, ParseError
from .grids import MarginalFlow, SpatialGrid, TimeGrid

FLOW_MAGIC = b"MFSBFL01"
MATRIX_MAGIC = b"MFSBMX01"
FORMAT_VERSION = 1
_FLOW_HEADER = struct.Struct("<IdQdQ")
_MATRIX_HEADER = struct.Struct("<IQQ")


def _write_checked(path: Path, magic: bytes, header: bytes, payload: bytes):
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    path.write_bytes(magic + header + payload + struct.pack("<I", crc))


def _read_checked(path: Path, magic: bytes, header_size: int):
    blob = path.read_bytes()
    if len(blob) < len(magic) + header_size + 4 or not blob.startswith(magic):
        raise ParseError(f"{path} is not a {magic.decode()} file")
    body, (crc,) = blob[len(magic):-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ChecksumMismatch(f"{path} failed its integrity check")
    return body[:header_size], body[header_size:]


def save_flow(path, flow: MarginalFlow, fmt: str = "bin"):
    """Persist a marginal flow; binary round trips bitwise, CSV to 1e-12."""
    path = Path(path)
    if fmt == "bin":
        header = _FLOW_HEADER.pack(FORMAT_VERSION, flow.grid.half_width,
                                   flow.grid.n_cells, flow.time_grid.horizon,
                                   flow.time_grid.n_steps)
        payload = np.ascontiguousarray(flow.values, dtype="<f8").tobytes()
        _write_checked(path, FLOW_MAGIC, header, payload)
    elif fmt == "csv":
        lines = [
            f"# mfsb-flow,version={FORMAT_VERSION}"
            f",half_width={flow.grid.half_width!r}"
            f",n_cells={flow.grid.n_cells}"
            f",horizon={flow.time_grid.horizon!r}"
            f",n_steps={flow.time_grid.n_steps}"
        ]
        for row in flow.values:
            lines.append(",".join(f"{v:.17g}" for v in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_header_comment(line: str, tag: str) -> dict:
    if not line.startswith(f"# {tag},"):
        raise ParseError(f"missing {tag} header")
    out = {}
    for item in line[2:].split(",")[1:]:
        key, _, value = item.partition("=")
        out[key] = value
    return out


def load_flow(path) -> MarginalFlow:
    """Load a flow saved by save_flow, auto-detecting the format."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(FLOW_MAGIC))
    if head == FLOW_MAGIC:
        header, payload = _read_checked(path, FLOW_MAGIC, _FLOW_HEADER.size)
        version, half_width, n_cells, horizon, n_steps = _FLOW_HEADER.unpack(header)
        if version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"flow format v{version}, expected v{FORMAT_VERSION}")
        values = np.frombuffer(payload, dtype="<f8").reshape(n_steps + 1, n_cells)
        return MarginalFlow(TimeGrid(horizon, n_steps),
                            SpatialGrid(half_width, n_cells), values.copy())
    text = path.read_text().splitlines()
    meta = _parse_header_comment(text[0], "mfsb-flow")
    if int(meta["version"]) != FORMAT_VERSION:
        raise FormatVersionMismatch(f"flow format v{meta['version']}, expected v{FORMAT_VERSION}")
    values = np.array([[float(v) for v in line.split(",")] for line in text[1:] if line])
    return MarginalFlow(
        TimeGrid(float(meta["horizon"]), int(meta["n_steps"])),
        SpatialGrid(float(meta["half_width"]), int(meta["n_cells"])),
        values,
    )


def save_matrix(path, name: str, values: np.ndarray, fmt: str = "bin"):
    """Persist a named 2-D array (particle paths, fields, plot tables)."""
    path = Path(path)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    if fmt == "bin":
        tag = name.encode()[:24].ljust(24, b"\0")
        header = _MATRIX_HEADER.pack(FORMAT_VERSION, *values.shape) + tag
        payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
        _write_checked(path, MATRIX_MAGIC, header, payload)
    elif fmt == "csv":
        lines = [f"# mfsb-matrix,version={FORMAT_VERSION},name={name}"
                 f",rows={values.shape[0]},cols={values.shape[1]}"]
        for row in values:
            lines.append(",".join(f"{v:.17g}" for v in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_matrix(path):
    """Load a named matrix saved by save_matrix; returns (name, values)."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(MATRIX_MAGIC))
    if head == MATRIX_MAGIC:
        header, payload = _read_checked(path, MATRIX_MAGIC, _MATRIX_HEADER.size + 24)
        version, rows, cols = _MATRIX_HEADER.unpack(header[:_MATRIX_HEADER.size])
        if version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"matrix format v{version}")
        name = header[_MATRIX_HEADER.size:].rstrip(b"\0").decode()
        values = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
        return name, values.copy()
    text = path.read_text().splitlines()
    meta = _parse_header_comment(text[0], "mfsb-matrix")
    if int(meta["version"]) != FORMAT_VERSION:
        raise FormatVersionMismatch(f"matrix format v{meta['version']}")
    values = np.array([[float(v) for v in line.split(",")] for line in text[1:] if line])
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
