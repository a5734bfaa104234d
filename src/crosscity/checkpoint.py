"""Versioned text checkpoints that round-trip bit-exactly.

Layout: four header lines (version, stage, config_hash, seed), then one
record per tensor: ``name shape d0,d1 values v1 v2 ...`` with repr-formatted
floats (shortest decimal that reloads to the same double). Normalization
statistics ride along as ``stats.<domain>.mean`` / ``.std`` scalar records;
a std that is not above 0, and any other ``stats.`` record, is refused at
load. Every refusal names the file, and the line of a bad record.
"""

from __future__ import annotations

import numpy as np

from .data import NormalizationStats
from .textio import atomic_open, float_reprs

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


class Checkpoint:
    def __init__(self, stage, config_hash, seed, tensors, stats=None):
        self.stage = stage
        self.config_hash = config_hash
        self.seed = seed
        self.tensors = dict(tensors)  # name -> ndarray (float64)
        self.stats = dict(stats or {})  # domain -> NormalizationStats

    def __eq__(self, other):
        return (
            isinstance(other, Checkpoint)
            and self.stage == other.stage
            and self.config_hash == other.config_hash
            and self.seed == other.seed
            and self.stats == other.stats
            and self.tensors.keys() == other.tensors.keys()
            and all(np.array_equal(self.tensors[k], other.tensors[k])
                    for k in self.tensors)
        )


def _shape_token(shape):
    return ",".join(str(d) for d in shape) if shape else "-"


def save_checkpoint(ckpt, path):
    with atomic_open(path) as fh:
        fh.write(f"version={FORMAT_VERSION}\nstage={ckpt.stage}\n"
                 f"config_hash={ckpt.config_hash}\nseed={ckpt.seed}\n")
        records = dict(ckpt.tensors)
        for domain, (mean, std) in sorted(ckpt.stats.items()):
            records[f"stats.{domain}.mean"] = np.asarray(mean)
            records[f"stats.{domain}.std"] = np.asarray(std)
        for name in sorted(records):
            arr = np.asarray(records[name], dtype=np.float64)
            vals = " ".join(float_reprs(arr.reshape(-1)))
            fh.write(f"{name} shape {_shape_token(arr.shape)} values {vals}\n")


def load_checkpoint(path, expect_config_hash=None):
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        return _parse(lines, expect_config_hash)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _parse(lines, expect_config_hash):
    if len(lines) < 4:
        raise CheckpointError("truncated checkpoint: missing header")
    header = dict(line.partition("=")[::2] for line in lines[:4])
    if header.get("version") != str(FORMAT_VERSION):
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r}")
    missing = [k for k in ("stage", "config_hash", "seed") if k not in header]
    if missing:
        raise CheckpointError(f"checkpoint header lacks {', '.join(missing)}")
    try:
        seed = int(header["seed"])
    except ValueError:
        raise CheckpointError(
            f"checkpoint seed {header['seed']!r} is not an integer") from None
    if expect_config_hash is not None and header["config_hash"] != expect_config_hash:
        raise CheckpointError(
            f"config hash mismatch: checkpoint {header['config_hash']} "
            f"vs current {expect_config_hash}")
    tensors, stats_raw, first_line = {}, {}, {}
    for ln, line in enumerate(lines[4:], start=5):
        parts = line.split()
        if len(parts) < 4 or parts[1] != "shape" or parts[3] != "values":
            raise CheckpointError(f"line {ln}: malformed tensor record")
        name = parts[0]
        if name in first_line:
            raise CheckpointError(f"line {ln}: {name} repeats the record of "
                                  f"line {first_line[name]}")
        first_line[name] = ln
        dims = [] if parts[2] == "-" else parts[2].split(",")
        if not all(d.isdecimal() for d in dims):  # no sign, so none negative
            raise CheckpointError(f"line {ln}: bad shape {parts[2]!r}")
        shape = tuple(map(int, dims))
        try:
            vals = np.array([float(v) for v in parts[4:]], dtype=np.float64)
        except ValueError as exc:
            raise CheckpointError(f"line {ln}: {name}: {exc}") from None
        if not np.isfinite(vals).all():
            raise CheckpointError(f"line {ln}: {name} holds a non-finite value")
        expected = int(np.prod(shape))
        if vals.size != expected:
            raise CheckpointError(
                f"line {ln}: {name} expects {expected} values, found {vals.size}")
        arr = vals.reshape(shape)
        if name.startswith("stats."):
            domain, dot, field = name[len("stats."):].rpartition(".")
            if not dot or field not in ("mean", "std"):
                raise CheckpointError(f"line {ln}: {name} is neither a "
                                      "stats.<domain>.mean nor a .std record")
            if shape:
                raise CheckpointError(f"line {ln}: {name} is not a scalar")
            if field == "std" and arr <= 0:
                raise CheckpointError(f"line {ln}: {name} is {float(arr)!r}; "
                                      "a std must be above 0")
            stats_raw.setdefault(domain, {})[field] = float(arr)
        else:
            tensors[name] = arr
    stats = {}
    for domain, fields in stats_raw.items():
        if len(fields) < 2:
            raise CheckpointError(f"incomplete stats for domain {domain!r}")
        stats[domain] = NormalizationStats(fields["mean"], fields["std"])
    return Checkpoint(header["stage"], header["config_hash"], seed, tensors,
                      stats)
