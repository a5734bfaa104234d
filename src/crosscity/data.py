"""Traffic-series ingestion, normalization, windowing, splitting, and a
synthetic multi-city generator with diurnal profiles.

Series are T x N flow matrices at a fixed interval. Signal values are read
through ``TrafficSeries.signal()``, which counts accesses; ``chrono_split``
alone calls it, and the pre-training stage asserts on that counter to prove
target labels stay unread. Its segments, and all built from them, are arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import NamedTuple

import numpy as np

from .graph import RoadGraph
from .textio import (ABOVE_0, AT_LEAST_0, AT_LEAST_1, CITY_NAMES, FINITE, DataError,
                     check_fields, content_lines, parse_fields, read_table, write_table)


class TrafficSeries:
    """T x N observation matrix plus interval metadata and a read counter."""

    def __init__(self, values, interval_minutes=5, start=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"series must be T x N, got shape {values.shape}")
        self._values = values
        self.interval_minutes = interval_minutes
        self.start = start or datetime(2024, 1, 1)
        self.read_count = 0

    def signal(self):
        """The raw value matrix; every call is logged."""
        self.read_count += 1
        return self._values


class NormalizationStats(NamedTuple):
    mean: float
    std: float

    @classmethod
    def fit(cls, values):
        """Population mean/std; a constant array is guarded to std=1."""
        std = float(values.std())
        return cls(float(values.mean()), 1.0 if std <= 0 else std)


def normalize(values, stats):
    """(values - mean) / std, in one new array."""
    out = np.subtract(values, stats.mean)
    out /= stats.std
    return out


def denormalize_values(values, stats):
    """values * std + mean, in place in the float array values, which it
    returns."""
    values *= stats.std
    values += stats.mean
    return values


@dataclass
class WindowedDataset:
    """Samples of (node id, (H', N_f) input, (H, N_f) target); window i is
    start i // n_nodes, node i mod n_nodes. inputs and targets are read-only
    views of the array they were cut from, node_ids the flat view of one
    arange(n_nodes) row broadcast to every start."""
    node_ids: np.flatiter
    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self):
        return len(self.inputs)


def make_windows(values, history, horizon):
    """Stride-1 sliding windows per node of a T x N array; T - H' - H + 1
    samples each."""
    x = np.ascontiguousarray(values)
    t_len, n_nodes = x.shape
    count = t_len - history - horizon + 1
    if count < 1:
        raise DataError(
            f"series of length {t_len} too short for history {history} + horizon {horizon}")
    # (count, N, H' + H) -> (count * N, H' + H) merges two axes whose
    # strides nest in a C-contiguous series, so the reshape is still a view
    windows = np.lib.stride_tricks.sliding_window_view(
        x, history + horizon, axis=0).reshape(count * n_nodes, history + horizon)
    nodes = np.broadcast_to(np.arange(n_nodes, dtype=np.intp), (count, n_nodes))
    return WindowedDataset(nodes.flat, windows[:, :history, None],
                           windows[:, history:, None])


def chrono_split(series, ratios, history, horizon, train_days):
    """Contiguous chronological train/val/test segments of one read of
    `series`, as array views.

    train_days, when not None, truncates the train segment to its last D
    whole days (matching few-shot protocols).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios {ratios} do not sum to 1")
    x = series.signal()
    n_train = int(round(ratios[0] * len(x)))
    n_val = int(round(ratios[1] * len(x)))
    segments = [x[:n_train], x[n_train:n_train + n_val], x[n_train + n_val:]]
    if train_days is not None:
        per_day = 24 * 60 // series.interval_minutes
        segments[0] = segments[0][-train_days * per_day:]
    for seg, name in zip(segments, ("train", "val", "test")):
        if seg.shape[0] < history + horizon:
            raise DataError(
                f"{name} segment of length {seg.shape[0]} shorter than "
                f"history {history} + horizon {horizon}")
    return tuple(segments)


# -- CSV ingestion ----------------------------------------------------------

def load_series(path, graph):
    """Parse a 'timestamp,node0,...' CSV, one value column per graph node.

    The values go straight into one float64 array (``textio.read_table``).
    Timestamps are all timezone-aware or all naive. The first two fix the
    interval, a whole number of minutes that divides a day, and every later
    step must equal it. DataError names the path and line (and column, for
    a cell) of whatever it refuses.
    """
    stamps, values = read_table(path, datetime.fromisoformat, graph.n_nodes + 1)
    if len(stamps) < 2:
        raise DataError(f"{path}: {len(stamps)} rows, too few to fix the interval")
    aware = stamps[0].tzinfo is not None
    for i, stamp in enumerate(stamps):
        if (stamp.tzinfo is not None) != aware:
            raise DataError(f"{path}, line {i + 2}: a timezone-"
                            f"{'naive' if aware else 'aware'} timestamp after "
                            f"timezone-{'aware' if aware else 'naive'} ones")
    step, minute = stamps[1] - stamps[0], timedelta(minutes=1)
    if step > timedelta(0) and step % minute:
        raise DataError(f"{path}, line 3: interval {step} is not whole minutes")
    if step > timedelta(days=1):
        raise DataError(f"{path}, line 3: interval {step} is longer than a day")
    if step > timedelta(0) and timedelta(days=1) % step:
        raise DataError(f"{path}, line 3: interval {step} does not divide a day")
    for i in range(1, len(stamps)):
        delta = stamps[i] - stamps[i - 1]
        if delta <= timedelta(0):
            raise DataError(f"{path}, line {i + 2}: timestamps not strictly increasing")
        if delta != step:
            kind = "gap" if delta > step else "shorter step"
            raise DataError(f"{path}, line {i + 2}: {kind} of {delta}; "
                            f"the interval is {step}")
    return TrafficSeries(values, step // minute, stamps[0])


def save_series(series, path):
    x = series.signal()
    step = timedelta(minutes=series.interval_minutes)
    write_table(path, ["timestamp"] + [f"node{i}" for i in range(x.shape[1])],
                (((series.start + i * step).isoformat(), row)
                 for i, row in enumerate(x)))


# -- synthetic generator ----------------------------------------------------

TOPOLOGIES = ("ring", "grid", "random-geometric")

# the rules of each bounded spec key, checked in order; an interval is at
# most a day, and then a whole fraction of one, as a day holds
# 24 * 60 // interval steps
_SPEC_RULES = {
    "name": (CITY_NAMES,),
    **dict.fromkeys(("n_nodes", "days"), (AT_LEAST_1,)),
    "topology": ((f"one of {', '.join(TOPOLOGIES)}",
                  lambda v: v in TOPOLOGIES),),
    "interval_minutes": (AT_LEAST_1, ("at most 1440", lambda v: v <= 24 * 60),
                         ("a divisor of 1440", lambda v: 24 * 60 % v == 0)),
    **dict.fromkeys(("base_flow", "peak_amplitudes", "peak_hours",
                     "phase_shift_hours", "node_scale_spread", "smoothing",
                     "noise_level"), (FINITE,)),
    "peak_width_hours": (FINITE, ABOVE_0),
    "seed": (AT_LEAST_0,),
}


@dataclass
class SyntheticCitySpec:
    name: str = "city"
    n_nodes: int = 20
    topology: str = "random-geometric"  # one of TOPOLOGIES
    base_flow: float = 200.0
    peak_amplitudes: tuple = (300.0, 250.0)
    peak_hours: tuple = (8.0, 18.0)
    peak_width_hours: float = 2.0
    phase_shift_hours: float = 0.0
    node_scale_spread: float = 0.25
    smoothing: float = 0.3
    noise_level: float = 10.0
    days: int = 7
    interval_minutes: int = 5
    seed: int = 0

    @classmethod
    def from_kv(cls, kv):
        fields = parse_fields(kv, cls(), "synthetic spec")
        check_fields(fields, cls(), _SPEC_RULES, "synthetic spec")
        spec = cls(**fields)
        amps, hours = list(spec.peak_amplitudes), list(spec.peak_hours)
        if len(amps) != len(hours):
            raise DataError(f"synthetic spec keys 'peak_amplitudes' {amps} and "
                            f"'peak_hours' {hours}: expected one hour per "
                            f"amplitude")
        if spec.days * (24 * 60 // spec.interval_minutes) < 2:
            # a series' first two timestamps fix its interval
            raise DataError(f"synthetic spec keys 'days' {spec.days} and "
                            f"'interval_minutes' {spec.interval_minutes}: "
                            f"expected at least 2 steps, got 1")
        return spec


def load_spec(path):
    """The spec of the file's `key = value` lines; DataError names the path
    and the first key it refuses, or both lines of a key given twice."""
    kv, line_of = {}, {}
    for ln, line in content_lines(path):
        key, _, val = (part.strip() for part in line.partition("="))
        if key in line_of:
            raise DataError(f"{path}: synthetic spec key {key!r} appears on "
                            f"lines {line_of[key]} and {ln}")
        line_of[key], kv[key] = ln, val
    try:
        return SyntheticCitySpec.from_kv(kv)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _make_topology(spec, rng):
    n = spec.n_nodes
    if spec.topology in ("ring", "random-geometric") and n < 2:
        # a lone node would be wired to itself
        raise DataError(f"spec {spec.name!r}: topology {spec.topology!r} needs "
                        f"at least 2 nodes, got n_nodes = {n}")
    if spec.topology == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif spec.topology == "grid":
        side = int(math.ceil(math.sqrt(n)))
        edges = []
        for i in range(n):
            r, c = divmod(i, side)
            if c + 1 < side and i + 1 < n:
                edges.append((i, i + 1))
            if i + side < n:
                edges.append((i, i + side))
    elif spec.topology == "random-geometric":
        edges = _random_geometric_edges(n, rng)
    else:
        raise DataError(f"unknown topology {spec.topology!r}")
    return RoadGraph(n, edges)


def _random_geometric_edges(n, rng):
    """Pairs (i < j, row by row) of n uniform points in the unit square
    closer than 1.7 / sqrt(n), then each isolated node wired to its nearest
    neighbor."""
    pts = rng.random((n, 2))
    radius = 1.7 / math.sqrt(n)
    # Sweep the points in x order: each point's candidates are the later
    # points at most the radius, plus a margin, further along in x.
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    # sorted position k's candidates are the positions k + 1 to stop[k] - 1
    stop = np.searchsorted(xs, xs + radius * (1 + 1e-9), side="right")
    counts = stop - np.arange(1, n + 1)
    k = np.repeat(np.arange(n), counts)
    later = np.arange(len(k)) - (np.cumsum(counts) - counts)[k] + k + 1
    u, v = np.minimum(order[k], order[later]), np.maximum(order[k], order[later])
    # A candidate's hypot may round differently from the norm of one pair by
    # a few ulps. Far from the radius it decides; within the margin of it,
    # the per-pair norm test decides, as it did for every pair.
    dist = np.hypot(*(pts[u] - pts[v]).T)
    near = dist < radius * (1 - 1e-9)
    band = np.flatnonzero(~near & (dist < radius * (1 + 1e-9)))
    near[band] = [np.linalg.norm(pts[u[c]] - pts[v[c]]) < radius
                  for c in band.tolist()]
    u, v = u[near], v[near]
    row_major = np.lexsort((v, u))
    edges = list(zip(u[row_major].tolist(), v[row_major].tolist()))
    # wire stragglers to their nearest neighbor so the graph is connected-ish
    linked = np.bincount(np.concatenate((u, v)), minlength=n) > 0
    for i in np.flatnonzero(~linked).tolist():
        d = np.linalg.norm(pts - pts[i], axis=1)
        d[i] = np.inf
        edges.append((i, int(d.argmin())))
    return edges


def synth_generate(spec):
    """Deterministic city: diurnal gaussian-bump profile per node with
    per-node amplitude jitter, one-hop spatial smoothing, additive noise,
    and a nonnegative clamp. The noiseless traffic repeats every day, so
    one day is built and smoothed, then written into each day's rows plus
    that day's noise, drawn day by day as one T x N draw would be. The peak
    holds the larger of two one-day blocks beside the graph's N x N
    aggregation matrix, for the smoothing product alone, and the T x N
    series beside two one-day blocks."""
    rng = np.random.default_rng([spec.seed, 0xC17F])
    graph = _make_topology(spec, rng)
    steps_per_day = 24 * 60 // spec.interval_minutes
    hours = np.arange(steps_per_day) * spec.interval_minutes / 60.0

    profile = np.full(steps_per_day, spec.base_flow)
    for amp, peak in zip(spec.peak_amplitudes, spec.peak_hours, strict=True):
        centered = hours - peak - spec.phase_shift_hours
        centered = (centered + 12.0) % 24.0 - 12.0  # wrap to [-12, 12)
        profile = profile + amp * np.exp(-0.5 * (centered / spec.peak_width_hours) ** 2)

    node_scale = 1.0 + spec.node_scale_spread * (rng.random(spec.n_nodes) - 0.5) * 2
    day = profile[:, None] * node_scale[None, :]
    # one day-sized buffer beside day: the neighbor means, then each noise
    buf = day @ graph.mean_aggregation_matrix().T
    day *= 1.0 - spec.smoothing
    buf *= spec.smoothing
    day += buf
    x = np.empty((spec.days * steps_per_day, spec.n_nodes))
    for rows in x.reshape(spec.days, steps_per_day, spec.n_nodes):
        rng.standard_normal(out=buf)
        buf *= spec.noise_level
        np.add(day, buf, out=rows)
    np.maximum(x, 0.0, out=x)
    return graph, TrafficSeries(x, spec.interval_minutes)
