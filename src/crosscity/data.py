"""Traffic-series ingestion, normalization, windowing, splitting, and a
synthetic multi-city generator with diurnal profiles.

Series are T x N flow matrices at a fixed interval. Signal values are read
through ``TrafficSeries.signal()``, which counts accesses; the pre-training
stage asserts on that counter to prove target labels stay unread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import NamedTuple

import numpy as np

from .graph import RoadGraph


class DataError(ValueError):
    pass


INTERVALS_PER_DAY = 288  # 5-minute bins


class TrafficSeries:
    """T x N observation matrix plus interval metadata and a read counter."""

    def __init__(self, values, interval_minutes=5, domain="", start=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"series must be T x N, got shape {values.shape}")
        self._values = values
        self.interval_minutes = interval_minutes
        self.domain = domain
        self.start = start or datetime(2024, 1, 1)
        self.read_count = 0

    @property
    def n_steps(self):
        return self._values.shape[0]

    @property
    def n_nodes(self):
        return self._values.shape[1]

    def signal(self):
        """The raw value matrix; every call is logged."""
        self.read_count += 1
        return self._values

    def replaced(self, values):
        out = TrafficSeries(values, self.interval_minutes, self.domain, self.start)
        return out


class NormalizationStats(NamedTuple):
    mean: float
    std: float

    @classmethod
    def fit(cls, series):
        """Population mean/std; a constant series is guarded to std=1."""
        x = series.signal()
        mean = float(x.mean())
        std = float(x.std())
        if std <= 0:
            std = 1.0
        return cls(mean, std)


def normalize(series, stats):
    return series.replaced((series.signal() - stats.mean) / stats.std)


def denormalize_values(values, stats):
    return np.asarray(values) * stats.std + stats.mean


@dataclass
class WindowedDataset:
    """Samples of (node id, (H', N_f) input, (H, N_f) target); inputs and
    targets are read-only views of the series they were cut from."""
    node_ids: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self):
        return len(self.node_ids)


def make_windows(series, history, horizon):
    """Stride-1 sliding windows per node, start-major and node-minor;
    T - H' - H + 1 samples each."""
    x = np.ascontiguousarray(series.signal())
    t_len, n_nodes = x.shape
    count = t_len - history - horizon + 1
    if count < 1:
        raise DataError(
            f"series of length {t_len} too short for history {history} + horizon {horizon}")
    # (count, N, H' + H) -> (count * N, H' + H) merges two axes whose
    # strides nest in a C-contiguous series, so the reshape is still a view
    windows = np.lib.stride_tricks.sliding_window_view(
        x, history + horizon, axis=0).reshape(count * n_nodes, history + horizon)
    return WindowedDataset(
        np.tile(np.arange(n_nodes, dtype=np.intp), count),
        windows[:, :history, None],
        windows[:, history:, None],
    )


def chrono_split(series, ratios=(0.7, 0.1, 0.2), history=12, horizon=12,
                 train_days=None):
    """Contiguous chronological train/val/test segments.

    train_days, when given, truncates the train segment to its last D whole
    days (matching few-shot protocols).
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios {ratios} do not sum to 1")
    t_len = series.n_steps
    n_train = int(round(ratios[0] * t_len))
    n_val = int(round(ratios[1] * t_len))
    x = series.signal()
    segments = [x[:n_train], x[n_train:n_train + n_val], x[n_train + n_val:]]
    if train_days is not None:
        per_day = INTERVALS_PER_DAY * 5 // series.interval_minutes
        keep = train_days * per_day
        segments[0] = segments[0][-keep:]
    out = []
    for seg, name in zip(segments, ("train", "val", "test")):
        if seg.shape[0] < history + horizon:
            raise DataError(
                f"{name} segment of length {seg.shape[0]} shorter than "
                f"history {history} + horizon {horizon}")
        out.append(series.replaced(seg))
    return tuple(out)


# -- CSV ingestion ----------------------------------------------------------

def load_series(path, graph, interval_minutes=5, domain=""):
    """Parse 'timestamp,node0,...' CSV; rejects gaps, disorder, NaN and inf."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != graph.n_nodes + 1:
            raise DataError(
                f"expected {graph.n_nodes + 1} columns, found {len(header)}")
        rows, stamps = [], []
        for ln, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != graph.n_nodes + 1:
                raise DataError(f"row {ln}: expected {graph.n_nodes + 1} columns")
            stamps.append(datetime.fromisoformat(parts[0]))
            vals = []
            for col, tok in enumerate(parts[1:]):
                v = float(tok)
                if not math.isfinite(v):
                    raise DataError(
                        f"row {ln}, column {header[col + 1]}: non-finite value {tok!r}")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise DataError("empty series file")
    step = timedelta(minutes=interval_minutes)
    for i in range(1, len(stamps)):
        delta = stamps[i] - stamps[i - 1]
        if delta <= timedelta(0):
            raise DataError(f"row {i + 2}: timestamps not strictly increasing")
        if delta > step:
            raise DataError(f"row {i + 2}: gap of {delta} exceeds one interval")
    return TrafficSeries(np.array(rows), interval_minutes, domain, stamps[0])


def save_series(series, path):
    x = series.signal()
    with open(path, "w") as fh:
        fh.write("timestamp," + ",".join(f"node{i}" for i in range(x.shape[1])) + "\n")
        t = series.start
        step = timedelta(minutes=series.interval_minutes)
        for row in x:
            fh.write(t.isoformat() + "," + ",".join(repr(float(v)) for v in row) + "\n")
            t += step


# -- synthetic generator ----------------------------------------------------

@dataclass
class SyntheticCitySpec:
    name: str = "city"
    n_nodes: int = 20
    topology: str = "random-geometric"  # ring | grid | random-geometric
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

    def to_kv(self):
        out = {}
        for key in _SPEC_KEYS:
            val = getattr(self, key)
            if isinstance(val, tuple):
                val = ";".join(repr(v) for v in val)
            out[key] = str(val)
        return out

    @classmethod
    def from_kv(cls, kv):
        spec = cls()
        for key, raw in kv.items():
            if key not in _SPEC_KEYS:
                raise DataError(f"unknown synthetic spec key {key!r}")
            current = getattr(spec, key)
            try:
                if isinstance(current, tuple):
                    val = tuple(float(v) for v in raw.split(";") if v)
                else:  # int, float or str, as the field's default is
                    val = type(current)(raw)
            except ValueError:
                raise DataError(f"synthetic spec key {key!r}: cannot read {raw!r} "
                                f"as {type(current).__name__}") from None
            setattr(spec, key, val)
        return spec


_SPEC_KEYS = list(SyntheticCitySpec.__dataclass_fields__)


def load_spec(path):
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
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
    edges = []
    for i in range(n - 1):
        # The row's distances may round differently from the norm of one
        # pair; the margin keeps every pair the norm test below could pass,
        # and that test alone decides.
        near = np.hypot(*(pts[i + 1:] - pts[i]).T) < radius * (1 + 1e-9)
        edges += [(i, j) for j in (i + 1 + np.flatnonzero(near)).tolist()
                  if np.linalg.norm(pts[i] - pts[j]) < radius]
    # wire stragglers to their nearest neighbor so the graph is connected-ish
    deg = np.zeros(n)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for i in np.flatnonzero(deg == 0):
        d = np.linalg.norm(pts - pts[i], axis=1)
        d[i] = np.inf
        edges.append((i, int(d.argmin())))
    return edges


def synth_generate(spec):
    """Deterministic city: diurnal gaussian-bump profile per node with
    per-node amplitude jitter, one-hop spatial smoothing, additive noise,
    and a nonnegative clamp."""
    rng = np.random.default_rng([spec.seed, 0xC17F])
    graph = _make_topology(spec, rng)
    steps_per_day = 24 * 60 // spec.interval_minutes
    t_len = spec.days * steps_per_day
    hours = (np.arange(t_len) % steps_per_day) * spec.interval_minutes / 60.0

    profile = np.full(t_len, spec.base_flow)
    for amp, peak in zip(spec.peak_amplitudes, spec.peak_hours):
        centered = hours - peak - spec.phase_shift_hours
        centered = (centered + 12.0) % 24.0 - 12.0  # wrap to [-12, 12)
        profile = profile + amp * np.exp(-0.5 * (centered / spec.peak_width_hours) ** 2)

    node_scale = 1.0 + spec.node_scale_spread * (rng.random(spec.n_nodes) - 0.5) * 2
    x = profile[:, None] * node_scale[None, :]
    agg = graph.mean_aggregation_matrix()
    x = (1.0 - spec.smoothing) * x + spec.smoothing * (x @ agg.T)
    x = x + spec.noise_level * rng.standard_normal(x.shape)
    x = np.maximum(x, 0.0)
    return graph, TrafficSeries(x, spec.interval_minutes, spec.name)
