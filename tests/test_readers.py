"""The numeric text readers parse straight into one float64 array: they
accept exactly the files the per-cell readers of ``composed`` accept, with
the same bits, refuse the rest with the same error text, and hold each
series once."""

import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import composed
from crosscity import data as dio
from crosscity import forecaster as fc
from crosscity import node2vec as n2v
from crosscity.config import ExperimentConfig
from crosscity.graph import RoadGraph
from crosscity.textio import DataError, parse_floats
from crosscity.train import DomainData, pretrain

# cells float() reads and numpy's C parser may read otherwise: every ASCII
# character, the non-ASCII blanks float() strips, and digits of other scripts
_ODD_CHARS = ([chr(i) for i in range(128) if chr(i) not in ",\n\r"]
              + [chr(i) for i in range(128, 0x3001) if chr(i).isspace()]
              + list("١२３٣০๓"))
_TEMPLATES = ("{}1", "1{}", "1{}5", "1e{}3", "{}", "{}inf", "1.{}", "-{}2.5")


def _float_row(cells):
    """float() of each cell, or None if one is refused or not finite."""
    try:
        vals = [float(c) for c in cells]
    except ValueError:
        return None
    return vals if all(map(np.isfinite, vals)) else None


def test_parse_floats_accepts_only_what_float_reads_alike():
    for char in _ODD_CHARS:
        for template in _TEMPLATES:
            line = template.format(char) + ",2"
            got = parse_floats([line], 2)
            cells = line.split(",")
            want = _float_row(cells) if len(cells) == 2 else None
            if got is not None:
                assert want is not None, repr(line)
                assert got.tobytes() == np.array([want]).tobytes(), repr(line)
            elif want is not None:
                # refused by numpy alone: the per-cell scan reads it
                assert any(c in line for c in "_\x1c\x1d\x1e\x1f") or not line.isascii(), repr(line)


def test_parse_floats_reads_repr_exactly():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
    lines = [",".join(map(repr, row)) for row in x.tolist()]
    got = parse_floats(lines, 7)
    assert got.dtype == np.float64 and got.tobytes() == x.tobytes()


@pytest.mark.parametrize("lines", [[], [""], ["1,2", ""], ["1,2", "3"],
                                   ["1,2,3"], ["nan,1"], ["1,1e999"]])
def test_parse_floats_refuses(lines):
    assert parse_floats(lines, 2) is None


# -- mutated files ------------------------------------------------------------

_BAD_CELLS = ("nan", "inf", "-inf", "NaN", "1e999", "1_000", "1_0.5", "١٢٣",
              "३.५", "３", " 1.5 ", "\t2.5", "2.5\t", "", "#", "1#2", "0x10",
              "\x1c1", "1\x1f", "\xa01", "1e-400")
_INSERTS = ("#", ",", " ", "_", "\x00", "\x0b", "\x0c", "\x1c", "\x1f",
            "\xa0", " ", "e", ".", "-", "١")


@st.composite
def _mutations(draw):
    """1 to 3 edits of a file's lines: one of blank line, character
    insert, extra or missing cell, replaced cell, CRLF or header only."""
    kinds = st.sampled_from(["blank", "insert", "extra", "missing", "cell",
                             "crlf", "header_only", "spaces"])
    out = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        out.append((kind, draw(st.integers(0, 10**6)),
                    draw(st.integers(0, 10**6)),
                    draw(st.sampled_from(_BAD_CELLS if kind == "cell"
                                         else _INSERTS))))
    return out


def _mutate(lines, head, edits):
    """lines with `edits` applied to its lines after the first `head` ones;
    returns the file's text."""
    lines = list(lines)
    eol = "\n"
    for kind, a, b, text in edits:
        body = range(head, len(lines))
        if kind == "crlf":
            eol = "\r\n"
            continue
        if kind == "header_only":
            lines = lines[:head]
            continue
        if not body:
            continue
        i = body[a % len(body)]
        cells = lines[i].split(",")
        if kind == "blank":
            lines.insert(i, "")
        elif kind == "insert":
            pos = b % (len(lines[i]) + 1)
            lines[i] = lines[i][:pos] + text + lines[i][pos:]
        elif kind == "extra":
            lines[i] += ",1.0"
        elif kind == "missing":
            lines[i] = ",".join(cells[:-1])
        elif kind == "cell" and len(cells) > 1:
            cells[1 + b % (len(cells) - 1)] = text
            lines[i] = ",".join(cells)
        elif kind == "spaces":
            cells[b % len(cells)] = f" {cells[b % len(cells)]} "
            lines[i] = ",".join(cells)
    return "".join(line + eol for line in lines)


def _outcome(read, path):
    """What read(path) returns, or the type and text of what it raises."""
    try:
        return read(path)
    except DataError as exc:
        return type(exc), str(exc)


def _bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def _series_lines(seed):
    rng = np.random.default_rng(seed)
    start = datetime(2024, 3, 1)
    vals = rng.random((6, 3)) * 10.0 ** rng.integers(-3, 4, (6, 3))
    return ["timestamp,node0,node1,node2"] + [
        ",".join([(start + i * timedelta(minutes=5)).isoformat()]
                 + list(map(repr, row)))
        for i, row in enumerate(vals.tolist())]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), _mutations())
@example(seed=0, mutation=[("insert", 304, 1811, "-")])  # one aware timestamp
def test_load_series_equals_per_cell_reader(scratch, seed, mutation):
    path = scratch / "series.csv"
    path.write_text(_mutate(_series_lines(seed), 1, mutation), newline="")
    graph = RoadGraph(3, [(0, 1), (1, 2)])
    got = _outcome(lambda p: dio.load_series(p, graph), path)
    want = _outcome(lambda p: composed.load_series(p, graph), path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _bits(got.signal()) == _bits(want.signal())
        assert (got.interval_minutes, got.start) == (want.interval_minutes, want.start)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.booleans(), _mutations())
def test_load_features_equals_per_cell_reader(scratch, seed, shuffled, mutation):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((5, 3))
    order = rng.permutation(5) if shuffled else range(5)
    lines = ["node,f0,f1,f2"] + [",".join([str(v)] + list(map(repr, feats[v])))
                                 for v in order]
    path = scratch / "features.csv"
    path.write_text(_mutate(lines, 1, mutation), newline="")
    got, want = _outcome(n2v.load_features, path), _outcome(composed.load_features, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("zones, line, kind", [
    (("+00:00", "", ""), 3, "naive"), (("", "", "+01:00"), 4, "aware")])
def test_mixed_timezones_refused_with_path_and_line(tmp_path, zones, line, kind):
    path = tmp_path / "tz.csv"
    path.write_text("timestamp,node0\n" + "".join(
        f"2024-01-01T00:{5 * i:02d}:00{zone},{i}.0\n" for i, zone in enumerate(zones)))
    with pytest.raises(DataError) as exc:
        dio.load_series(path, RoadGraph(1, []))
    assert str(exc.value).startswith(f"{path}, line {line}: a timezone-{kind} ")


def test_all_aware_timestamps_read(tmp_path):
    path = tmp_path / "utc.csv"
    path.write_text("timestamp,node0\n" + "".join(
        f"2024-01-01T00:{m:02d}:00+02:00,{m}.0\n" for m in (0, 5, 10)))
    series = dio.load_series(path, RoadGraph(1, []))
    assert series.interval_minutes == 5 and series.start.utcoffset() == timedelta(hours=2)


# -- memory -------------------------------------------------------------------

def _traced_peak(fn):
    """fn()'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ring_city(n_nodes, days, seed):
    spec = dio.SyntheticCitySpec(name=f"c{seed}", n_nodes=n_nodes, topology="ring",
                                 days=days, seed=seed)
    return dio.synth_generate(spec)


def test_load_series_peaks_near_its_array(tmp_path):
    graph, series = _ring_city(500, 3, 0)
    path = tmp_path / "big.csv"
    dio.save_series(series, path)
    back, peak = _traced_peak(lambda: dio.load_series(path, graph))
    assert back.signal().tobytes() == series.signal().tobytes()
    assert peak <= 1.5 * back.signal().nbytes, peak / back.signal().nbytes


def test_pretrain_holds_no_normalized_copy_and_no_window_ids(monkeypatch):
    graph, series = _ring_city(500, 14, 1)
    target_graph, _ = _ring_city(6, 1, 2)
    cfg = ExperimentConfig(source_domains=["c1"], target_domain="c2",
                           history=4, horizon=3, embed_dim=4, hidden_dim=4,
                           classifier_hidden=4, batch_size=8,
                           pretrain_epochs=1, pretrain_batches_per_epoch=3)
    rng = np.random.default_rng(0)
    source = DomainData("c1", graph, rng.standard_normal((500, 4)), series)
    target = DomainData("c2", target_graph, rng.standard_normal((6, 4)))
    # the memory held at each training step's forecast, past the transient
    # of fitting the normalization statistics
    held_at_step = []
    forecast = fc.forecast

    def traced_forecast(*args):
        held_at_step.append(tracemalloc.get_traced_memory()[0])
        return forecast(*args)

    monkeypatch.setattr(fc, "forecast", traced_forecast)
    ckpt, _ = _traced_peak(lambda: pretrain(cfg, [source], target))
    assert ckpt.stage == "pretrained" and len(held_at_step) == 3
    train = dio.chrono_split(series, cfg.split_ratios, cfg.history, cfg.horizon,
                             None)[0]
    windows = len(train) - cfg.history - cfg.horizon + 1
    # a normalized train split, or one intp node id per window, would each
    # take about train.nbytes
    copy = min(train.nbytes, windows * 500 * np.dtype(np.intp).itemsize)
    assert max(held_at_step) < copy / 2, (held_at_step, copy)
