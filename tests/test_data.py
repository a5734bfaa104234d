import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from crosscity import data as dio
from crosscity.data import (DataError, NormalizationStats,
                            SyntheticCitySpec, TrafficSeries, chrono_split,
                            denormalize_values, load_series, load_spec,
                            make_windows, normalize, save_series,
                            synth_generate)
from crosscity.data import _random_geometric_edges
from crosscity.graph import RoadGraph

import composed


def series_of(values, **kw):
    return TrafficSeries(np.asarray(values, dtype=float), **kw)


class TestNormalization:
    def test_hand_values(self):
        x = np.array([[1.0], [2.0], [3.0]])
        st = NormalizationStats.fit(x)
        assert st.mean == 2.0
        assert abs(st.std - np.sqrt(2.0 / 3.0)) < 1e-15  # population std
        z = normalize(x, st)
        expect = np.array([-1.2247448713915890, 0.0, 1.2247448713915890])
        assert np.allclose(z[:, 0], expect, atol=1e-12)

    def test_round_trip(self, rng):
        x = rng.random((50, 3)) * 100
        st = NormalizationStats.fit(x)
        back = denormalize_values(normalize(x, st), st)
        assert np.allclose(back, x, atol=1e-12)

    def test_constant_series_guard(self):
        x = np.full((10, 2), 7.0)
        st = NormalizationStats.fit(x)
        assert st.std == 1.0
        assert np.allclose(normalize(x, st), 0.0)

    def test_read_counter(self):
        s = series_of([[1.0], [2.0]])
        assert s.read_count == 0
        s.signal()
        s.signal()
        assert s.read_count == 2


class TestWindows:
    def test_count_one_day(self):
        ds = make_windows(np.zeros((288, 4)), 12, 12)
        assert len(ds) == (288 - 12 - 12 + 1) * 4 == 265 * 4

    def test_minimal_length(self):
        assert len(make_windows(np.zeros((24, 1)), 12, 12)) == 1
        with pytest.raises(DataError, match="too short"):
            make_windows(np.zeros((23, 1)), 12, 12)

    def test_adjacency_of_input_and_target(self):
        t = np.arange(30, dtype=float)
        ds = make_windows(t[:, None], 4, 3)
        for i in range(len(ds)):
            window = np.concatenate([ds.inputs[i, :, 0], ds.targets[i, :, 0]])
            assert np.array_equal(window, np.arange(i, i + 7, dtype=float))

    def test_shapes(self, rng):
        ds = make_windows(rng.random((40, 3)), 12, 6)
        assert ds.inputs.shape == (23 * 3, 12, 1)
        assert ds.targets.shape == (23 * 3, 6, 1)
        assert len(ds.node_ids) == 23 * 3

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 8),
           st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_equals_loop_of_copies(self, t_len, n_nodes, history, horizon,
                                   seed):
        x = np.random.default_rng(seed).standard_normal((t_len, n_nodes))
        if t_len < history + horizon:
            for make in (make_windows, composed.make_windows):
                with pytest.raises(DataError, match="too short"):
                    make(x, history, horizon)
            return
        got = make_windows(x, history, horizon)
        want = composed.make_windows(x, history, horizon)
        assert got.node_ids[:].dtype == want.node_ids.dtype == np.intp
        assert np.array_equal(got.node_ids[:], want.node_ids)
        for key in ("inputs", "targets"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key

    def test_read_only_views_of_the_series(self, rng):
        x = rng.random((30, 4))
        ds = make_windows(x, 5, 3)
        for arr in (ds.inputs, ds.targets):
            assert np.shares_memory(arr, x)
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0


class TestSplit:
    def test_segment_arithmetic(self):
        s = series_of(np.arange(1000, dtype=float)[:, None])
        tr, va, te = chrono_split(s, (0.7, 0.1, 0.2), 12, 12, None)
        assert (len(tr), len(va), len(te)) == (700, 100, 200)
        assert tr[-1, 0] == 699.0
        assert va[0, 0] == 700.0
        assert te[0, 0] == 800.0
        # array views of the one read the split takes
        assert s.read_count == 1
        assert all(np.shares_memory(seg, s.signal()) for seg in (tr, va, te))

    def test_bad_ratios(self):
        s = series_of(np.zeros((100, 1)))
        with pytest.raises(DataError, match="sum to 1"):
            chrono_split(s, (0.5, 0.2, 0.2), 12, 12, None)

    def test_too_short_segment(self):
        s = series_of(np.zeros((60, 1)))
        with pytest.raises(DataError, match="shorter than"):
            chrono_split(s, (0.7, 0.1, 0.2), 12, 12, None)

    def test_train_days_truncation(self):
        days = 10
        s = series_of(np.arange(days * 288, dtype=float)[:, None])
        tr, _, _ = chrono_split(s, (0.7, 0.1, 0.2), 12, 12, 2)
        assert len(tr) == 2 * 288
        # the last two whole days of the 70% train segment
        assert tr[-1, 0] == 0.7 * days * 288 - 1


def _signal_reads(tree):
    """The function around every `.signal()` call in tree."""
    found, scope = set(), []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "signal":
                found.add(scope[-1] if scope else "<module>")
            self.generic_visit(node)

    Visitor().visit(tree)
    return found


def test_only_the_split_and_the_writer_read_a_series():
    # every protocol stage reads a city's traffic through chrono_split, so
    # a series' read counter counts exactly the splits taken of it
    found = {f"{path.name}:{func}"
             for path in sorted(Path(dio.__file__).parent.glob("*.py"))
             for func in _signal_reads(ast.parse(path.read_text()))}
    assert found == {"data.py:chrono_split", "data.py:save_series"}


def test_the_read_guard_sees_nested_and_module_level_calls():
    tree = ast.parse("s.signal()\ndef f(s):\n    def g():\n        s.signal()\n"
                     "    return s.values\n")
    assert _signal_reads(tree) == {"<module>", "g"}


class TestCsv:
    def test_round_trip(self, rng, tmp_path):
        g = RoadGraph(3, [(0, 1), (1, 2)])
        s = series_of(rng.random((20, 3)) * 500)
        path = tmp_path / "demo.csv"
        save_series(s, path)
        back = load_series(path, g)
        assert np.array_equal(back.signal(), s.signal())
        assert back.start == s.start

    def test_rejects_gap(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "timestamp,node0\n"
            "2023-12-31T23:55:00,0.0\n"
            "2024-01-01T00:00:00,1.0\n"
            "2024-01-01T00:15:00,2.0\n")
        with pytest.raises(DataError, match="gap"):
            load_series(path, RoadGraph(1, []))

    def test_interval_read_from_the_file(self, rng, tmp_path):
        g = RoadGraph(2, [(0, 1)])
        s = series_of(rng.random((10, 2)), interval_minutes=15)
        path = tmp_path / "q.csv"
        save_series(s, path)
        back = load_series(path, g)
        assert back.interval_minutes == 15
        assert np.array_equal(back.signal(), s.signal())

    @pytest.mark.parametrize("stamps, match", [
        (("00:00:00", "00:15:00", "00:20:00"), "shorter"),
        (("00:00:00", "00:15:00", "00:30:00", "00:35:00"), "shorter"),
        (("00:00:00", "00:00:30", "00:01:00"), "whole minutes"),
        (("00:00:00",), "too few"),
        (("00:05:00", "00:05:00", "00:10:00"), "increasing"),
    ])
    def test_rejects_steps_off_the_interval(self, tmp_path, stamps, match):
        path = tmp_path / "steps.csv"
        path.write_text("timestamp,node0\n" + "".join(
            f"2024-01-01T{t},1.0\n" for t in stamps))
        with pytest.raises(DataError, match=match):
            load_series(path, RoadGraph(1, []))

    def test_rejects_an_interval_longer_than_a_day(self, tmp_path):
        # a day would hold 24 * 60 // 2000 == 0 steps, and a train-day
        # count would keep every train row
        path = tmp_path / "slow.csv"
        path.write_text("timestamp,node0\n" + "".join(
            f"2024-01-0{d}T{t},1.0\n"
            for d, t in ((1, "00:00:00"), (2, "09:20:00"), (3, "18:40:00"))))
        with pytest.raises(DataError) as exc:
            load_series(path, RoadGraph(1, []))
        assert str(exc.value) == (f"{path}, line 3: interval 1 day, 9:20:00 "
                                  f"is longer than a day")

    def test_keeps_an_interval_of_a_day(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("timestamp,node0\n" + "".join(
            f"2024-01-0{d}T00:00:00,1.0\n" for d in (1, 2, 3)))
        assert load_series(path, RoadGraph(1, [])).interval_minutes == 24 * 60

    @pytest.mark.parametrize("row, column", [("2024-01-01T00:05:00,1.0,abc", "node1"),
                                             ("2024-01-01T00:05:00,,2.0", "node0"),
                                             ("noon,1.0,2.0", "timestamp")])
    def test_unreadable_cell_names_path_line_and_column(self, tmp_path, row,
                                                         column):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,node0,node1\n"
                        f"2024-01-01T00:00:00,1.0,2.0\n{row}\n")
        with pytest.raises(DataError) as exc:
            load_series(path, RoadGraph(2, [(0, 1)]))
        assert f"{path}, line 3, column {column}: " in str(exc.value)

    def test_rejects_disorder(self, tmp_path):
        path = tmp_path / "dis.csv"
        path.write_text(
            "timestamp,node0\n"
            "2024-01-01T00:05:00,1.0\n"
            "2024-01-01T00:00:00,2.0\n")
        with pytest.raises(DataError, match="increasing"):
            load_series(path, RoadGraph(1, []))

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "timestamp,node0,node1\n"
            "2024-01-01T00:00:00,1.0,nan\n")
        with pytest.raises(DataError, match="node1"):
            load_series(path, RoadGraph(2, [(0, 1)]))

    def test_rejects_inf(self, tmp_path):
        path = tmp_path / "inf.csv"
        for row in ("1.0,inf", "-inf,1.0"):
            path.write_text("timestamp,node0,node1\n"
                            f"2024-01-01T00:00:00,{row}\n")
            with pytest.raises(DataError, match="non-finite"):
                load_series(path, RoadGraph(2, [(0, 1)]))

    def test_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("timestamp,node0\n2024-01-01T00:00:00,1.0\n")
        with pytest.raises(DataError, match="columns"):
            load_series(path, RoadGraph(2, [(0, 1)]))


class TestSpec:
    def test_kv_round_trip(self):
        spec = SyntheticCitySpec(name="x", n_nodes=25, peak_hours=(7.5, 17.0),
                                 phase_shift_hours=1.5, seed=3)
        kv = {key: ";".join(map(repr, val)) if isinstance(val, tuple)
              else str(val) for key, val in vars(spec).items()}
        assert SyntheticCitySpec.from_kv(kv) == spec

    def test_unknown_key(self):
        with pytest.raises(DataError, match="unknown"):
            SyntheticCitySpec.from_kv({"bogus": "1"})

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "c.spec"
        path.write_text("# a city\nname = ville\nn_nodes = 9\ntopology = ring\n")
        spec = load_spec(path)
        assert spec.name == "ville" and spec.n_nodes == 9
        assert spec.topology == "ring"

    @pytest.mark.parametrize("key, raw", [("n_nodes", "ten"), ("base_flow", "lots"),
                                          ("peak_hours", "8;noon")])
    def test_bad_value_names_key_and_value(self, key, raw):
        with pytest.raises(DataError) as exc:
            SyntheticCitySpec.from_kv({"name": "x", key: raw})
        assert repr(key) in str(exc.value) and repr(raw) in str(exc.value)

    @pytest.mark.parametrize("key, raw, got", [
        ("base_flow", "nan", "nan"),
        ("peak_amplitudes", "nan;250", "(nan, 250.0)"),
        ("peak_hours", "8;inf", "(8.0, inf)"),
        ("peak_hours", "-inf;18", "(-inf, 18.0)"),
        ("phase_shift_hours", "nan", "nan"),
        ("node_scale_spread", "inf", "inf"),
        ("smoothing", "nan", "nan"),
        ("noise_level", "inf", "inf"),
        ("peak_width_hours", "inf", "inf"),
        ("peak_width_hours", "nan", "nan"),
    ], ids=["nan-base-flow", "nan-peak-amplitude", "inf-peak-hour",
            "minus-inf-peak-hour", "nan-phase-shift", "inf-node-scale-spread",
            "nan-smoothing", "inf-noise-level", "inf-peak-width",
            "nan-peak-width"])
    def test_non_finite_value_refused(self, key, raw, got):
        # a non-finite value would make a series that load_series refuses
        with pytest.raises(DataError, match=(
                f"^synthetic spec key '{key}': expected a finite value, "
                f"got {re.escape(got)}$")):
            SyntheticCitySpec.from_kv({"name": "x", key: raw})

    def test_load_spec_bad_value_names_file(self, tmp_path):
        path = tmp_path / "c.spec"
        path.write_text("name = ville\nn_nodes = ten\n")
        with pytest.raises(DataError) as exc:
            load_spec(path)
        msg = str(exc.value)
        assert msg.startswith(f"{path}: ")
        assert "'n_nodes'" in msg and "'ten'" in msg

    def test_peaks_of_different_lengths_refused(self, tmp_path):
        path = tmp_path / "c.spec"
        path.write_text("name = ville\npeak_amplitudes = 300;250;400\n"
                        "peak_hours = 8\n")
        with pytest.raises(DataError) as exc:
            load_spec(path)
        assert str(exc.value) == (
            f"{path}: synthetic spec keys 'peak_amplitudes' [300.0, 250.0, "
            f"400.0] and 'peak_hours' [8.0]: expected one hour per amplitude")
        with pytest.raises(ValueError):
            synth_generate(SyntheticCitySpec(n_nodes=6, days=1,
                                             peak_amplitudes=(300.0, 250.0),
                                             peak_hours=(8.0,)))

    def test_series_of_one_step_refused(self, tmp_path):
        # load_series takes the interval from the first two timestamps
        path = tmp_path / "c.spec"
        path.write_text("name = ville\ndays = 1\ninterval_minutes = 1440\n")
        with pytest.raises(DataError) as exc:
            load_spec(path)
        assert str(exc.value) == (
            f"{path}: synthetic spec keys 'days' 1 and 'interval_minutes' "
            f"1440: expected at least 2 steps, got 1")
        for days, interval in ((2, 1440), (1, 720)):
            spec = SyntheticCitySpec.from_kv(
                {"days": str(days), "interval_minutes": str(interval)})
            assert len(synth_generate(spec)[1].signal()) == 2

    def test_unknown_topology_refused_with_file_and_key(self, tmp_path):
        path = tmp_path / "c.spec"
        path.write_text("name = ville\ntopology = star\n")
        with pytest.raises(DataError) as exc:
            load_spec(path)
        assert str(exc.value) == (
            f"{path}: synthetic spec key 'topology': expected one of ring, "
            f"grid, random-geometric, got 'star'")
        for topology in dio.TOPOLOGIES:
            path.write_text(f"name = ville\ntopology = {topology}\n")
            assert load_spec(path).topology == topology

    def test_rules_of_one_key_come_before_the_next_key(self):
        # an interval failing its later rules is reported before a later
        # key failing its first
        with pytest.raises(DataError, match="^synthetic spec key "
                           "'interval_minutes': expected a divisor of 1440"):
            SyntheticCitySpec.from_kv({"interval_minutes": "7", "days": "0"})


class TestSynth:
    def test_deterministic(self):
        spec = SyntheticCitySpec(n_nodes=12, days=1, seed=5)
        g1, s1 = synth_generate(spec)
        g2, s2 = synth_generate(spec)
        assert g1.edges == g2.edges
        assert np.array_equal(s1.signal(), s2.signal())

    def test_shapes_and_nonnegative(self):
        spec = SyntheticCitySpec(n_nodes=10, days=2, seed=1)
        g, s = synth_generate(spec)
        assert g.n_nodes == 10
        assert s.signal().shape == (2 * 288, 10)
        assert (s.signal() >= 0).all()

    def test_peak_location(self):
        spec = SyntheticCitySpec(n_nodes=6, days=1, seed=2, noise_level=0.0,
                                 peak_amplitudes=(400.0,), peak_hours=(8.0,),
                                 topology="ring")
        _, s = synth_generate(spec)
        mean_profile = s.signal().mean(axis=1)
        peak_hour = mean_profile.argmax() * spec.interval_minutes / 60.0
        assert abs(peak_hour - 8.0) < 0.25

    def test_phase_shift_moves_peak(self):
        base = SyntheticCitySpec(n_nodes=6, days=1, seed=2, noise_level=0.0,
                                 peak_amplitudes=(400.0,), peak_hours=(8.0,),
                                 topology="ring")
        shifted = SyntheticCitySpec(**{**base.__dict__, "phase_shift_hours": 3.0})
        _, s0 = synth_generate(base)
        _, s1 = synth_generate(shifted)
        p0 = s0.signal().mean(axis=1).argmax()
        p1 = s1.signal().mean(axis=1).argmax()
        assert abs((p1 - p0) * base.interval_minutes / 60.0 - 3.0) < 0.25

    def test_daily_autocorrelation(self):
        spec = SyntheticCitySpec(n_nodes=8, days=3, seed=4)
        _, s = synth_generate(spec)
        x = s.signal()[:, 0]
        x = x - x.mean()
        lag = 288
        r = (x[:-lag] * x[lag:]).sum() / np.sqrt((x[:-lag] ** 2).sum() * (x[lag:] ** 2).sum())
        assert r > 0.8

    def test_cities_with_different_seeds_differ(self):
        a = SyntheticCitySpec(n_nodes=15, days=1, seed=1)
        b = SyntheticCitySpec(n_nodes=15, days=1, seed=2)
        _, sa = synth_generate(a)
        _, sb = synth_generate(b)
        ks = sstats.ks_2samp(sa.signal().ravel(), sb.signal().ravel())
        assert ks.statistic > 0.01  # distinct node jitter shifts the distribution

    def test_grid_topology_nodes_connected(self):
        spec = SyntheticCitySpec(n_nodes=9, topology="grid", days=1)
        g, _ = synth_generate(spec)
        assert all(len(g.neighbors[v]) > 0 for v in range(9))

    def test_unknown_topology(self):
        with pytest.raises(DataError, match="topology"):
            synth_generate(SyntheticCitySpec(topology="torus", days=1))

    @pytest.mark.parametrize("topology", ["ring", "random-geometric"])
    def test_single_node_topology_rejected(self, topology):
        spec = SyntheticCitySpec(name="hamlet", n_nodes=1, topology=topology,
                                 days=1)
        with pytest.raises(DataError, match=r"'hamlet'.*at least 2 nodes, "
                                            r"got n_nodes = 1"):
            synth_generate(spec)

    def test_single_node_grid(self):
        g, series = synth_generate(SyntheticCitySpec(n_nodes=1, topology="grid",
                                                     days=1))
        assert g.n_nodes == 1 and g.edges == []
        assert series.signal().shape[1] == 1


@pytest.mark.parametrize("n", [2, 5, 60, 480, 520, 883, 2000])
def test_random_geometric_edges_equal_the_pairwise_norm_loop(n):
    # the reference's pairwise loop takes seconds from about 1,000 nodes
    for seed in range(4 if n < 400 else 2 if n < 1000 else 1):
        got_rng = np.random.default_rng([seed, 0xC17F])
        want_rng = np.random.default_rng([seed, 0xC17F])
        got = _random_geometric_edges(n, got_rng)
        want = composed.random_geometric_edges(n, want_rng)
        assert got == want, (n, seed)  # the same edges in the same order
        assert got_rng.random() == want_rng.random()  # the same draws


class _Points:
    """A stand-in generator whose one draw is the given points."""

    def __init__(self, pts):
        self.pts = np.array(pts, dtype=np.float64)

    def random(self, shape):
        assert shape == self.pts.shape
        return self.pts.copy()


# 1.7 / sqrt(20) from (0.4, 0.45) by norm, a few ulps less by hypot
HYPOT_BELOW_NORM_AT = (0.1711687282981287, 0.14646046535697477)


def _crafted_points():
    rng = np.random.default_rng(7)
    cases = {}
    # 64 points in 8 columns of equal x, 0.125 apart: ties in the sort, and
    # runs that cross columns (radius 0.2125)
    cases["equal-x"] = np.column_stack((rng.integers(0, 8, 64) / 8,
                                        rng.random(64)))
    # radius 0.85: the first two points, exactly the radius apart in x,
    # are no edge, nor are they with 1e-5 between them in y as well (1e-10
    # over the radius, in the band); each point has a neighbor 0.4 away
    r = 1.7 / 2
    cases["x-gap-of-the-radius"] = [(0.0, 0.5), (r, 0.5), (0.0, 0.9), (r, 0.1)]
    cases["x-gap-of-the-radius-and-a-hair"] = [(0.0, 0.5), (r, 0.5 + 1e-5),
                                               (0.0, 0.9), (r, 0.1)]
    # distances within 1e-9 of the radius, either side, and just outside it,
    # from the first point; and a second point whose hypot from it is below
    # the radius but whose norm is not: it is no edge
    r = 1.7 / math.sqrt(20)
    center = (0.4, 0.45)
    dists = [r * (1 + d) for d in (-2e-9, -1e-10, -1e-15, 0.0, 1e-15, 1e-10, 2e-9)]
    dists += [np.nextafter(r, 0.0), np.nextafter(r, 1.0)]
    angles = np.linspace(0.1, 2 * np.pi, len(dists), endpoint=False)
    band = [center, HYPOT_BELOW_NORM_AT] + [
        (center[0] + d * np.cos(t), center[1] + d * np.sin(t))
        for d, t in zip(dists, angles)]
    cases["margin-band"] = band + [(0.99, k / 9) for k in range(20 - len(band))]
    # the same point three times and another twice: distance 0
    cases["duplicates"] = np.concatenate(
        ([(0.2, 0.2)] * 3, [(0.9, 0.9)] * 2, rng.random((4, 2))))
    # radius 1.20 below the diagonal: both points are stragglers
    cases["two-far-apart"] = [(0.0, 0.0), (0.99, 0.99)]
    return cases


@pytest.mark.parametrize("case", sorted(_crafted_points()))
def test_random_geometric_edges_on_crafted_points(case):
    pts = np.array(_crafted_points()[case], dtype=np.float64)
    n = len(pts)
    got = _random_geometric_edges(n, _Points(pts))
    want = composed.random_geometric_edges(n, _Points(pts))
    assert got == want
    if case == "margin-band":
        # some pairs fall in the band on both sides of the radius, where
        # the per-pair norm decides
        radius = 1.7 / math.sqrt(n)
        d = np.hypot(*(pts[:, None] - pts[None]).transpose(2, 0, 1))
        band = np.abs(d / radius - 1) < 1e-9
        assert (band & (d < radius)).any() and (band & (d >= radius)).any()
        assert d[0, 1] < radius <= np.linalg.norm(pts[0] - pts[1])
        assert (0, 1) not in got
    if case == "two-far-apart":
        assert got == [(0, 1), (1, 0)]


def test_random_geometric_city_equals_the_pairwise_norm_loop():
    spec = SyntheticCitySpec(n_nodes=70, topology="random-geometric", days=1,
                             seed=11)
    g, _ = synth_generate(spec)
    want = composed.random_geometric_edges(
        70, np.random.default_rng([11, 0xC17F]))
    assert g.edges == RoadGraph(70, want).edges


@pytest.mark.parametrize("topology, n_nodes, seed", [
    ("ring", 12, 0), ("grid", 10, 4), ("grid", 1, 2),
    ("random-geometric", 40, 5), ("random-geometric", 90, 9),
    ("random-geometric", 500, 6)])
def test_synth_generate_equals_the_reference(topology, n_nodes, seed):
    # noise this loud drives some values below zero, so the clamp acts
    spec = SyntheticCitySpec(n_nodes=n_nodes, topology=topology, days=2,
                             seed=seed, smoothing=0.45, noise_level=300.0)
    g, series = synth_generate(spec)
    want_g, want = composed.synth_generate(spec)
    assert g.edges == want_g.edges
    assert np.array_equal(series.signal(), want)
    assert (want == 0.0).any()


@pytest.mark.parametrize("interval", [d for d in range(1, 24 * 60 + 1)
                                      if 24 * 60 % d == 0])
def test_synth_generate_equals_the_reference_at_every_interval(interval):
    # the smoothing product takes one day's rows; at some shapes a product
    # over all the days' rows would round otherwise
    for topology in ("ring", "grid", "random-geometric"):
        for n_nodes in (5, 33, 200):
            for days in (1, 2, 3):
                spec = SyntheticCitySpec(
                    n_nodes=n_nodes, topology=topology, days=days,
                    interval_minutes=interval, seed=n_nodes + days,
                    smoothing=0.45, noise_level=30.0)
                _, series = synth_generate(spec)
                _, want = composed.synth_generate(spec)
                assert np.array_equal(series.signal(), want), spec


def test_synth_generate_peak_holds_one_series_and_one_matrix():
    # 1,000 nodes over 3 days: a day of 2.3 MB and a T x N series of 6.9 MB
    # beside an 8 MB N x N matrix; one more day-sized temporary, or a
    # second series, breaks the bound
    spec = SyntheticCitySpec(n_nodes=1000, topology="ring", days=3, seed=1)
    day_bytes = 24 * 60 // spec.interval_minutes * spec.n_nodes * 8
    series_bytes = spec.days * day_bytes
    # a small city first, so that no first-use allocation is counted
    synth_generate(SyntheticCitySpec(n_nodes=5, topology="ring", days=1))
    tracemalloc.start()
    try:
        synth_generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < max(2 * day_bytes + spec.n_nodes ** 2 * 8,
                      series_bytes + 2 * day_bytes) + day_bytes // 2


def _series_with_stamps(path, stamps):
    path.write_text("timestamp,node0\n" + "".join(
        f"2024-01-01T{t},1.0\n" for t in stamps))
    return path


def test_load_series_refuses_an_interval_that_does_not_divide_a_day(tmp_path):
    # 7 minutes would put 205 steps, and a leftover 5 minutes, in a "day"
    path = _series_with_stamps(tmp_path / "odd.csv",
                               ("00:00:00", "00:07:00", "00:14:00"))
    with pytest.raises(DataError) as exc:
        load_series(path, RoadGraph(1, []))
    assert str(exc.value) == (f"{path}, line 3: interval 0:07:00 does not "
                              f"divide a day")
    path = _series_with_stamps(tmp_path / "even.csv",
                               ("00:00:00", "00:45:00", "01:30:00"))
    assert load_series(path, RoadGraph(1, [])).interval_minutes == 45


@pytest.mark.parametrize("raw, refused", [("7", True), ("1000", True),
                                          ("45", False), ("1440", False),
                                          ("1", False)])
def test_spec_interval_is_a_whole_fraction_of_a_day(raw, refused):
    kv = {"interval_minutes": raw}
    if refused:
        with pytest.raises(DataError, match=(
                f"^synthetic spec key 'interval_minutes': expected a divisor "
                f"of 1440, got {raw}$")):
            SyntheticCitySpec.from_kv(kv)
    else:
        assert SyntheticCitySpec.from_kv(kv).interval_minutes == int(raw)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 7), st.data())
def test_window_nodes_index_as_the_tiled_ids(count, n_nodes, data):
    ids = make_windows(np.zeros((count + 1, n_nodes)), 1, 1).node_ids
    # one id per node is held, broadcast to every start
    assert ids.base.base.size == n_nodes
    tiled = np.tile(np.arange(n_nodes, dtype=np.intp), count)
    size = count * n_nodes
    index = data.draw(st.one_of(
        st.integers(-size, size - 1),
        st.lists(st.integers(-size, size - 1), max_size=20).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.builds(slice, st.none() | st.integers(-size - 2, size + 2),
                  st.none() | st.integers(-size - 2, size + 2),
                  st.none() | st.integers(1, 4) | st.integers(-4, -1))))
    got, want = ids[index], tiled[index]
    assert np.asarray(got).dtype == want.dtype and np.array_equal(got, want)
    for bad in (size, -size - 1, np.array([0, size])):
        with pytest.raises(IndexError):
            ids[bad]
