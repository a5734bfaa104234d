import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from crosscity.data import (DataError, INTERVALS_PER_DAY, NormalizationStats,
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
        s = series_of([[1.0], [2.0], [3.0]])
        st = NormalizationStats.fit(s)
        assert st.mean == 2.0
        assert abs(st.std - np.sqrt(2.0 / 3.0)) < 1e-15  # population std
        z = normalize(s, st).signal()
        expect = np.array([-1.2247448713915890, 0.0, 1.2247448713915890])
        assert np.allclose(z[:, 0], expect, atol=1e-12)

    def test_round_trip(self, rng):
        s = series_of(rng.random((50, 3)) * 100)
        st = NormalizationStats.fit(s)
        back = denormalize_values(normalize(s, st).signal(), st)
        assert np.allclose(back, s.signal(), atol=1e-12)

    def test_constant_series_guard(self):
        s = series_of(np.full((10, 2), 7.0))
        st = NormalizationStats.fit(s)
        assert st.std == 1.0
        assert np.allclose(normalize(s, st).signal(), 0.0)

    def test_read_counter(self):
        s = series_of([[1.0], [2.0]])
        assert s.read_count == 0
        s.signal()
        s.signal()
        assert s.read_count == 2


class TestWindows:
    def test_count_one_day(self):
        s = series_of(np.zeros((288, 4)))
        ds = make_windows(s, 12, 12)
        assert len(ds) == (288 - 12 - 12 + 1) * 4 == 265 * 4

    def test_minimal_length(self):
        s = series_of(np.zeros((24, 1)))
        assert len(make_windows(s, 12, 12)) == 1
        with pytest.raises(DataError, match="too short"):
            make_windows(series_of(np.zeros((23, 1))), 12, 12)

    def test_adjacency_of_input_and_target(self):
        t = np.arange(30, dtype=float)
        ds = make_windows(series_of(t[:, None]), 4, 3)
        for i in range(len(ds)):
            window = np.concatenate([ds.inputs[i, :, 0], ds.targets[i, :, 0]])
            assert np.array_equal(window, np.arange(i, i + 7, dtype=float))

    def test_shapes(self, rng):
        ds = make_windows(series_of(rng.random((40, 3))), 12, 6)
        assert ds.inputs.shape == (23 * 3, 12, 1)
        assert ds.targets.shape == (23 * 3, 6, 1)
        assert ds.node_ids.shape == (23 * 3,)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 8),
           st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_equals_loop_of_copies(self, t_len, n_nodes, history, horizon,
                                   seed):
        x = np.random.default_rng(seed).standard_normal((t_len, n_nodes))
        if t_len < history + horizon:
            for make in (make_windows, composed.make_windows):
                with pytest.raises(DataError, match="too short"):
                    make(series_of(x), history, horizon)
            return
        got = make_windows(series_of(x), history, horizon)
        want = composed.make_windows(series_of(x), history, horizon)
        assert got.node_ids.dtype == want.node_ids.dtype == np.intp
        for key in ("node_ids", "inputs", "targets"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key

    def test_read_only_views_of_the_series(self, rng):
        s = series_of(rng.random((30, 4)))
        ds = make_windows(s, 5, 3)
        for arr in (ds.inputs, ds.targets):
            assert np.shares_memory(arr, s.signal())
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0


class TestSplit:
    def test_segment_arithmetic(self):
        s = series_of(np.arange(1000, dtype=float)[:, None])
        tr, va, te = chrono_split(s, (0.7, 0.1, 0.2))
        assert (tr.n_steps, va.n_steps, te.n_steps) == (700, 100, 200)
        assert tr.signal()[-1, 0] == 699.0
        assert va.signal()[0, 0] == 700.0
        assert te.signal()[0, 0] == 800.0

    def test_bad_ratios(self):
        s = series_of(np.zeros((100, 1)))
        with pytest.raises(DataError, match="sum to 1"):
            chrono_split(s, (0.5, 0.2, 0.2))

    def test_too_short_segment(self):
        s = series_of(np.zeros((60, 1)))
        with pytest.raises(DataError, match="shorter than"):
            chrono_split(s, (0.7, 0.1, 0.2), history=12, horizon=12)

    def test_train_days_truncation(self):
        days = 10
        s = series_of(np.arange(days * 288, dtype=float)[:, None])
        tr, _, _ = chrono_split(s, train_days=2)
        assert tr.n_steps == 2 * 288
        # the last two whole days of the 70% train segment
        assert tr.signal()[-1, 0] == 0.7 * days * 288 - 1


class TestCsv:
    def test_round_trip(self, rng, tmp_path):
        g = RoadGraph(3, [(0, 1), (1, 2)])
        s = series_of(rng.random((20, 3)) * 500, domain="demo")
        path = tmp_path / "demo.csv"
        save_series(s, path)
        back = load_series(path, g, domain="demo")
        assert np.array_equal(back.signal(), s.signal())
        assert back.start == s.start

    def test_rejects_gap(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "timestamp,node0\n"
            "2024-01-01T00:00:00,1.0\n"
            "2024-01-01T00:15:00,2.0\n")
        with pytest.raises(DataError, match="gap"):
            load_series(path, RoadGraph(1, []))

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
        assert SyntheticCitySpec.from_kv(spec.to_kv()) == spec

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

    def test_load_spec_bad_value_names_file(self, tmp_path):
        path = tmp_path / "c.spec"
        path.write_text("name = ville\nn_nodes = ten\n")
        with pytest.raises(DataError) as exc:
            load_spec(path)
        msg = str(exc.value)
        assert msg.startswith(f"{path}: ")
        assert "'n_nodes'" in msg and "'ten'" in msg


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
        assert all(g.degree(v) > 0 for v in range(9))

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
        assert series.n_nodes == 1


@pytest.mark.parametrize("n", [2, 5, 60, 480, 520])
def test_random_geometric_edges_equal_the_pairwise_norm_loop(n):
    for seed in range(4 if n < 400 else 2):
        got_rng = np.random.default_rng([seed, 0xC17F])
        want_rng = np.random.default_rng([seed, 0xC17F])
        got = _random_geometric_edges(n, got_rng)
        want = composed.random_geometric_edges(n, want_rng)
        assert got == want, (n, seed)  # the same edges in the same order
        assert got_rng.random() == want_rng.random()  # the same draws


def test_random_geometric_city_equals_the_pairwise_norm_loop():
    spec = SyntheticCitySpec(n_nodes=70, topology="random-geometric", days=1,
                             seed=11)
    g, _ = synth_generate(spec)
    want = composed.random_geometric_edges(
        70, np.random.default_rng([11, 0xC17F]))
    assert g.edges == RoadGraph(70, want).edges
