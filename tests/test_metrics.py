import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosscity import metrics
from crosscity.checkpoint import Checkpoint
from crosscity.config import ExperimentConfig, variant_uses
from crosscity.data import NormalizationStats, TrafficSeries
from crosscity.graph import RoadGraph
from crosscity.metrics import (MetricError, MetricReport, compare_variants,
                               domain_confusion_probe, evaluate, evaluate_ha,
                               mae, mape, rmse, write_comparison_csv)
from crosscity.train import DomainData, FinetuneModel

import composed


class TestPointMetrics:
    def test_hand_values(self):
        y, y_hat = [1.0, 3.0], [2.0, 5.0]
        assert mae(y, y_hat) == 1.5
        assert abs(rmse(y, y_hat) - np.sqrt(2.5)) < 1e-15

    def test_perfect_prediction(self, rng):
        y = rng.random(20)
        assert mae(y, y) == 0.0 and rmse(y, y) == 0.0

    def test_rmse_at_least_mae(self, rng):
        for _ in range(100):
            y = rng.standard_normal(30) * 50
            y_hat = y + rng.standard_normal(30) * 5
            assert rmse(y, y_hat) >= mae(y, y_hat) - 1e-12

    def test_errors(self):
        with pytest.raises(MetricError):
            mae([], [])
        with pytest.raises(MetricError):
            rmse([1.0], [1.0, 2.0])

    def test_shapes_must_match(self):
        # every caller scores truth and predictions of one shape
        for metric in (mae, rmse, mape):
            with pytest.raises(MetricError, match=r"bad shapes \(2, 3\) vs \(6,\)"):
                metric(np.ones((2, 3)), np.ones(6))

    def test_mape_hand_value(self):
        value, _ = mape([100.0], [90.0])
        assert abs(value - 0.1) < 1e-15

    def test_mape_exclusion(self):
        # the 0.5 vph sample sits below the 1 vph threshold and is skipped
        value, count = mape([0.5, 100.0], [5.0, 90.0])
        assert abs(value - 0.1) < 1e-15
        assert count == 1

    def test_mape_all_excluded(self):
        with pytest.raises(MetricError, match="threshold"):
            mape([0.1, 0.2], [1.0, 1.0])

    def test_mape_matches_naive_oracle(self, rng):
        for _ in range(100):
            y = rng.standard_normal(40) * 100
            y_hat = y + rng.standard_normal(40) * 10
            keep = np.abs(y) > 1.0
            expect = float(np.mean(np.abs((y[keep] - y_hat[keep]) / y[keep])))
            value, _ = mape(y, y_hat)
            assert abs(value - expect) < 1e-12


class TestEvaluateHa:
    def test_mean_of_window(self):
        # period-3 series 1,2,3,...: every 3-step window averages 2.0, so a
        # forecast of the window mean at every horizon step errs by |y - 2|
        config = ExperimentConfig(history=3, horizon=4, target_domain="t")
        values = np.tile([1.0, 2.0, 3.0], 34)[:100, None]
        target = DomainData("t", RoadGraph(1, []), None,
                            TrafficSeries(values))
        reports = evaluate_ha(config, target, horizons=(1, 2, 3, 4))
        test = values[80:, 0]
        for rep in reports:
            y = np.array([test[s + 3:s + 3 + rep.horizon]
                          for s in range(len(test) - 3 - 4 + 1)])
            pred = np.full(y.shape, 2.0)
            assert rep.mae == pytest.approx(mae(y, pred), abs=1e-12)
            assert rep.rmse == pytest.approx(rmse(y, pred), abs=1e-12)
            assert rep.n_samples == y.size

    def test_reports_equal_those_of_the_loop_of_copies(self, rng,
                                                       monkeypatch):
        config = ExperimentConfig(history=12, horizon=12, target_domain="t")
        values = 200.0 + 150.0 * rng.random((600, 9))
        target = DomainData("t", RoadGraph(9, []), None,
                            TrafficSeries(values))
        got = evaluate_ha(config, target, (3, 6, 12))
        monkeypatch.setattr(metrics, "make_windows", composed.make_windows)
        assert got == evaluate_ha(config, target, (3, 6, 12))

    def test_refuses_a_horizon_past_the_trained_one(self):
        config = ExperimentConfig(history=3, horizon=3, target_domain="t")
        target = DomainData("t", RoadGraph(1, []), None,
                            TrafficSeries(np.ones((100, 1))))
        with pytest.raises(ValueError, match="horizon 6 exceeds trained horizon 3"):
            evaluate_ha(config, target, (3, 6))
        assert target.series.read_count == 0


def test_model_and_ha_are_scored_against_the_same_raw_truth(rng, monkeypatch):
    config = ExperimentConfig(history=4, horizon=3, embed_dim=8, hidden_dim=8,
                              target_domain="t")
    # flows down to near 0 vph, where denormalize(normalize(x)) != x
    values = 400.0 * rng.random((1000, 5))
    graph = RoadGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    target = DomainData("t", graph, rng.standard_normal((5, 8)),
                        TrafficSeries(values))
    model = FinetuneModel(config, variant_uses("target_only"), rng)
    ckpt = Checkpoint("finetuned", config.config_hash(), config.seed,
                      {k: p.data for k, p in model.params().items()},
                      {"t": NormalizationStats(200.0, 115.3)})
    truths = []

    def spy(variant, truth, *rest, real=metrics._reports):
        truths.append(truth)
        return real(variant, truth, *rest)
    monkeypatch.setattr(metrics, "_reports", spy)
    evaluate(ckpt, config, target, (1, 3), "target_only")
    evaluate_ha(config, target, (1, 3))
    model_truth, ha_truth = truths
    assert np.array_equal(model_truth, ha_truth)
    assert np.shares_memory(model_truth, values)  # a view, not a round trip
    assert target.series.read_count == 2  # one split for each scorer
    assert np.array_equal(model_truth[:, :, 0],
                          [values[800 + s + 4:800 + s + 7, v]
                           for s in range(200 - 6) for v in range(5)])


def report(variant, horizon, m, r=None, p=None, domain="metro"):
    return MetricReport(variant=variant, horizon=horizon, mae=m,
                        rmse=r if r is not None else m, mape=p or 0.1,
                        n_samples=100, mape_included=90, seed=0,
                        config_hash="deadbeefdeadbeef", domain=domain)


class TestCompare:
    def test_ten_percent_improvement(self):
        rows = compare_variants(
            [report("ha", 3, 10.0), report("full", 3, 9.0)], "ha")
        full = next(r for r in rows if r["variant"] == "full")
        assert abs(full["impv_pct_mae"] - 10.0) < 1e-12

    def test_reference_improvement_is_zero(self):
        rows = compare_variants([report("ha", 3, 10.0)], "ha")
        assert rows[0]["impv_pct_mae"] == 0.0
        assert rows[0]["impv_pct_rmse"] == 0.0

    def test_mixed_datasets_rejected(self):
        with pytest.raises(MetricError, match="multiple datasets"):
            compare_variants(
                [report("ha", 3, 1.0, domain="a"),
                 report("full", 3, 1.0, domain="b")], "ha")

    def test_second_report_of_a_variant_and_horizon_refused(self):
        again = dataclasses.replace(report("full", 3, 8.0), seed=1)
        with pytest.raises(MetricError, match="^two reports of variant 'full' "
                                              "at horizon 3, of seeds 0 and 1$"):
            compare_variants([report("ha", 3, 10.0), report("full", 3, 9.0),
                              again], "ha")
        rows = compare_variants([report("ha", 3, 10.0), report("full", 6, 9.0),
                                 report("ha", 6, 10.0), again], "ha")
        assert [(r["variant"], r["horizon"]) for r in rows] == [
            ("full", 3), ("ha", 3), ("full", 6), ("ha", 6)]

    def test_reports_of_different_configs_refused(self):
        other = dataclasses.replace(report("full", 3, 9.0), config_hash="feedfacefeedface")
        with pytest.raises(MetricError, match="^reports of different configs: config "
                                              "hashes deadbeefdeadbeef, feedfacefeedface$"):
            compare_variants([report("ha", 3, 10.0), other], "ha")

    def test_reference_lacking_a_horizon_refused(self):
        with pytest.raises(MetricError, match=(
                "^variant 'full' reports horizon 6, of which reference variant "
                "'ha' has no report$")):
            compare_variants([report("ha", 3, 10.0), report("full", 3, 9.0),
                              report("full", 6, 9.0)], "ha")

    def test_missing_reference(self):
        with pytest.raises(MetricError, match="reference"):
            compare_variants([report("full", 3, 1.0)], "ha")

    def test_csv_writing(self, tmp_path):
        rows = compare_variants(
            [report("ha", 3, 10.0), report("full", 3, 8.0)], "ha")
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("variant,horizon,mae")
        assert len(lines) == 3


class TestReportIo:
    def test_round_trip(self, tmp_path):
        rep = report("full", 6, 12.5, 15.25, 0.085)
        path = tmp_path / "rep.txt"
        rep.write(path)
        assert MetricReport.read(path) == rep

    def test_values_are_never_executed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "rep.txt"
        report("full", 3, 1.0).write(path)
        path.write_text(path.read_text().replace(
            "mae=1.0", "mae=open('pwned', 'w')"))
        with pytest.raises(MetricError, match="mae"):
            MetricReport.read(path)
        assert not (tmp_path / "pwned").exists()

    def test_unknown_key_and_malformed_line(self, tmp_path):
        path = tmp_path / "rep.txt"
        report("full", 3, 1.0).write(path)
        good = path.read_text()
        for extra in ("wheels=4\n", "no separator here\n"):
            path.write_text(good + extra)
            with pytest.raises(MetricError, match="line 12"):
                MetricReport.read(path)
        path.write_text(good.replace("seed=0\n", ""))
        with pytest.raises(MetricError, match="seed"):
            MetricReport.read(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "rep.txt"
        report("full", 3, 1.0).write(path)
        path.write_text(path.read_text() + "mae=2.0\n")
        with pytest.raises(MetricError) as exc:
            MetricReport.read(path)
        assert str(exc.value) == f"{path}: report key 'mae' appears on lines 4 and 12"

    @pytest.mark.parametrize("line, key, kind", [
        ("horizon='3'", "horizon", "int"),
        ("mae='x'", "mae", "float"),
        ("seed=None", "seed", "int"),
        ("n_samples=True", "n_samples", "int"),
    ], ids=["str-horizon", "str-mae", "none-seed", "bool-int"])
    def test_value_of_another_kind_refused(self, tmp_path, line, key, kind):
        path = tmp_path / "rep.txt"
        report("full", 3, 1.0).write(path)
        lines = [line if ln.startswith(f"{key}=") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetricError, match=(
                f"^{re.escape(str(path))}: report key '{key}': "
                f"expected {kind}, got ")):
            MetricReport.read(path)

    @pytest.mark.parametrize("line, key, expects", [
        ("horizon=-3", "horizon", "at least 1"),
        ("n_samples=0", "n_samples", "at least 1"),
        ("seed=-1", "seed", "at least 0"),
        ("mape_included=-1", "mape_included", "at least 0"),
        ("mae=-0.5", "mae", "at least 0"),
        ("rmse=-0.5", "rmse", "at least 0"),
        ("mape=-0.5", "mape", "at least 0"),
        ("variant='bogus'", "variant", "one of full, .* or ha"),
        ("mape_threshold=-7.0", "mape_threshold", "a value above 0"),
        ("mape_threshold=0", "mape_threshold", "a value above 0"),
    ], ids=["horizon", "n_samples", "seed", "mape_included", "mae", "rmse", "mape",
            "variant", "mape_threshold", "zero-mape_threshold"])
    def test_value_out_of_range_refused(self, tmp_path, line, key, expects):
        path = tmp_path / "rep.txt"
        report("full", 3, 1.0).write(path)
        lines = [line if ln.startswith(f"{key}=") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetricError, match=(
                f"^{re.escape(str(path))}: report key '{key}': "
                f"expected {expects}, got {re.escape(line.partition('=')[2])}$")):
            MetricReport.read(path)

    @pytest.mark.parametrize("line, key, got", [
        ("mae=1e999", "mae", "inf"),
        ("rmse=-1e999", "rmse", "-inf"),
        ("mape=1e999", "mape", "inf"),
        ("mape_threshold=1e999", "mape_threshold", "inf"),
    ], ids=["mae", "rmse", "mape", "mape_threshold"])
    def test_non_finite_value_refused(self, tmp_path, line, key, got):
        path = tmp_path / "rep.txt"
        report("full", 3, 1.0).write(path)
        lines = [line if ln.startswith(f"{key}=") else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MetricError, match=(
                f"^{re.escape(str(path))}: report key '{key}': "
                f"expected a finite value, got {got}$")):
            MetricReport.read(path)

    def test_more_mape_samples_than_samples_refused(self, tmp_path):
        path = tmp_path / "rep.txt"
        report("full", 3, 1.0).write(path)
        path.write_text(path.read_text().replace("mape_included=90\n",
                                                 "mape_included=101\n"))
        with pytest.raises(MetricError, match=(
                f"^{re.escape(str(path))}: mape_included 101 exceeds n_samples 100$")):
            MetricReport.read(path)


class TestProbe:
    def test_separable_embeddings_score_high(self, rng):
        a = rng.standard_normal((60, 8)) + 5.0
        b = rng.standard_normal((60, 8)) - 5.0
        assert domain_confusion_probe([a, b], seed=1) > 0.95

    def test_identical_clouds_near_chance(self, rng):
        x = rng.standard_normal((200, 8))
        acc = domain_confusion_probe([x, x.copy()], seed=1)
        assert acc < 0.7

    def test_range(self, rng):
        acc = domain_confusion_probe(
            [rng.standard_normal((30, 4)), rng.standard_normal((30, 4))])
        assert 0.0 <= acc <= 1.0


class TestStridedTruth:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_scores_equal_the_expressions_on_flat_copies(self, windows, horizon, seed):
        # the strided (B, h, 1) truth views and contiguous predictions that
        # evaluate scores, against the expressions on flat copies
        r = np.random.default_rng(seed)
        series = np.abs(r.standard_normal((windows + horizon, 1))) * 3.0
        series[r.random(series.shape) < 0.2] *= -1.0
        y = np.lib.stride_tricks.sliding_window_view(series[:, 0], horizon)[:, :, None]
        y_hat = r.standard_normal(y.shape) * 3.0
        fy, fp = y.reshape(-1), y_hat.reshape(-1)
        assert mae(y, y_hat) == float(np.abs(fy - fp).mean())
        assert rmse(y, y_hat) == float(np.sqrt(((fy - fp) ** 2).mean()))
        keep = np.abs(fy) > metrics.MAPE_THRESHOLD
        if not keep.any():
            with pytest.raises(MetricError, match="threshold"):
                mape(y, y_hat)
            return
        want = float((np.abs(fy[keep] - fp[keep]) / np.abs(fy[keep])).mean())
        assert mape(y, y_hat) == (want, int(keep.sum()))


def test_no_horizon_gives_no_report():
    # `crosscity evaluate` scores horizons 3, 6 and 12 up to the config's,
    # so a horizon below 3 asks for none
    config = ExperimentConfig(history=3, horizon=2, target_domain="t")
    target = DomainData("t", RoadGraph(1, []), None,
                        TrafficSeries(np.ones((100, 1))))
    assert evaluate_ha(config, target, ()) == []
