import pytest

from crosscity.config import VARIANTS, ExperimentConfig, variant_uses


class TestSerialization:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(source_domains=["a", "b"], target_domain="t",
                               embed_dim=32, seed=9)
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.split_ratios == (0.7, 0.1, 0.2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"learning_rat": 0.1})

    def test_hash_stability_and_sensitivity(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=1)
        c = ExperimentConfig(seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16


class TestFieldKinds:
    @pytest.mark.parametrize("key, value", [
        ("horizon", "3"), ("horizon", 3.0), ("embed_dim", True),
        ("learning_rate", True), ("learning_rate", "0.1"),
        ("source_domains", "a"), ("source_domains", ["a", 1]),
        ("split_ratios", [0.7, "x", 0.2]), ("target_domain", 5),
        ("target_train_days", 1.5),
    ])
    def test_value_of_another_kind_refused(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}': expected"):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("d", [None, [["horizon", 3]], "horizon"])
    def test_config_is_an_object(self, d):
        with pytest.raises(ValueError, match="a config is a JSON object"):
            ExperimentConfig.from_dict(d)

    def test_values_are_kept_so_hashes_hold(self):
        # an int where a float is expected stays an int, as before
        cfg = ExperimentConfig.from_dict({"learning_rate": 1,
                                          "target_train_days": None})
        assert type(cfg.learning_rate) is int
        assert cfg.config_hash() == "4f4b7d0a2b50cb51"

    @pytest.mark.parametrize("sources", [["a", "a"], ["a", "t"]])
    def test_sources_distinct_and_exclude_the_target(self, sources):
        with pytest.raises(ValueError, match="'source_domains'"):
            ExperimentConfig.from_dict({"source_domains": sources,
                                        "target_domain": "t"})
        with pytest.raises(ValueError, match="'source_domains'"):
            ExperimentConfig(target_domain="t").with_overrides(
                {"source_domains": ";".join(sources)})


class TestRanges:
    @pytest.mark.parametrize("key, value", [
        ("target_train_days", 0), ("target_train_days", -1),
        ("source_train_days", 0), ("horizon", 0), ("history", -3),
        ("batch_size", 0), ("embed_dim", 0), ("hidden_dim", 0),
        ("pretrain_epochs", 0), ("finetune_max_epochs", 0),
        ("skipgram_epochs", 0), ("walks_per_node", 0), ("walk_length", 0),
        ("finetune_batches_per_epoch", 0), ("learning_rate", -1.0),
        ("learning_rate", 0), ("skipgram_lr", 0.0), ("momentum", 1.5),
        ("momentum", 1.0), ("momentum", -0.1),
        ("split_ratios", [0.5, 0.5, 0.5]), ("split_ratios", [1.2, -0.1, -0.1]),
        ("split_ratios", [0.0, 0.5, 0.5]), ("split_ratios", [0.5, 0.5]),
        ("skipgram_window", 0), ("skipgram_negatives", -1), ("walk_p", 0.0),
        ("walk_q", -1.0), ("target_domain", ""), ("source_domains", ["a", ""]),
    ])
    def test_value_out_of_range_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^config key '{key}': expected"):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, raw", [
        ("target_train_days", "0"), ("horizon", "0"), ("batch_size", "0"),
        ("learning_rate", "-1.0"), ("momentum", "1.5"),
        ("split_ratios", "0.5;0.5;0.5"),
    ])
    def test_override_out_of_range_refused(self, key, raw):
        with pytest.raises(ValueError, match=f"^config key '{key}': expected"):
            ExperimentConfig().with_overrides({key: raw})

    @pytest.mark.parametrize("key, value", [
        ("target_train_days", None), ("target_train_days", 1),
        ("horizon", 1), ("momentum", 0.0), ("momentum", 0.99),
        ("learning_rate", 1e-9), ("split_ratios", [0.6, 0.2, 0.2]),
        ("skipgram_window", 1), ("skipgram_negatives", 0), ("walk_q", 1e-9),
        ("source_domains", []),
    ])
    def test_value_at_the_edge_of_its_range_kept(self, key, value):
        cfg = ExperimentConfig.from_dict({key: value})
        assert getattr(cfg, key) == (tuple(value) if key == "split_ratios"
                                     else value)


class TestOverrides:
    def test_typed_coercion(self):
        cfg = ExperimentConfig().with_overrides({
            "learning_rate": "0.05", "batch_size": "32",
            "target_domain": "metro", "split_ratios": "0.8;0.1;0.1"})
        assert cfg.learning_rate == 0.05
        assert cfg.batch_size == 32
        assert cfg.target_domain == "metro"
        assert cfg.split_ratios == (0.8, 0.1, 0.1)

    def test_unknown_override(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig().with_overrides({"nope": "1"})

    def test_list_keys_keep_their_item_type(self):
        cfg = ExperimentConfig().with_overrides(
            {"source_domains": "1;2", "split_ratios": "0.5;0.25;0.25"})
        assert cfg.source_domains == ["1", "2"]
        assert cfg.split_ratios == (0.5, 0.25, 0.25)
        assert all(type(r) is float for r in cfg.split_ratios)

    def test_optional_int(self):
        cfg = ExperimentConfig(target_train_days=3).with_overrides(
            {"target_train_days": "1"})
        assert cfg.target_train_days == 1


def test_variant_names():
    assert VARIANTS == ("full", "wo_da", "wo_pri", "target_only",
                        "temporal_forecaster")


def test_variant_uses():
    assert [v for v in VARIANTS if variant_uses(v).pretrain] == [
        "full", "wo_da", "wo_pri"]
    assert [v for v in VARIANTS if variant_uses(v).adversary] == [
        "full", "wo_pri"]
    assert not variant_uses("temporal_forecaster").shared_encoder
    assert [v for v in VARIANTS if not variant_uses(v).private_encoder] == [
        "wo_pri", "temporal_forecaster"]
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        variant_uses("nope")
