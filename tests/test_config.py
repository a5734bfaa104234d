import pytest

from crosscity import config, data
from crosscity.config import (VARIANTS, ExperimentConfig, check_pretrain,
                              variant_stages, variant_uses)


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
        ("eta", -1.0), ("eta", -1e-9), ("n_features", 2), ("n_features", 0),
        ("grad_clip_norm", 0.0), ("grad_clip_norm", -1.0),
        ("early_stop_patience", 0), ("early_stop_patience", -5),
        ("target_domain", "a b"), ("target_domain", "x/y"),
        ("target_domain", "tab\tcity"), ("source_domains", ["ok", "b c"]),
        ("source_domains", ["a/b"]), ("walk_length", 1), ("target_domain", "a,b"),
        ("source_domains", ["ok", "a,b"]),
    ])
    def test_value_out_of_range_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^config key '{key}': expected"):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, raw", [
        ("target_train_days", "0"), ("horizon", "0"), ("batch_size", "0"),
        ("learning_rate", "-1.0"), ("momentum", "1.5"),
        ("split_ratios", "0.5;0.5;0.5"), ("eta", "-1"), ("n_features", "2"),
        ("grad_clip_norm", "-1"), ("early_stop_patience", "-5"),
        ("target_domain", "x/y"), ("source_domains", "a;b c"),
        ("walk_length", "1"), ("target_domain", "a,b"),
    ])
    def test_override_out_of_range_refused(self, key, raw):
        with pytest.raises(ValueError, match=f"^config key '{key}': expected"):
            ExperimentConfig().with_overrides({key: raw})

    @pytest.mark.parametrize("key, value", [
        ("target_train_days", None), ("target_train_days", 1),
        ("horizon", 1), ("momentum", 0.0), ("momentum", 0.99),
        ("learning_rate", 1e-9), ("split_ratios", [0.6, 0.2, 0.2]),
        ("skipgram_window", 1), ("skipgram_negatives", 0), ("walk_q", 1e-9),
        ("source_domains", []), ("eta", 0.0), ("eta", 0), ("n_features", 1),
        ("grad_clip_norm", 1e-9), ("early_stop_patience", 1),
        ("target_domain", "pems-04"), ("source_domains", ["st.louis", "z\u00fcrich"]),
        ("walk_length", 2),
    ])
    def test_value_at_the_edge_of_its_range_kept(self, key, value):
        cfg = ExperimentConfig.from_dict({key: value})
        assert getattr(cfg, key) == (tuple(value) if key == "split_ratios"
                                     else value)


    @pytest.mark.parametrize("rules, record", [
        (config._RULES, ExperimentConfig),
        (data._SPEC_RULES, data.SyntheticCitySpec),
    ], ids=["config", "spec"])
    def test_every_rule_key_is_a_field(self, rules, record):
        # a misspelled key would silently check nothing
        assert set(rules) <= set(record.__dataclass_fields__)


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


def test_variant_stages():
    assert {v: variant_stages(v) for v in VARIANTS} == {
        "full": ("embed", "pretrain", "finetune", "evaluate"),
        "wo_da": ("embed", "pretrain", "finetune", "evaluate"),
        "wo_pri": ("embed", "pretrain", "finetune", "evaluate"),
        "target_only": ("embed", "finetune", "evaluate"),
        "temporal_forecaster": ("embed", "finetune", "evaluate"),
    }
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        variant_stages("nope")


def test_check_pretrain():
    for variant in ("full", "wo_da", "wo_pri"):
        check_pretrain(variant, ["a"])
        with pytest.raises(ValueError, match=(
                f"^config key 'source_domains' is empty, but variant "
                f"'{variant}' pre-trains on at least one source city$")):
            check_pretrain(variant, [])
    for variant in ("target_only", "temporal_forecaster"):
        for sources in (["a"], []):
            with pytest.raises(ValueError, match=(
                    f"^pretrain does not apply to variant '{variant}', whose "
                    f"stages are embed, finetune, evaluate$")):
                check_pretrain(variant, sources)


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="^config key 'seed': expected at "
                                         "least 0, got -1$"):
        ExperimentConfig.from_dict({"seed": -1})
    with pytest.raises(ValueError, match="^config key 'seed': expected"):
        ExperimentConfig().with_overrides({"seed": "-3"})
    assert ExperimentConfig.from_dict({"seed": 0}).seed == 0


def test_bad_city_name_message_says_what_a_name_may_hold():
    for key, value in (("target_domain", "x/y"), ("source_domains", ["ok", ""])):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_dict({key: value})
        assert str(exc.value) == (
            f"config key {key!r}: expected city names that are not empty and "
            f"hold no whitespace, '/' or ',', got {value!r}")


class TestRepeatedKeys:
    def test_json_key_repeated_names_both_lines(self):
        text = '{\n  "seed": 1,\n  "target_domain": "a\\"seed\\":",\n  "seed": 2\n}\n'
        with pytest.raises(ValueError, match=(
                "^config key 'seed' appears on lines 2 and 4$")):
            ExperimentConfig.from_json(text)

    def test_json_key_spelled_two_ways_is_one_key(self):
        with pytest.raises(ValueError, match="^config key 'seed' appears on lines 1 and 3$"):
            ExperimentConfig.from_json('{"seed": 1,\n"horizon": 3,\n"s\\u0065ed": 2}')
