"""Experiment configuration: every knob of both training stages, JSON
serializable and hashable so runs are reproducible byte for byte."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .textio import ABOVE_0, AT_LEAST_0, AT_LEAST_1, CITY_NAMES, check_fields, parse_fields


class VariantUses(NamedTuple):
    """The parts of the protocol a model variant uses."""
    pretrain: bool          # stage-1 pre-training on the source cities
    adversary: bool         # the domain classifier during pre-training
    shared_encoder: bool    # the (pre-trained) shared spatial encoder
    private_encoder: bool   # the fine-tuning private encoder and combiner


_VARIANT_USES = {
    "full": VariantUses(True, True, True, True),
    "wo_da": VariantUses(True, False, True, True),
    "wo_pri": VariantUses(True, True, True, False),
    "target_only": VariantUses(False, False, True, True),
    "temporal_forecaster": VariantUses(False, False, False, False),
}
VARIANTS = tuple(_VARIANT_USES)


def variant_uses(variant):
    """What `variant` uses; ValueError for an unknown name."""
    try:
        return _VARIANT_USES[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


def variant_stages(variant):
    """The pipeline stages `variant` runs, in order; the one place that
    list is decided."""
    pretrain = ("pretrain",) if variant_uses(variant).pretrain else ()
    return ("embed", *pretrain, "finetune", "evaluate")


def check_pretrain(variant, sources):
    """ValueError unless pre-training may run: `variant` has a pretrain
    stage and `sources`, the source cities, are not empty. The one place
    that rule is decided."""
    stages = variant_stages(variant)
    if "pretrain" not in stages:
        raise ValueError(f"pretrain does not apply to variant {variant!r}, "
                         f"whose stages are {', '.join(stages)}")
    if not sources:
        raise ValueError(f"config key 'source_domains' is empty, but variant "
                         f"{variant!r} pre-trains on at least one source city")


# the rules of each bounded key, checked in order once its kind is; a null
# train-days value means every day
_RULES = {
    **dict.fromkeys(
        ("history", "horizon", "embed_dim", "hidden_dim", "gin_layers",
         "classifier_hidden", "walks_per_node", "skipgram_window",
         "skipgram_epochs", "batch_size", "pretrain_epochs",
         "pretrain_batches_per_epoch", "finetune_max_epochs",
         "finetune_batches_per_epoch", "early_stop_patience",
         "source_train_days", "target_train_days"), (AT_LEAST_1,)),
    # a walk of one node holds no (center, context) pair
    "walk_length": (("at least 2", lambda v: v >= 2),),
    # the forecaster reads one traffic value per node and step
    "n_features": (("exactly 1", lambda v: v == 1),),
    **dict.fromkeys(("skipgram_negatives", "eta", "seed"), (AT_LEAST_0,)),
    **dict.fromkeys(("walk_p", "walk_q", "learning_rate", "skipgram_lr",
                     "grad_clip_norm"), (ABOVE_0,)),
    "momentum": (("a value in [0, 1)", lambda v: 0 <= v < 1),),
    "split_ratios": (("three positive ratios summing to 1",
                      lambda v: len(v) == 3 and all(r > 0 for r in v)
                      and abs(sum(v) - 1.0) <= 1e-9),),
    **dict.fromkeys(("source_domains", "target_domain"), (CITY_NAMES,)),
}


@dataclass
class ExperimentConfig:
    source_domains: list = field(default_factory=list)
    target_domain: str = "target"

    history: int = 12           # H'
    horizon: int = 12           # H
    n_features: int = 1
    embed_dim: int = 64         # D_e == D_f
    hidden_dim: int = 64
    gin_layers: int = 1
    classifier_hidden: int = 32

    # node2vec
    walk_p: float = 1.0
    walk_q: float = 1.0
    walks_per_node: int = 200
    walk_length: int = 8
    skipgram_window: int = 3
    skipgram_negatives: int = 5
    skipgram_epochs: int = 5
    skipgram_lr: float = 0.025

    # optimization
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    grad_clip_norm: float = 5.0
    pretrain_epochs: int = 200
    pretrain_batches_per_epoch: int = 20
    finetune_max_epochs: int = 2000
    finetune_batches_per_epoch: int = 40
    early_stop_patience: int = 50
    eta: float = 10.0           # adaptation-schedule steepness

    # data
    split_ratios: tuple = (0.7, 0.1, 0.2)
    source_train_days: int = None
    target_train_days: int = None

    seed: int = 0

    def to_dict(self):
        d = asdict(self)
        d["split_ratios"] = list(self.split_ratios)
        return d

    @classmethod
    def from_dict(cls, d):
        """The config of a JSON object. Each value must have its field's
        kind and pass its key's rules (``_RULES``, which also refuse a city
        name that is empty or holds whitespace, '/' or ','), and is kept as it
        is, so the hash sees what the JSON said. The source domains must be
        distinct and exclude the target."""
        if not isinstance(d, dict):
            raise ValueError(f"a config is a JSON object, got {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        check_fields(d, cls(), _RULES, "config")
        cfg = cls(**d)
        cfg.split_ratios = tuple(cfg.split_ratios)
        cfg.source_domains = list(cfg.source_domains)
        sources = cfg.source_domains
        if len(set(sources)) < len(sources) or cfg.target_domain in sources:
            raise ValueError(
                f"config keys 'source_domains' {sources} and 'target_domain' "
                f"{cfg.target_domain!r}: the sources must be distinct and "
                f"exclude the target")
        return cfg

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """from_dict of the JSON text; ValueError names both lines of a key
        that appears twice in one object."""
        def unique(pairs):
            for again, (key, _) in enumerate(pairs):
                if key in dict(pairs[:again]):
                    # every string of the text in turn, and a key's colon
                    lines = [text.count("\n", 0, m.start()) + 1 for m in
                             re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?', text)
                             if m.group(2) and json.loads(m.group(1)) == key]
                    raise ValueError(f"config key {key!r} appears on lines "
                                     f"{lines[0]} and {lines[1]}")
            return dict(pairs)

        return cls.from_dict(json.loads(text, object_pairs_hook=unique))

    def config_hash(self):
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def with_overrides(self, overrides):
        """Apply key=value overrides, each read as its field's kind."""
        fields = parse_fields(overrides, ExperimentConfig(), "config")
        return ExperimentConfig.from_dict({**self.to_dict(), **fields})
