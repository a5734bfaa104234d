import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosscity.checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                                  save_checkpoint)
from crosscity.data import NormalizationStats


def sample_ckpt(rng):
    tensors = {
        "encoder.target.l0.eps": np.array(0.12345),
        "forecaster.theta_u": rng.standard_normal((4, 6)),
        "head.b": rng.standard_normal(8) * 1e-7,  # exercise tiny magnitudes
    }
    stats = {"metro": (217.31234567890123, 54.000000001), "port": (0.0, 1.0)}
    return Checkpoint("finetuned", "ab12cd34ef56ab78", 7, tensors, stats)


class TestRoundTrip:
    def test_bit_exact(self, rng, tmp_path):
        ck = sample_ckpt(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back == ck
        for k in ck.tensors:
            assert back.tensors[k].dtype == np.float64
            assert np.array_equal(back.tensors[k], ck.tensors[k])

    def test_scalar_shape_preserved(self, rng, tmp_path):
        ck = sample_ckpt(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.tensors["encoder.target.l0.eps"].shape == ()

    def test_header_fields(self, rng, tmp_path):
        ck = sample_ckpt(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert (back.stage, back.config_hash, back.seed) == (
            "finetuned", "ab12cd34ef56ab78", 7)
        assert back.stats == ck.stats

    def test_expected_hash_accepted(self, rng, tmp_path):
        ck = sample_ckpt(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ck, path)
        load_checkpoint(path, expect_config_hash="ab12cd34ef56ab78")


class TestErrors:
    def test_truncated(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_text("version=1\nstage=finetuned\n")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_version(self, rng, tmp_path):
        ck = sample_ckpt(rng)
        path = tmp_path / "v.ckpt"
        save_checkpoint(ck, path)
        text = path.read_text().replace("version=1", "version=99", 1)
        path.write_text(text)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_hash_mismatch(self, rng, tmp_path):
        ck = sample_ckpt(rng)
        path = tmp_path / "h.ckpt"
        save_checkpoint(ck, path)
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(path, expect_config_hash="0000000000000000")

    def test_malformed_record(self, rng, tmp_path):
        ck = sample_ckpt(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ck, path)
        path.write_text(path.read_text() + "oops not a record\n")
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    def test_blank_line_refused(self, rng, tmp_path):
        # save_checkpoint writes none, so one is an edit, not a record
        path = tmp_path / "b.ckpt"
        save_checkpoint(sample_ckpt(rng), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5] + ["\n"] + lines[5:]))
        with pytest.raises(CheckpointError, match=(
                f"^{re.escape(str(path))}: line 6: malformed tensor record$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", ["2,x", "-1,-4", "-2,-2"])
    def test_bad_shape_refused(self, tmp_path, shape):
        # -1,-4 and -2,-2 hold the 4 values their product asks for
        path = tmp_path / "bs.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            f"w shape {shape} values 1.0 2.0 3.0 4.0\n")
        with pytest.raises(CheckpointError, match=(
                f"^{re.escape(str(path))}: line 5: bad shape '{shape}'$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape, values, expected", [
        ("4294967296,4294967296", "", 2 ** 64),
        ("4611686018427387905,4", " 1.0 2.0 3.0 4.0", 2 ** 64 + 4),
    ])
    def test_shape_whose_product_overflows_int64_refused(self, tmp_path, shape,
                                                         values, expected):
        # each product wraps in int64 to the count of values the record holds
        path = tmp_path / "big.ckpt"
        path.write_text("version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
                        f"w shape {shape} values{values}\n")
        found = len(values.split())
        with pytest.raises(CheckpointError, match=(
                f"^{re.escape(str(path))}: line 5: w expects {expected} "
                f"values, found {found}$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("text, expect", [
        ("version=1\n", "truncated checkpoint"),
        ("version=1\nstage=finetuned\nconfig_hash=x\nseed=1.5\n",
         "checkpoint seed '1.5' is not an integer"),
        ("version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
         "stats.metro.mean shape - values 1.0\n", "incomplete stats"),
    ], ids=["truncated", "seed", "stats"])
    def test_refusal_names_the_file(self, tmp_path, text, expect):
        path = tmp_path / "p.ckpt"
        path.write_text(text)
        with pytest.raises(CheckpointError,
                           match=f"^{re.escape(str(path))}: {expect}"):
            load_checkpoint(path)

    def test_value_count_mismatch(self, rng, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "w shape 2,2 values 1.0 2.0 3.0\n")
        with pytest.raises(CheckpointError, match="expects 4 values"):
            load_checkpoint(path)

    def test_incomplete_stats(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "stats.metro.mean shape - values 1.0\n")
        with pytest.raises(CheckpointError, match="incomplete stats"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop", ["stage=", "config_hash=", "seed="])
    def test_header_field_missing(self, rng, tmp_path, drop):
        path = tmp_path / "k.ckpt"
        save_checkpoint(sample_ckpt(rng), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if not ln.startswith(drop)))
        with pytest.raises(CheckpointError, match="header lacks " + drop[:-1]):
            load_checkpoint(path)

    def test_seed_not_an_integer(self, rng, tmp_path):
        path = tmp_path / "n.ckpt"
        save_checkpoint(sample_ckpt(rng), path)
        path.write_text(path.read_text().replace("seed=7", "seed=seven", 1))
        with pytest.raises(CheckpointError, match="seed 'seven'"):
            load_checkpoint(path)

    def test_value_not_a_float(self, tmp_path):
        path = tmp_path / "f.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "w shape 2 values 1.0 two\n")
        with pytest.raises(CheckpointError, match="line 5: w"):
            load_checkpoint(path)

    def test_stats_record_not_a_scalar(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "stats.metro.mean shape 2 values 1.0 2.0\n"
            "stats.metro.std shape - values 1.0\n")
        with pytest.raises(CheckpointError, match="not a scalar"):
            load_checkpoint(path)

    def test_repeated_record(self, tmp_path):
        path = tmp_path / "r.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "forecaster.head.b shape 2 values 1.0 2.0\n"
            "w shape - values 0.5\n"
            "forecaster.head.b shape 2 values 3.0 4.0\n")
        with pytest.raises(CheckpointError, match="line 7: forecaster.head.b "
                                                  "repeats the record of line 5"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, bad):
        path = tmp_path / "nf.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            f"w shape 2 values 1.0 {bad}\n")
        with pytest.raises(CheckpointError, match="line 5: w holds a non-finite"):
            load_checkpoint(path)

    def test_non_finite_stats(self, tmp_path):
        path = tmp_path / "ns.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "stats.metro.mean shape - values 1.0\n"
            "stats.metro.std shape - values nan\n")
        with pytest.raises(CheckpointError,
                           match="line 6: stats.metro.std holds a non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("std", ["0.0", "-5.0"])
    def test_std_not_above_zero(self, tmp_path, std):
        path = tmp_path / "zs.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "stats.metro.mean shape - values 1.0\n"
            f"stats.metro.std shape - values {std}\n")
        with pytest.raises(CheckpointError, match=f"line 6: stats.metro.std is "
                                                  f"{std}; a std must be above 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["stats.tee.bogus", "stats.tee.means",
                                      "stats.mean"])
    def test_unknown_stats_record(self, tmp_path, name):
        path = tmp_path / "us.ckpt"
        path.write_text(
            "version=1\nstage=finetuned\nconfig_hash=x\nseed=0\n"
            "stats.tee.mean shape - values 1.0\n"
            f"{name} shape - values 3.0\n"
            "stats.tee.std shape - values 2.0\n")
        with pytest.raises(CheckpointError, match=(
                f"^{re.escape(str(path))}: line 6: {re.escape(name)} is neither "
                "a stats.<domain>.mean nor a .std record$")):
            load_checkpoint(path)


class TestAtomicSave:
    def test_failed_save_keeps_old_file(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(sample_ckpt(rng), path)
        before = path.read_text()
        bad = sample_ckpt(rng)
        bad.tensors["zz.last"] = np.array(["not a number"])  # sorts last
        with pytest.raises(ValueError):
            save_checkpoint(bad, path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


# -- fuzzed round trip ------------------------------------------------------

NAME = st.text("abcxyz019_.", min_size=1, max_size=12).filter(
    lambda n: not n.startswith("stats."))
FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e-300]))


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    size = int(np.prod(shape)) if shape else 1
    vals = draw(st.lists(FLOAT, min_size=size, max_size=size))
    return np.array(vals, dtype=np.float64).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(NAME, tensors(), max_size=5),
       st.dictionaries(NAME, st.tuples(FLOAT, FLOAT), max_size=3))
def test_fuzzed_round_trip_is_bit_exact(tmp_path_factory, tensor_map, stats):
    path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
    ckpt = Checkpoint("pretrained", "0123456789abcdef", 3, tensor_map,
                      {d: NormalizationStats(*ms) for d, ms in stats.items()})
    save_checkpoint(ckpt, path)
    if any(std <= 0 for _, std in stats.values()):
        with pytest.raises(CheckpointError, match="a std must be above 0"):
            load_checkpoint(path)
        ckpt.stats = {d: NormalizationStats(mean, abs(std) or 1.0)
                      for d, (mean, std) in stats.items()}
        save_checkpoint(ckpt, path)
    text = path.read_text()
    back = load_checkpoint(path)
    assert back == ckpt
    save_checkpoint(back, path)
    assert path.read_text() == text
