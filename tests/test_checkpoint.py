"""Checkpoint format: bit-exact round trips and corruption detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxentlab.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from maxentlab.core import LinearSoftmaxModel
from maxentlab.errors import FormatError, IoError


def model_without_map(rng):
    return LinearSoftmaxModel(rng.normal(size=(4, 3)))


def model_with_map(rng):
    return LinearSoftmaxModel(rng.normal(size=(4, 3)), rng.normal(size=(3, 5)))


class TestRoundTrip:
    def test_plain_model(self, rng, tmp_path):
        model = model_without_map(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.feature_map is None

    def test_model_with_feature_map(self, rng, tmp_path):
        model = model_with_map(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.feature_map.tobytes() == model.feature_map.tobytes()

    def test_save_load_save_identical_bytes(self, rng, tmp_path):
        model = model_with_map(rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def float_matrices(rows, cols):
    # every finite float64, signed zeros and subnormals included
    return arrays(np.float64, (rows, cols), elements=st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def models(draw, with_map):
    c, n = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    weights = draw(float_matrices(c, n))
    if not with_map:
        return LinearSoftmaxModel(weights)
    return LinearSoftmaxModel(weights, draw(float_matrices(n, draw(st.integers(1, 6)))))


class TestRoundTripProperty:
    @pytest.mark.parametrize("with_map", [False, True])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_save_load_is_bit_exact(self, tmp_path_factory, with_map, data):
        model = data.draw(models(with_map))
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        if with_map:
            assert loaded.feature_map.tobytes() == model.feature_map.tobytes()
        else:
            assert loaded.feature_map is None


class TestCorruption:
    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model_without_map(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_garbage(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model_without_map(rng), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOT-A-CKPT v9\n2 2 2 0\n" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_dims_payload_mismatch_names_discrepancy(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model_without_map(rng), path)  # 4x3 model, 96 bytes
        blob = path.read_bytes()
        tampered = blob.replace(b"4 3 3 0", b"4 4 4 0", 1)
        path.write_bytes(tampered)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert "96" in str(err.value) and "128" in str(err.value)

    def test_non_integer_dims(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + b"\n2 x 2 0\n" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_dims_line_field_count(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + b"\n2 2 2\n" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_square_without_map_required(self, tmp_path):
        # n != n_raw with has_feature_map = 0 is inconsistent
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + b"\n2 2 3 0\n" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)
