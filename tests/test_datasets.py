"""Tests for the synthetic dataset generators and the benchmark registry."""

import numpy as np
import pytest

from repro import obs
from repro.datasets import registry
from repro.datasets import (
    BENCHMARKS,
    Dataset,
    GLYPHS,
    build_model,
    glyph_strokes,
    load_dataset,
    one_hot,
    render_glyph,
    render_strokes,
    synthetic_faces,
    synthetic_mnist,
    synthetic_svhn,
    synthetic_tich,
)
from repro.datasets.base import balanced_labels


class TestOneHot:
    def test_basic(self):
        encoded = one_hot(np.array([1, 0, 2]), 3)
        np.testing.assert_array_equal(
            encoded, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([-1]), 3)


class TestDatasetContainer:
    def test_flat_views(self):
        data = synthetic_mnist(n_train=10, n_test=5, seed=0)
        assert data.flat_train.shape == (10, 1024)
        assert data.flat_test.shape == (5, 1024)

    def test_subset(self):
        data = synthetic_mnist(n_train=10, n_test=5, seed=0)
        small = data.subset(4, 2)
        assert len(small.x_train) == 4
        assert len(small.x_test) == 2
        np.testing.assert_array_equal(small.x_train, data.x_train[:4])

    def test_subset_too_large(self):
        data = synthetic_mnist(n_train=10, n_test=5, seed=0)
        with pytest.raises(ValueError):
            data.subset(100, 2)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Dataset("broken", np.zeros((3, 1, 2, 2)), np.zeros(2),
                    np.zeros((1, 1, 2, 2)), np.zeros(1), 2)

    def test_balanced_labels(self):
        labels = balanced_labels(100, 10, np.random.default_rng(0))
        counts = np.bincount(labels, minlength=10)
        assert np.all(counts == 10)


class TestStrokeFont:
    def test_all_36_glyphs_defined(self):
        assert len(GLYPHS) == 36
        for char in "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ":
            assert glyph_strokes(char)

    def test_unknown_glyph(self):
        with pytest.raises(KeyError):
            glyph_strokes("@")

    def test_render_range_and_shape(self):
        rng = np.random.default_rng(0)
        image = render_glyph("7", rng, image_size=32)
        assert image.shape == (32, 32)
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert image.max() > 0.5  # something was drawn

    def test_render_deterministic_given_rng_state(self):
        a = render_glyph("3", np.random.default_rng(7))
        b = render_glyph("3", np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_render_strokes_validation(self):
        with pytest.raises(ValueError):
            render_strokes([[(0, 0), (1, 1)]], image_size=2)
        with pytest.raises(ValueError):
            render_strokes([[(0, 0), (1, 1)]], thickness=0.0)

    def test_point_stroke_draws_dot(self):
        image = render_strokes([[(0.5, 0.5), (0.5, 0.5)]], image_size=16,
                               thickness=0.1)
        assert image.max() > 0.9


@pytest.mark.parametrize("factory,n_classes", [
    (synthetic_mnist, 10),
    (synthetic_faces, 2),
    (synthetic_svhn, 10),
    (synthetic_tich, 36),
])
class TestGenerators:
    def test_shapes_and_classes(self, factory, n_classes):
        data = factory(n_train=n_classes * 2, n_test=n_classes, seed=0)
        assert data.n_classes == n_classes
        assert data.x_train.shape[1:] == (1, 32, 32)
        assert data.y_train.min() >= 0
        assert data.y_train.max() < n_classes

    def test_reproducible(self, factory, n_classes):
        a = factory(n_train=8, n_test=4, seed=5)
        b = factory(n_train=8, n_test=4, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_seed_changes_data(self, factory, n_classes):
        a = factory(n_train=8, n_test=4, seed=1)
        b = factory(n_train=8, n_test=4, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_pixel_range(self, factory, n_classes):
        data = factory(n_train=6, n_test=3, seed=0)
        assert data.x_train.min() >= 0.0
        assert data.x_train.max() <= 1.0

    def test_rejects_empty(self, factory, n_classes):
        with pytest.raises(ValueError):
            factory(n_train=0, n_test=1)


class TestDifficultyOrdering:
    """The substitution contract (DESIGN.md §4): faces < mnist < svhn in
    difficulty, measured by a small fixed-budget classifier."""

    @staticmethod
    def _probe_accuracy(data, seed=0):
        from repro.datasets import mlp
        from repro.nn import SGD, Trainer
        model = mlp([data.num_features, 48, data.n_classes], seed=seed)
        trainer = Trainer(model, SGD(model, 0.25), batch_size=32,
                          patience=2)
        history = trainer.fit(data.flat_train, data.y_train_onehot,
                              data.flat_test, data.y_test, max_epochs=8)
        return history.best_accuracy

    def test_svhn_harder_than_mnist(self):
        mnist = self._probe_accuracy(synthetic_mnist(600, 200, seed=0))
        svhn = self._probe_accuracy(synthetic_svhn(600, 200, seed=0))
        assert svhn < mnist

    def test_faces_accuracy_high(self):
        faces = self._probe_accuracy(synthetic_faces(600, 200, seed=0))
        assert faces > 0.85


class TestRegistry:
    def test_all_five_benchmarks(self):
        assert set(BENCHMARKS) == {"mnist_mlp", "mnist_cnn", "face",
                                   "svhn", "tich"}

    @pytest.mark.parametrize("key", list(BENCHMARKS))
    def test_table4_counts_exact(self, key):
        spec = BENCHMARKS[key]
        model = build_model(key)
        assert model.num_params == spec.table4_synapses
        assert model.num_neurons == spec.table4_neurons

    @pytest.mark.parametrize("key", list(BENCHMARKS))
    def test_table4_layer_counts(self, key):
        spec = BENCHMARKS[key]
        model = build_model(key)
        assert len(model.topology().layers) == spec.table4_layers

    def test_load_dataset_passes_counts(self):
        data = load_dataset("face", n_train=6, n_test=4, seed=3)
        assert len(data.x_train) == 6
        assert len(data.x_test) == 4

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            build_model("imagenet")
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_bits_assignment_matches_table4(self):
        assert BENCHMARKS["mnist_mlp"].bits == 8
        assert BENCHMARKS["mnist_cnn"].bits == 12
        assert BENCHMARKS["face"].bits == 12
        assert BENCHMARKS["svhn"].bits == 8
        assert BENCHMARKS["tich"].bits == 8


class TestLoadDatasetMemo:
    """``load_dataset`` keeps its last render, shared and read-only."""

    ARGS = dict(n_train=12, n_test=6, seed=4)

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(registry, "_MEMO", {})
        obs.reset()
        yield
        obs.reset()

    def test_same_arguments_return_same_object(self):
        assert load_dataset("mnist_mlp", **self.ARGS) \
            is load_dataset("mnist_mlp", **self.ARGS)

    def test_values_match_direct_generation(self):
        data = load_dataset("mnist_mlp", **self.ARGS)
        direct = synthetic_mnist(**self.ARGS)
        for name in ("x_train", "y_train", "x_test", "y_test"):
            assert np.array_equal(getattr(data, name), getattr(direct, name))

    @pytest.mark.parametrize("view", [
        lambda d: d.x_train, lambda d: d.y_train, lambda d: d.x_test,
        lambda d: d.y_test, lambda d: d.flat_train,
        lambda d: d.subset(4, 2).x_train,
    ], ids=["x_train", "y_train", "x_test", "y_test", "flat_train",
            "subset_x_train"])
    def test_arrays_are_read_only(self, view):
        array = view(load_dataset("mnist_mlp", **self.ARGS))
        with pytest.raises(ValueError):
            array[0] = 0

    @pytest.mark.parametrize("change", [{"seed": 5}, {"n_train": 14}])
    def test_different_arguments_evict(self, change):
        first = load_dataset("mnist_mlp", **self.ARGS)
        other = load_dataset("mnist_mlp", **{**self.ARGS, **change})
        assert other is not first
        assert list(registry._MEMO) == [
            ("mnist_mlp", *{**self.ARGS, **change}.values())]
        assert load_dataset("mnist_mlp", **self.ARGS) is not first

    def test_traces_renders_and_hits(self):
        obs.enable()
        load_dataset("face", **self.ARGS)
        load_dataset("face", **self.ARGS)
        load_dataset("face", **self.ARGS)
        renders = [s for s in obs.spans() if s.name == "datasets.load"]
        assert len(renders) == 1
        assert renders[0].attrs == {"app": "face", **self.ARGS}
        assert obs.registry().counter("datasets.renders").value == 1
        assert obs.registry().counter("datasets.memo_hits").value == 2
