"""Tests for constrained retraining, Algorithm 2 and mixed plans."""

import numpy as np
import pytest

from repro.asm.alphabet import ALPHA_1, ALPHA_2, ALPHA_4
from repro.datasets import mlp, synthetic_mnist
from repro.hardware.engine import ProcessingEngine
from repro.nn.optim import SGD
from repro.training.constrained import (
    ConstraintProjector,
    constrained_trainer,
    weight_param_name,
)
from repro.training.methodology import DesignMethodology
from repro.training.mixed import build_mixed_plan

RNG = np.random.default_rng(5)


@pytest.fixture(scope="module")
def small_data():
    return synthetic_mnist(n_train=400, n_test=150, seed=0)


def fresh_model(seed=1):
    return mlp([1024, 30, 10], seed=seed)


class TestWeightParamName:
    def test_dense_and_conv(self):
        from repro.nn.layers import Conv2D, Dense, Flatten, ScaledAvgPool2D
        assert weight_param_name(Dense(2, 2)) == "W"
        assert weight_param_name(Conv2D(1, 1, 1)) == "W"
        assert weight_param_name(ScaledAvgPool2D(1)) == "gain"
        assert weight_param_name(Flatten()) is None


class TestConstraintProjector:
    def test_projection_removes_violations(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_1)
        projector.project()
        assert projector.violations() == 0

    def test_fresh_model_has_violations(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_1)
        assert projector.violations() > 0

    def test_projection_idempotent(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_2)
        projector.project()
        before = model.layers[0].params["W"].copy()
        projector.project()
        np.testing.assert_array_equal(model.layers[0].params["W"], before)

    def test_projection_bounded_movement(self):
        model = fresh_model()
        weights_before = model.layers[0].params["W"].copy()
        projector = ConstraintProjector(model, 8, ALPHA_4)
        projector.project()
        moved = np.abs(model.layers[0].params["W"] - weights_before)
        # movement bounded by a few LSBs of the 8-bit grid
        scale = np.abs(weights_before).max()
        assert moved.max() < scale * 8 / 127

    def test_biases_untouched(self):
        model = fresh_model()
        model.layers[0].params["b"] = RNG.normal(size=30)
        biases = model.layers[0].params["b"].copy()
        ConstraintProjector(model, 8, ALPHA_1).project()
        np.testing.assert_array_equal(model.layers[0].params["b"], biases)

    def test_layer_plan_partial(self):
        model = fresh_model()
        projector = ConstraintProjector(
            model, 8, layer_plan=[ALPHA_1, None])
        assert projector.num_constrained_layers == 1
        w_out_before = model.layers[1].params["W"].copy()
        projector.project()
        np.testing.assert_array_equal(
            model.layers[1].params["W"], w_out_before)

    def test_plan_length_check(self):
        model = fresh_model()
        with pytest.raises(ValueError):
            ConstraintProjector(model, 8, layer_plan=[ALPHA_1])

    def test_needs_set_or_plan(self):
        with pytest.raises(ValueError):
            ConstraintProjector(fresh_model(), 8)

    def test_nearest_mode(self):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_2, mode="nearest")
        projector.project()
        assert projector.violations() == 0


class TestConstrainedTraining:
    def test_training_maintains_constraints(self, small_data):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_1)
        trainer = constrained_trainer(
            model, SGD(model, 0.05), projector, batch_size=32)
        trainer.fit(small_data.flat_train, small_data.y_train_onehot,
                    small_data.flat_test, small_data.y_test, max_epochs=2)
        assert projector.violations() == 0

    def test_constrained_training_still_learns(self, small_data):
        model = fresh_model()
        projector = ConstraintProjector(model, 8, ALPHA_2)
        trainer = constrained_trainer(
            model, SGD(model, 0.1), projector, batch_size=32)
        history = trainer.fit(
            small_data.flat_train, small_data.y_train_onehot,
            small_data.flat_test, small_data.y_test, max_epochs=8)
        assert history.best_accuracy > 0.5  # far above 10% chance


class TestDesignMethodology:
    def test_runs_and_accepts(self, small_data):
        model = fresh_model()
        methodology = DesignMethodology(bits=8, quality=0.9,
                                        ladder=(1, 2, 4, 8))
        result = methodology.run(model, small_data, max_epochs=6,
                                 retrain_epochs=4)
        assert result.succeeded
        assert result.stages
        assert result.chosen_alphabets in (1, 2, 4, 8)

    def test_easy_quality_stops_at_one_alphabet(self, small_data):
        model = fresh_model()
        methodology = DesignMethodology(bits=8, quality=0.5, ladder=(1, 2))
        result = methodology.run(model, small_data, max_epochs=6,
                                 retrain_epochs=3)
        assert result.chosen_alphabets == 1
        assert len(result.stages) == 1

    def test_impossible_quality_escalates(self, small_data):
        model = fresh_model()
        # quality 1.0 forces escalation unless retraining is perfect
        methodology = DesignMethodology(bits=8, quality=1.0, ladder=(1, 8))
        result = methodology.run(model, small_data, max_epochs=6,
                                 retrain_epochs=3)
        assert len(result.stages) >= 1
        # the 8-alphabet (exact) stage always matches the baseline quality
        if not result.stages[0].accepted:
            assert result.stages[-1].num_alphabets == 8

    def test_invalid_quality(self):
        with pytest.raises(ValueError):
            DesignMethodology(bits=8, quality=0.0)
        with pytest.raises(ValueError):
            DesignMethodology(bits=8, quality=1.2)

    def test_empty_ladder(self):
        with pytest.raises(ValueError):
            DesignMethodology(bits=8, ladder=())

    def test_accuracy_loss_property(self, small_data):
        model = fresh_model()
        methodology = DesignMethodology(bits=8, quality=0.8, ladder=(1,))
        result = methodology.run(model, small_data, max_epochs=5,
                                 retrain_epochs=3)
        assert result.accuracy_loss == pytest.approx(
            result.baseline_accuracy - result.final_stage.accuracy)


class TestMixedPlans:
    def test_build_mixed_plan_shapes(self):
        model = mlp([1024, 64, 32, 10], seed=0)
        plan = build_mixed_plan(model, [ALPHA_2, ALPHA_4])
        assert plan == [ALPHA_1, ALPHA_2, ALPHA_4]

    def test_plan_too_long(self):
        model = mlp([8, 4, 2], seed=0)
        with pytest.raises(ValueError):
            build_mixed_plan(model, [ALPHA_2, ALPHA_4, ALPHA_4])

    @staticmethod
    def plan_energy_nj(model, plan):
        """Engine energy of *model* deployed under a per-layer plan."""
        report = ProcessingEngine(8).run(model.topology(),
                                         layer_alphabets=plan)
        return report.energy_nj

    def test_evaluate_plan_energy_ordering(self):
        """mixed energy sits between all-{1} and conventional."""
        model = fresh_model()
        n = len(model.trainable_layers)
        conventional = self.plan_energy_nj(model, [None] * n)
        man = self.plan_energy_nj(model, [ALPHA_1] * n)
        mixed = self.plan_energy_nj(model,
                                    build_mixed_plan(model, [ALPHA_4]))
        assert man < mixed < conventional

    def test_mixed_energy_overhead_small(self):
        """§VI.E: upgrading the small output layer costs <5% energy."""
        model = fresh_model()
        n = len(model.trainable_layers)
        man = self.plan_energy_nj(model, [ALPHA_1] * n)
        mixed = self.plan_energy_nj(model,
                                    build_mixed_plan(model, [ALPHA_4]))
        assert mixed / man < 1.05
