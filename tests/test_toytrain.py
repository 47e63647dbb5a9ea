import numpy as np
import pytest

from kstickets.selection import WinningTicketSet
from kstickets.toytrain import (
    EXAMPLE_GROUP,
    SyntheticTask,
    ToyModel,
    TrainConfig,
    _top2,
    emit_prediction_log,
    evaluate,
    forward,
    generate_task,
    grad_check,
    init_model,
    model_from_checkpoint,
    model_to_checkpoint,
    read_task_csv,
    train,
    write_task_csv,
)


def small_setup(seed=0, v=32, d=8, n_pairs=200, zipf=1.0):
    return generate_task(seed, v, n_pairs, zipf), init_model(seed, v, d)


class TestGenerateTask:
    def test_deterministic(self):
        t1 = generate_task(7, 64, 100, 1.5)
        t2 = generate_task(7, 64, 100, 1.5)
        np.testing.assert_array_equal(t1.sources, t2.sources)
        np.testing.assert_array_equal(t1.targets, t2.targets)

    def test_different_seeds_differ(self):
        t1 = generate_task(1, 64, 100, 1.5)
        t2 = generate_task(2, 64, 100, 1.5)
        assert not np.array_equal(t1.sources, t2.sources)

    def test_targets_follow_mapping(self):
        task = generate_task(3, 64, 500, 1.5)
        for s, t in zip(task.sources, task.targets):
            assert task.mapping[int(s)] == int(t)

    def test_zipf_zero_is_roughly_uniform(self):
        task = generate_task(5, 128, 12800, 0.0)
        content = sorted(task.mapping)
        counts = np.bincount(task.sources, minlength=128)[content]
        expected = 12800 / len(content)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 103.5  # chi2 99.9th percentile at df = 63

    def test_single_pair(self):
        task = generate_task(11, 16, 1, 1.0)
        assert task.n_pairs == 1
        s, t = task.sources[0], task.targets[0]
        assert task.mapping[s] == t

    def test_vocab_domain(self):
        with pytest.raises(ValueError, match="vocab_size"):
            generate_task(0, 3, 10, 1.0)


class TestInitModel:
    def test_deterministic(self):
        m1 = init_model(4, 16, 8)
        m2 = init_model(4, 16, 8)
        assert m1.embedding.tobytes() == m2.embedding.tobytes()
        assert m1.output_weights.tobytes() == m2.output_weights.tobytes()

    def test_seeds_differ(self):
        assert (
            init_model(1, 16, 8).embedding.tobytes()
            != init_model(2, 16, 8).embedding.tobytes()
        )

    def test_range(self):
        m = init_model(0, 64, 32)
        assert float(np.abs(m.embedding).max()) <= 0.1
        assert float(np.abs(m.output_weights).max()) <= 0.1

    def test_dim_one_allowed(self):
        assert init_model(0, 4, 1).dim == 1


class TestForward:
    def test_zero_row_gives_uniform(self):
        m = init_model(0, 8, 4)
        m.embedding[3] = 0.0
        probs = forward(m, 3)
        np.testing.assert_allclose(probs, np.full(8, 1 / 8), atol=1e-12)

    def test_sums_to_one(self):
        m = init_model(1, 32, 16)
        for tok in (0, 7, 31):
            assert abs(forward(m, tok).sum() - 1.0) < 1e-6

    def test_argmax_shift_invariant(self):
        m = init_model(2, 16, 8)
        probs = forward(m, 5)
        shifted = ToyModel(m.embedding, m.output_weights)
        logits = shifted.output_weights.astype(np.float64) @ shifted.embedding[
            5
        ].astype(np.float64)
        probs2 = np.exp(logits + 7.0 - (logits + 7.0).max())
        probs2 /= probs2.sum()
        assert int(np.argmax(probs)) == int(np.argmax(probs2))

    def test_token_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            forward(init_model(0, 8, 4), 8)


class TestTrain:
    def test_partial_freezes_non_ticket_rows(self):
        task, model = small_setup()
        tickets = WinningTicketSet(method="ks", vocab_size=32, token_ids=(1, 4, 9))
        tuned, _ = train(
            model, task, TrainConfig(mode="partial", tickets=tickets, epochs=3)
        )
        frozen = [i for i in range(32) if i not in (1, 4, 9)]
        assert (
            tuned.embedding[frozen].tobytes() == model.embedding[frozen].tobytes()
        )
        assert tuned.output_weights.tobytes() == model.output_weights.tobytes()

    def test_frozen_complement_freezes_ticket_rows(self):
        task, model = small_setup()
        tickets = WinningTicketSet(method="ks", vocab_size=32, token_ids=(1, 4, 9))
        tuned, _ = train(
            model,
            task,
            TrainConfig(mode="frozen_complement", tickets=tickets, epochs=3),
        )
        assert (
            tuned.embedding[[1, 4, 9]].tobytes()
            == model.embedding[[1, 4, 9]].tobytes()
        )

    def test_embed_mode_freezes_output_weights(self):
        task, model = small_setup()
        tuned, _ = train(model, task, TrainConfig(mode="embed", epochs=3))
        assert tuned.output_weights.tobytes() == model.output_weights.tobytes()
        assert tuned.embedding.tobytes() != model.embedding.tobytes()

    def test_full_mode_updates_everything(self):
        task, model = small_setup()
        tuned, _ = train(model, task, TrainConfig(mode="full", epochs=3))
        assert tuned.output_weights.tobytes() != model.output_weights.tobytes()
        assert tuned.embedding.tobytes() != model.embedding.tobytes()

    def test_loss_falls(self):
        task, model = small_setup()
        _, losses = train(
            model, task, TrainConfig(mode="embed", learning_rate=0.1, epochs=20)
        )
        assert len(losses) == 20
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        task, model = small_setup()
        cfg = TrainConfig(mode="embed", epochs=5, seed=3)
        t1, l1 = train(model, task, cfg)
        t2, l2 = train(model, task, cfg)
        assert t1.embedding.tobytes() == t2.embedding.tobytes()
        assert l1 == l2

    def test_modes_require_tickets(self):
        with pytest.raises(ValueError, match="requires a ticket set"):
            TrainConfig(mode="partial")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            TrainConfig(mode="adapter")

    def test_vocab_mismatch(self):
        task, _ = small_setup()
        model = init_model(0, 16, 8)
        with pytest.raises(ValueError, match="vocab"):
            train(model, task, TrainConfig(mode="embed", epochs=1))


class TestEvaluate:
    def test_untrained_near_chance(self):
        task, model = small_setup(v=64, d=16, n_pairs=400)
        assert evaluate(model, task) < 0.2

    def test_trained_model_improves(self):
        task, model = small_setup(d=16)
        tuned, _ = train(model, task, TrainConfig(mode="embed", epochs=40))
        assert evaluate(tuned, task) > 0.8

    def test_deterministic(self):
        task, model = small_setup()
        assert evaluate(model, task) == evaluate(model, task)


class TestPredictionLog:
    def test_identical_models_agree(self):
        task, model = small_setup()
        records = emit_prediction_log(model, model, model, task)
        assert (records.tuned_prediction == records.partial_prediction).all()

    def test_p1_ge_p2(self):
        task, model = small_setup()
        records = emit_prediction_log(model, None, None, task)
        assert (records.p1 >= records.p2).all()

    def test_record_count_and_grouping(self):
        task, model = small_setup(n_pairs=45)
        records = emit_prediction_log(model, None, None, task)
        assert len(records) == 45
        assert records.example_id[0] == 0 and records.position[0] == 0
        assert records.example_id[EXAMPLE_GROUP] == 1
        assert records.position[44] == 44 % EXAMPLE_GROUP

    def test_base_probs_attached(self):
        task, model = small_setup()
        base = init_model(9, 32, 8)
        records = emit_prediction_log(model, None, base, task)
        assert records.base_p1 is not None and (records.base_p1 >= records.base_p2).all()

    def test_shape_mismatch(self):
        task, model = small_setup()
        with pytest.raises(ValueError, match="shape mismatch"):
            emit_prediction_log(model, init_model(0, 32, 4), None, task)

    def test_columns_match_the_models(self):
        task, model = small_setup(n_pairs=45)
        partial, base = init_model(3, 32, 8), init_model(9, 32, 8)
        log = emit_prediction_log(model, partial, base, task)
        probs = np.stack([forward(model, s) for s in task.sources.tolist()])
        np.testing.assert_array_equal(log.reference_token, task.targets)
        np.testing.assert_array_equal(log.tuned_prediction, probs.argmax(axis=1))
        np.testing.assert_allclose(log.p1, probs.max(axis=1), rtol=1e-12)
        base_probs = np.stack([forward(base, s) for s in task.sources.tolist()])
        np.testing.assert_allclose(log.base_p1, base_probs.max(axis=1), rtol=1e-12)


def top2_oracle(probs):
    """The stable-argsort top-2 that _top2 replaces: its bit-for-bit oracle."""
    order = np.argsort(-probs, axis=1, kind="stable")
    rows = np.arange(probs.shape[0])
    top = order[:, 0]
    return top, probs[rows, top], probs[rows, order[:, 1]]


def test_top2_matches_argsort_oracle():
    rng = np.random.default_rng(5)
    for trial in range(2000):
        n, v = int(rng.integers(1, 30)), int(rng.integers(2, 12))
        if trial % 4 == 3:
            probs = rng.random((n, v))
        else:  # few distinct values: tied maxima, tied runners-up, zero rows
            probs = rng.integers(0, 1 + trial % 4, size=(n, v)) / 4.0
        want = top2_oracle(probs)
        got = _top2(probs.copy())
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestGradCheck:
    def test_small_model_accurate(self):
        task, model = small_setup(v=16, d=8, n_pairs=64)
        assert grad_check(model, task) < 1e-3

    def test_untouched_rows_have_zero_fd(self):
        # rows absent from the probe batch get exactly zero analytic gradient;
        # the relative-error guard keeps them from dominating
        task = SyntheticTask(
            vocab_size=16,
            sources=np.zeros(8, dtype=np.int64),
            targets=np.ones(8, dtype=np.int64),
        )
        model = init_model(3, 16, 8)
        assert grad_check(model, task) < 1e-3

    def test_deterministic(self):
        task, model = small_setup(v=16, d=8, n_pairs=64)
        assert grad_check(model, task) == grad_check(model, task)

    def test_epsilon_domain(self):
        task, model = small_setup()
        with pytest.raises(ValueError):
            grad_check(model, task, epsilon=0.0)


class TestTaskAndModelFiles:
    def test_task_round_trip(self, tmp_path):
        task = generate_task(5, 32, 50, 1.2)
        path = tmp_path / "task.csv"
        write_task_csv(task, path)
        back = read_task_csv(path, 32)
        np.testing.assert_array_equal(back.sources, task.sources)
        np.testing.assert_array_equal(back.targets, task.targets)
        assert back.mapping is None

    def test_task_vocab_validated(self, tmp_path):
        task = generate_task(5, 32, 50, 1.2)
        path = tmp_path / "task.csv"
        write_task_csv(task, path)
        with pytest.raises(ValueError, match="lie in"):
            read_task_csv(path, 4)

    def test_model_checkpoint_round_trip(self):
        model = init_model(8, 16, 4)
        back = model_from_checkpoint(model_to_checkpoint(model))
        assert back.embedding.tobytes() == model.embedding.tobytes()
        assert back.output_weights.tobytes() == model.output_weights.tobytes()
