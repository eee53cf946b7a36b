import numpy as np
import pytest

from bicap import corpus
from bicap.corpus import encode
from bicap.model import ONLINE_BLOCKS, init_params, sentence_loss
from bicap.numkit import SeededRng
from bicap.training import (TrainConfig, apply_update, grad_check,
                            gradcheck_setup, sentence_gradients, train,
                            train_sentence)

from conftest import small_dims


@pytest.mark.parametrize("variant", ["rnn", "rnn_if", "full"])
def test_grad_check_all_variants(variant):
    params, vocab, example = gradcheck_setup(variant, seed=1)
    err = grad_check(params, vocab, example)
    assert err <= 1e-4, f"{variant}: {err}"


def test_grad_check_deterministic():
    params, vocab, example = gradcheck_setup("full", seed=2)
    e1 = grad_check(params, vocab, example)
    params2, vocab2, example2 = gradcheck_setup("full", seed=2)
    e2 = grad_check(params2, vocab2, example2)
    assert e1 == e2


def test_grad_check_mse_reconstruction():
    params, vocab, example = gradcheck_setup("full", seed=3)
    err = grad_check(params, vocab, example, recon_kind="mse")
    assert err <= 1e-4


def test_masked_vs_rows_get_zero_gradient():
    params, vocab, example = gradcheck_setup("full", seed=1)
    sent = example.captions[0]
    grads, _ = sentence_gradients(params, vocab, example.features, sent, 1.0,
                                  unroll=len(sent.ids))
    half = params.dims.vs_connected_rows
    assert np.all(grads.W_vs[half:, :] == 0.0)
    assert np.any(grads.W_vs[:half, :] != 0.0)


def test_lambda_zero_zeroes_reconstruction_head_gradients():
    params, vocab, example = gradcheck_setup("full", seed=4)
    sent = example.captions[0]
    grads, _ = sentence_gradients(params, vocab, example.features, sent, 0.0,
                                  unroll=len(sent.ids))
    assert np.all(grads.W_uv == 0.0)
    assert np.all(grads.b_v == 0.0)
    # word-side gradients still flow through u
    assert np.any(grads.W_uu != 0.0)


def test_truncation_consistency_full_unroll():
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    n = len(sent.ids)
    g_exact, loss_a = sentence_gradients(params, vocab, example.features, sent,
                                         1.0, unroll=n)
    g_long, loss_b = sentence_gradients(params, vocab, example.features, sent,
                                        1.0, unroll=10 * n)
    assert loss_a == loss_b
    for name, arr in g_exact.named_blocks():
        assert np.array_equal(arr, getattr(g_long, name)), name


def test_truncation_changes_gradients():
    params, vocab, example = gradcheck_setup("full", seed=5)
    sent = example.captions[0]
    g_exact, _ = sentence_gradients(params, vocab, example.features, sent, 1.0,
                                    unroll=len(sent.ids))
    g_trunc, _ = sentence_gradients(params, vocab, example.features, sent, 1.0,
                                    unroll=1)
    assert not g_exact.allclose(g_trunc)


def test_bptt_clips_elementwise():
    params, vocab, example = gradcheck_setup("full", seed=6)
    sent = example.captions[0]
    grads, _ = sentence_gradients(params, vocab, example.features, sent, 1.0,
                                  unroll=5, grad_clip=1e-4)
    for _, arr in grads.named_blocks():
        assert np.all(arr <= 1e-4) and np.all(arr >= -1e-4)


@pytest.mark.parametrize("recon_kind", ["ce", "mse"])
@pytest.mark.parametrize("variant", ["rnn", "rnn_if", "full"])
def test_training_runs_the_scoring_forward(variant, recon_kind):
    # at lr 0 every weight stays put, so the training loop must reproduce
    # the scoring forward's joint loss exactly, step for step
    params, vocab, example = gradcheck_setup(variant, seed=10)
    sent = example.captions[0]
    assert len(sent.ids) > 2
    cfg = TrainConfig(lam_recon=0.5, recon_kind=recon_kind)
    start = params.copy()
    expected = sentence_loss(params, example.features, sent, cfg.lam_recon,
                             vocab, recon_kind)[0].joint
    joint, ntok = train_sentence(params, vocab, example.features, sent, cfg, lr=0.0)
    assert joint == expected
    assert ntok == len(sent.ids)
    for name, arr in params.named_blocks():
        assert arr.tobytes() == getattr(start, name).tobytes(), name


def test_online_schedule_mid_sentence_touches_only_output_blocks():
    params, vocab, example = gradcheck_setup("full", seed=7)
    start = params.copy()
    sent = example.captions[0]
    cfg = TrainConfig(learning_rate=0.05)
    seen = []

    def on_step(t, p):
        if t == len(sent.ids) - 1:
            return  # final step runs right before the batch update
        changed = {n for n, arr in p.named_blocks()
                   if not np.array_equal(arr, getattr(start, n))}
        seen.append(changed)

    train_sentence(params, vocab, example.features, sent, cfg,
                   cfg.learning_rate, on_step=on_step)
    assert seen, "sentence long enough to observe mid-sentence state"
    for changed in seen:
        assert changed <= ONLINE_BLOCKS
    assert seen[-1]  # online blocks really did move mid-sentence


def test_batch_blocks_update_once_per_sentence():
    # a single-step sentence makes the schedule equivalent to one plain
    # bptt step applied to every block
    params, vocab, example = gradcheck_setup("full", seed=8)
    sent = encode([], vocab)  # just <eos>
    assert len(sent.ids) == 1
    cfg = TrainConfig(learning_rate=0.05)
    expected = params.copy()
    grads, _ = sentence_gradients(expected, vocab, example.features, sent,
                                  cfg.lam_recon, unroll=1,
                                  grad_clip=cfg.grad_clip)
    apply_update(expected, grads, cfg.learning_rate, blocks="all")
    train_sentence(params, vocab, example.features, sent, cfg, cfg.learning_rate)
    for name, arr in params.named_blocks():
        assert np.allclose(arr, getattr(expected, name), atol=1e-12), name


def test_apply_update_respects_block_groups():
    params, vocab, example = gradcheck_setup("full", seed=9)
    grads = params.zeros_like()
    for _, arr in grads.named_blocks():
        arr += 1.0
    before = params.copy()
    apply_update(params, grads, lr=0.1, blocks="online")
    for name, arr in params.named_blocks():
        if name in ONLINE_BLOCKS:
            assert not np.array_equal(arr, getattr(before, name))
        else:
            assert np.array_equal(arr, getattr(before, name))
    # mask survives updates
    apply_update(params, grads, lr=0.1, blocks="batch")
    assert np.all(params.W_vs[params.dims.vs_connected_rows:, :] == 0.0)


def _small_training_setup(variant="full", n=50, seed=7):
    dataset = corpus.generate_synthetic(6, n, SeededRng(seed))
    dims = small_dims(dataset.vocab, variant=variant, v_dim=6, s_dim=16, u_dim=16,
                      maxent_hash_size=1024)
    params = init_params(dims, SeededRng(seed + 1))
    return dataset, params


def test_train_smoke_loss_improves():
    dataset, params = _small_training_setup()
    cfg = TrainConfig(learning_rate=0.1, max_epochs=12, seed=3)
    best, history = train(params, dataset, cfg)
    assert len(history.epochs) <= 12
    first, last = history.epochs[0], history.epochs[-1]
    assert last.train_loss < first.train_loss
    ppl_first = history.epochs[0].valid_ppl
    assert min(e.valid_ppl for e in history.epochs) < ppl_first


def test_train_requires_nonempty_splits():
    dataset, params = _small_training_setup()
    for ex in dataset.examples:
        if ex.split == "valid":
            ex.split = "test"
    cfg = TrainConfig(max_epochs=1)
    with pytest.raises(ValueError):
        train(params, dataset, cfg)


def test_lr_halves_on_injected_non_decreasing_validation():
    dataset, params = _small_training_setup(n=12)
    cfg = TrainConfig(learning_rate=0.8, max_epochs=6, seed=1)
    fake = lambda epoch, p: 100.0  # never decreases
    _, history = train(params, dataset, cfg, valid_metric=fake)
    lrs = [e.lr for e in history.epochs]
    # first failure observed after epoch 2; each later epoch halves again
    assert lrs == [0.8, 0.8, 0.4, 0.2, 0.1, 0.05]


def test_lr_floor_and_two_strike_stop():
    dataset, params = _small_training_setup(n=12)
    cfg = TrainConfig(learning_rate=0.8, max_epochs=50, seed=1,
                      lr_floor_divisor=4.0)
    fake = lambda epoch, p: 100.0
    _, history = train(params, dataset, cfg, valid_metric=fake)
    lrs = [e.lr for e in history.epochs]
    # floor = 0.2: halvings 0.8 -> 0.4 -> 0.2, then two failures at the floor
    assert lrs == [0.8, 0.8, 0.4, 0.2, 0.2]
    assert "floor" in history.stopped_reason


def test_train_returns_best_validation_params():
    dataset, params = _small_training_setup(n=12)
    ppls = [9.0, 4.0, 6.0, 5.0]
    snaps = []

    def fake(epoch, p):
        snaps.append(p.copy())
        return ppls[epoch - 1]

    cfg = TrainConfig(learning_rate=0.1, max_epochs=4, seed=1)
    best, history = train(params, dataset, cfg, valid_metric=fake)
    for name, arr in best.named_blocks():
        assert np.array_equal(arr, getattr(snaps[1], name)), name


def test_non_finite_epoch_restores_best_params_and_halves_lr():
    dataset, params = _small_training_setup(n=12)
    snaps = {}
    restored = []

    def fake(epoch, p):
        snaps[epoch] = p.copy()
        if epoch == 2:
            p.W_ss[0, 0] = np.nan  # the epoch blew up
            return float("nan")
        return 10.0 / epoch

    def log_fn(line):
        if "not finite" in line:
            restored.append((line, params.copy()))

    cfg = TrainConfig(learning_rate=0.4, max_epochs=3, seed=1)
    _, history = train(params, dataset, cfg, valid_metric=fake, log_fn=log_fn)
    assert [e.lr for e in history.epochs] == [0.4, 0.4, 0.2]
    (line, start3), = restored
    assert line.startswith("epoch 2 ")
    # epoch 3 starts from the epoch-1 weights, restored into params in place
    for name, arr in start3.named_blocks():
        assert np.array_equal(arr, getattr(snaps[1], name)), name
    assert np.isfinite(history.epochs[2].train_loss)
    assert all(np.isfinite(arr).all() for _, arr in snaps[3].named_blocks())


def test_train_deterministic_given_seed():
    dataset, params = _small_training_setup(n=20)
    cfg = TrainConfig(learning_rate=0.1, max_epochs=3, seed=11)
    best1, h1 = train(params.copy(), dataset, cfg)
    best2, h2 = train(params.copy(), dataset, cfg)
    assert h1 == h2
    for name, arr in best1.named_blocks():
        assert np.array_equal(arr, getattr(best2, name))


def test_gradcheck_setup_matches_stated_size():
    params, vocab, example = gradcheck_setup("full")
    assert len(vocab) == 12
    assert params.dims.s_dim == 6 and params.dims.u_dim == 6
    assert params.dims.v_dim == 4
    assert params.dims.maxent_order == 3
