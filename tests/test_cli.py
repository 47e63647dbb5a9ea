import argparse
import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kstickets
from kstickets.checkpoint import Checkpoint, TensorRecord, read_checkpoint, write_checkpoint
from kstickets._text import fmt_float
from kstickets import checkpoint, cli, selection
from kstickets.cli import _off_lattice, run
from kstickets.selection import WinningTicketSet, read_scores_csv, read_ticket_file, write_ticket_file
from kstickets.toytrain import (
    TrainConfig,
    generate_task,
    init_model,
    model_to_checkpoint,
    train,
    write_task_csv,
)


@pytest.fixture()
def workdir(tmp_path):
    """Seeded task, base checkpoint, and embed-tuned checkpoint on disk."""
    task = generate_task(1, 64, 300, 1.5)
    model = init_model(1, 64, 32)
    tuned, _ = train(model, task, TrainConfig(mode="embed", epochs=15, seed=1))
    write_task_csv(task, tmp_path / "task.csv")
    write_checkpoint(model_to_checkpoint(model), tmp_path / "base.ckpt")
    write_checkpoint(model_to_checkpoint(tuned), tmp_path / "tuned.ckpt")
    (tmp_path / "corpus.txt").write_text(
        "\n".join(str(s) for s in task.sources) + "\n"
    )
    return tmp_path


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cmd",
    [
        ["analyze"],
        ["select"],
        ["mask"],
        ["transfer"],
        ["certify"],
        ["freq"],
        ["toy"],
        ["toy", "gen"],
        ["toy", "init"],
        ["toy", "train"],
        ["toy", "eval"],
        ["toy", "predict-log"],
    ],
)
def test_subcommand_help_exits_zero(cmd, capsys):
    assert run(cmd + ["--help"]) == 0


HELP_ARGV = [[], ["toy"]] + [c + ["--help"] for c in [
    [], ["analyze"], ["select"], ["mask"], ["transfer"], ["certify"], ["freq"], ["toy"],
    ["toy", "gen"], ["toy", "init"], ["toy", "train"], ["toy", "eval"], ["toy", "predict-log"],
]] + [["bogus"], ["toy", "bogus"], ["-x"], ["mask", "--nope"], ["toy", "train"]]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=lambda argv: " ".join(argv) or "no-argv")
def test_help_and_usage_texts_are_the_full_parsers(argv, capsys, monkeypatch):
    # run() builds only the named command's parsers; every text it prints,
    # and its exit code, must be what the parser of every command gives
    monkeypatch.setenv("COLUMNS", "80")
    got = run(argv), capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full())
    assert (run(argv), capsys.readouterr()) == got


@pytest.mark.parametrize("argv, built", [
    (["mask", "--tickets", "t", "--out", "o", "--nope"], 2),
    (["toy", "train", "--nope"], 3),
    (["--help"], 13),
    ([], 13),
    (["toy"], 13),
], ids=["mask", "toy-train", "help", "no-argv", "toy"])
def test_a_leaf_command_builds_only_its_own_parsers(argv, built, capsys, monkeypatch):
    count = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        count.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    run(argv)
    assert len(count) == built
    count.clear()
    cli.build_parser()
    assert len(count) == 13  # with no argv, every command


_METHODS = ("ks", "cos", "abs", "relative", "ratio", "kl", "frequency")
_MODES = ("full", "embed", "partial", "frozen_complement")
_REQ = (True, None, None, None, None)  # required, no type, default, choices or help
_INT = (True, int, None, None, None)
_OPT = (False, None, None, None, None)
# Each leaf command's options in declaration order, as (option_strings,
# required, type, default, choices, help), then each mutually exclusive
# group as (its option strings, required).
OPTION_DECLARATIONS = {
    "analyze": [(("--base",), *_REQ), (("--tuned",), *_REQ), (("--tensor",), *_REQ),
                (("--freq",), False, None, None, None,
                 "counts CSV to attach as the frequency column"),
                (("--out",), *_REQ)],
    "select": [(("--scores",), *_REQ), (("--alpha",), False, float, None, None, None),
               (("--dim",), False, int, None, None, None),
               (("--method",), False, None, None, _METHODS, None),
               (("--top-k",), False, int, None, None, None), (("--out",), *_REQ),
               (("--alpha", "--method"), True)],
    "mask": [(("--tickets",), *_REQ), (("--complement",), False, None, False, None, None),
             (("--out",), *_REQ)],
    "transfer": [(("--base",), *_REQ), (("--tuned",), *_REQ), (("--tensor",), *_REQ),
                 (("--tickets",), *_REQ), (("--out",), *_REQ)],
    "certify": [(("--log",), *_REQ), (("--dim",), *_INT),
                (("--alpha",), True, None, None, None, "comma-separated significance levels"),
                (("--prob-source",), False, None, "tuned", ("tuned", "base"), None),
                (("--first-k",), False, int, None, None,
                 "keep only the first K positions per example"),
                (("--out",), *_REQ)],
    "freq": [(("--corpus",), *_REQ), (("--vocab",), *_INT),
             (("--top-k",), False, int, None, None, "write only the K most frequent tokens"),
             (("--out",), *_REQ)],
    "toy gen": [(("--seed",), *_INT), (("--vocab",), *_INT), (("--pairs",), *_INT),
                (("--zipf",), False, float, 1.5, None, None), (("--out",), *_REQ)],
    "toy init": [(("--seed",), *_INT), (("--vocab",), *_INT), (("--dim",), *_INT),
                 (("--out",), *_REQ)],
    "toy train": [(("--model",), *_REQ), (("--task",), *_REQ),
                  (("--mode",), True, None, None, _MODES, None), (("--tickets",), *_OPT),
                  (("--lr",), False, float, 0.1, None, None),
                  (("--epochs",), False, int, 50, None, None),
                  (("--batch-size",), False, int, 32, None, None),
                  (("--seed",), False, int, 0, None, None), (("--out",), *_REQ),
                  (("--loss-out",), *_OPT)],
    "toy eval": [(("--model",), *_REQ), (("--task",), *_REQ), (("--out",), *_OPT)],
    "toy predict-log": [(("--tuned",), *_REQ), (("--partial",), *_OPT), (("--base",), *_OPT),
                        (("--task",), *_REQ), (("--out",), *_REQ)],
}


def _leaf_declarations(parser, path=()):
    """{command path: its options and groups, as in OPTION_DECLARATIONS}."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        options = [
            (tuple(a.option_strings), a.required, a.type, a.default,
             None if a.choices is None else tuple(a.choices), a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        ]
        groups = [(tuple(o for a in g._group_actions for o in a.option_strings), g.required)
                  for g in parser._mutually_exclusive_groups]
        return {" ".join(path): options + groups}
    leaves = {}
    for name, sub in subs[0].choices.items():
        leaves.update(_leaf_declarations(sub, path + (name,)))
    return leaves


def test_every_command_declares_the_pinned_options():
    # the help texts are compared against a parser built by the same code, so
    # they cannot see a changed declaration; this table can, on any Python
    assert _leaf_declarations(cli.build_parser()) == OPTION_DECLARATIONS


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1


def test_missing_required_flag(capsys):
    assert run(["analyze", "--base", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert run(["mask", "--nope"]) == 1


def test_corrupt_checkpoint_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code = run(
        [
            "analyze",
            "--base",
            str(bad),
            "--tuned",
            str(bad),
            "--tensor",
            "embedding",
            "--out",
            str(tmp_path / "scores.csv"),
        ]
    )
    assert code == 2
    assert "not a checkpoint" in capsys.readouterr().err


def test_analyze_writes_scores(workdir):
    out = workdir / "scores.csv"
    code = run(
        [
            "analyze",
            "--base",
            str(workdir / "base.ckpt"),
            "--tuned",
            str(workdir / "tuned.ckpt"),
            "--tensor",
            "embedding",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    scores = read_scores_csv(out)
    assert len(scores) == 64
    assert scores.frequency is None


def test_analyze_attaches_frequencies(workdir):
    assert (
        run(
            [
                "freq",
                "--corpus",
                str(workdir / "corpus.txt"),
                "--vocab",
                "64",
                "--out",
                str(workdir / "counts.csv"),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "analyze",
                "--base",
                str(workdir / "base.ckpt"),
                "--tuned",
                str(workdir / "tuned.ckpt"),
                "--tensor",
                "embedding",
                "--freq",
                str(workdir / "counts.csv"),
                "--out",
                str(workdir / "scores.csv"),
            ]
        )
        == 0
    )
    scores = read_scores_csv(workdir / "scores.csv")
    assert scores.frequency is not None
    assert scores.frequency.sum() == 300


def full_analyze(workdir):
    run(
        [
            "analyze",
            "--base",
            str(workdir / "base.ckpt"),
            "--tuned",
            str(workdir / "tuned.ckpt"),
            "--tensor",
            "embedding",
            "--out",
            str(workdir / "scores.csv"),
        ]
    )


def test_select_by_alpha_then_mask_and_transfer(workdir):
    full_analyze(workdir)
    assert (
        run(
            [
                "select",
                "--scores",
                str(workdir / "scores.csv"),
                "--alpha",
                "0.05",
                "--dim",
                "32",
                "--out",
                str(workdir / "tickets.txt"),
            ]
        )
        == 0
    )
    tickets = read_ticket_file(workdir / "tickets.txt")
    assert tickets.method == "ks"
    assert 0 < len(tickets.token_ids) < 64

    assert (
        run(
            [
                "mask",
                "--tickets",
                str(workdir / "tickets.txt"),
                "--out",
                str(workdir / "mask.txt"),
            ]
        )
        == 0
    )
    mask_lines = (workdir / "mask.txt").read_text().splitlines()
    assert len(mask_lines) == 64
    assert sum(int(x) for x in mask_lines) == len(tickets.token_ids)

    assert (
        run(
            [
                "transfer",
                "--base",
                str(workdir / "base.ckpt"),
                "--tuned",
                str(workdir / "tuned.ckpt"),
                "--tensor",
                "embedding",
                "--tickets",
                str(workdir / "tickets.txt"),
                "--out",
                str(workdir / "spliced.ckpt"),
            ]
        )
        == 0
    )
    spliced = read_checkpoint(workdir / "spliced.ckpt")
    base = read_checkpoint(workdir / "base.ckpt")
    assert (
        spliced.tensor("output_weights").data.tobytes()
        == base.tensor("output_weights").data.tobytes()
    )


def test_ticket_file_matches_its_tau(tmp_path):
    # d=64 grid rows shifted by k = 0..64 steps give every D = k/64, then
    # noisy rows; each ticket file lists exactly the rows with D > its tau
    rng = np.random.default_rng(3)
    grid, noise = np.tile(np.arange(64.0), (65, 1)), rng.normal(size=(40, 64))
    base = np.vstack([grid, noise])
    tuned = np.vstack([grid + np.arange(65.0)[:, None], noise + rng.normal(size=(40, 64))])
    for name, matrix in (("base", base), ("tuned", tuned)):
        matrix = matrix.astype(np.float32)
        write_checkpoint(Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())]),
                         tmp_path / f"{name}.ckpt")
    scores_csv, out = tmp_path / "scores.csv", tmp_path / "tickets.txt"
    assert run(["analyze", "--base", str(tmp_path / "base.ckpt"), "--tuned",
                str(tmp_path / "tuned.ckpt"), "--tensor", "embed", "--out", str(scores_csv)]) == 0
    scores = read_scores_csv(scores_csv)
    for alpha in ("0.01", "0.05", "0.25", "0.5", "0.75", "0.9", "1.0"):
        assert run(["select", "--scores", str(scores_csv), "--alpha", alpha,
                    "--dim", "64", "--out", str(out)]) == 0
        tickets = read_ticket_file(out)
        chosen = np.isin(scores.token_id, tickets.token_ids)
        assert (scores.ks_statistic[chosen] > tickets.tau).all(), alpha
        assert (scores.ks_statistic[~chosen] <= tickets.tau).all(), alpha


def test_select_alpha_checks_dim_against_the_scores(tmp_path, capsys):
    # rows shifted by k = 0..64 steps give every D = k/64
    grid = np.tile(np.arange(64, dtype=np.float32), (65, 1))
    shifted = grid + np.arange(65, dtype=np.float32)[:, None]
    for name, matrix in (("base", grid), ("tuned", shifted)):
        write_checkpoint(Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())]),
                         tmp_path / f"{name}.ckpt")
    scores_csv, out = tmp_path / "scores.csv", tmp_path / "tickets.txt"
    assert run(["analyze", "--base", str(tmp_path / "base.ckpt"), "--tuned",
                str(tmp_path / "tuned.ckpt"), "--tensor", "embed", "--out", str(scores_csv)]) == 0
    select = ["select", "--scores", str(scores_csv), "--alpha", "0.05", "--out", str(out)]
    assert run([*select, "--dim", "64"]) == 0
    out.unlink()
    # D = 1/64 on line 3 is not k/32
    assert run([*select, "--dim", "32"]) == 2
    assert f"{scores_csv}: line 3: ks_statistic 0.015625 is not k/32" in capsys.readouterr().err
    assert not out.exists()
    # the documented limit: a multiple of the true d puts every k/64 on its lattice
    assert run([*select, "--dim", "4096"]) == 0


def test_lattice_check_keeps_every_statistic_analyze_writes():
    # analyze writes D = k/d at 9 significant digits, which moves it by at
    # most 5e-9 * D: every k of every d in 2..4096 stays on the lattice
    for d in range(2, 4097):
        x = np.arange(d + 1) / d
        for moved in (x, x * (1 - 5e-9), x * (1 + 5e-9)):
            assert _off_lattice(np.clip(moved, 0.0, 1.0), d).size == 0, d
    # and the values fmt_float really writes, next to and at the 9th digit's ties
    for d in [*range(2, 300), 640, 768, 1000, 1024, 2047, 2048, 3000, 4095, 4096]:
        x = np.arange(d + 1) / d
        for near in (x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
            written = np.array([float(fmt_float(v)) for v in near.tolist()])
            assert _off_lattice(written, d).size == 0, d


def test_lattice_check_catches_a_dim_that_is_not_a_multiple():
    for true_d in (3, 64, 768, 4096):
        written = np.array([float(fmt_float(k / true_d)) for k in range(true_d + 1)])
        for d in range(2, 4097):
            assert (_off_lattice(written, d).size == 0) == (d % true_d == 0), (true_d, d)


def test_analyze_writes_one_text_per_ks_distance_at_d3072(tmp_path):
    # 309 moved values give k = 309 in both rows, reached at different slots;
    # c/3072 - (c - 309)/3072 rounds to different floats for different c
    base = np.tile(np.arange(3072, dtype=np.float32), (2, 1))
    tuned = base.copy()
    for row, x in enumerate((0, 77)):
        tuned[row, x:x + 309] = x + 308.5
    for name, matrix in (("base", base), ("tuned", tuned)):
        write_checkpoint(Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())]),
                         tmp_path / f"{name}.ckpt")
    out = tmp_path / "scores.csv"
    assert run(["analyze", "--base", str(tmp_path / "base.ckpt"), "--tuned",
                str(tmp_path / "tuned.ckpt"), "--tensor", "embed", "--out", str(out)]) == 0
    ks_cells = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert ks_cells == [fmt_float(309 / 3072)] * 2


@pytest.mark.parametrize("argv", [
    ["select", "--scores", "{dir}/scores.csv", "--method", "ks", "--top-k", "-1"],
    ["freq", "--corpus", "{dir}/corpus.txt", "--vocab", "64", "--top-k", "-2"],
], ids=["select", "freq"])
def test_negative_top_k_exits_two(workdir, capsys, argv):
    full_analyze(workdir)
    out = workdir / "out.txt"
    assert run([a.format(dir=workdir) for a in argv] + ["--out", str(out)]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_select_requires_exactly_one_mode(workdir, capsys):
    full_analyze(workdir)
    args = ["select", "--scores", str(workdir / "scores.csv"), "--out", "t.txt"]
    for mode in ([], ["--alpha", "0.05", "--dim", "32", "--method", "ks"]):  # neither, both
        assert run(args + mode) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--alpha" in err and "--method" in err
    assert run(args + ["--alpha", "0.05"]) == 1  # missing --dim


def test_select_top_k(workdir):
    full_analyze(workdir)
    assert (
        run(
            [
                "select",
                "--scores",
                str(workdir / "scores.csv"),
                "--method",
                "abs",
                "--top-k",
                "5",
                "--out",
                str(workdir / "topk.txt"),
            ]
        )
        == 0
    )
    tickets = read_ticket_file(workdir / "topk.txt")
    assert tickets.method == "abs"
    assert len(tickets.token_ids) == 5


def test_freq_top_k(workdir):
    assert (
        run(
            [
                "freq",
                "--corpus",
                str(workdir / "corpus.txt"),
                "--vocab",
                "64",
                "--top-k",
                "3",
                "--out",
                str(workdir / "top3.csv"),
            ]
        )
        == 0
    )
    lines = (workdir / "top3.csv").read_text().splitlines()
    assert lines[0] == "token_id,count"
    assert len(lines) == 4
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert counts == sorted(counts, reverse=True)


def test_toy_pipeline_via_cli(tmp_path, capsys):
    root = tmp_path
    assert run(["toy", "gen", "--seed", "3", "--vocab", "32", "--pairs", "100",
                "--zipf", "1.2", "--out", str(root / "task.csv")]) == 0
    assert run(["toy", "init", "--seed", "3", "--vocab", "32", "--dim", "16",
                "--out", str(root / "model.ckpt")]) == 0
    assert run(["toy", "train", "--model", str(root / "model.ckpt"),
                "--task", str(root / "task.csv"), "--mode", "embed",
                "--epochs", "10", "--seed", "3",
                "--out", str(root / "tuned.ckpt"),
                "--loss-out", str(root / "loss.csv")]) == 0
    loss_lines = (root / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,loss"
    assert len(loss_lines) == 11

    assert run(["toy", "eval", "--model", str(root / "tuned.ckpt"),
                "--task", str(root / "task.csv"),
                "--out", str(root / "acc.txt")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy=")
    assert (root / "acc.txt").read_text().startswith("accuracy=")

    assert run(["toy", "predict-log", "--tuned", str(root / "tuned.ckpt"),
                "--partial", str(root / "tuned.ckpt"),
                "--base", str(root / "model.ckpt"),
                "--task", str(root / "task.csv"),
                "--out", str(root / "log.csv")]) == 0

    assert run(["certify", "--log", str(root / "log.csv"), "--dim", "16",
                "--alpha", "0.05,0.5,1.0", "--first-k", "20",
                "--out", str(root / "report.txt")]) == 0
    report = (root / "report.txt").read_text()
    assert report.count("alpha=") == 3

    assert run(["certify", "--log", str(root / "log.csv"), "--dim", "16",
                "--alpha", "0.05", "--prob-source", "base",
                "--out", str(root / "report_base.txt")]) == 0
    assert "certified_accuracy=" in (root / "report_base.txt").read_text()


def test_toy_train_partial_requires_tickets(tmp_path):
    run(["toy", "gen", "--seed", "1", "--vocab", "16", "--pairs", "20",
         "--out", str(tmp_path / "task.csv")])
    run(["toy", "init", "--seed", "1", "--vocab", "16", "--dim", "4",
         "--out", str(tmp_path / "model.ckpt")])
    code = run(["toy", "train", "--model", str(tmp_path / "model.ckpt"),
                "--task", str(tmp_path / "task.csv"), "--mode", "partial",
                "--out", str(tmp_path / "out.ckpt")])
    assert code == 1


def test_toy_train_on_a_header_only_task_exits_two(tmp_path, capsys):
    ckpt, task, out = tmp_path / "model.ckpt", tmp_path / "task.csv", tmp_path / "out.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 16, 4)), ckpt)
    task.write_text("source,target\n")
    code = run(["toy", "train", "--model", str(ckpt), "--task", str(task), "--mode", "embed",
                "--out", str(out)])
    assert code == 2
    assert f"error: {task}: no pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["full", "embed", "partial", "frozen_complement"])
def test_toy_train_tickets_of_another_vocab_name_the_file(tmp_path, capsys, mode):
    ckpt, task, tickets = tmp_path / "model.ckpt", tmp_path / "task.csv", tmp_path / "t.txt"
    write_checkpoint(model_to_checkpoint(init_model(1, 16, 4)), ckpt)
    write_task_csv(generate_task(1, 16, 20), task)
    write_ticket_file(WinningTicketSet(method="ks", vocab_size=32, token_ids=(3, 20)), tickets)
    out, loss = tmp_path / "out.ckpt", tmp_path / "loss.csv"
    code = run(["toy", "train", "--model", str(ckpt), "--task", str(task), "--mode", mode,
                "--tickets", str(tickets), "--out", str(out), "--loss-out", str(loss)])
    assert code == 2
    err = f"error: {tickets}: ticket vocab_size 32 does not match model vocab 16\n"
    assert capsys.readouterr().err == err
    assert not out.exists() and not loss.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv, name", [
    (["toy", "train", "--model", "{dir}/model.ckpt", "--task", "{dir}/task.csv",
      "--mode", "embed", "--lr"], "learning_rate must be finite and > 0"),
    (["toy", "gen", "--seed", "1", "--vocab", "16", "--pairs", "20", "--zipf"],
     "zipf_exponent must be finite"),
], ids=["train-lr", "gen-zipf"])
def test_toy_non_finite_rates_exit_two_before_writing(tmp_path, capsys, argv, name, value):
    write_checkpoint(model_to_checkpoint(init_model(1, 16, 4)), tmp_path / "model.ckpt")
    write_task_csv(generate_task(1, 16, 20), tmp_path / "task.csv")
    out = tmp_path / "out"
    assert run([a.format(dir=tmp_path) for a in argv] + [value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {name}, got {float(value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("zipf", ["-93", "-93.1", "-1000"])
def test_toy_gen_overflowing_zipf_exits_two_before_writing(tmp_path, capsys, zipf):
    # finite exponents whose weights rank ** -zipf overflow, with no numpy warning
    out = tmp_path / "task.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["toy", "gen", "--seed", "1", "--vocab", "4096", "--pairs", "20",
                    "--zipf", zipf, "--out", str(out)])
    assert code == 2
    err = f"error: zipf_exponent must keep the Zipf weights finite, got {float(zipf)}\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["toy", "gen", "--seed", "-1", "--vocab", "16", "--pairs", "20"], "seed must be >= 0, got -1"),
    (["toy", "init", "--seed", "-1", "--vocab", "16", "--dim", "4"], "seed must be >= 0, got -1"),
    (["toy", "train", "--model", "{dir}/model.ckpt", "--task", "{dir}/task.csv",
      "--mode", "embed", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["freq", "--corpus", "{dir}/empty.txt", "--vocab", "-1"], "--vocab must be >= 0, got -1"),
    (["freq", "--corpus", "{dir}/corpus.txt", "--vocab", "-1"], "--vocab must be >= 0, got -1"),
], ids=["gen-seed", "init-seed", "train-seed", "freq-vocab-empty-corpus", "freq-vocab"])
def test_negative_seed_and_vocab_exit_two_before_writing(tmp_path, capsys, argv, message):
    write_checkpoint(model_to_checkpoint(init_model(1, 16, 4)), tmp_path / "model.ckpt")
    write_task_csv(generate_task(1, 16, 20), tmp_path / "task.csv")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "corpus.txt").write_text("1 2 3\n")
    out = tmp_path / "out"
    assert run([a.format(dir=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_freq_vocab_zero_on_an_empty_corpus_writes_a_header_only_csv(tmp_path):
    (tmp_path / "empty.txt").write_text("")
    out = tmp_path / "counts.csv"
    assert run(["freq", "--corpus", str(tmp_path / "empty.txt"), "--vocab", "0",
                "--out", str(out)]) == 0
    assert out.read_text() == "token_id,count\n"


def test_certify_bad_alpha_list(workdir):
    (workdir / "log.csv").write_text(
        "example_id,position,reference_id,tuned_pred_id,tuned_p1,tuned_p2,"
        "partial_pred_id,base_p1,base_p2\n0,0,1,1,0.9,0.1,,,\n"
    )
    code = run(["certify", "--log", str(workdir / "log.csv"), "--dim", "16",
                "--alpha", "abc", "--out", str(workdir / "r.txt")])
    assert code == 1


def test_freq_out_of_range_token(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("1\n2\n99\n")
    code = run(["freq", "--corpus", str(corpus), "--vocab", "8",
                "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_freq_token_beyond_int64_exits_two(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("1\n99999999999999999999\n")
    code = run(["freq", "--corpus", str(corpus), "--vocab", "8",
                "--out", str(tmp_path / "c.csv")])
    assert code == 2


SCORES_HEADER = "token_id,ks_statistic,p_value,cos,abs_l2,relative,ratio,kl,frequency"
LOG_HEADER = (
    "example_id,position,reference_id,tuned_pred_id,tuned_p1,tuned_p2,"
    "partial_pred_id,base_p1,base_p2"
)


@pytest.mark.parametrize(
    "what, text, argv",
    [
        ("scores", f"{SCORES_HEADER}\n0,0,1,1,0,1,0,0,\n1,x,1,1,0,1,0,0,\n",
         ["select", "--scores", "{bad}", "--alpha", "0.05", "--dim", "4", "--out", "{out}"]),
        ("log", f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n0,1,1,1,0.9,zz,,,\n",
         ["certify", "--log", "{bad}", "--dim", "4", "--alpha", "0.05", "--out", "{out}"]),
        ("log", f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n0,1,1,1,0.3,0.4,,,\n",
         ["certify", "--log", "{bad}", "--dim", "4", "--alpha", "0.05", "--out", "{out}"]),
        ("log", f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,0.5,0.2\n0,1,1,1,0.9,0.1,,0.5,\n",
         ["certify", "--log", "{bad}", "--dim", "4", "--alpha", "0.05", "--out", "{out}"]),
        ("task", "source,target\n0,1\n2,q\n",
         ["toy", "eval", "--model", "{ckpt}", "--task", "{bad}", "--out", "{out}"]),
        ("task", "source,target\n0,1\n2,9\n",
         ["toy", "train", "--model", "{ckpt}", "--task", "{bad}", "--mode", "embed",
          "--out", "{out}"]),
        ("counts", "token_id,count\n0,1\n1,1.5\n",
         ["analyze", "--base", "{ckpt}", "--tuned", "{ckpt}", "--tensor", "embedding",
          "--freq", "{bad}", "--out", "{out}"]),
    ],
    ids=["scores", "log", "log-p1-below-p2", "log-half-blank-base", "task",
         "task-id-outside-vocab", "counts"],
)
def test_malformed_cell_names_path_and_line(tmp_path, capsys, what, text, argv):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    bad = tmp_path / f"{what}.csv"
    bad.write_text(text)
    out = tmp_path / "out.txt"
    code = run([a.format(bad=bad, out=out, ckpt=ckpt) for a in argv])
    assert code == 2
    assert f"{bad}: bad {what} row at line 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, reason",
    [("99,7", "token id 99 outside [0, 4)"), ("-3,2", "token id -3 outside [0, 4)"),
     ("2,-1", "negative count -1")],
    ids=["id-above-vocab", "negative-id", "negative-count"],
)
def test_counts_row_outside_vocab_exits_two(tmp_path, capsys, row, reason):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    counts = tmp_path / "counts.csv"
    counts.write_text(f"token_id,count\n0,1\n{row}\n")
    out = tmp_path / "scores.csv"
    code = run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt), "--tensor", "embedding",
                "--freq", str(counts), "--out", str(out)])
    assert code == 2
    assert f"{counts}: bad counts row at line 3: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, reason",
    [("token_id,count\n0,1\n1,1.5\n", "bad counts row at line 3"),
     ("token_id,count\n0,1\n4,2\n", "token id 4 outside [0, 4)"),
     ("id,count\n0,1\n", "header")],
    ids=["non-integer", "id-above-vocab", "wrong-header"],
)
def test_analyze_checks_counts_before_scoring(tmp_path, capsys, monkeypatch, text, reason):
    def never(*args):
        raise AssertionError("analyze_pair ran before the counts file was checked")

    monkeypatch.setattr(cli, "analyze_pair", never)
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    counts = tmp_path / "counts.csv"
    counts.write_text(text)
    out = tmp_path / "scores.csv"
    code = run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt), "--tensor", "embedding",
                "--freq", str(counts), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(counts) in err and reason in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "model.ckpt"]


def test_counts_repeated_id_keeps_last_line(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    counts = tmp_path / "counts.csv"
    counts.write_text("token_id,count\n2,5\n0,1\n2,9\n")
    out = tmp_path / "scores.csv"
    assert run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt), "--tensor", "embedding",
                "--freq", str(counts), "--out", str(out)]) == 0
    assert read_scores_csv(out).frequency.tolist() == [1, 0, 9, 0]


@pytest.mark.parametrize(
    "extra", ["garbage\n", "token_ids=3\n"], ids=["no-equals", "repeated-key"]
)
def test_malformed_ticket_file_exits_two(tmp_path, capsys, extra):
    tickets = tmp_path / "tickets.txt"
    tickets.write_text("method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=1\n" + extra)
    code = run(["mask", "--tickets", str(tickets), "--out", str(tmp_path / "m.txt")])
    assert code == 2
    assert f"{tickets}: bad ticket row at line 6" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, argv, reason",
    [("tickets.txt", "method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=3,1\n",
      ["mask", "--tickets"], "token_ids must be strictly ascending"),
     ("tickets.txt", "method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=3,x\n",
      ["mask", "--tickets"], "invalid literal for int() with base 10: 'x'"),
     ("scores.csv", "token_id,ks_statistic,p_value,cos,abs_l2,relative,ratio,kl,frequency\n"
      "1,0,1,1,0,0,1,0,\n", ["select", "--method", "cos", "--top-k", "1", "--scores"],
      "scores must cover token ids 0..V-1 exactly once"),
     ("tickets.txt", "method=ks\nalpha=\ntau=\nvocab_size=-3\ntoken_ids=\n",
      ["mask", "--tickets"], "vocab_size -3 must be >= 0"),
     ("scores.csv", f"{SCORES_HEADER}\n",
      ["select", "--alpha", "0.05", "--dim", "64", "--scores"], "no rows"),
     ("log.csv", f"{LOG_HEADER}\n",
      ["certify", "--dim", "4", "--alpha", "0.05", "--log"], "no records"),
     ("log.csv", f"{LOG_HEADER}\n0,3,1,1,0.9,0.1,,,\n",
      ["certify", "--dim", "4", "--alpha", "0.05", "--first-k", "2", "--log"],
      "no records at a position below --first-k 2")],
    ids=["tickets-descending", "tickets-non-integer", "scores-missing-id",
         "tickets-negative-vocab", "scores-header-only", "log-header-only",
         "log-emptied-by-first-k"],
)
def test_table_errors_name_the_file(tmp_path, capsys, name, text, argv, reason):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out.txt"
    assert run([*argv, str(path), "--out", str(out)]) == 2
    assert f"error: {path}: {reason}\n" == capsys.readouterr().err
    assert not out.exists()


def test_whole_file_faults_of_select_and_certify_name_the_file(tmp_path, capsys):
    scores, log = tmp_path / "scores.csv", tmp_path / "log.csv"
    scores.write_text(SCORES_HEADER + "\n" + "".join(f"{i},0,1,1,0,0,1,0,\n" for i in range(8192)))
    log.write_text(f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n")
    out = tmp_path / "out.txt"
    for argv, reason in (
        (["select", "--scores", scores, "--method", "frequency", "--top-k", "1"],
         f"{scores}: frequency ranking requires counts on every score"),
        (["select", "--scores", scores, "--method", "ks", "--top-k", "9000"],
         f"{scores}: k=9000 exceeds vocab size 8192"),
        (["certify", "--log", log, "--dim", "4", "--alpha", "0.05", "--prob-source", "base"],
         f"{log}: record has no base-model probabilities"),
    ):
        assert run([*map(str, argv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()


def _only_named_error(err: str, path) -> None:
    """err's first line names path once, as `error: path: reason`."""
    assert err.splitlines()[0].startswith(f"error: {path}: ")
    assert err.count(str(path)) == 1


UNDECODABLE = [
    ("scores.csv", f"{SCORES_HEADER}\n0,\xff", ["select", "--method", "ks", "--top-k", "1",
                                                "--scores", "{bad}"]),
    ("log.csv", f"{LOG_HEADER}\n\xff", ["certify", "--dim", "4", "--alpha", "0.05",
                                        "--log", "{bad}"]),
    ("task.csv", "source,target\n0,\xff\n", ["toy", "eval", "--model", "{ckpt}",
                                            "--task", "{bad}"]),
    ("counts.csv", "token_id,count\n\xff,1\n", ["analyze", "--base", "{ckpt}", "--tuned", "{ckpt}",
                                               "--tensor", "embedding", "--freq", "{bad}"]),
    ("tickets.txt", "method=ks\xff\n", ["mask", "--tickets", "{bad}"]),
    ("corpus.txt", "1 2 \xff\n", ["freq", "--vocab", "8", "--corpus", "{bad}"]),
]


@pytest.mark.parametrize("name, text, argv", UNDECODABLE,
                         ids=["scores", "log", "task", "counts", "tickets", "corpus"])
def test_undecodable_text_names_the_file(tmp_path, capsys, name, text, argv):
    ckpt, bad, out = tmp_path / "model.ckpt", tmp_path / name, tmp_path / "out.txt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    bad.write_bytes(text.encode("latin-1"))
    assert run([a.format(bad=bad, ckpt=ckpt) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    _only_named_error(err, bad)
    assert "can't decode byte 0xff" in err
    assert not out.exists()


@pytest.mark.parametrize("name, text, argv, reason", [
    ("corpus.txt", "1\n2\n7\n", ["freq", "--vocab", "4", "--corpus"],
     "token id 7 out of range [0, 4) at position 2\n"),
    ("corpus.txt", "1\n99999999999999999999\n", ["freq", "--vocab", "4", "--corpus"], ""),
    ("counts.csv", "token_id,count\n0,99999999999999999999\n",
     ["analyze", "--base", "{ckpt}", "--tuned", "{ckpt}", "--tensor", "embedding", "--freq"], ""),
    ("scores.csv", f"{SCORES_HEADER}\n99999999999999999999,0,1,1,0,0,1,0,\n",
     ["select", "--method", "ks", "--top-k", "1", "--scores"], ""),
    ("log.csv", f"{LOG_HEADER}\n0,99999999999999999999,1,1,0.9,0.1,,,\n",
     ["certify", "--dim", "4", "--alpha", "0.05", "--log"], ""),
], ids=["corpus-id-outside-vocab", "corpus-id-beyond-int64", "count-beyond-int64",
        "scores-id-beyond-int64", "log-position-beyond-int64"])
def test_ids_out_of_range_name_the_file(tmp_path, capsys, name, text, argv, reason):
    ckpt, bad, out = tmp_path / "model.ckpt", tmp_path / name, tmp_path / "out.txt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    bad.write_text(text)
    assert run([a.format(ckpt=ckpt) for a in argv] + [str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    _only_named_error(err, bad)
    assert err.endswith(reason)
    assert not out.exists()


def test_transfer_names_the_ticket_file_of_another_vocab(tmp_path, capsys):
    ckpt, tickets, out = tmp_path / "model.ckpt", tmp_path / "t.txt", tmp_path / "out.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    write_ticket_file(WinningTicketSet(method="ks", vocab_size=5, token_ids=(1,)), tickets)
    argv = ["transfer", "--base", str(ckpt), "--tuned", str(ckpt), "--tickets", str(tickets),
            "--out", str(out), "--tensor"]
    assert run(argv + ["embedding"]) == 2
    assert capsys.readouterr().err == (
        f"error: {tickets}: ticket vocab_size 5 does not match tensor rows 4\n")
    # a missing tensor is the checkpoints' fault, not the ticket file's
    assert run(argv + ["nosuch"]) == 2
    assert capsys.readouterr().err == "error: tensor not found: 'nosuch'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["toy", "train", "--mode", "embed", "--task", "{task}", "--model", "{bad}"],
    ["toy", "eval", "--task", "{task}", "--model", "{bad}"],
    ["toy", "predict-log", "--task", "{task}", "--tuned", "{bad}"],
    ["toy", "predict-log", "--task", "{task}", "--tuned", "{ckpt}", "--partial", "{bad}"],
    ["toy", "predict-log", "--task", "{task}", "--tuned", "{ckpt}", "--partial", "{ckpt}",
     "--base", "{bad}"],
], ids=["train", "eval", "predict-log-tuned", "predict-log-partial", "predict-log-base"])
def test_toy_commands_name_the_checkpoint_without_a_model_tensor(tmp_path, capsys, argv):
    ckpt, bad, task = tmp_path / "model.ckpt", tmp_path / "emb_only.ckpt", tmp_path / "task.csv"
    model = model_to_checkpoint(init_model(1, 4, 2))
    write_checkpoint(model, ckpt)
    write_checkpoint(Checkpoint([model.tensor("embedding")]), bad)
    write_task_csv(generate_task(1, 4, 10), task)
    out = tmp_path / "out.txt"
    assert run([a.format(bad=bad, ckpt=ckpt, task=task) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: tensor not found: 'output_weights'\n"
    assert not out.exists()


def test_checkpoint_with_trailing_bytes_exits_two(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    with open(ckpt, "ab") as fh:
        fh.write(bytes(8))
    code = run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt),
                "--tensor", "embedding", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "8 trailing payload bytes" in capsys.readouterr().err


def test_mixed_blank_log_columns_are_absent(tmp_path, capsys):
    """A column blank in some rows reads as absent in every row."""
    def log_file(name, cells):
        rows = [f"0,{k},1,{1 + k % 2},0.9,0.{k},{cells(k)}" for k in range(6)]
        (tmp_path / name).write_text("\n".join([LOG_HEADER, *rows]) + "\n")
        return str(tmp_path / name)

    mixed = log_file("mixed.csv", lambda k: f"{'' if k == 2 else 1},"
                                            + ("," if k == 4 else "0.8,0.1"))
    blank = log_file("blank.csv", lambda k: ",,")
    certify = ["certify", "--dim", "4", "--alpha", "0.05,1.0"]
    assert run([*certify, "--log", mixed, "--out", str(tmp_path / "m.txt")]) == 0
    assert run([*certify, "--log", blank, "--out", str(tmp_path / "b.txt")]) == 0
    report = (tmp_path / "m.txt").read_text()
    assert report == (tmp_path / "b.txt").read_text()
    assert "prediction_accuracy=\n" in report and "n_records=6\n" in report
    code = run([*certify, "--log", mixed, "--prob-source", "base", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "record has no base-model probabilities" in capsys.readouterr().err


def test_mixed_blank_frequency_column_is_absent(tmp_path, capsys):
    def scores_file(name, freq):
        rows = [f"{i},0.{i},0.5,0.9,0.{3 - i},1,0.{i},0.{i},{freq(i)}" for i in range(4)]
        (tmp_path / name).write_text("\n".join([SCORES_HEADER, *rows]) + "\n")
        return str(tmp_path / name)

    mixed = scores_file("mixed.csv", lambda i: "" if i == 1 else 7)
    blank = scores_file("blank.csv", lambda i: "")
    select = ["select", "--method", "abs", "--top-k", "2"]
    assert run([*select, "--scores", mixed, "--out", str(tmp_path / "m.txt")]) == 0
    assert run([*select, "--scores", blank, "--out", str(tmp_path / "b.txt")]) == 0
    assert (tmp_path / "m.txt").read_text() == (tmp_path / "b.txt").read_text()
    assert "token_ids=0,1\n" in (tmp_path / "m.txt").read_text()
    code = run(["select", "--method", "frequency", "--top-k", "1", "--scores", mixed,
                "--out", str(tmp_path / "f.txt")])
    assert code == 2
    assert "frequency ranking requires counts on every score" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, message",
    [(["freq", "--corpus", "{dir}/corpus.txt", "--vocab", "64", "--top-k", "65"], 2,
      "error: --top-k 65 exceeds --vocab 64\n"),
     (["select", "--scores", "{dir}/scores.csv", "--method", "ks"], 1,
      "usage error: --method requires --top-k\n"),
     (["certify", "--log", "{dir}/log.csv", "--dim", "4", "--alpha", ","], 1,
      "usage error: at least one alpha required\n")],
    ids=["freq-top-k-above-vocab", "select-method-without-top-k", "certify-no-alpha"],
)
def test_option_errors_write_nothing(workdir, capsys, argv, code, message):
    full_analyze(workdir)
    (workdir / "log.csv").write_text(f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n")
    out = workdir / "out.txt"
    assert run([a.format(dir=workdir) for a in argv] + ["--out", str(out)]) == code
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["select", "--scores", "{dir}/absent.csv", "--alpha", "0.05"], "--alpha requires --dim"),
    (["select", "--scores", "{dir}/absent.csv", "--method", "ks"], "--method requires --top-k"),
    (["certify", "--log", "{dir}/absent.csv", "--dim", "4", "--alpha", ","],
     "at least one alpha required"),
    (["certify", "--log", "{dir}/absent.csv", "--dim", "4", "--alpha", "0.05,x"],
     "bad --alpha list: '0.05,x'"),
    (["toy", "train", "--model", "{dir}/absent.ckpt", "--task", "{dir}/absent.csv",
      "--mode", "partial"], "--mode partial requires --tickets"),
    (["toy", "train", "--model", "{dir}/absent.ckpt", "--task", "{dir}/absent.csv",
      "--mode", "frozen_complement"], "--mode frozen_complement requires --tickets"),
], ids=["select-alpha-without-dim", "select-method-without-top-k", "certify-no-alpha",
        "certify-bad-alpha", "train-partial-without-tickets",
        "train-frozen-complement-without-tickets"])
def test_usage_errors_come_before_any_input_is_read(tmp_path, capsys, argv, message):
    # every input named here is absent: reading one would exit 2 instead
    out = tmp_path / "out.txt"
    assert run([a.format(dir=tmp_path) for a in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["select", "--scores", "{dir}/absent.csv", "--alpha", "0.05", "--dim", "1"],
     "--dim must be >= 2, got 1"),
    (["select", "--scores", "{dir}/absent.csv", "--alpha", "1.5", "--dim", "8"],
     "alpha must be in (0, 1], got 1.5"),
    (["certify", "--log", "{dir}/absent.csv", "--dim", "1", "--alpha", "0.05"],
     "--dim must be >= 2, got 1"),
    (["certify", "--log", "{dir}/absent.csv", "--dim", "8", "--alpha", "0.05,1.5"],
     "alpha must be in (0, 1], got 1.5"),
], ids=["select-dim", "select-alpha", "certify-dim", "certify-alpha"])
def test_dim_and_alpha_errors_come_before_any_input_is_read(tmp_path, capsys, argv, message):
    # as above, every input is absent; a domain error still exits 2, as a data error does
    out = tmp_path / "out.txt"
    assert run([a.format(dir=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


TRAIN_ABSENT = ["toy", "train", "--model", "{dir}/absent.ckpt", "--task", "{dir}/absent.csv",
                "--mode", "embed"]


@pytest.mark.parametrize("argv, message", [
    (["freq", "--corpus", "{dir}/absent.txt", "--vocab", "8", "--top-k", "-1"],
     "--top-k must be >= 0, got -1"),
    (["freq", "--corpus", "{dir}/absent.txt", "--vocab", "8", "--top-k", "9"],
     "--top-k 9 exceeds --vocab 8"),
    (["freq", "--corpus", "{dir}/absent.txt", "--vocab", "-1"], "--vocab must be >= 0, got -1"),
    (["select", "--scores", "{dir}/absent.csv", "--method", "ks", "--top-k", "-1"],
     "--top-k must be >= 0, got -1"),
    (["select", "--scores", "{dir}/absent.csv", "--alpha", "0.05", "--dim", "8", "--top-k", "-1"],
     "--top-k must be >= 0, got -1"),
    (["select", "--scores", "{dir}/absent.csv", "--method", "ks", "--top-k", "3", "--dim", "1"],
     "--dim must be >= 2, got 1"),
    (["certify", "--log", "{dir}/absent.csv", "--dim", "8", "--alpha", "0.05", "--first-k", "0"],
     "--first-k must be >= 1, got 0"),
    ([*TRAIN_ABSENT, "--lr", "0"], "learning_rate must be finite and > 0, got 0.0"),
    ([*TRAIN_ABSENT, "--epochs", "-1"], "epochs must be >= 0"),
    ([*TRAIN_ABSENT, "--batch-size", "0"], "batch_size must be >= 1"),
    ([*TRAIN_ABSENT, "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["freq-top-k-negative", "freq-top-k-above-vocab", "freq-vocab", "select-top-k",
        "select-alpha-top-k", "select-method-dim", "certify-first-k", "train-lr", "train-epochs",
        "train-batch-size", "train-seed"])
def test_option_values_are_checked_before_any_input_is_read(tmp_path, capsys, argv, message):
    # every input is absent: reading one would name the file instead
    out = tmp_path / "out.txt"
    assert run([a.format(dir=tmp_path) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _python(*args, timeout=None):
    """python args in a child process that imports this checkout's kstickets."""
    src = str(Path(kstickets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)


def test_python_m_runs_the_cli(tmp_path):
    gen = ["toy", "gen", "--seed", "1", "--vocab", "16", "--pairs", "20", "--out"]
    proc = _python("-m", "kstickets.cli", *gen, str(tmp_path / "m.csv"))
    assert proc.returncode == 0, proc.stderr
    assert run([*gen, str(tmp_path / "run.csv")]) == 0
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()


@pytest.fixture()
def concurrent_reads(monkeypatch):
    """analyze and transfer read their pair on two threads, whatever its size."""
    monkeypatch.setattr(checkpoint, "CONCURRENT_READ_BYTES", 0)
    monkeypatch.setattr(checkpoint, "_cpu_count", lambda: 2)


def _pair_argv(command, base, tuned, tickets, out):
    extra = ["--tickets", str(tickets)] if command == "transfer" else []
    return [command, "--base", str(base), "--tuned", str(tuned), "--tensor", "embedding",
            *extra, "--out", str(out)]


def test_concurrent_reads_write_the_same_bytes(workdir, monkeypatch, started_threads):
    full_analyze(workdir)
    tickets = workdir / "tickets.txt"
    assert run(["select", "--scores", str(workdir / "scores.csv"), "--alpha", "0.05", "--dim", "32",
                "--out", str(tickets)]) == 0
    base, tuned = workdir / "base.ckpt", workdir / "tuned.ckpt"
    outputs = {}
    for concurrent in (False, True):
        if concurrent:
            monkeypatch.setattr(checkpoint, "CONCURRENT_READ_BYTES", 0)
            monkeypatch.setattr(checkpoint, "_cpu_count", lambda: 2)
        for command, name in (("analyze", "scores.csv"), ("transfer", "spliced.ckpt")):
            out = workdir / f"{concurrent}-{name}"
            assert run(_pair_argv(command, base, tuned, tickets, out)) == 0
            outputs[concurrent, command] = out.read_bytes()
    assert started_threads.count("read_checkpoints") == 2
    for command in ("analyze", "transfer"):
        assert outputs[True, command] == outputs[False, command]


@pytest.mark.parametrize("command", ["analyze", "transfer"])
@pytest.mark.parametrize("bad", [("base", "tuned"), ("tuned",)], ids=["both", "tuned-only"])
def test_concurrent_reads_name_the_first_malformed_checkpoint(workdir, capsys, concurrent_reads,
                                                             started_threads, command, bad):
    paths = {"base": workdir / "base.ckpt", "tuned": workdir / "tuned.ckpt"}
    for name in bad:
        paths[name] = workdir / f"bad-{name}.ckpt"
        paths[name].write_bytes(b"not a checkpoint at all")
    full_analyze(workdir)
    capsys.readouterr()
    assert run(["select", "--scores", str(workdir / "scores.csv"), "--method", "ks", "--top-k", "3",
                "--out", str(workdir / "tickets.txt")]) == 0
    out = workdir / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(_pair_argv(command, paths["base"], paths["tuned"], workdir / "tickets.txt", out))
        gc.collect()  # an unclosed file warns when it is collected
    assert code == 2
    assert capsys.readouterr().err == f"error: {paths[bad[0]]}: not a checkpoint\n"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not out.exists()
    assert "read_checkpoints" in started_threads


def test_a_fifo_is_never_read_on_the_second_thread(tmp_path):
    # a malformed --base fails before the --tuned FIFO, which has no writer, is opened
    bad, fifo = tmp_path / "bad.ckpt", tmp_path / "fifo"
    bad.write_bytes(b"not a checkpoint at all")
    os.mkfifo(fifo)
    script = ("import sys; from kstickets import checkpoint, cli; "
              "checkpoint.CONCURRENT_READ_BYTES = 0; checkpoint._cpu_count = lambda: 2; "
              "sys.exit(cli.run(sys.argv[1:]))")
    argv = _pair_argv("analyze", bad, fifo, None, tmp_path / "s.csv")
    proc = _python("-c", script, *argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {bad}: not a checkpoint\n"


def test_analyze_threads_import_no_executor(tmp_path):
    # concurrent.futures costs a fresh process milliseconds to import;
    # analyze_pair's threads must start without it
    rows = 2 * (selection._CHUNK_ELEMENTS // 8) + 1  # 3 blocks
    matrix = np.random.default_rng(3).normal(size=(2, rows, 8)).astype(np.float32)
    base, tuned = tmp_path / "base.ckpt", tmp_path / "tuned.ckpt"
    for path, values in zip((base, tuned), matrix):
        write_checkpoint(Checkpoint([TensorRecord("embedding", values.shape, values)]), path)
    script = ("import sys, threading; from kstickets import checkpoint, cli, selection\n"
              "checkpoint._cpu_count = selection._cpu_count = lambda: 2\n"
              "names, start = [], threading.Thread.start\n"
              "threading.Thread.start = lambda self: (names.append(self.name), start(self))\n"
              "assert cli.run(sys.argv[1:]) == 0\n"
              "assert 'analyze_pair' in names, names\n"
              "assert 'concurrent.futures' not in sys.modules\n")
    argv = _pair_argv("analyze", base, tuned, None, tmp_path / "s.csv")
    proc = _python("-c", script, *argv, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_one_cpu_starts_no_thread(workdir, monkeypatch, started_threads):
    # many small blocks, so analyze_pair's pool would start on two CPUs
    monkeypatch.setattr(selection, "_CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(checkpoint, "CONCURRENT_READ_BYTES", 0)
    assert selection._cpu_count is checkpoint._cpu_count  # one rule for both
    full_analyze(workdir)
    tickets = workdir / "tickets.txt"
    assert run(["select", "--scores", str(workdir / "scores.csv"), "--method", "ks", "--top-k", "3",
                "--out", str(tickets)]) == 0
    base, tuned = workdir / "base.ckpt", workdir / "tuned.ckpt"
    for cpus in (2, 1):
        started_threads.clear()
        for module in (checkpoint, selection):
            monkeypatch.setattr(module, "_cpu_count", lambda: cpus)
        for command in ("analyze", "transfer"):
            assert run(_pair_argv(command, base, tuned, tickets, workdir / f"{cpus}-{command}")) == 0
        if cpus == 2:  # the reader in each command, and analyze_pair's pool
            assert started_threads.count("read_checkpoints") == 2
            assert len(started_threads) > 2
        else:
            assert started_threads == []
