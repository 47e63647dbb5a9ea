"""Subcommand front-end: analyze -> select -> (mask | transfer) -> certify,
plus toy-training and token-frequency utilities.

Every stage reads and writes plain files, so a full experiment is a shell
script. Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from ._text import Column, fmt_float, naming, numpy_or_none, read_csv, write_csv, write_text
from .certify import (
    PROB_SOURCES,
    alpha_sweep,
    filter_first_k,
    read_prediction_log,
    write_prediction_log,
    write_reports,
)
from .checkpoint import (
    read_checkpoint,
    read_checkpoints,
    validate_pair,
    write_checkpoint,
)
from .ksstat import ks_tau
from .selection import (
    SELECTION_METHODS,
    analyze_pair,
    read_scores_csv,
    read_ticket_file,
    select_by_alpha,
    select_top_k,
    count_frequencies,
    write_scores_csv,
    write_ticket_file,
)
from .toytrain import (
    TRAIN_MODES,
    TrainConfig,
    emit_prediction_log,
    evaluate,
    generate_task,
    init_model,
    model_from_checkpoint,
    model_to_checkpoint,
    read_task_csv,
    train,
    write_task_csv,
)
from .transfer import _splice_files, emit_mask, write_mask_file

__all__ = ["run", "main", "build_parser"]

COUNTS_HEADER = "token_id,count"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_counts_csv(counts: np.ndarray, path, top_k: int | None) -> None:
    ids = np.arange(counts.size)
    if top_k is not None:
        ids = np.lexsort((ids, -counts))[:top_k]
    write_csv(path, COUNTS_HEADER, [ids, counts[ids]])


def _read_counts_csv(path, vocab_size: int) -> np.ndarray:
    """The count of every id 0..V-1: 0 when not listed, the last line's when repeated."""
    token_id = Column(np.int64, valid=lambda i: (0 <= i) & (i < vocab_size),
                      invalid=f"token id {{}} outside [0, {vocab_size})")
    count = Column(np.int64, valid=lambda c: c >= 0, invalid="negative count {}")
    columns = read_csv(path, COUNTS_HEADER, (token_id, count), "counts")
    with naming(path):  # a count beyond int64
        ids, values = (np.asarray(c, dtype=np.int64) for c in columns)
    last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
    counts = np.zeros(vocab_size, dtype=np.int64)
    counts[ids[last]] = values[last]
    return counts


def _read_corpus(path) -> np.ndarray:
    """Whitespace-separated ids; an id beyond int64 raises OverflowError (exit 2).

    numpy's C parser reads the text first. Its answer is kept unless it
    warned or raised, or the text has a sign or no token (numpy reads a lone
    sign, or blank text, as 0), or an id is int64's maximum (numpy clamps an
    overflow to it); then Python's split() and int() decide.
    """
    with naming(path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if "-" not in text and "+" not in text and not text.isspace():
            ids = numpy_or_none(np.fromstring, text, dtype=np.int64, sep=" ")
            if ids is not None and not (ids == np.iinfo(np.int64).max).any():
                return ids
        try:
            return np.array(text.split(), dtype=np.int64)
        except ValueError as exc:
            raise ValueError("corpus must contain integer token ids") from exc


def _read_model(path):
    """The toy model in the checkpoint at path; a missing tensor names the file."""
    ckpt = read_checkpoint(path)
    with naming(path):
        return model_from_checkpoint(ckpt)


def _off_lattice(statistic: np.ndarray, d: int) -> np.ndarray:
    """The rows whose KS statistic is not k/d for an integer 0 <= k <= d.

    analyze computes D as k/d, one correctly rounded division, and writes it
    to 9 significant digits, within 5e-9 * D of k/d, so D * d lies within
    5e-9 * d of k: the tolerance 1e-8 * d keeps every such row. For a true
    dimension and a d both up to 4096, a statistic off the 1/d lattice is at
    least 1/4096 - 5e-9 * d from it, so a d that is not a multiple of the
    true one is caught on any row with such a k.
    """
    x = statistic * d
    on = (np.abs(x - np.rint(x)) <= 1e-8 * d) & (statistic >= 0) & (statistic <= 1)
    return np.flatnonzero(~on)


def _at_least(args, **bounds) -> None:
    """Each given option's lower bound, checked before any input is read."""
    for name, low in bounds.items():
        if (value := getattr(args, name)) is not None and value < low:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def _required(p, *flags, **kwargs) -> None:
    for flag in flags:
        p.add_argument(flag, required=True, **kwargs)


def _analyze_options(p) -> None:
    _required(p, "--base", "--tuned", "--tensor")
    p.add_argument("--freq", help="counts CSV to attach as the frequency column")
    _required(p, "--out")


def _cmd_analyze(args) -> None:
    base, tuned = read_checkpoints(args.base, args.tuned)
    vb, vt = validate_pair(base, tuned, args.tensor)
    # a malformed counts file fails before any row is scored
    freq = None if args.freq is None else _read_counts_csv(args.freq, vb.shape[0])
    write_scores_csv(replace(analyze_pair(vb, vt), frequency=freq), args.out)


def _select_options(p) -> None:
    _required(p, "--scores")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha", type=float)
    p.add_argument("--dim", type=int)
    mode.add_argument("--method", choices=SELECTION_METHODS)
    p.add_argument("--top-k", type=int)
    _required(p, "--out")


def _cmd_select(args) -> None:
    if args.alpha is not None and args.dim is None:
        raise _UsageError("--alpha requires --dim")
    if args.method is not None and args.top_k is None:
        raise _UsageError("--method requires --top-k")
    _at_least(args, dim=2, top_k=0)
    if args.alpha is not None:
        ks_tau(args.alpha, args.dim)
    scores = read_scores_csv(args.scores)
    with naming(args.scores):
        if args.alpha is not None:
            tickets = select_by_alpha(scores, args.alpha, args.dim)
            if (off := _off_lattice(scores.ks_statistic, args.dim)).size:
                i = int(off[0])
                raise ValueError(f"line {i + 2}: ks_statistic {fmt_float(scores.ks_statistic[i])} "
                                 f"is not k/{args.dim} for any k in 0..{args.dim}: were these "
                                 f"scores analyzed at another --dim?")
        else:
            tickets = select_top_k(scores, args.method, args.top_k)
    write_ticket_file(tickets, args.out)


def _mask_options(p) -> None:
    _required(p, "--tickets")
    p.add_argument("--complement", action="store_true")
    _required(p, "--out")


def _cmd_mask(args) -> None:
    tickets = read_ticket_file(args.tickets)
    write_mask_file(emit_mask(tickets, complement=args.complement), args.out)


def _transfer_options(p) -> None:
    _required(p, "--base", "--tuned", "--tensor", "--tickets", "--out")


def _cmd_transfer(args) -> None:
    # the ticket file is read first, for the rows of --tuned to keep; its
    # fault is raised after any of either checkpoint, as if read after them
    try:
        tickets, held = read_ticket_file(args.tickets), None
    except (ValueError, OverflowError, OSError) as exc:
        tickets, held = None, exc

    def check(base, tuned):
        if held is not None:
            raise held
        rows = validate_pair(base, tuned, args.tensor)[0].shape[0]  # a missing tensor first
        with naming(args.tickets):
            tickets.check_vocab(rows, "tensor rows")

    ids = tickets.token_ids if tickets is not None else ()
    _splice_files(args.base, args.tuned, args.tensor, ids, args.out, check)


def _certify_options(p) -> None:
    _required(p, "--log")
    _required(p, "--dim", type=int)
    _required(p, "--alpha", help="comma-separated significance levels")
    p.add_argument("--prob-source", choices=PROB_SOURCES, default="tuned")
    p.add_argument("--first-k", type=int, help="keep only the first K positions per example")
    _required(p, "--out")


def _cmd_certify(args) -> None:
    try:
        alphas = [float(a) for a in args.alpha.split(",") if a]
    except ValueError as exc:
        raise _UsageError(f"bad --alpha list: {args.alpha!r}") from exc
    if not alphas:
        raise _UsageError("at least one alpha required")
    _at_least(args, dim=2, first_k=1)
    for alpha in alphas:
        ks_tau(alpha, args.dim)
    log = read_prediction_log(args.log)
    with naming(args.log):
        log = log if args.first_k is None else filter_first_k(log, args.first_k)
        if not len(log):
            kept = "" if args.first_k is None else f" at a position below --first-k {args.first_k}"
            raise ValueError(f"no records{kept}")
        reports = alpha_sweep(log, alphas, args.dim, args.prob_source)
    write_reports(reports, args.out)


def _freq_options(p) -> None:
    _required(p, "--corpus")
    _required(p, "--vocab", type=int)
    p.add_argument("--top-k", type=int, help="write only the K most frequent tokens")
    _required(p, "--out")


def _cmd_freq(args) -> None:
    _at_least(args, vocab=0, top_k=0)
    if args.top_k is not None and args.top_k > args.vocab:
        raise ValueError(f"--top-k {args.top_k} exceeds --vocab {args.vocab}")
    corpus = _read_corpus(args.corpus)
    with naming(args.corpus):
        counts = count_frequencies(corpus, args.vocab)
    _write_counts_csv(counts, args.out, args.top_k)


def _toy_gen_options(p) -> None:
    _required(p, "--seed", "--vocab", "--pairs", type=int)
    p.add_argument("--zipf", type=float, default=1.5)
    _required(p, "--out")


def _cmd_toy_gen(args) -> None:
    task = generate_task(args.seed, args.vocab, args.pairs, args.zipf)
    write_task_csv(task, args.out)


def _toy_init_options(p) -> None:
    _required(p, "--seed", "--vocab", "--dim", type=int)
    _required(p, "--out")


def _cmd_toy_init(args) -> None:
    write_checkpoint(model_to_checkpoint(init_model(args.seed, args.vocab, args.dim)), args.out)


def _toy_train_options(p) -> None:
    _required(p, "--model", "--task")
    _required(p, "--mode", choices=list(TRAIN_MODES))
    p.add_argument("--tickets")
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    _required(p, "--out")
    p.add_argument("--loss-out")


def _cmd_toy_train(args) -> None:
    if args.tickets is None and args.mode in ("partial", "frozen_complement"):
        raise _UsageError(f"--mode {args.mode} requires --tickets")
    # the options' domain errors, under a mode that needs no tickets, before any read
    config = TrainConfig(mode="full", learning_rate=args.lr, epochs=args.epochs,
                         seed=args.seed, batch_size=args.batch_size)
    model = _read_model(args.model)
    task = read_task_csv(args.task, model.vocab_size)
    tickets = None if args.tickets is None else read_ticket_file(args.tickets)
    if tickets is not None:
        with naming(args.tickets):
            tickets.check_vocab(model.vocab_size, "model vocab")
    tuned, losses = train(model, task, replace(config, mode=args.mode, tickets=tickets))
    write_checkpoint(model_to_checkpoint(tuned), args.out)
    if args.loss_out is not None:
        write_csv(args.loss_out, "epoch,loss", [np.arange(len(losses)), np.array(losses)])


def _toy_eval_options(p) -> None:
    _required(p, "--model", "--task")
    p.add_argument("--out")


def _cmd_toy_eval(args) -> None:
    model = _read_model(args.model)
    task = read_task_csv(args.task, model.vocab_size)
    line = f"accuracy={fmt_float(evaluate(model, task))}"
    print(line)
    if args.out is not None:
        write_text(args.out, line + "\n")


def _toy_predict_log_options(p) -> None:
    _required(p, "--tuned")
    p.add_argument("--partial")
    p.add_argument("--base")
    _required(p, "--task", "--out")


def _cmd_toy_predict_log(args) -> None:
    tuned, partial, base = (None if path is None else _read_model(path)
                            for path in (args.tuned, args.partial, args.base))
    task = read_task_csv(args.task, tuned.vocab_size)
    write_prediction_log(emit_prediction_log(tuned, partial, base, task), args.out)


_COMMANDS = {  # name: (help, handler, adds its options); a group: (help, None, its own table)
    "analyze": ("score every row of a checkpoint pair", _cmd_analyze, _analyze_options),
    "select": ("pick winning-ticket rows from a scores CSV", _cmd_select, _select_options),
    "mask": ("emit a 0/1 trainability mask from tickets", _cmd_mask, _mask_options),
    "transfer": ("splice ticket rows from tuned into base", _cmd_transfer, _transfer_options),
    "certify": ("certified-accuracy report from a prediction log", _cmd_certify, _certify_options),
    "freq": ("count token occurrences in an id stream", _cmd_freq, _freq_options),
    "toy": ("desk-scale trainer utilities", None, {
        "gen": ("generate a seeded Zipf token-mapping task", _cmd_toy_gen, _toy_gen_options),
        "init": ("initialize a seeded model checkpoint", _cmd_toy_init, _toy_init_options),
        "train": ("train a model on a task (maskable modes)", _cmd_toy_train, _toy_train_options),
        "eval": ("pair accuracy of a model on a task", _cmd_toy_eval, _toy_eval_options),
        "predict-log": ("emit a per-pair prediction log CSV", _cmd_toy_predict_log,
                        _toy_predict_log_options),
    }),
}


def _names_leaf(table, argv) -> bool:
    """Whether argv starts with command names that end at a leaf of table."""
    entry = table.get(argv[0]) if argv else None
    return entry is not None and (entry[1] is not None or _names_leaf(entry[2], argv[1:]))


def _add_commands(parser, dest, table, argv) -> None:
    sub = parser.add_subparsers(dest=dest, parser_class=_Parser)
    named = _names_leaf(table, argv)
    for name in argv[:1] if named else table:
        help_text, handler, options = table[name]
        p = sub.add_parser(name, help=help_text)
        if handler is None:
            _add_commands(p, f"{name}_command", options, argv[1:] if named else ())
        else:
            options(p)
            p.set_defaults(handler=handler)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """Every command's parser, or only those on the path to the leaf command
    argv names (`mask ...`, `toy train ...`): building all of them is most of a
    short stage's time. Any other argv (no command, --help, an unknown
    command, `toy` alone) gets them all, so every help and usage text holds."""
    parser = _Parser(prog="kstickets", description=__doc__)
    _add_commands(parser, "command", _COMMANDS, list(argv))
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
