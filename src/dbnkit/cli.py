"""Command-line front end: file-driven access to every library operation.

Numeric output goes to stdout as tab-separated tables with 12 significant
digits, rows in time order and columns in state order, so identical
invocations are byte-identical and diffable.  Exit codes: 0 success,
1 usage error, 2 data or model error.

Every query runs its route of :mod:`dbnkit.inference` or
:mod:`dbnkit.decoding` on a model and the sequences of a file, whatever the
model type; the route builds the model's joint chain and evidence tables
once, and the library's queries run the same routes on one sequence.  The
CLI never flattens a CHMM.  ``sample`` draws from one view of the model per command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
from operator import attrgetter

import numpy as np

from . import chmm as chmm_mod
from . import inference, learning
from .convert import _joint_emission
from .decoding import _viterbi_paths
from .errors import DbnError
from .io import format_obs, load_model, load_observations, parse_obs_line, save_model
from .models import ChmmModel, HmmModel, _validate_sequences
from .oracle import run_equivalence_checks
from .sampling import _chains, _sampled

USAGE_EXIT = 1
DATA_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bounded(cast, accept, what):
    """An argparse ``type``: ``cast(text)``, or a usage error unless ``accept`` holds for it."""

    def parse(text):
        try:
            if accept(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_positive_int = _bounded(int, lambda v: v > 0, "a positive integer")
_nonnegative_int = _bounded(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _bounded(float, lambda v: v > 0, "a positive number")
_finite_nonnegative_float = _bounded(float, lambda v: 0 <= v < np.inf, "a finite nonnegative number")


def _fmt(x) -> str:
    return format(float(x), ".12g")


# Values per formatted block: small enough that every temporary of a block
# (the largest is 64 KB) stays under glibc's default 128 KB mmap threshold.
_BLOCK_VALUES = 2048
# Lowest and highest decimal exponent of a fast-path value, the lowest with a
# margin for 1e-280 not being an exact power of ten.
_EXP_LO, _EXP_HI = -283, 0
# What precedes a value's digits, by lead code: a marker for a value left to
# _fmt, zero, the fixed-notation leads of 1e-4 <= v < 1 (code 1 - exponent),
# and a first digit d alone or with the point (code 4 + 2d, 5 + 2d).
_LEADS = ("\x01", "0", "0.", "0.0", "0.00", "0.000") + tuple(f"{d}{p}" for d in range(1, 10) for p in ("", "."))
_SLOW, _ZERO = 0, 1


@functools.cache
def _format_tables():
    """Lookup tables of the block formatter, built on first use.

    ``scale[k - _EXP_LO]`` is 10**(11 - k) correctly rounded; ``full[g]`` and
    ``strip[g]`` pack the 4 digits of g as little-endian uint32 ASCII, ``strip``
    without trailing zeros; ``leads`` packs _LEADS and ``suffix[k - _EXP_LO]``
    the exponent ("e-05", or nothing for fixed notation), each as uint64.
    """
    exps = range(_EXP_LO, _EXP_HI + 1)
    scale = np.array([float(10 ** (11 - k)) for k in exps])
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10_000, dtype=np.uint16)[:, None] // places % 10).astype(np.uint8)
    chars = digits + np.uint8(ord("0"))
    kept = np.flip(np.logical_or.accumulate(np.flip(digits > 0, axis=1), axis=1), axis=1)
    full = chars.view("<u4")[:, 0].copy()
    strip = (chars * kept).view("<u4")[:, 0].copy()

    def pack(texts):
        return np.array([int.from_bytes(t.encode(), "little") for t in texts], dtype="<u8")

    suffix = pack(f"e{k:+03d}" if k < -4 else "" for k in exps)
    tables = scale, full, strip, pack(_LEADS), suffix
    for table in tables:
        table.setflags(write=False)  # shared by every later call
    return tables


def _format_block(x, seps):
    """The text of a block of float64 values, ``format(v, ".12g")`` each, value i followed by ``seps[i]``.

    Values in [1e-280, 1], the range of a probability table, and +0.0 are
    formatted here: scaled to 12 digits before the point, rounded, and
    assembled from the lookup tables into four 8-byte slots per value (lead,
    digits, digits, exponent with the separator in its last byte), whose zero
    padding is then dropped.  The scaled value is within 2.3e-4 of the exact
    one, so a value whose scaled fraction lies within 1e-3 of one half, and
    every other value, goes to ``_fmt``.
    """
    scale, full, strip, leads, suffix = _format_tables()
    fast = (x >= 1e-280) & (x <= 1.0)
    safe = np.where(fast, x, 1.0)
    k = np.floor(np.log10(safe)).astype(np.int64)
    s = safe * scale[k - _EXP_LO]
    k += (s >= 1e12).astype(np.int64) - (s < 1e11)  # log10 can miss a power of ten by one
    s = safe * scale[k - _EXP_LO]
    n = np.rint(s)
    fast &= np.abs(s - np.floor(s) - 0.5) >= 1e-3
    carry = n >= 1e12  # 9.99...95 rounds up to the next power of ten
    k += carry
    n = np.where(carry, 1e11, n).astype(np.int64)

    head, rest = np.divmod(n, 10**11)
    fixed_neg = (k < 0) & (k >= -4)
    body = np.where(fixed_neg, n, rest * 10)
    lead = np.where(fixed_neg, 1 - k, 4 + 2 * head + (rest != 0))
    zero = (x == 0.0) & ~np.signbit(x)
    lead = np.where(fast, lead, np.where(zero, _ZERO, _SLOW))
    fast |= zero
    body[~fast] = 0
    k[~fast] = 0

    g1, low = np.divmod(body, 10**8)
    g2, g3 = np.divmod(low, 10**4)
    out = np.zeros((x.size, 4), dtype="<u8")
    out[:, 0] = leads[lead]
    words = out.view("<u4")
    words[:, 2] = np.where(low != 0, full[g1], strip[g1])
    words[:, 3] = np.where(g3 != 0, full[g2], strip[g2])
    words[:, 4] = strip[g3]
    out[:, 3] = suffix[k - _EXP_LO] | seps
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    if fast.all():
        return text
    pieces = text.split("\x01")
    return "".join(p + _fmt(v) for p, v in zip(pieces, x[~fast])) + pieces[-1]


def _write_table(table):
    """Write a 2-D table's rows to stdout: values tab-separated, ``format(v, ".12g")`` each."""
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    per_block = max(1, _BLOCK_VALUES // cols)
    seps = np.full(cols * min(rows, per_block), ord("\t") << 56, dtype="<u8")
    seps[cols - 1 :: cols] = ord("\n") << 56
    for start in range(0, rows, per_block):
        block = table[start : start + per_block].ravel()
        sys.stdout.write(_format_block(block, seps[: block.size]))


def _print_row(values):
    _write_table(np.asarray(values, dtype=np.float64)[None, :])


def _print_tables(tables):
    """Print each table's rows, with a blank line between tables."""
    sep = ""
    for table in tables:
        sys.stdout.write(sep)
        _write_table(table)
        sep = "\n"
        del table  # a table may pin its stack, which must go before the next stack is made


def _load_obs_arg(value):
    if os.path.exists(value):
        return load_observations(value)
    return [parse_obs_line(value, ctx="--obs")]


def _query_inputs(args):
    """``(model, sequences)`` for a route: the ``--model`` file's model and the ``--obs`` sequences, validated for it."""
    model = load_model(args.model)
    return model, _validate_sequences(model, _load_obs_arg(args.obs))


def _cmd_validate(args):
    load_model(args.model)
    return 0


def _cmd_sample(args):
    if args.out and args.states_out and os.path.realpath(args.out) == os.path.realpath(args.states_out):
        raise _UsageError("--out and --states-out name the same file")
    chains = _chains(load_model(args.model))
    draws = (_sampled(chains, args.length, args.seed + i) for i in range(args.count))
    first = next(draws)  # a length over the byte budget raises here, before any file is opened
    with contextlib.ExitStack() as files:
        out = files.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
        states_out = files.enter_context(open(args.states_out, "w", encoding="utf-8")) if args.states_out else None
        for states, symbols in itertools.chain([first], draws):
            out.write(format_obs(symbols) + "\n")
            if states_out:
                states_out.write(format_obs(states) + "\n")
    return 0


def _cmd_likelihood(args):
    for ll in inference._log_likelihoods(*_query_inputs(args)):
        print(_fmt(ll))
    return 0


def _cmd_filter(args):
    inputs = _query_inputs(args)
    # map, not a generator expression, whose loop variable would keep a stack while the next one runs
    if args.particles is None:
        tables = map(attrgetter("scaled_alpha"), inference._filtered(*inputs))
    else:
        tables = map(attrgetter("estimates"), inference._particle_filters(*inputs, args.particles, args.seed))
    _print_tables(tables)
    return 0


def _cmd_smooth(args):
    _print_tables(map(attrgetter("gamma"), inference._smoothed(*_query_inputs(args))))
    return 0


def _cmd_predict(args):
    if args.observation and args.horizon != 1:
        raise _UsageError("--observation predicts one step ahead; --horizon must be 1")
    model, sequences = _query_inputs(args)
    predicted = inference._predicted(model, sequences, args.horizon)  # builds the joint chain before the emission
    emitted = _joint_emission(model) if args.observation else None
    for p in predicted:
        _print_row(emitted(p) if args.observation else p)
    return 0


def _cmd_decode(args):
    for result in _viterbi_paths(*_query_inputs(args)):
        print("\t".join(map(str, result.path.tolist())))
        if args.score:
            print(_fmt(result.log_joint_score))
    return 0


def _cmd_train(args):
    model = load_model(args.model)
    coupled = args.command == "train-chmm"
    if not isinstance(model, ChmmModel if coupled else HmmModel):
        hint = "" if coupled else "; use train-chmm for coupled models"
        kind = "a chmm" if coupled else "an hmm"
        raise DbnError(f"{args.command} expects {kind} initial model, got {type(model).__name__}{hint}")
    fit = chmm_mod.chmm_em if coupled else learning.baum_welch
    config = learning.EmConfig(max_iterations=args.max_iters, rel_tolerance=args.tol, pseudocount=args.pseudocount)
    trained, trace = fit(model, _load_obs_arg(args.obs), config)
    for ll in trace.log_likelihoods:
        print(_fmt(ll))
    save_model(trained, args.out)
    return 0


def _cmd_oracle_check(args):
    checks = run_equivalence_checks(args.count, args.seed)
    for name, worst, tol in checks:
        print(f"{name}: max deviation {worst:.3e} (tolerance {tol:.0e}) {'ok' if worst <= tol else 'FAIL'}")
    ok = all(worst <= tol for _, worst, tol in checks)
    print("all checks passed" if ok else "checks FAILED")
    return 0 if ok else DATA_EXIT


@functools.cache
def _build_parser():
    parser = _Parser(prog="dbnkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text, model=True, obs=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if model:
            p.add_argument("--model", required=True, help="model file (JSON)")
        if obs:
            p.add_argument("--obs", required=True, help="observation file or inline sequence")
        return p

    add("validate", _cmd_validate, "check a model file; exit 0 iff valid")

    p = add("sample", _cmd_sample, "draw observation sequences from a model")
    p.add_argument("--length", type=_positive_int, required=True, help="steps per sequence")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="base seed; sequence i uses seed+i")
    p.add_argument("--count", type=_positive_int, default=1, help="number of sequences")
    p.add_argument("--out", help="observation file to write (default stdout)")
    p.add_argument("--states-out", help="also write the sampled state paths here")

    add("likelihood", _cmd_likelihood, "log-likelihood of each sequence", obs=True)

    p = add("filter", _cmd_filter, "filtered state marginals, one row per step", obs=True)
    p.add_argument("--particles", type=_positive_int, help="use a particle filter with this many particles")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="particle filter seed")

    add("smooth", _cmd_smooth, "smoothed state marginals, one row per step", obs=True)

    p = add("predict", _cmd_predict, "distribution of the next state (or symbol)", obs=True)
    p.add_argument("--horizon", type=_positive_int, default=1, help="steps past the end of the sequence")
    p.add_argument("--observation", action="store_true", help="predict the next symbol instead")

    p = add("decode", _cmd_decode, "most probable state path", obs=True)
    p.add_argument("--score", action="store_true", help="also print the log joint score")

    for name in ("train", "train-chmm"):
        p = add(name, _cmd_train, f"EM training ({name}); prints the log-likelihood trace", obs=True)
        p.add_argument("--out", required=True, help="trained model file to write")
        p.add_argument("--max-iters", type=_positive_int, default=learning.EmConfig.max_iterations)
        p.add_argument("--tol", type=_positive_float, default=learning.EmConfig.rel_tolerance)
        p.add_argument("--pseudocount", type=_finite_nonnegative_float, default=learning.EmConfig.pseudocount)

    p = sub.add_parser("oracle-check", help="equivalence suite vs brute-force enumeration")
    p.set_defaults(func=_cmd_oracle_check)
    p.add_argument("--count", type=_positive_int, default=100, help="instances per check")
    p.add_argument("--seed", type=_nonnegative_int, default=0)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except (DbnError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
