"""Command-line front end: file-driven access to every library operation.

Numeric output goes to stdout as tab-separated tables with 12 significant
digits, rows in time order and columns in state order, so identical
invocations are byte-identical and diffable.  Exit codes: 0 success,
1 usage error, 2 data or model error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import chmm as chmm_mod
from . import inference, learning
from .convert import flatten_chmm, flatten_obs, unroll_tbn
from .decoding import viterbi
from .errors import DbnError
from .io import format_obs, load_model, load_observations, parse_obs_line, save_model, save_observations
from .models import ChmmModel, HmmModel, Tbn2Model
from .oracle import run_equivalence_checks
from .sampling import sample

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
_nonnegative_float = _bounded(float, lambda v: v >= 0, "a nonnegative number")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _print_row(values):
    print("\t".join(_fmt(v) for v in values))


def _print_tables(tables):
    """Print each table's rows, with a blank line between tables."""
    for i, table in enumerate(tables):
        if i:
            print()
        for row in np.asarray(table):
            _print_row(row)


def _load_obs_arg(value):
    if os.path.exists(value):
        return load_observations(value)
    return [parse_obs_line(value, ctx="--obs")]


def _as_joint_hmm(model):
    """A 2TBN's unrolled joint HMM; every other model as it is."""
    return unroll_tbn(model) if isinstance(model, Tbn2Model) else model


def _per_sequence(model, chmm_fn, hmm_fn):
    """``fn(seq)``: ``chmm_fn`` on a CHMM, else ``hmm_fn`` on the joint HMM, built once."""
    if isinstance(model, ChmmModel):
        return lambda seq: chmm_fn(model, seq)
    hmm = _as_joint_hmm(model)
    return lambda seq: hmm_fn(hmm, seq)


def _hmm_view(model, sequences):
    """(plain HMM, sequences in its symbols) for any model; CHMMs are flattened."""
    if isinstance(model, ChmmModel):
        return flatten_chmm(model), [flatten_obs(model, s) for s in sequences]
    return _as_joint_hmm(model), sequences


def _cmd_validate(args):
    load_model(args.model)
    return 0


def _cmd_sample(args):
    model = _as_joint_hmm(load_model(args.model))
    state_seqs = []
    obs_seqs = []
    for i in range(args.count):
        states, symbols = sample(model, args.length, args.seed + i)
        state_seqs.append(states)
        obs_seqs.append(symbols)
    if args.out:
        save_observations(obs_seqs, args.out)
    else:
        for seq in obs_seqs:
            print(format_obs(seq))
    if args.states_out:
        save_observations(state_seqs, args.states_out)
    return 0


def _cmd_likelihood(args):
    model = load_model(args.model)
    sequences = _load_obs_arg(args.obs)
    likelihood = _per_sequence(model, chmm_mod.chmm_likelihood, inference.log_likelihood)
    for seq in sequences:
        print(_fmt(likelihood(seq)))
    return 0


def _cmd_filter(args):
    model = load_model(args.model)
    sequences = _load_obs_arg(args.obs)
    if args.particles is not None:
        hmm_view, sequences = _hmm_view(model, sequences)

        def filtered(seq):
            return inference.particle_filter(hmm_view, seq, args.particles, args.seed).estimates
    else:
        filtered = _per_sequence(
            model, lambda m, seq: chmm_mod.chmm_forward(m, seq).scaled_alpha, inference.filter
        )
    _print_tables(filtered(seq) for seq in sequences)
    return 0


def _cmd_smooth(args):
    model = load_model(args.model)
    sequences = _load_obs_arg(args.obs)
    posterior = _per_sequence(model, chmm_mod.chmm_smooth, inference.smooth)
    _print_tables(posterior(seq).gamma for seq in sequences)
    return 0


def _cmd_predict(args):
    hmm_view, sequences = _hmm_view(load_model(args.model), _load_obs_arg(args.obs))
    if args.observation and args.horizon != 1:
        raise _UsageError("--observation predicts one step ahead; --horizon must be 1")
    for seq in sequences:
        if args.observation:
            _print_row(inference.predict_obs(hmm_view, seq))
        else:
            _print_row(inference.predict_state(hmm_view, seq, args.horizon))
    return 0


def _cmd_decode(args):
    hmm_view, sequences = _hmm_view(load_model(args.model), _load_obs_arg(args.obs))
    for seq in sequences:
        result = viterbi(hmm_view, seq)
        print("\t".join(str(int(s)) for s in result.path))
        if args.score:
            print(_fmt(result.log_joint_score))
    return 0


def _em_config(args):
    return learning.EmConfig(
        max_iterations=args.max_iters,
        rel_tolerance=args.tol,
        pseudocount=args.pseudocount,
    )


def _cmd_train(args):
    model = load_model(args.model)
    if not isinstance(model, HmmModel):
        raise DbnError(
            f"train expects an hmm initial model, got {type(model).__name__}; "
            "use train-chmm for coupled models"
        )
    trained, trace = learning.baum_welch(model, _load_obs_arg(args.obs), _em_config(args))
    for ll in trace.log_likelihoods:
        print(_fmt(ll))
    save_model(trained, args.out)
    return 0


def _cmd_train_chmm(args):
    model = load_model(args.model)
    if not isinstance(model, ChmmModel):
        raise DbnError(f"train-chmm expects a chmm initial model, got {type(model).__name__}")
    trained, trace = chmm_mod.chmm_em(model, _load_obs_arg(args.obs), _em_config(args))
    for ll in trace.log_likelihoods:
        print(_fmt(ll))
    save_model(trained, args.out)
    return 0


def _cmd_oracle_check(args):
    checks = run_equivalence_checks(args.count, args.seed)
    ok = True
    for name, worst, tol in checks:
        status = "ok" if worst <= tol else "FAIL"
        if worst > tol:
            ok = False
        print(f"{name}: max deviation {worst:.3e} (tolerance {tol:.0e}) {status}")
    print("all checks passed" if ok else "checks FAILED")
    return 0 if ok else DATA_EXIT


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

    for name, func in (("train", _cmd_train), ("train-chmm", _cmd_train_chmm)):
        p = add(name, func, f"EM training ({name}); prints the log-likelihood trace", obs=True)
        p.add_argument("--out", required=True, help="trained model file to write")
        p.add_argument("--max-iters", type=_positive_int, default=200)
        p.add_argument("--tol", type=_positive_float, default=1e-6)
        p.add_argument("--pseudocount", type=_nonnegative_float, default=0.0)

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
    except DbnError as err:
        print(f"error: {err}", file=sys.stderr)
        return DATA_EXIT
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
