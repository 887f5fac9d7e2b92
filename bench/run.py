"""dbnkit benchmark: CLI workloads timed end to end, and a traced run timed layer by layer.

Run from the repository root, which must hold the package under ``src/``:

    python3 bench/run.py --workload hmm-query --seed 1 --seconds 40 --trace 0

Each run is one process and one closed-loop caller: it calls
``dbnkit.cli.main(argv)`` in-process with stdout captured, one command at a
time, passing over the workload's command list until ``--seconds`` have
passed.  BLAS runs on BLAS_THREADS threads.  Every command's output is
checked; the last stdout line is the JSON result.

The host shares its cores with other tenants, whose load changes the speed
of this process by up to two times within minutes.  So every CLI call is
followed by runs of a fixed reference kernel (``Reference``) for REF_SHARE of
the call's time, and ``wall_ref`` is the median over passes of the pass's
wall time divided by the time of one reference run in the same pass.  The
raw wall times (``wall_s_median``, quartiles, every pass) are in the detail
line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs traced
passes (spans around every CLI call and the library calls it makes, around
each command's library equivalent and around the layer sweep; see
``workloads.py``), reports the per-layer metrics and the tracing overhead,
and writes the spans to ``.bench_out/``.

Every command's stdout must match the sha256 in ``digests.json``, recorded
at the seed commit for seeds 0-19.  A run on another seed first replays
seed 0 against its digests, before the timed window starts.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported; recorded with every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, span_cost, summarize_run, traced_constructors, traced_library_calls
from workloads import WORKLOADS, CheckFailed, probe_problem

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPEATS = 5
# Share of each timed CLI call's wall time spent on reference runs right after it.
REF_SHARE = 0.15
REPLAY_SEED = 0
MODULES = ("chmm", "cli", "convert", "decoding", "inference", "io", "learning", "models", "sampling")

# Spans whose self time is reported as "<name>_s".
LAYER_SPANS = (
    "models.hmm_ctor", "models.validate_obs", "models.chmm_ctor",
    "io.load_model", "io.load_obs", "io.save_model",
    "inference.forward", "inference.backward", "inference.smooth", "inference.particle_filter",
    "decoding.viterbi", "learning.baum_welch",
    "chmm.em", "chmm.forward", "chmm.backward", "chmm.smooth", "chmm.joint_build",
    "convert.flatten_chmm", "convert.unroll_tbn",
)
# Counts, each with how it is obtained; each must repeat exactly between passes and runs.
COUNTS = {
    "models.hmm_ctor_count": "HmmModel constructions, counted at the class",
    "learning.iterations": "EmTrace.iterations_run of each Baum-Welch call",
    "chmm.iterations": "EmTrace.iterations_run of each coupled-EM call",
    "inference.forward_flops": "computed from array sizes: 2*T*n^2 per forward call",
    "inference.xi_bytes": "computed from array sizes: (T-1)*n^2*8 per smooth call",
    "convert.dense_bytes": "computed from array sizes: n^2*8 + n*m*8 per flatten_chmm or unroll_tbn result",
    "cli.stdout_bytes": "bytes of stdout over the pass's CLI calls",
}


def import_dbnkit():
    """Import dbnkit afresh from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "dbnkit" or n.startswith("dbnkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("dbnkit")
    if Path(pkg.__file__).resolve().parent != SRC / "dbnkit":
        raise ImportError(f"dbnkit was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"dbnkit.{m}") for m in MODULES})


def run_cli(lib, argv):
    """One in-process CLI call: (exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Outcomes:
    """Counts operations and failed ones; checks each distinct output once."""

    def __init__(self, expected_digests):
        self.expected = expected_digests
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self._checked = {}

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def record(self, wl, cmd, code, stdout, stderr):
        """Count one CLI call and check its output; returns (steps, log-likelihood) or None."""
        self.attempted += 1
        if code != 0:
            self.fail(f"{cmd.key}: exit code {code}: {stderr.strip()[-500:]}")
            return None
        digest = sha256(stdout.encode())
        first = self.digests.setdefault(cmd.key, digest)
        if digest != first:
            self.fail(f"{cmd.key}: stdout differs from the first pass")
            return None
        if self.expected is not None and self.expected.get(cmd.key) != digest:
            self.fail(f"{cmd.key}: stdout digest {digest} differs from the recorded {self.expected.get(cmd.key)}")
            return None
        key = (cmd.key, digest, sha256(Path(cmd.out).read_bytes()) if cmd.out else None)
        if key not in self._checked:
            try:
                self._checked[key] = wl.check(cmd, stdout)
            except CheckFailed as err:
                self._checked[key] = None
                self.failures.append(f"{cmd.key}: {err}")
        if self._checked[key] is None:
            self.failed += 1
        return self._checked[key]


def page_aligned(a):
    """A copy of ``a`` that starts on a page boundary.

    Where malloc puts an array decides whether its rows start on 64-byte
    cache lines, and a 256-state matrix-vector product is 40% slower when
    they do not; aligning every time keeps that out of the reference time.
    """
    page = 4096
    buf = np.empty(a.size + page // a.itemsize, a.dtype)
    start = (-buf.ctypes.data % page) // a.itemsize
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    return out


class Reference:
    """A yardstick for the machine's speed: the scaled forward recursion, written here in plain numpy.

    It is part of the benchmark, so no change to dbnkit changes its cost.
    It runs on the workload's number of states (``Workload.REFERENCE``), so
    that load from other tenants slows it about as much as the workload's
    own calls, which it follows in time.
    """

    def __init__(self, states, steps):
        rng = np.random.default_rng(0)
        trans = rng.random((states, states))
        self.trans = page_aligned(trans / trans.sum(axis=1, keepdims=True))
        self.evidence = page_aligned(rng.random((steps, states)))
        self.seconds = 0.0
        self.runs = 0

    def run_once(self):
        alpha = np.full(len(self.trans), 1.0 / len(self.trans))
        for evidence in self.evidence:
            alpha = (alpha @ self.trans) * evidence
            alpha /= alpha.sum()

    def run(self, budget):
        """Whole reference runs for ``budget`` seconds, at least one."""
        start = time.perf_counter()
        while True:
            self.run_once()
            self.runs += 1
            now = time.perf_counter()
            if now - start >= budget:
                break
        self.seconds += now - start

    def take(self):
        """Seconds per reference run since the last take."""
        per_run = self.seconds / self.runs
        self.seconds, self.runs = 0.0, 0
        return per_run


def cli_pass(wl, outcomes, tracer, reference=None):
    """Run every command of the workload once; only the CLI calls themselves are timed.

    With a ``reference``, each call is followed by reference runs for REF_SHARE of its time.
    """
    res = SimpleNamespace(wall=0.0, steps=0, loglik=0.0, stdout_bytes=0)
    for cmd in wl.commands():
        with traced_library_calls(wl.lib.cli, tracer):
            start = time.perf_counter()
            with tracer.span(f"cli.{cmd.name}"):
                code, stdout, stderr = run_cli(wl.lib, cmd.argv)
            wall = time.perf_counter() - start
        res.wall += wall
        if reference is not None:
            reference.run(REF_SHARE * wall)
        res.stdout_bytes += len(stdout.encode())
        checked = outcomes.record(wl, cmd, code, stdout, stderr)
        if checked is not None:
            res.steps += checked[0]
            res.loglik += checked[1]
    return res


def warm_up(wl, outcomes):
    """Each command once on the first three steps, one EM iteration and one particle.

    Trained models go to side files, which later commands of the warm-up read
    in place of the pass's trained models.  Each call counts as an operation;
    a nonzero exit is a failed one.
    """
    renamed = {cmd.out: wl.path("warm-up-" + Path(cmd.out).name) for cmd in wl.commands() if cmd.out}
    for cmd in wl.commands():
        argv = [renamed.get(arg, arg) for arg in cmd.argv]
        for i, arg in enumerate(argv[:-1]):
            if arg == "--obs":
                with open(argv[i + 1], encoding="utf-8") as fh:
                    argv[i + 1] = " ".join(fh.readline().split()[:3])
            elif arg in ("--max-iters", "--particles"):
                argv[i + 1] = "1"
        code, _, stderr = run_cli(wl.lib, argv)
        outcomes.attempted += 1
        if code != 0:
            outcomes.fail(f"warm-up {cmd.key}: exit code {code}: {stderr.strip()[-500:]}")


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(*dirs):
    """sha256 over the Python files of ``dirs``: the package's by default."""
    h = hashlib.sha256()
    for d in dirs or (SRC / "dbnkit",):
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def setup(args, tracer, k, outcomes):
    """Import dbnkit afresh, generate the seeded inputs and warm up; returns (workload, seconds)."""
    tracer.start_run(f"setup-{k}")
    start = time.perf_counter()
    lib = import_dbnkit()
    wl = WORKLOADS[args.workload](lib, tracer, args.seed, OUT / "work" / args.workload / f"seed{args.seed}")
    warm_up(wl, outcomes)
    return wl, time.perf_counter() - start


def replay_check(wl, table, outcomes):
    """For a seed without recorded digests: one pass on REPLAY_SEED must reproduce its recorded outputs."""
    replay = type(wl)(wl.lib, Tracer(), REPLAY_SEED, OUT / "work" / wl.name / f"seed{REPLAY_SEED}")
    replay_outcomes = Outcomes(table[str(REPLAY_SEED)])
    cli_pass(replay, replay_outcomes, Tracer())
    outcomes.attempted += replay_outcomes.attempted
    outcomes.failed += replay_outcomes.failed
    outcomes.failures += [f"seed {REPLAY_SEED} {m}" for m in replay_outcomes.failures]


def end_to_end(args, wl, outcomes, setup_times, start):
    """Passes until ``--seconds`` are used, with the set-up repeated at even times in between.

    The machine's speed drifts over tens of seconds, so set-ups spread over
    the run give a median that depends less on the moment the run started.
    Every set-up writes the same files, and the passes use the latest one.
    """
    reference = Reference(*wl.REFERENCE)
    reference.run(0.05)  # warm-up
    reference.take()
    walls, ref_s, first, pass_s = [], [], None, 0.0
    deadline = start + args.seconds
    while not walls or time.perf_counter() + pass_s < deadline:
        pass_start = time.perf_counter()
        res = cli_pass(wl, outcomes, Tracer(), reference)
        pass_s = time.perf_counter() - pass_start
        first = first or res
        walls.append(res.wall)
        ref_s.append(reference.take())
        due = len(setup_times) * args.seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
            wl, t = setup(args, Tracer(), len(setup_times), outcomes)
            setup_times.append(t)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup(args, Tracer(), len(setup_times), outcomes)[1])
    # Each pass against the reference runs that interleave it, so that both
    # see the same load from other tenants.
    wall_ref = statistics.median(w / r for w, r in zip(walls, ref_s))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (wall_ref, "ref"),
        "steps_per_ref": (first.steps / wall_ref, "steps/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "neg_loglik": (-first.loglik, "nats"),
        "ok_ratio": (1.0 - outcomes.failed / outcomes.attempted, "ratio"),
    }
    detail = {
        "wall_s_samples": len(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_quartiles": quartiles(walls),
        "wall_s_passes": walls,
        "steps_per_s": first.steps / statistics.median(walls),
        "reference_s_median": statistics.median(ref_s),
        "reference_s_passes": ref_s,
        "setup_s_samples": setup_times,
        "steps_per_pass": first.steps,
        "fail_ratio": outcomes.failed / outcomes.attempted,
    }
    return metrics, detail


def pass_layers(tracer, run_id, res):
    """Per-layer figures of one traced pass."""
    self_s, total_s, calls, cli_s, cli_self_s = summarize_run([s for s in tracer.spans if s["run"] == run_id])
    missing = [name for name in LAYER_SPANS if not calls[name]]
    if missing:
        raise RuntimeError(f"no span timed {missing}; add them to the workload's BYPASSED list")
    counts = tracer.counts[run_id]
    fig = {f"{name}_s": self_s[name] for name in LAYER_SPANS}
    fig.update({
        "models.hmm_ctor_count": calls["models.hmm_ctor"],
        "learning.iterations": counts["learning.iterations"],
        "learning.iteration_s": total_s["learning.baum_welch"] / counts["learning.iterations"],
        "learning.fb_pass_s": total_s["learning.fb_pass"],
        "chmm.iterations": counts["chmm.iterations"],
        "chmm.iteration_s": total_s["chmm.em"] / counts["chmm.iterations"],
        "inference.forward_flops": counts["inference.forward_flops"],
        "inference.forward_gflops": counts["inference.forward_flops"] / total_s["inference.forward"] / 1e9,
        "inference.xi_bytes": counts["inference.xi_bytes"],
        "convert.dense_bytes": counts["convert.dense_bytes"],
        "cli.wall_s": sum(cli_s.values()),
        "cli.self_s": cli_self_s,
        "cli.stdout_bytes": res.stdout_bytes,
    })
    per_command = {f"{name}.wall_s": v for name, v in cli_s.items()}
    return fig, per_command, dict(calls)


def traced(args, wl, outcomes, tracer, start):
    """Traced passes until ``--seconds`` are used; each is the CLI pass, the library equivalents and the sweep.

    The tracing overhead is the number of spans a traced CLI pass records
    times the cost of one span, timed in this process.
    """
    lib = wl.lib
    probe = probe_problem(lib)
    per_span_s = span_cost()
    traced_walls, overheads, figs, per_command = [], [], [], defaultdict(list)
    # One untraced pass checks every output, so that no traced pass times a check.
    cli_pass(wl, outcomes, Tracer())
    deadline = start + args.seconds
    pass_s = 0.0
    while not figs or time.perf_counter() + pass_s < deadline:
        pass_start = time.perf_counter()
        run_id = f"pass-{len(figs)}"
        tracer.start_run(run_id)
        tracer.enabled = True
        with traced_constructors(lib.models, tracer):
            first_span = len(tracer.spans)
            with tracer.span("pass.cli"):
                res = cli_pass(wl, outcomes, tracer)
            overheads.append((len(tracer.spans) - first_span) * per_span_s)
            with tracer.span("pass.lib"):
                for cmd in wl.commands():
                    wl.library_equivalent(cmd)
                with tracer.span("sweep"):
                    wl.sweep(probe)
        tracer.enabled = False
        traced_walls.append(res.wall)
        fig, cmds, calls = pass_layers(tracer, run_id, res)
        figs.append(fig)
        for name, v in cmds.items():
            per_command[name].append(v)
        pass_s = time.perf_counter() - pass_start
    for name in COUNTS:
        if len({f[name] for f in figs}) != 1:
            outcomes.fail(f"{name} differs between passes: {[f[name] for f in figs]}")
    counts = {name: figs[0][name] for name in COUNTS}
    # Keyed by the package's and the benchmark's code, whose changes may change the counts.
    code = source_digest(SRC / "dbnkit", Path(__file__).resolve().parent)
    counts_file = OUT / f"counts-{wl.name}-seed{wl.seed}-{code[:12]}.json"
    if counts_file.is_file() and json.loads(counts_file.read_text()) != counts:
        outcomes.fail(f"counts differ from the earlier run in {counts_file.name}")
    counts_file.write_text(json.dumps(counts, sort_keys=True) + "\n")

    setup_runs = [s for s in tracer.spans if s["run"].startswith("setup-")]
    sample_s = [sum(s["end"] - s["start"] for s in setup_runs if s["run"] == f"setup-{k}" and s["name"] == "sampling.sample")
                for k in range(SETUP_REPEATS)]
    metrics = {name: counts[name] if name in COUNTS else statistics.median(f[name] for f in figs)
               for name in figs[0] if name != "inference.forward_flops"}
    metrics["sampling.sample_s"] = statistics.median(sample_s)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    spans_file = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write(spans_file)
    detail = {
        "traced_passes": len(figs),
        "traced_wall_s": min(traced_walls),
        "span_cost_s": per_span_s,
        "cli_commands": {name: statistics.median(v) for name, v in per_command.items()},
        "span_calls": calls,
        "counts": {name: {"value": v, "how": COUNTS[name]} for name, v in counts.items()},
        "bypassed_layers": list(wl.BYPASSED),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return {name: (v, unit_of(name)) for name, v in metrics.items()}, detail


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dbnkit" / "__init__.py").is_file():
        print(f"error: no dbnkit package under {SRC}; run from a dbnkit checkout", file=sys.stderr)
        return 2
    table = json.loads(DIGESTS.read_text())[args.workload]
    OUT.mkdir(exist_ok=True)

    outcomes = Outcomes(table.get(str(args.seed)))
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    wl, first_setup = setup(args, tracer, 0, outcomes)
    setup_times = [first_setup]
    if args.trace:
        # The traced run reports sampling.sample_s from the set-ups' spans.
        for k in range(1, SETUP_REPEATS):
            wl = setup(args, tracer, k, outcomes)[0]
    tracer.enabled = False
    # Before the timed window, so that every seed gets the same window.
    if str(args.seed) not in table:
        replay_check(wl, table, outcomes)

    start = time.perf_counter()
    if args.trace:
        metrics, detail = traced(args, wl, outcomes, tracer, start)
    else:
        metrics, detail = end_to_end(args, wl, outcomes, setup_times, start)
    detail["failures"] = outcomes.failures[:20]
    env = environment()
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "detail": detail, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for failure in outcomes.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
