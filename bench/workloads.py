"""The benchmark's workloads: seeded inputs, CLI calls, library equivalents and output checks.

Each workload builds its input files from its seed, names the ``dbnkit``
command lines one pass runs, checks every command's output, and can replay
each command as the library calls the CLI makes (``library_equivalent``),
each inside a span named after the layer it times.  ``sweep`` then times the
layers no command reaches from outside: ``models.validate_obs``,
``learning.fb_pass`` and ``chmm.joint_build`` on the workload's own inputs
where it has inputs of that kind, and each layer in the workload's
``BYPASSED`` list on the small fixed ``ProbeProblem``.  The probe figures are
not traffic any workload serves; they are there because every traced run
reports every per-layer metric.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

BW_SLACK = 1e-9  # largest Baum-Welch trace drop the acceptance suite allows
CHMM_SLACK = 1e-6  # largest coupled-EM trace drop the acceptance suite allows
FLAT_TOL = 1e-12  # direct CHMM likelihood vs the flattened route
ROW_SUM_TOL = 1e-9
SCORE_RTOL = 1e-9  # printed scores carry 12 significant digits


class CheckFailed(Exception):
    pass


class Command:
    """One CLI call of a pass: ``name`` is the reported command, ``key`` is unique in the pass."""

    def __init__(self, key, name, argv, out=None):
        self.key = key
        self.name = name
        self.argv = argv
        self.out = out


def _rows(rng, k, n, alpha, peak=0.0):
    """k random distributions over n outcomes; ``peak`` mass goes to outcome i mod n of row i."""
    rows = rng.dirichlet(np.full(n, float(alpha)), size=k)
    if peak:
        rows = (1.0 - peak) * rows + peak * np.eye(n)[np.arange(k) % n]
    return rows


def _parse_floats(text):
    return [float(line) for line in text.split()]


def _parse_tables(text):
    """Tab-separated tables, one per sequence, separated by blank lines."""
    tables = []
    for block in text.rstrip("\n").split("\n\n"):
        lines = block.splitlines()
        tables.append(np.array(block.split(), dtype=np.float64).reshape(len(lines), -1))
    return tables


def _check_rows(tables, seqs, num_states):
    if len(tables) != len(seqs):
        raise CheckFailed(f"{len(tables)} tables for {len(seqs)} sequences")
    for table, seq in zip(tables, seqs):
        if table.shape != (len(seq), num_states):
            raise CheckFailed(f"table shape {table.shape}, expected {(len(seq), num_states)}")
        dev = float(np.abs(table.sum(axis=1) - 1.0).max())
        if dev > ROW_SUM_TOL:
            raise CheckFailed(f"a row sums to 1 only within {dev:.2e}")


def _check_trace(values, slack, max_iters):
    """An EM trace, followed by the final model's log-likelihood, must not drop beyond ``slack``."""
    if not 1 <= len(values) - 1 <= max_iters:
        raise CheckFailed(f"trace has {len(values) - 1} entries, cap is {max_iters}")
    drop = float(-np.diff(values).min())
    if drop > slack:
        raise CheckFailed(f"log-likelihood trace drops by {drop:.3e} (slack {slack:.0e})")


def _check_decode(stdout, model, seqs):
    """Each path's log joint probability, recomputed here, must equal its printed score."""
    lines = stdout.splitlines()
    if len(lines) != 2 * len(seqs):
        raise CheckFailed(f"{len(lines)} decode lines for {len(seqs)} sequences")
    with np.errstate(divide="ignore"):
        log_pi, log_a, log_b = np.log(model.pi), np.log(model.trans), np.log(model.emit)
    for path_line, score_line, obs in zip(lines[::2], lines[1::2], seqs):
        path = np.array(path_line.split("\t"), dtype=np.int64)
        if path.shape != obs.shape:
            raise CheckFailed(f"path of length {path.size} for {obs.size} steps")
        joint = log_pi[path[0]] + log_a[path[:-1], path[1:]].sum() + log_b[path, obs].sum()
        score = float(score_line)
        if abs(joint - score) > SCORE_RTOL * max(1.0, abs(score)):
            raise CheckFailed(f"printed score {score!r} but the path scores {joint!r}")


def _template(lib, rng, num_vars, card):
    """A 2TBN where variable v depends on itself one step back and on variable v-1 in the same step."""
    m = lib.models
    variables = []
    for v in range(num_vars):
        init_parents = [v - 1] if v else []
        trans_parents = [(0, v)] + ([(1, v - 1)] if v else [])
        variables.append(m.TbnVariable(
            card=card,
            init_parents=init_parents,
            init_cpt=_rows(rng, card ** len(init_parents), card, 5.0, 0.5),
            trans_parents=trans_parents,
            trans_cpt=_rows(rng, card ** len(trans_parents), card, 5.0, 0.5),
        ))
    return m.Tbn2Model(variables=variables)


def probe_problem(lib):
    """The fixed small problem on which every workload times the layers its commands bypass.

    An 8-state, 6-symbol HMM with 2 x 200 steps, a 2-chain x 3-state CHMM
    with 2 x 50 steps and a 2-variable, cardinality-3 2TBN, the same for
    every workload and seed.
    """
    rng = np.random.default_rng(0)
    hmm = lib.sampling.random_hmm(8, 6, rng)
    chmm = lib.sampling.random_chmm([3, 3], [3, 3], rng)
    return SimpleNamespace(
        hmm=hmm,
        seqs=[lib.sampling.sample(hmm, 200, s)[1] for s in (1, 2)],
        chmm=chmm,
        chmm_seqs=[lib.sampling.sample(chmm, 50, s)[1] for s in (1, 2)],
        tbn=_template(lib, rng, 2, 3),
        em_iters=2,
        particles=100,
    )


def _tbn_log_likelihood(model, obs):
    """log P(assignment sequence) from the template's CPTs, without building the joint chain."""
    digit = np.unravel_index(obs, model.cardinalities)
    cards = model.cardinalities
    ll = 0.0
    for v, var in enumerate(model.variables):
        row = 0
        for p in var.init_parents:
            row = row * cards[p] + digit[p][0]
        ll += np.log(var.init_cpt[row, digit[v][0]])
        rows = np.zeros(len(obs) - 1, dtype=np.int64)
        for s, p in var.trans_parents:
            rows = rows * cards[p] + (digit[p][:-1] if s == 0 else digit[p][1:])
        ll += np.log(var.trans_cpt[rows, digit[v][1:]]).sum()
    return float(ll)


class Workload:
    """Inputs, commands and checks of one workload; subclasses fill in the specifics."""

    name = ""
    BYPASSED = ()  # layers that only the sweep's probe reaches, each a key of Workload.probe
    REFERENCE = ()  # (states, steps) of the reference recursion in run.py: the model's states, about 1 ms a run
    hmm_inputs = None  # (HmmModel, sequences) for validate_obs and fb_pass, if the workload has them
    chmm_inputs = None  # (ChmmModel, sequences) for joint_build, if the workload has them

    def __init__(self, lib, tracer, seed, workdir):
        self.lib = lib
        self.tracer = tracer
        self.seed = seed
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.generate()

    def path(self, name):
        return str(self.dir / name)

    def sample(self, model, length):
        with self.tracer.span("sampling.sample"):
            return self.lib.sampling.sample(model, length, int(self.rng.integers(2**31)))[1]

    def hmm(self, states, symbols, alpha, peak):
        return self.lib.models.HmmModel(
            pi=_rows(self.rng, 1, states, alpha)[0],
            trans=_rows(self.rng, states, states, alpha, peak),
            emit=_rows(self.rng, states, symbols, alpha, peak),
        )

    # -- library calls, each in a span named after the layer it times --

    def call(self, name, fn, *args):
        with self.tracer.span(name):
            return fn(*args)

    def load(self, model_path, obs_path):
        model = self.call("io.load_model", self.lib.io.load_model, model_path)
        return model, self.call("io.load_obs", self.lib.io.load_observations, obs_path)

    def forward(self, model, obs):
        self.tracer.add("inference.forward_flops", 2 * len(obs) * model.num_states**2)
        return self.call("inference.forward", self.lib.inference.forward, model, obs)

    def smooth(self, model, obs):
        self.tracer.add("inference.xi_bytes", (len(obs) - 1) * model.num_states**2 * 8)
        return self.call("inference.smooth", self.lib.inference.smooth, model, obs)

    def dense(self, name, fn, model):
        joint = self.call(name, fn, model)
        n, m = joint.num_states, joint.num_symbols
        self.tracer.add("convert.dense_bytes", n * n * 8 + n * m * 8)
        return joint

    def baum_welch(self, model, seqs, max_iters):
        config = self.lib.learning.EmConfig(max_iterations=max_iters)
        trained, trace = self.call("learning.baum_welch", self.lib.learning.baum_welch, model, seqs, config)
        self.tracer.add("learning.iterations", trace.iterations_run)
        return trained

    def chmm_em(self, model, seqs, max_iters):
        config = self.lib.learning.EmConfig(max_iterations=max_iters)
        trained, trace = self.call("chmm.em", self.lib.chmm.chmm_em, model, seqs, config)
        self.tracer.add("chmm.iterations", trace.iterations_run)
        return trained

    # -- the traced run's coverage of the layers no command reaches --

    def sweep(self, probe):
        """Time validate_obs, the E-step's forward-backward pass, the joint build and the bypassed layers.

        ``learning.fb_pass`` is forward plus backward over every sequence, the
        E-step's main cost; ``chmm.joint_build`` is ``chmm_forward`` on one
        step, about the cost of building the joint transition.
        """
        lib, t = self.lib, self.tracer
        hmm, seqs = self.hmm_inputs or (probe.hmm, probe.seqs)
        chmm, chmm_seqs = self.chmm_inputs or (probe.chmm, probe.chmm_seqs)
        with t.span("models.validate_obs"):
            for obs in seqs:
                lib.models.validate_obs(hmm, obs)
        with t.span("learning.fb_pass"):
            for obs in seqs:
                fwd = self.forward(hmm, obs)
                self.call("inference.backward", lib.inference.backward, hmm, obs, fwd.scale_factors)
        self.call("chmm.joint_build", lib.chmm.chmm_forward, chmm, chmm_seqs[0][:1])
        for layer in self.BYPASSED:
            self.probe(layer, probe)

    def probe(self, layer, p):
        """One bypassed layer on the probe problem; constructor spans come from tracing.traced_constructors."""
        lib = self.lib
        if layer == "models.chmm_ctor":
            lib.models.ChmmModel(initials=p.chmm.initials, emissions=p.chmm.emissions, couplings=p.chmm.couplings)
        elif layer == "io.save_model":
            self.call(layer, lib.io.save_model, p.hmm, self.path("probe.json"))
        elif layer == "inference.smooth":
            for obs in p.seqs:
                self.smooth(p.hmm, obs)
        elif layer == "inference.particle_filter":
            self.call(layer, lib.inference.particle_filter, p.hmm, p.seqs[0], p.particles, 0)
        elif layer == "decoding.viterbi":
            for obs in p.seqs:
                self.call(layer, lib.decoding.viterbi, p.hmm, obs)
        elif layer == "learning.baum_welch":
            self.baum_welch(p.hmm, p.seqs, p.em_iters)
        elif layer == "chmm.forward":  # with chmm.backward
            for obs in p.chmm_seqs:
                fwd = self.call("chmm.forward", lib.chmm.chmm_forward, p.chmm, obs)
                self.call("chmm.backward", lib.chmm.chmm_backward, p.chmm, obs, fwd.scale_factors)
        elif layer == "chmm.smooth":
            for obs in p.chmm_seqs:
                self.call(layer, lib.chmm.chmm_smooth, p.chmm, obs)
        elif layer == "chmm.em":
            self.chmm_em(p.chmm, p.chmm_seqs, p.em_iters)
        elif layer == "convert.flatten_chmm":
            self.dense(layer, lib.convert.flatten_chmm, p.chmm)
        elif layer == "convert.unroll_tbn":
            self.dense(layer, lib.convert.unroll_tbn, p.tbn)
        else:
            raise ValueError(f"no probe for {layer}")


class HmmTrain(Workload):
    """Baum-Welch on many short sequences: small n, so per-step Python overhead dominates."""

    name = "hmm-train"
    STATES, SYMBOLS, SEQUENCES, LENGTH, MAX_ITERS = 8, 6, 20, 200, 40
    REFERENCE = (8, 400)
    BYPASSED = ("models.chmm_ctor", "inference.smooth", "inference.particle_filter", "decoding.viterbi",
                "chmm.forward", "chmm.smooth", "chmm.em", "convert.flatten_chmm", "convert.unroll_tbn")

    def generate(self):
        io = self.lib.io
        true = self.hmm(self.STATES, self.SYMBOLS, alpha=5.0, peak=0.5)
        self.init = self.hmm(self.STATES, self.SYMBOLS, alpha=10.0, peak=0.0)
        self.seqs = [self.sample(true, self.LENGTH) for _ in range(self.SEQUENCES)]
        io.save_model(self.init, self.path("init.json"))
        io.save_observations(self.seqs, self.path("obs.txt"))
        self.hmm_inputs = (self.init, self.seqs)

    def commands(self):
        argv = ["train", "--model", self.path("init.json"), "--obs", self.path("obs.txt"),
                "--out", self.path("trained.json"), "--max-iters", str(self.MAX_ITERS)]
        return [Command("train", "train", argv, out=self.path("trained.json"))]

    def check(self, cmd, stdout):
        """Returns (observation steps processed, log-likelihood of the data under the trained model)."""
        trace = _parse_floats(stdout)
        trained = self.lib.io.load_model(cmd.out)
        final = sum(self.lib.inference.log_likelihood(trained, obs) for obs in self.seqs)
        _check_trace(trace + [final], BW_SLACK, self.MAX_ITERS)
        return len(trace) * self.SEQUENCES * self.LENGTH, final

    def library_equivalent(self, cmd):
        model, seqs = self.load(self.path("init.json"), self.path("obs.txt"))
        trained = self.baum_welch(model, seqs, self.MAX_ITERS)
        self.call("io.save_model", self.lib.io.save_model, trained, self.path("lib-trained.json"))


class ChmmTrain(Workload):
    """Coupled EM, then smooth (direct chmm route) and decode (flatten_chmm route).

    The pass repeats this on PROBLEMS independent seeded problems: the
    safeguard's re-runs vary from problem to problem, so one problem's time
    would depend on the seed far more than on the code.
    """

    name = "chmm-train"
    CHAINS, STATES, SYMBOLS, SEQUENCES, LENGTH, MAX_ITERS, PROBLEMS = 4, 3, 3, 5, 50, 5, 8
    REFERENCE = (81, 200)
    BYPASSED = ("inference.smooth", "inference.particle_filter", "learning.baum_welch",
                "chmm.forward", "convert.unroll_tbn")

    def chmm(self, alpha, peak):
        m = self.lib.models
        parents = m.nearest_neighbor_parents(self.CHAINS)
        n = self.STATES
        couplings = {
            (p, l): _rows(self.rng, n, n, alpha, peak if p == l else 0.0)
            for l in range(self.CHAINS)
            for p in parents[l]
        }
        return m.ChmmModel(
            initials=[_rows(self.rng, 1, n, alpha)[0] for _ in range(self.CHAINS)],
            emissions=[_rows(self.rng, n, self.SYMBOLS, alpha, peak) for _ in range(self.CHAINS)],
            couplings=couplings,
        )

    def generate(self):
        io = self.lib.io
        self.inits, self.seqs = [], []
        for r in range(self.PROBLEMS):
            true = self.chmm(alpha=5.0, peak=0.5)
            self.inits.append(self.chmm(alpha=5.0, peak=0.0))
            self.seqs.append([self.sample(true, self.LENGTH) for _ in range(self.SEQUENCES)])
            io.save_model(self.inits[r], self.path(f"init-{r}.json"))
            io.save_observations(self.seqs[r], self.path(f"obs-{r}.txt"))
        self.chmm_inputs = (self.inits[0], self.seqs[0])

    def commands(self):
        cmds = []
        for r in range(self.PROBLEMS):
            init, obs, trained = self.path(f"init-{r}.json"), self.path(f"obs-{r}.txt"), self.path(f"trained-{r}.json")
            cmds += [
                Command(f"train-chmm.{r}", "train-chmm", ["train-chmm", "--model", init, "--obs", obs,
                        "--out", trained, "--max-iters", str(self.MAX_ITERS)], out=trained),
                Command(f"smooth.{r}", "smooth", ["smooth", "--model", trained, "--obs", obs]),
                Command(f"decode.{r}", "decode", ["decode", "--model", trained, "--obs", obs, "--score"]),
            ]
        return cmds

    def check(self, cmd, stdout):
        lib = self.lib
        r = int(cmd.key.rsplit(".", 1)[1])
        seqs = self.seqs[r]
        steps = self.SEQUENCES * self.LENGTH
        if cmd.name == "smooth":
            _check_rows(_parse_tables(stdout), seqs, self.STATES**self.CHAINS)
            return steps, 0.0
        trained = lib.io.load_model(self.path(f"trained-{r}.json"))
        flat = lib.convert.flatten_chmm(trained)
        flat_seqs = [lib.convert.flatten_obs(trained, obs) for obs in seqs]
        if cmd.name == "decode":
            _check_decode(stdout, flat, flat_seqs)
            return steps, 0.0
        trace = _parse_floats(stdout)
        direct = [lib.chmm.chmm_likelihood(trained, obs) for obs in seqs]
        dev = max(abs(d - lib.inference.log_likelihood(flat, f)) for d, f in zip(direct, flat_seqs))
        if dev > FLAT_TOL:
            raise CheckFailed(f"direct and flattened likelihoods differ by {dev:.2e}")
        _check_trace(trace + [sum(direct)], CHMM_SLACK, self.MAX_ITERS)
        return len(trace) * steps, sum(direct)

    def library_equivalent(self, cmd):
        lib = self.lib
        r = int(cmd.key.rsplit(".", 1)[1])
        obs_path, trained_path = self.path(f"obs-{r}.txt"), self.path(f"trained-{r}.json")
        if cmd.name == "train-chmm":
            model, seqs = self.load(self.path(f"init-{r}.json"), obs_path)
            trained = self.chmm_em(model, seqs, self.MAX_ITERS)
            self.call("io.save_model", lib.io.save_model, trained, self.path(f"lib-trained-{r}.json"))
            return
        model, seqs = self.load(trained_path, obs_path)
        if cmd.name == "smooth":
            for obs in seqs:
                self.call("chmm.smooth", lib.chmm.chmm_smooth, model, obs)
            return
        flat = self.dense("convert.flatten_chmm", lib.convert.flatten_chmm, model)
        for obs in seqs:
            self.call("decoding.viterbi", lib.decoding.viterbi, flat, lib.convert.flatten_obs(model, obs))


class HmmQuery(Workload):
    """One large HMM and one long sequence through every query command, plus a 2TBN likelihood."""

    name = "hmm-query"
    STATES, SYMBOLS, LENGTH, PARTICLES, TBN_VARS, TBN_CARD = 256, 8, 2000, 1000, 4, 4
    REFERENCE = (256, 60)
    BYPASSED = ("models.chmm_ctor", "io.save_model", "learning.baum_welch",
                "chmm.forward", "chmm.smooth", "chmm.em", "convert.flatten_chmm")

    def generate(self):
        lib = self.lib
        self.model = lib.sampling.random_hmm(self.STATES, self.SYMBOLS, self.rng)
        self.obs = self.sample(self.model, self.LENGTH)
        self.tbn = _template(lib, self.rng, self.TBN_VARS, self.TBN_CARD)
        self.tbn_obs = self.sample(lib.convert.unroll_tbn(self.tbn), self.LENGTH)
        lib.io.save_model(self.model, self.path("model.json"))
        lib.io.save_observations([self.obs], self.path("obs.txt"))
        lib.io.save_model(self.tbn, self.path("tbn.json"))
        lib.io.save_observations([self.tbn_obs], self.path("tbn-obs.txt"))
        self.hmm_inputs = (self.model, [self.obs])

    def commands(self):
        hmm = ["--model", self.path("model.json"), "--obs", self.path("obs.txt")]
        return [
            Command("smooth", "smooth", ["smooth"] + hmm),
            Command("decode", "decode", ["decode"] + hmm + ["--score"]),
            Command("filter", "filter", ["filter"] + hmm),
            Command("filter-particles", "filter-particles",
                    ["filter"] + hmm + ["--particles", str(self.PARTICLES), "--seed", str(self.seed)]),
            Command("likelihood", "likelihood", ["likelihood", "--model", self.path("tbn.json"),
                                                 "--obs", self.path("tbn-obs.txt")]),
        ]

    def check(self, cmd, stdout):
        if cmd.name == "likelihood":
            printed = float(stdout)
            ref = _tbn_log_likelihood(self.tbn, self.tbn_obs)
            if abs(printed - ref) > SCORE_RTOL * max(1.0, abs(ref)):
                raise CheckFailed(f"printed log-likelihood {printed!r}, the template's CPTs give {ref!r}")
            return self.LENGTH, printed
        if cmd.name == "decode":
            _check_decode(stdout, self.model, [self.obs])
            return self.LENGTH, 0.0
        _check_rows(_parse_tables(stdout), [self.obs], self.STATES)
        if cmd.name == "filter":
            return self.LENGTH, self.lib.inference.log_likelihood(self.model, self.obs)
        return self.LENGTH, 0.0

    def library_equivalent(self, cmd):
        lib = self.lib
        if cmd.name == "likelihood":
            tbn, seqs = self.load(self.path("tbn.json"), self.path("tbn-obs.txt"))
            joint = self.dense("convert.unroll_tbn", lib.convert.unroll_tbn, tbn)
            for obs in seqs:
                self.forward(joint, obs)
            return
        model, seqs = self.load(self.path("model.json"), self.path("obs.txt"))
        for obs in seqs:
            if cmd.name == "smooth":
                self.smooth(model, obs)
            elif cmd.name == "decode":
                self.call("decoding.viterbi", lib.decoding.viterbi, model, obs)
            elif cmd.name == "filter":
                self.forward(model, obs)
            else:
                self.call("inference.particle_filter", lib.inference.particle_filter, model, obs,
                          self.PARTICLES, self.seed)


WORKLOADS = {cls.name: cls for cls in (HmmTrain, ChmmTrain, HmmQuery)}
