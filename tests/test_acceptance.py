"""Acceptance suite: each test checks one release criterion at its stated
tolerance and prints a one-line PASS/FAIL verdict (run with ``pytest -s`` to
see the lines as they appear)."""

import itertools
import time

import numpy as np

from dbnkit import (
    EmConfig,
    HmmModel,
    Interval,
    allen_relation,
    baum_welch,
    chmm_em,
    chmm_likelihood,
    chmm_smooth,
    filter,
    flatten_chmm,
    flatten_obs,
    forward,
    backward,
    log_likelihood,
    mle_complete,
    particle_filter,
    random_chmm,
    random_hmm,
    sample,
    smooth,
    viterbi,
)
from dbnkit.oracle import enum_likelihood, enum_map_path, enum_posterior, _path_probability


def _verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _top_two_path_probs(model, obs):
    probs = sorted(
        (
            _path_probability(model, obs, path)
            for path in itertools.product(range(model.num_states), repeat=len(obs))
        ),
        reverse=True,
    )
    return probs[0], (probs[1] if len(probs) > 1 else 0.0)


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    lik_dev = gamma_dev = xi_dev = 0.0
    path_mismatches = 0
    ties_skipped = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        T = int(rng.integers(1, 7))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=T)

        lik_dev = np.maximum(lik_dev, abs(np.exp(log_likelihood(model, obs)) - enum_likelihood(model, obs)))
        post = smooth(model, obs)
        ref_gamma, ref_xi = enum_posterior(model, obs)
        gamma_dev = np.maximum(gamma_dev, float(np.abs(post.gamma - ref_gamma).max()))
        if T > 1:
            xi_dev = np.maximum(xi_dev, float(np.abs(post.xi - ref_xi).max()))

        best, second = _top_two_path_probs(model, obs)
        if best > 0 and (best - second) / best < 1e-10:
            ties_skipped += 1
            continue
        if not np.array_equal(viterbi(model, obs).path, enum_map_path(model, obs).path):
            path_mismatches += 1
    elapsed = time.perf_counter() - started
    ok = lik_dev < 1e-12 and gamma_dev < 1e-12 and xi_dev < 1e-12 and path_mismatches == 0 and elapsed < 10.0
    _verdict(
        1,
        "oracle equivalence (100 seeded HMMs)",
        ok,
        f"lik dev {lik_dev:.2e}, gamma dev {gamma_dev:.2e}, xi dev {xi_dev:.2e}, "
        f"path mismatches {path_mismatches}, ties skipped {ties_skipped}, {elapsed:.1f}s",
    )


def test_criterion_2_backward_reconstruction():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 5))
        T = int(rng.integers(1, 201))
        model = random_hmm(n, m, rng)
        obs = rng.integers(0, m, size=T)
        fwd = forward(model, obs)
        bwd = backward(model, obs, fwd.scale_factors)
        first = float(np.dot(model.pi * model.emit[:, obs[0]], bwd.scaled_beta[0]))
        recon = np.log(first) + float(np.log(fwd.scale_factors[1:]).sum())
        worst = np.maximum(worst, abs(recon - fwd.log_likelihood))
    _verdict(2, "forward/backward cross-check (100 seeded instances)", worst < 1e-10, f"max dev {worst:.2e}")


def test_criterion_3_chmm_flattening_equivalence():
    rng = np.random.default_rng(303)
    lik_dev = gamma_dev = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(L)]
        symbols = [int(rng.integers(1, 4)) for _ in range(L)]
        model = random_chmm(sizes, symbols, rng)
        T = int(rng.integers(1, 6))
        obs = np.stack([rng.integers(0, symbols[l], size=T) for l in range(L)], axis=1)
        flat = flatten_chmm(model)
        fobs = flatten_obs(model, obs)
        lik_dev = np.maximum(lik_dev, abs(chmm_likelihood(model, obs) - log_likelihood(flat, fobs)))
        gamma_dev = np.maximum(
            gamma_dev, float(np.abs(chmm_smooth(model, obs).gamma - smooth(flat, fobs).gamma).max())
        )
    ok = lik_dev < 1e-12 and gamma_dev < 1e-12
    _verdict(3, "CHMM flattening equivalence (100 seeded CHMMs)", ok, f"lik dev {lik_dev:.2e}, gamma dev {gamma_dev:.2e}")


def test_criterion_4_em_monotonicity():
    worst_drop = 0.0
    max_iters_seen = 0
    for run in range(50):
        rng = np.random.default_rng(400 + run)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        true = random_hmm(n, m, rng)
        seqs = [sample(true, 50, 4000 + run * 10 + j)[1] for j in range(10)]
        init = random_hmm(n, m, rng)
        _, trace = baum_welch(init, seqs, EmConfig(max_iterations=200))
        diffs = np.diff(trace.log_likelihoods)
        if diffs.size:
            worst_drop = np.maximum(worst_drop, float(-diffs.min()))
        max_iters_seen = max(max_iters_seen, trace.iterations_run)
    bw_ok = worst_drop <= 1e-9 and max_iters_seen <= 200

    chmm_worst = 0.0
    for run in range(20):
        rng = np.random.default_rng(450 + run)
        true = random_chmm([2, 2], [2, 2], rng)
        seqs = [sample(true, 30, 4500 + run * 10 + j)[1] for j in range(5)]
        init = random_chmm([2, 2], [2, 2], rng)
        _, trace = chmm_em(init, seqs, EmConfig(max_iterations=100))
        diffs = np.diff(trace.log_likelihoods)
        if diffs.size:
            chmm_worst = np.maximum(chmm_worst, float(-diffs.min()))
    chmm_ok = chmm_worst <= 1e-6
    _verdict(
        4,
        "EM monotonicity (50 Baum-Welch + 20 coupled runs)",
        bw_ok and chmm_ok,
        f"worst BW drop {worst_drop:.2e} (slack 1e-9), max iters {max_iters_seen}, "
        f"worst coupled drop {chmm_worst:.2e} (limit 1e-6)",
    )


def test_criterion_5_mle_recovery():
    true = HmmModel(
        pi=[0.5, 0.3, 0.2],
        trans=[[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
        emit=[[0.8, 0.1, 0.1], [0.1, 0.7, 0.2], [0.2, 0.2, 0.6]],
    )
    states, symbols = sample(true, 10_000, seed=555)
    est = mle_complete([(states, symbols)], 3, 3)
    a_dev = float(np.abs(est.trans - true.trans).max())
    b_dev = float(np.abs(est.emit - true.emit).max())
    firsts = [sample(true, 1, seed=10_000 + i) for i in range(1000)]
    pi_est = mle_complete([(s, y) for s, y in firsts], 3, 3).pi
    pi_dev = float(np.abs(pi_est - true.pi).max())
    ok = a_dev < 0.02 and b_dev < 0.02 and pi_dev < 0.05
    _verdict(
        5,
        "MLE recovery (10^4 steps, 10^3 sequences for pi)",
        ok,
        f"A dev {a_dev:.4f} (<0.02), B dev {b_dev:.4f} (<0.02), pi dev {pi_dev:.4f} (<0.05)",
    )


def test_criterion_6_particle_filter_convergence():
    model = HmmModel(
        pi=[0.6, 0.4],
        trans=[[0.8, 0.2], [0.3, 0.7]],
        emit=[[0.75, 0.25], [0.3, 0.7]],
    )
    wins = 0
    for seed in range(100):
        _, obs = sample(model, 20, seed=7000 + seed)
        exact = filter(model, obs)
        rmse = {}
        for k in (100, 10_000):
            est = particle_filter(model, obs, k, seed=9000 + seed).estimates
            rmse[k] = float(np.sqrt(np.mean((est - exact) ** 2)))
        if rmse[10_000] < rmse[100]:
            wins += 1
    _verdict(6, "particle-filter convergence (100 seeds)", wins >= 95, f"K=10^4 beat K=10^2 in {wins}/100 seeds")


def test_criterion_7_forward_linear_time_scaling():
    rng = np.random.default_rng(777)
    model = random_hmm(32, 4, rng)
    lengths = (1000, 2000, 4000)
    observations = {T: rng.integers(0, 4, size=T) for T in lengths}
    for T in lengths:
        forward(model, observations[T])  # warm-up
    # Each repetition times the three lengths back to back and forms its own two
    # ratios, so a load change between repetitions moves none of them; the median
    # of each ratio then drops the repetitions that a burst of load hit.
    ratios = []
    for _ in range(11):
        elapsed = []
        for T in lengths:
            start = time.perf_counter()
            forward(model, observations[T])
            elapsed.append(time.perf_counter() - start)
        ratios.append((elapsed[1] / elapsed[0], elapsed[2] / elapsed[1]))
    r1, r2 = np.median(ratios, axis=0)
    ok = 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5
    _verdict(
        7,
        "forward runtime linear in T",
        ok,
        f"T doubling ratios {r1:.2f} and {r2:.2f} (must lie in [1.5, 2.5])",
    )


def test_criterion_8_allen_relation_totality():
    intervals = [Interval(a, b) for a, b in itertools.combinations(range(6), 2)]
    seen = set()
    ok = True
    detail = ""
    for x in intervals:
        for y in intervals:
            rel = allen_relation(x, y)
            inv = allen_relation(y, x)
            if rel.inverse is not inv:
                ok = False
                detail = f"inverse mismatch for {x} vs {y}"
            seen.add(rel)
    if len(seen) != 13:
        ok = False
        detail = f"only {len(seen)} relations observed"
    if ok:
        detail = f"{len(intervals) ** 2} pairs, all 13 relations, inverses consistent"
    _verdict(8, "Allen relation totality (endpoints 0..5)", ok, detail)


def test_criterion_9_worked_fixture(worked_model, worked_obs):
    # reconfirm through the enumeration oracle before asserting the frozen values
    oracle_lik = enum_likelihood(worked_model, worked_obs)
    oracle_map = enum_map_path(worked_model, worked_obs)
    assert abs(oracle_lik - 0.10893) < 1e-12
    assert oracle_map.path.tolist() == [0, 1, 0]
    assert abs(np.exp(oracle_map.log_joint_score) - 0.046656) < 1e-12

    lik = np.exp(log_likelihood(worked_model, worked_obs))
    decoded = viterbi(worked_model, worked_obs)
    ok = (
        abs(lik - 0.10893) < 1e-12
        and decoded.path.tolist() == [0, 1, 0]
        and abs(np.exp(decoded.log_joint_score) - 0.046656) < 1e-12
    )
    _verdict(
        9,
        "worked two-state fixture",
        ok,
        f"likelihood {lik:.6f} (0.10893), path {decoded.path.tolist()}, "
        f"joint prob {np.exp(decoded.log_joint_score):.6f} (0.046656)",
    )
