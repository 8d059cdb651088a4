"""Acceptance suite: one test and one verdict line per criterion.

Statistical criteria compare seeded Monte Carlo means against frozen
reference cells at three standard errors; the master seed below is pinned so
the whole suite is reproducible bit for bit.  Criteria 1-4 and 13 run rows
of the oracle-check table behind ``slidestats validate``.  Each test prints
its verdict and also registers it for the terminal summary.
"""

import math
import os
import time

import numpy as np

from slidestats import (
    ExperimentConfig,
    PointSet,
    ProcessSpec,
    StatisticRequest,
    analytic_catalog,
    consecutive_gaps,
    first_primes,
    generate,
    genial_entropy,
    level_derivatives,
    psi1,
    psi2_conjectured,
    run_experiment,
    slide_numbers,
    step_slide_function,
)
from slidestats.cli import ORACLE_CHECKS
from conftest import random_descending, record_acceptance

ZETA_2 = math.pi**2 / 6.0

# Pinned master seed; each experiment below derives its own offset stream.
MASTER_SEED = 20260822
# Criteria 1 and 2 use the corpus of `slidestats validate --full --seed 915`.
ORACLE_CORPUS_SEED = 915


def _verdict(number, label, passed, detail):
    record_acceptance(number, label, passed, detail)
    line = f"criterion {number:2d}: {'PASS' if passed else 'FAIL'}  {label}  [{detail}]"
    print(line)
    assert passed, line


def _oracle_check(name, tol):
    """Run the ``slidestats validate`` row ``name`` on the criteria 1-2 corpus.

    The row's threshold must still be ``tol``, so editing the table cannot
    loosen a criterion unnoticed.  Returns (passed, worst gap).
    """
    row = next(row for row in ORACLE_CHECKS if row.name == name)
    assert row.tol == tol, f"{name}: tolerance {row.tol} is not {tol}"
    return row.run(ORACLE_CORPUS_SEED, full=True)


def _slide_experiment(kind, params, seed, orders=(1, 2), k=10_000, reps=50):
    config = ExperimentConfig(
        process=ProcessSpec(kind, params),
        sample_size=k,
        replicates=reps,
        statistics=(StatisticRequest("slide", orders),),
        master_seed=seed,
        cross_check=False,
    )
    report = run_experiment(config)
    assert not report.failed_replicates
    return {order: report.aggregates[f"slide:{order}"].mean for order in orders}


def _assembly_experiment(kind, params, seed, k, reps, orders=(1,)):
    config = ExperimentConfig(
        process=ProcessSpec(kind, params),
        sample_size=k,
        replicates=reps,
        statistics=(StatisticRequest("assembly", orders),),
        master_seed=seed,
        cross_check=False,
    )
    report = run_experiment(config)
    assert not report.failed_replicates
    return {order: report.aggregates[f"assembly:{order}"].mean for order in orders}


def _corpus_verdict(number, label, order, tol, seconds):
    start = time.perf_counter()
    passed, worst = _oracle_check(
        f"slide order {order} closed form vs derivative oracle", tol
    )
    elapsed = time.perf_counter() - start
    _verdict(
        number,
        label,
        passed and elapsed < seconds,
        f"max gap {worst:.2e} over 200 sequences, {elapsed:.1f}s",
    )


def test_criterion_01_psi1_oracle():
    _corpus_verdict(1, "psi1 closed form vs derivative oracle", 1, 1e-6, 10.0)


def test_criterion_02_psi2_oracle():
    _corpus_verdict(2, "psi2 conjectured form vs derivative oracle", 2, 1e-4, 30.0)


def test_criterion_03_catalog_entropies():
    passed, worst = _oracle_check("catalog entropies vs quadrature", 1e-6)
    _verdict(3, "catalog genial entropies", passed, f"8 rows, max gap {worst:.2e}")


def test_criterion_04_neg_log_consistency():
    rows = {
        "curve": ("neg_log slide closed form vs quadrature", 1e-6),
        "psi1": ("neg_log slide order 1 derivative oracle vs closed form", 1e-4),
        "psi2": ("neg_log slide order 2 derivative oracle vs closed form", 1e-3),
    }
    checks = {key: _oracle_check(*row) for key, row in rows.items()}
    _verdict(
        4,
        "neg_log slide consistency",
        all(passed for passed, _ in checks.values()),
        ", ".join(f"{key} gap {gap:.2e}" for key, (_, gap) in checks.items()),
    )


def test_criterion_05_uniform_cube():
    start = time.perf_counter()
    bands = {1: (0.0111, 0.0732), 2: (0.0056, 0.0186), 3: (0.0037, 0.0083)}
    details = []
    ok = True
    for m, (sigma1, sigma2) in bands.items():
        means = _slide_experiment("uniform_cube", {"dim": m}, MASTER_SEED + m)
        gap1 = abs(means[1] - 1.0 / m)
        gap2 = abs(means[2] + ZETA_2 / m**2)
        ok = ok and gap1 < 3.0 * sigma1 and gap2 < 3.0 * sigma2
        details.append(f"m={m}: rho1 {means[1]:.4f}, rho2 {means[2]:.4f}")
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "uniform cube slide numbers",
        ok and elapsed < 300.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_06_normal():
    means = _slide_experiment("normal", {}, MASTER_SEED + 50)
    gap1 = abs(means[1] - 4.0 / math.pi)
    gap2 = abs(means[2] + 1.0)
    _verdict(
        6,
        "normal slide numbers",
        gap1 < 3.0 * 0.129 and gap2 < 3.0 * 0.086,
        f"rho1 {means[1]:.4f} vs {4.0 / math.pi:.4f}, rho2 {means[2]:.4f} vs -1",
    )


def test_criterion_07_fractals():
    cantor = _slide_experiment("cantor", {}, MASTER_SEED + 60)
    sierpinski = _slide_experiment("sierpinski", {}, MASTER_SEED + 61)
    cantor_dim = math.log(2.0) / math.log(3.0)
    sierpinski_dim = math.log(3.0) / math.log(2.0)
    ok = (
        abs(1.0 / cantor[1] - cantor_dim) < 0.02
        and abs(cantor[2] + 4.132) < 0.15
        and abs(1.0 / sierpinski[1] - sierpinski_dim) < 0.03
        and abs(sierpinski[2] + 0.655) < 0.05
    )
    _verdict(
        7,
        "fractal slide numbers",
        ok,
        f"cantor 1/rho1 {1.0 / cantor[1]:.4f}, rho2 {cantor[2]:.4f}; "
        f"sierpinski 1/rho1 {1.0 / sierpinski[1]:.4f}, rho2 {sierpinski[2]:.4f}",
    )


def test_criterion_08_assembly_small_samples():
    cells = {
        (10, 1): (0.7607, 0.0880), (10, 2): (0.4415, 0.0465),
        (10, 3): (0.3310, 0.0363), (10, 4): (0.2746, 0.0313),
        (20, 1): (0.7785, 0.0476), (20, 2): (0.4533, 0.0238),
        (20, 3): (0.3410, 0.0197), (20, 4): (0.2827, 0.0172),
        (50, 1): (0.7856, 0.0209), (50, 2): (0.4596, 0.0112),
        (50, 3): (0.3458, 0.0091), (50, 4): (0.2868, 0.0085),
        (100, 1): (0.7883, 0.0116), (100, 2): (0.4612, 0.0061),
        (100, 3): (0.3474, 0.0056), (100, 4): (0.2880, 0.0055),
    }
    start = time.perf_counter()
    worst_z = 0.0
    ok = True
    for (size, m), (mu, sigma) in cells.items():
        seed = MASTER_SEED + 100 * m + size
        mean = _assembly_experiment("uniform_cube", {"dim": m}, seed, size, 200)[1]
        z = abs(mean - mu) / (sigma / math.sqrt(200.0))
        worst_z = max(worst_z, z)
        ok = ok and z < 3.0
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "assembly small-sample stability",
        ok and elapsed < 60.0,
        f"16 cells, worst |z| {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_09_assembly_identities():
    rows = [
        ("uniform_cube", {}, 1, 0.7897, 0.0023, "alpha1(u)~pi/4"),
        ("circle", {}, 1, 0.5205, 0.0009, "alpha1(circle)~pi/6"),
        ("log_uniform", {}, 1, 0.9987, 0.0166, "alpha1(log u)~1"),
        ("log_uniform", {}, 2, -1.6491, 0.0201, "alpha2(log u)~-zeta(2)"),
        ("bivariate_normal", {}, 1, 0.4998, 0.0041, "alpha1(bvn)~1/2"),
    ]
    ok = True
    worst_z = 0.0
    for row, (kind, params, order, mu, sigma, _) in enumerate(rows):
        means = _assembly_experiment(
            kind, params, MASTER_SEED + 9000 + row, 1000, 50, orders=(1, 2)
        )
        z = abs(means[order] - mu) / (sigma / math.sqrt(50.0))
        worst_z = max(worst_z, z)
        ok = ok and z < 3.0
    _verdict(
        9,
        "assembly identities",
        ok,
        f"5 cells, worst |z| {worst_z:.2f}",
    )


def test_criterion_10_deterministic_orbit():
    points = generate(ProcessSpec("cos_iteration"), 20_000)
    value = slide_numbers(points, orders=(1,), cross_check=False).values[1]
    _verdict(
        10,
        "deterministic orbit",
        abs(value - 0.53) < 0.02,
        f"rho1 {value:.5f} vs 0.53 +- 0.02",
    )


def test_criterion_11_prime_gaps():
    points = PointSet.from_coords(first_primes(10**6))
    value = psi1(consecutive_gaps(points).values)
    ok = 0.74 <= value <= 0.81
    detail = f"rho1 {value:.5f} at 1e6 primes"
    if os.environ.get("SLIDESTATS_FULL_PRIMES"):
        full_points = PointSet.from_coords(first_primes(2 * 10**7))
        full = psi1(consecutive_gaps(full_points).values)
        ok = ok and abs(full - 0.77235) < 1e-3
        detail += f", {full:.5f} at 2e7"
    _verdict(11, "prime gaps", ok, detail)


def test_criterion_12_property_suites():
    rng = np.random.default_rng(1201)
    checks = []

    entropies = [
        genial_entropy(analytic_catalog(name, params))
        for name, params in [
            ("uniform", {}), ("neg_log", {}), ("exponential", {}),
            ("power", {"a": 0.5}), ("half_normal", {}), ("half_cauchy", {}),
        ]
    ]
    step_entropies = [
        step_slide_function(random_descending(rng, int(rng.integers(2, 201))), 1.0).value
        for _ in range(200)
    ]
    checks.append(("entropy>=0", min(entropies + step_entropies) >= -1e-9))

    sequences = [random_descending(rng, int(rng.integers(2, 120))) for _ in range(20)]
    scale_gap = max(
        max(
            abs(psi1(lam * d) - psi1(d)),
            abs(psi2_conjectured(lam * d) - psi2_conjectured(d)),
            max(
                abs(a - b)
                for a, b in zip(level_derivatives(lam * d, 3), level_derivatives(d, 3))
            ),
        )
        for d in sequences
        for lam in (0.5, 3.0, 100.0)
    )
    checks.append(("scale-invariance", scale_gap < 1e-12))
    checks.append(("psi1>=0", min(psi1(d) for d in sequences) >= -1e-12))

    cv_gap = max(
        abs(level_derivatives(d, 2)[1] + np.var(d) / np.mean(d) ** 2)
        for d in sequences
    )
    checks.append(("lambda2=-CV^2", cv_gap < 1e-10))

    power_gap = max(
        max(
            abs(psi1(d**r) - r * psi1(d)) / max(abs(psi1(d)), 1.0),
            abs(psi2_conjectured(d**r) - r * r * psi2_conjectured(d))
            / max(abs(psi2_conjectured(d)), 1.0),
        )
        for d in sequences
        for r in (0.5, 2.0)
    )
    checks.append(("power-law", power_gap < 1e-9))

    d = random_descending(rng, 25)
    levels = np.sort(d / d.mean())
    n = levels.size
    xlnx = lambda x: 0.0 if x == 0.0 else x * math.log(x)
    edges = np.concatenate(([0.0], levels))
    acc = 0.0
    for i in range(n):
        # 1 - L is (n-i)/n on [edges[i], edges[i+1]); integrate v*ln(x*v) exactly
        lo, hi, v = edges[i], edges[i + 1], (n - i) / n
        if hi > lo and v > 0.0:
            acc += v * (xlnx(hi) - hi - xlnx(lo) + lo + (hi - lo) * math.log(v))
    entropy_gap = abs(-1.0 - acc - step_slide_function(d, 1.0).value)
    checks.append(("cdf-entropy-equality", entropy_gap < 1e-6))

    config = ExperimentConfig(
        process=ProcessSpec("uniform_cube", {"dim": 2}),
        sample_size=60,
        replicates=4,
        statistics=(
            StatisticRequest("slide", (1, 2)),
            StatisticRequest("level", (1, 2)),
        ),
        master_seed=MASTER_SEED,
    )
    checks.append(
        ("seed-determinism",
         run_experiment(config).to_dict() == run_experiment(config).to_dict())
    )

    failed = [name for name, good in checks if not good]
    _verdict(
        12,
        "property suites",
        not failed,
        f"{len(checks)} suites" + (f", failed: {failed}" if failed else " all good"),
    )


def test_criterion_13_derangement_integrals():
    passed, worst = _oracle_check("derangement integrals n=2..5", 1e-6)
    _verdict(13, "derangement integrals", passed, f"orders 2..5, max gap {worst:.2e}")
