"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL verdict line (visible under pytest -s;
under capture the pytest -v status line carries the same information) and
enforces the stated runtime budget where one applies.
"""

import io
import time
from fractions import Fraction

import mpmath as mp

from orbitstat import asymptotics as asy
from orbitstat import census, cli, distribution, ldp, numtheory, sampler, systems
from orbitstat.polyops import to_mpf
import oracles


def verdict(label, failures):
    ok = not failures
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, f"{label}: " + "; ".join(failures)


def check(failures, condition, message):
    if not condition:
        failures.append(message)


ALL_BUILTINS = (
    ("FF,q=2", lambda: systems.builtin_source("FF", q=2)),
    ("E,p=3,n=2", lambda: systems.builtin_source("E", p=3, n=2)),
    ("GA", lambda: systems.builtin_source("GA")),
    ("GM", lambda: systems.builtin_source("GM")),
    ("periodic,[1,3]", lambda: systems.builtin_source("periodic", values=(1, 3))),
)


def test_criterion_1_constant_regression():
    failures = []
    t0 = time.perf_counter()
    ec = asy.constants_for(systems.builtin_source("E", p=3, n=2))
    gm_mean = asy.cesaro_exact_fad(systems.fad_spec_for(systems.builtin_source("GM")))
    a_ga = asy.ca_log_weighted_sum(2, (1,))
    ga = asy.constants_for(systems.builtin_source("GA"))
    ga_ratio = ga.C / mp.gamma(to_mpf(ga.B))
    ec_ratio = ec.C / mp.gamma(to_mpf(ec.B))
    elapsed = time.perf_counter() - t0

    check(failures, ec.B == Fraction(5, 8), f"elliptic B = {ec.B}, want 5/8 exactly")
    check(failures, gm_mean.value == Fraction(1058, 781),
          f"GM Cesaro mean = {gm_mean.value}, want 1058/781 exactly")
    check(failures, abs(float(ga.B) - 0.320556) < 1e-5,
          f"automaton Cesaro mean {float(ga.B)} off 0.320556 by >= 1e-5")
    check(failures, abs(float(a_ga.value) - 0.078859) < 1e-5,
          f"automaton log-weighted sum {float(a_ga.value)} off 0.078859 by >= 1e-5")
    check(failures, abs(float(ga_ratio) - 0.847382) < 1e-4,
          f"automaton C/Gamma(B) {float(ga_ratio)} off 0.847382 by >= 1e-4")
    check(failures, abs(float(ec_ratio) - 0.502128) < 1e-4,
          f"elliptic C/Gamma(B) {float(ec_ratio)} off 0.502128 by >= 1e-4")
    check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s over the 1s budget")
    verdict("criterion 1: closed-form constants regression (< 1s)", failures)


def test_criterion_2_exact_identities():
    failures = []
    t0 = time.perf_counter()
    for name, make in ALL_BUILTINS:
        cen = census.build_census(make(), 40)
        cen.verify_euler(40)  # raises on any product/recurrence mismatch
        for k in range(1, 41):
            back = sum(ell * cen.primes[ell] for ell in numtheory.divisors(k))
            check(failures, back == cen.sigma[k],
                  f"{name}: sigma round-trip broke at k={k}")
        bc = distribution.joint_census(distribution.unit_weights(cen), 40, census=cen)
        for X in range(41):
            pmf = distribution.w_pmf(bc, X)
            total = sum((m for _, m in pmf.atoms), Fraction(0))
            check(failures, total == 1, f"{name}: PMF mass {total} != 1 at X={X}")
            lemma, via_pmf = distribution.expected_w(cen, X)
            check(failures, lemma == via_pmf,
                  f"{name}: expected-W routes differ at X={X}")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s over the 30s budget")
    verdict("criterion 2: exact identities to degree 40, zero tolerance (< 30s)", failures)


def test_criterion_3_brute_force_equivalence():
    failures = []
    for name, make in ALL_BUILTINS[:2]:  # full shift and elliptic fixtures
        cen = census.build_census(make(), 6)
        P = {ell: cen.primes[ell] for ell in range(1, 7)}
        results = oracles.brute_enumerate(P, 6)
        bc = distribution.joint_census(distribution.unit_weights(cen), 6, census=cen)
        for X in range(7):
            check(failures, oracles.brute_orbit_total(results, X) == cen.count_orbits(X),
                  f"{name}: N({X}) differs from the exhaustive count")
            ours = {int(v): m for v, m in distribution.w_pmf(bc, X).atoms}
            brute = oracles.brute_w_pmf(results, X)
            check(failures, ours == brute, f"{name}: W-PMF differs at X={X}")
            lemma, _ = distribution.expected_w(cen, X)
            check(failures, lemma == oracles.brute_expected_w(results, X),
                  f"{name}: expected W differs at X={X}")
    verdict("criterion 3: exhaustive enumerator equivalence at X <= 6", failures)


def test_criterion_4_orbit_count_asymptotics():
    failures = []
    t0 = time.perf_counter()
    cen = census.build_census(systems.builtin_source("E", p=3, n=2), 60)
    ec = asy.constants_for(cen.source, cen=cen)
    with mp.workprec(160):
        target = ec.C / mp.gamma(to_mpf(ec.B))
        b_minus_1 = mp.mpf(ec.B.numerator) / ec.B.denominator - 1

        def ratio(X):
            return mp.mpf(cen.count_orbits(X)) / (mp.mpf(4) ** X * mp.power(X, b_minus_1))

        r20, r60 = ratio(20), ratio(60)
        gap20, gap60 = abs(r20 - target), abs(r60 - target)
    elapsed = time.perf_counter() - t0
    check(failures, gap60 < gap20,
          f"ratio drifts away: |r(60)-C|={mp.nstr(gap60, 6)} >= |r(20)-C|={mp.nstr(gap20, 6)}")
    check(failures, gap60 < mp.mpf("0.25") * target,
          f"ratio(60)={mp.nstr(r60, 8)} not within 25% of C/Gamma(B)={mp.nstr(target, 8)}")
    check(failures, elapsed < 10.0, f"runtime {elapsed:.1f}s over the 10s budget")
    verdict("criterion 4: N(X) ~ (C/Gamma(B)) 4^X X^(B-1) drift at desk scale (< 10s)", failures)


def test_criterion_5_mertens_asymptotics():
    failures = []
    t0 = time.perf_counter()
    ff = census.build_census(systems.builtin_source("FF", q=2), 2048)
    e32 = census.build_census(systems.builtin_source("E", p=3, n=2), 1024)
    with mp.workprec(160):
        log2 = mp.log(2)
        for X in (256, 512, 1024):
            q = (ff.mertens(2 * X) - ff.mertens(X)) / log2
            check(failures, mp.mpf("0.8") <= q <= mp.mpf("1.2"),
                  f"full-shift doubling quotient {mp.nstr(q, 8)} outside [0.8, 1.2] at X={X}")
        qe = (e32.mertens(1024) - e32.mertens(512)) / log2
        check(failures, abs(qe - Fraction(5, 8)) < mp.mpf("0.25") * Fraction(5, 8),
              f"elliptic doubling quotient {mp.nstr(qe, 8)} not within 25% of 5/8")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s over the 60s budget")
    verdict("criterion 5: M(X) ~ B log X doubling quotients (< 60s)", failures)


def test_criterion_6_large_deviation_machinery():
    failures = []
    delta1 = distribution.DiscreteMeasure.from_dict({1: 1})
    with mp.workprec(160):
        worst = mp.mpf(0)
        for i in range(50):
            x = mp.mpf("0.1") + i * (mp.mpf(5) - mp.mpf("0.1")) / 49
            closed = x * mp.log(x) - x + 1
            worst = max(worst, abs(ldp.legendre_rate(delta1, x) - closed))
        check(failures, worst < mp.mpf("1e-8"),
              f"Legendre transform off x log x - x + 1 by {mp.nstr(worst, 4)}")

        lam, r = Fraction(3, 2), Fraction(2, 3)
        at_min = ldp.subset_rate(lam * r, lam, r)
        check(failures, abs(at_min) < mp.mpf("1e-8"),
              f"subset rate at lam*r is {mp.nstr(at_min, 4)}, not ~0")
        for side in (-1, 1):
            nearby = ldp.subset_rate(lam * r + side * Fraction(1, 100), lam, r)
            check(failures, nearby > at_min, "subset rate not minimized at lam*r")

    src = systems.builtin_source("FF", q=2)
    cen = census.build_census(src, 60)
    bc = distribution.joint_census(distribution.unit_weights(cen), 60, census=cen)
    cons = asy.constants_for(src, cen=cen)
    report = ldp.tail_report(bc, cons, [1.0], ldp.RateFunction.poisson(), xs=(20, 40, 60))
    for row in report.rows:
        check(failures, row.log_p <= row.chebyshev,
              f"Chebyshev bound fails to dominate the exact tail at X={row.X}")
    n20, n40, n60 = (row.normalized for row in report.rows)
    target = 2 * mp.log(2) - 1  # I(2) for the Poisson rate
    check(failures, n20 > n40 > n60 > target,
          f"normalized exponents {mp.nstr(n20, 6)}, {mp.nstr(n40, 6)}, {mp.nstr(n60, 6)} "
          f"do not drift monotonically toward {mp.nstr(target, 6)}")
    verdict("criterion 6: rate functions, Chebyshev domination, tail drift", failures)


def test_criterion_7_growth_rate_one_branch():
    failures = []
    rep = asy.lambda1_analysis([1, 3])
    check(failures, rep.B == 2, f"B = {rep.B}, want 2")
    check(failures, sum(rep.primes.values()) == 2,
          f"total prime count {sum(rep.primes.values())}, want 2")
    check(failures, rep.leading == Fraction(1, 4), f"leading = {rep.leading}, want 1/4")
    cen = census.build_census(systems.builtin_source("periodic", values=(1, 3)), 400)
    observed = Fraction(cen.count_orbits(400), 400 * 400)
    rel = abs(observed - Fraction(1, 4)) / Fraction(1, 4)
    check(failures, rel < Fraction(5, 100),
          f"N(400)/400^2 = {observed} deviates from 1/4 by {float(rel):.3%}")
    verdict("criterion 7: polynomial branch leading term N(X) ~ X^2/4", failures)


def test_criterion_8_sampler_calibration():
    failures = []
    seed, n_samples, X = 20260814, 100000, 20
    cen = census.build_census(systems.builtin_source("FF", q=2), X)
    bc = distribution.joint_census(distribution.unit_weights(cen), X, census=cen)
    exact = {int(v): m for v, m in distribution.w_pmf(bc, X).atoms}

    dumps = []
    for _ in range(2):
        buf = io.StringIO()
        sampler.write_samples_csv(buf, cen, X, n_samples, seed)
        dumps.append(buf.getvalue())
    check(failures, dumps[0] == dumps[1], "rerun with the same seed is not byte-identical")

    counts = {}
    for line in dumps[0].splitlines()[1:]:
        w = int(line.split(",")[2])
        counts[w] = counts.get(w, 0) + 1
    support = set(exact) | set(counts)
    tv = sum(
        (abs(Fraction(counts.get(w, 0), n_samples) - exact.get(w, Fraction(0))) for w in support),
        Fraction(0),
    ) / 2
    check(failures, tv < Fraction(2, 100),
          f"total-variation distance {float(tv):.4f} >= 0.02 at {n_samples} samples")
    verdict("criterion 8: sampler calibration, TV < 0.02 and reproducible", failures)


def test_criterion_9_validation_gate(capsys):
    failures = []
    for name, make in ALL_BUILTINS:
        sigma = systems.sigma_table(make(), 200)
        rep = systems.validate_dold(sigma[1:])
        check(failures, rep.ok, f"{name}: realizability check rejected a valid system")
    code = cli.main(["validate", "--system", "table:[1,1,2]"])
    err = capsys.readouterr().err
    check(failures, code == 2, f"CLI exit code {code}, want 2")
    check(failures, "ell=3" in err, f"CLI diagnostic does not name ell=3: {err!r}")
    verdict("criterion 9: realizability validation accepts/rejects correctly", failures)
