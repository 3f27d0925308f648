"""End-to-end acceptance checks, one per verification area.

Each test records a verdict line; conftest prints the collected lines after
the run.  One area fails honestly and deterministically: the bundled golden
file carries defects of its own (area 1).  The test asserts the measured
state so the suite stays green while the verdict line reports the criterion
outcome.
"""

import math
import time

from ptqes.duality import verify_duality
from ptqes.model import ModelParams
from ptqes.norms import verify_norms
from ptqes.oracle import reproduce_tables, verify_gauge, wedge_decay_probe
from ptqes.polyengine import taylor_shift
from ptqes.spectra import (
    critical_coupling,
    critical_polynomials,
    even_M_pairing,
    qes_spectrum,
    verify_factorization,
)


def test_c01_golden_table_reproduction(acceptance):
    t0 = time.perf_counter()
    reports = {name: reproduce_tables(name) for name in ("I", "II", "III")}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0

    assert reports["I"].passed
    assert reports["I"].max_abs_err < 1e-6

    bad2 = [c for c in reports["II"].cells if not c.passed]
    assert len(bad2) == 1
    assert (bad2[0].zeta2, bad2[0].label, bad2[0].rank) == (0.025, "E_P", 0)
    assert 1.0e-6 < bad2[0].abs_err < 1.1e-6

    bad3 = [c for c in reports["III"].cells if not c.passed]
    assert len(bad3) == 27
    assert all(3.0e-5 < c.abs_err < 3.2e-3 for c in bad3)

    n_bad = len(bad2) + len(bad3)
    acceptance(
        1,
        "golden-table reproduction",
        False,
        f"{63 - n_bad}/63 cells within 1e-6 in {elapsed:.2f}s; "
        "28 golden cells fail on defects at source (II: one of its two digit slips, III: all 27)",
    )


def test_c02_closed_form_spectra(acceptance):
    worst = 0.0
    for z2 in (0.0, 0.01, 0.1, 0.24, 0.25):
        p = ModelParams(M=1, zeta=math.sqrt(z2))
        (level,) = qes_spectrum(p).levels
        worst = max(worst, abs(level.E - (1.0 - z2)))
    for z2 in (0.0, 0.01, 0.1, 0.24):
        p = ModelParams(M=3, zeta=math.sqrt(z2))
        r = math.sqrt(1.0 - 4.0 * z2)
        closed = sorted([5.0 - z2, 7.0 - z2 - 2.0 * r, 7.0 - z2 + 2.0 * r])
        for a, b in zip(qes_spectrum(p).energies, closed):
            worst = max(worst, abs(a - b))
    assert worst <= 1e-12

    spec = qes_spectrum(ModelParams(M=3, zeta=0.5))
    assert spec.degenerate_pairs == ((1, 2),)
    assert abs(spec.energies[1] - 6.75) <= 1e-9
    acceptance(
        2,
        "closed-form spectra (M=1,3)",
        True,
        f"max error {worst:.1e}; double root at zeta^2=0.25 flagged as pair (1, 2)",
    )


def test_c03_critical_couplings(acceptance):
    t0 = time.perf_counter()
    got = {M: critical_coupling(M, tol=1e-10) for M in (3, 5, 7, 9)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert abs(got[3].zeta_c_squared - 0.25) <= 1e-10
    for M, ref in ((5, 0.08757), (7, 0.04435), (9, 0.02675)):
        assert abs(got[M].zeta_c_squared - ref) <= 5e-4
    vals = ", ".join(f"{got[M].zeta_c_squared:.5f}" for M in (3, 5, 7, 9))
    acceptance(3, "critical couplings", True, f"zeta_c^2 = {vals} in {elapsed:.2f}s")


def _printed_pq(M, z2):
    z4 = z2 * z2
    if M == 3:
        return [16 * z2, 4, 1], [4, 1]
    if M == 5:
        return [768 * z2, 64 + 64 * z2, 20, 1], [64 + 16 * z2, 20, 1]
    if M == 7:
        return (
            [55296 * z2 + 2304 * z4, 2304 + 6528 * z2, 784 + 160 * z2, 56, 1],
            [2304 + 1536 * z2, 784 + 64 * z2, 56, 1],
        )
    return (
        [
            5898240 * z2 + 655360 * z4,
            147465 + 806912 * z2 + 16384 * z4,
            52480 + 30280 * z2,
            4368 + 320 * z2,
            120,
            1,
        ],
        [147456 + 182272 * z2, 52480 + 11648 * z2, 4368 + 160 * z2, 120, 1],
    )


# Three golden M = 9 coefficients fail every exactness cross-check (the
# zeta = 0 root multiset fixes the zeta-free parts, and exact division of
# R_9 fixes the rest); the comparison against them is informational and the
# binding check uses the derivable true values.
_CORRECTED_M9 = {
    ("P", 1): lambda z2: 147456 + 806912 * z2 + 16384 * z2 * z2,
    ("P", 2): lambda z2: 52480 + 30208 * z2,
    ("Q", 0): lambda z2: 147456 + 182272 * z2 + 2304 * z2 * z2,
}


def test_c04_critical_polynomial_coefficients(acceptance):
    worst = 0.0
    worst_info = 0.0
    for M in (3, 5, 7, 9):
        for z2 in (0.01, 0.02, 0.025):
            params = ModelParams(M=M, zeta=math.sqrt(z2))
            P, Q = critical_polynomials(params)
            printed_p, printed_q = _printed_pq(M, z2)
            for fam, poly, printed in (("P", P, printed_p), ("Q", Q, printed_q)):
                cal = taylor_shift(poly, M**2 - params.zeta2)
                assert len(cal.coeffs) == len(printed)
                for i, (got, want) in enumerate(zip(cal.coeffs, printed)):
                    if M == 9 and (fam, i) in _CORRECTED_M9:
                        true_val = _CORRECTED_M9[(fam, i)](z2)
                        worst = max(worst, abs(got - true_val) / abs(true_val))
                        worst_info = max(worst_info, abs(got - want) / abs(want))
                    else:
                        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-10
    assert worst_info > 1e-5  # the three printed cells genuinely differ
    acceptance(
        4,
        "critical polynomial coefficients",
        True,
        f"binding rel err {worst:.1e}; 3 defective golden M=9 cells informational "
        f"(printed values off by up to {worst_info:.1e})",
    )


def _measured(checks, names):
    """{name: measured} of one verify suite, after checking that it runs
    exactly the named checks and that each passes exactly when its
    measured value is within its bound."""
    assert [c["name"] for c in checks] == names
    for c in checks:
        assert c["passed"] == (c["measured"] <= c["bound"])
    return {c["name"]: c["measured"] for c in checks}


def test_c05_roots_vs_gauge_eigenvalues(acceptance):
    got = _measured(verify_gauge(), ["oracle.R_residual", "oracle.spectrum_match", "oracle.char_poly"])
    assert got["oracle.spectrum_match"] <= 1e-11
    assert got["oracle.R_residual"] <= 1e-12
    assert got["oracle.char_poly"] <= 1e-12
    acceptance(
        5,
        "R_M roots vs gauge eigenvalues",
        True,
        f"M = 1..9 x 5 couplings: levels within {got['oracle.spectrum_match']:.1e}; R_M backward "
        f"error at the gauge eigenvalues {got['oracle.R_residual']:.1e}; "
        f"char-poly identity {got['oracle.char_poly']:.1e}",
    )


def test_c06_truncation_factorizations(acceptance):
    got = _measured(verify_factorization(), [f"factorization.M{m}" for m in (1, 2, 3, 4, 5, 7, 21, 41)])
    for deviation in got.values():
        assert deviation <= 1e-12
    acceptance(6, "truncation factorizations", True, f"max deviation {max(got.values()):.1e} for n up to 4")


def test_c07_weights_and_gram_identity(acceptance):
    names = ["norms.gamma_endpoints", "norms.gram_identity", "norms.weight_reality", "norms.sign_pattern"]
    got = _measured(verify_norms(), names)
    assert got["norms.gamma_endpoints"] == 0
    assert got["norms.gram_identity"] <= 1e-9
    assert got["norms.weight_reality"] == 0
    assert got["norms.sign_pattern"] == 0
    acceptance(
        7,
        "weights and Gram identity",
        True,
        f"Gram error {got['norms.gram_identity']:.1e} on M in 3,5 x zeta^2 in 0.005,0.01,0.02; "
        f"max weight imag {got['norms.weight_reality']:.1e}; Gram diagonal signs (-1)^n",
    )


def test_c08_duality(acceptance):
    names = ["duality.negation_reversal", "duality.closed_form_m3", "duality.ode_residual"]
    got = _measured(verify_duality(), names)
    assert got["duality.negation_reversal"] == 0
    assert got["duality.closed_form_m3"] <= 1e-12
    assert got["duality.ode_residual"] <= 1e-6
    acceptance(
        8,
        "duality map and dual ODE",
        True,
        f"negation-reversal exact; M=3 closed duals {got['duality.closed_form_m3']:.1e}; "
        f"ODE residual {got['duality.ode_residual']:.1e}",
    )


def test_c09_even_m_conjugate_pairing(acceptance):
    grid = [(M, z2) for M in (2, 4, 6) for z2 in (0.02, 0.1)] + [(6, 1e-3)]
    for M, z2 in grid:
        assert even_M_pairing(ModelParams(M=M, zeta=math.sqrt(z2)))
    acceptance(
        9,
        "even-M conjugate pairing",
        True,
        "level sets exactly conjugation-closed with no real level, M in 2,4,6 and M=6 at zeta^2=1e-3",
    )


def test_c10_decay_wedges(acceptance):
    params = ModelParams(M=1, zeta=0.2)
    probes = [
        wedge_decay_probe(params, u, v)
        for u in (1, -1)
        for v in (-3 * math.pi / 8, -math.pi / 8, math.pi / 8, 3 * math.pi / 8)
    ]
    assert len(probes) == 8
    assert all(p.consistent for p in probes)
    assert sum(p.decays for p in probes) == 4
    acceptance(
        10,
        "M=1 decay wedges",
        True,
        "8 rays consistent with the predicted wedges (4 decaying, 4 growing)",
    )
