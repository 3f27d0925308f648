import dataclasses
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ptqes import norms, spectra
from ptqes.model import ModelParams
from ptqes.norms import (
    DegenerateSpectrumError,
    gram_matrix,
    norm,
    pq_norms,
    weights,
)
from ptqes.recursion import build_R, family_values
from ptqes.polyengine import evaluate
from ptqes.spectra import level_rows

# The moment-system weights of tests/make_reference_data.py, per (M, zeta):
# [(E, label, omega)].
WEIGHT_REFERENCE = {
    (cell["M"], cell["zeta"]): [(complex(*row["E"]), row["label"], complex(*row["w"])) for row in cell["rows"]]
    for cell in json.loads((Path(__file__).parent / "reference_data.json").read_text())["weights"]
}


def _weight_error(M, zeta):
    """Largest |omega - omega_ref| of weights(M, zeta) over the largest
    reference weight, each level matched to the nearest reference level of
    its sector."""
    reference = list(WEIGHT_REFERENCE[(M, zeta)])
    scale = max(abs(w) for _, _, w in reference)
    t = weights(ModelParams(M=M, zeta=zeta))
    worst = 0.0
    for (E, label, _), w in zip(level_rows(M, zeta), t.weights):
        match = min((row for row in reference if row[1] == label), key=lambda row: abs(row[0] - E))
        reference.remove(match)
        worst = max(worst, abs(w - match[2]) / scale)
    return worst


def test_norm_values_m3():
    p = ModelParams(M=3, zeta=math.sqrt(0.01))
    assert norm(0, p) == 1.0
    assert norm(1, p) == pytest.approx(-0.08, rel=1e-14)
    assert norm(2, p) == pytest.approx(0.0064, rel=1e-14)
    assert norm(3, p) == 0.0
    assert norm(5, p) == 0.0
    with pytest.raises(ValueError):
        norm(-1, p)


def test_weight_table_m3():
    p = ModelParams(M=3, zeta=math.sqrt(0.01))
    t = weights(p)
    assert t.energies == pytest.approx(
        [4.99, 5.030408205773458, 8.949591794226542], abs=1e-12
    )
    assert t.gamma[0] == 1.0
    assert t.gamma[3] == 0.0
    assert len(t.weights) == 3
    # zeroth moment is the defining normalization
    assert sum(t.weights) == pytest.approx(1.0, abs=1e-12)
    # higher moments of the pure R_j vanish
    fam = build_R(p, 2)
    for j in (1, 2):
        m = sum(w * evaluate(fam[j], e) for w, e in zip(t.weights, t.energies))
        assert abs(m) < 1e-12
    assert t.max_weight_imag == 0.0


def test_gram_identity_cells():
    for (m, tol), z2 in itertools.product(((3, 1e-12), (5, 1e-9)), (0.005, 0.01, 0.019, 0.02, 0.037)):
        params = ModelParams(M=m, zeta=math.sqrt(z2))
        t = weights(params)
        G = gram_matrix(t)
        target = np.diag([norm(n, params) for n in range(m)]).astype(complex)
        scale = 1.0 + max(abs(g) for g in t.gamma)
        assert float(np.max(np.abs(G - target))) / scale < tol
        assert t.max_weight_imag == 0.0


def test_degenerate_support_refused():
    with pytest.raises(DegenerateSpectrumError):
        weights(ModelParams(M=3, zeta=0.5))  # double root at zeta^2 = 0.25
    # levels coincide in pairs, and every Gram norm from gamma_1 on is 0
    with pytest.raises(DegenerateSpectrumError, match=r"vanishes at zeta\^2=0\.0: zeta = 0$"):
        weights(ModelParams(M=4, zeta=0.0))


# Cells where gamma_n = a_1 ... a_n underflows to 0 or a subnormal: at M = 3
# from zeta of about 4e-82, at M = 41 below 2.9e-6.  Each id is the cell's
# zeta and zeta^2.
UNDERFLOW_CELLS = [(3, 1e-160), (3, 1e-170), (3, 1e-200), (3, 1e-90), (41, 2.8e-6)]


@pytest.mark.parametrize(
    "M, zeta", [pytest.param(M, zeta, id=f"{zeta!r}-{zeta * zeta!r}") for M, zeta in UNDERFLOW_CELLS]
)
def test_gram_underflow_is_not_blamed_on_zero_coupling(M, zeta):
    # zeta != 0, so no Gram norm is refused: the weights resolve, sum to 1
    # and put 1/2 on each of the two levels at b_0 = 2M - 1, one per sector
    t = weights(ModelParams(M=M, zeta=zeta))
    assert abs(sum(t.weights) - 1.0) <= norms.WEIGHT_RTOL
    at_b0 = [(label, w) for (E, label, _), w in zip(level_rows(M, zeta), t.weights) if abs(E - (2 * M - 1)) < 1e-6]
    assert sorted(label for label, _ in at_b0) == ["E_P", "E_Q"]
    assert all(abs(w - 0.5) <= norms.WEIGHT_RTOL for _, w in at_b0)


# Weights at these cells, close level pairs at small coupling (a conjugate
# pair for M = 6, E_P / E_Q pairs for M = 7), missed the reference by 1.8e-7,
# 1.9e-5, 1.8e-6 and 3.2e-7 of the largest weight through the Christoffel
# sum and were refused; each sector's eigenvectors resolve them.
@pytest.mark.parametrize("M, z2", [(6, 0.005), (7, 0.005), (7, 0.01), (7, 0.02)])
def test_close_pair_weights_match_the_moment_reference(M, z2):
    assert _weight_error(M, math.sqrt(z2)) <= 1e-12


# (support point, weight) at 40 digits, rounded to doubles; generated by
#   python3 -c 'import sys; sys.path.insert(0, "bench"); import reference as r;
#               s, w = r.weights(6, Z2); print([(complex(a), complex(b)) for a, b in zip(s, w)])'
M6_WEIGHTS = {
    0.01: [
        (11.002499349567216 + 2.6070156103823956e-07j, 0.5003906725499274 + 2.7179323944185054e-08j),
        (11.002499349567216 - 2.6070156103823956e-07j, 0.5003906725499274 - 2.7179323944185054e-08j),
        (27.017430700212625 - 0.003020970988554692j, -0.00039153137176547076 + 1.4878605760548733e-07j),
        (27.017430700212625 + 0.003020970988554692j, -0.00039153137176547076 - 1.4878605760548733e-07j),
        (34.95006995022016 - 0.6030207102869937j, 8.58821838017526e-07 + 1.7596538154967238e-07j),
        (34.95006995022016 + 0.6030207102869937j, 8.58821838017526e-07 - 1.7596538154967238e-07j),
    ],
    0.02: [
        (11.004997400692345 - 1.4763630608166907e-06j, 0.5007814405100033 - 1.5404729333495222e-07j),
        (11.004997400692345 + 1.4763630608166907e-06j, 0.5007814405100033 + 1.5404729333495222e-07j),
        (27.03470940090818 - 0.008603142980402052j, -0.0007848343290870801 + 8.542678061243521e-07j),
        (27.03470940090818 + 0.008603142980402052j, -0.0007848343290870801 - 8.542678061243521e-07j),
        (34.900293198399474 - 0.8571298040411983j, 3.3938190838240274e-06 + 1.0083150994593042e-06j),
        (34.900293198399474 + 0.8571298040411983j, 3.3938190838240274e-06 - 1.0083150994593042e-06j),
    ],
}


@pytest.mark.parametrize("z2", sorted(M6_WEIGHTS))
def test_close_pair_weights_match_reference_m6(z2):
    t = weights(ModelParams(M=6, zeta=math.sqrt(z2)))
    got = dict(zip(t.energies, t.weights))
    scale = max(abs(w) for _, w in M6_WEIGHTS[z2])
    for E_ref, w_ref in M6_WEIGHTS[z2]:
        E = min(got, key=lambda E: abs(E - E_ref))
        assert abs(got.pop(E) - w_ref) <= 1e-12 * scale


def test_pq_norms_m5():
    p = ModelParams(M=5, zeta=math.sqrt(0.01))
    got_p = pq_norms(p, "P")
    assert got_p[0] == 1.0
    assert got_p[1] == pytest.approx(3.2j, rel=1e-13)
    assert got_p[2] == pytest.approx(-30.72, rel=1e-13)
    got_q = pq_norms(p, "Q")
    assert got_q == pytest.approx([1.0, 4.8j], rel=1e-13)
    with pytest.raises(ValueError):
        pq_norms(p, "R")


# At these couplings the Christoffel sum overflowed to NaN weights (M = 21,
# zeta = 1e6 and M = 15, zeta = 1e8) or gave weights that missed
# sum_k omega_k = 1 by 0.4997, 0.4998 and 0.0023, and both were refused.
@pytest.mark.parametrize("M, zeta", [(21, 1e6), (15, 1e8), (5, 1e6), (9, 1e4), (21, 100)])
def test_large_coupling_weights_match_the_moment_reference(M, zeta):
    params = ModelParams(M=M, zeta=zeta)
    assert all(math.isfinite(norm(n, params)) for n in range(M + 1))
    assert _weight_error(M, zeta) <= 1e-12


def test_weights_match_the_moment_reference():
    # odd M up to 41 at g = M zeta up to 10 and up to 81 at g up to 20, and
    # even M = 2, 4, 6 on the norms benchmark's couplings
    worst = {(M, zeta): _weight_error(M, zeta) for M, zeta in WEIGHT_REFERENCE}
    assert max(worst.values()) <= 1e-12, max(worst.items(), key=lambda item: item[1])


@pytest.mark.parametrize("M", range(1, 42))
def test_weight_support_is_level_rows(M):
    # the eigenvalues weights solves with its eigenvectors are the bits
    # level_rows solves without them, in its order
    accepted = 0
    for z2 in (1e-4, 0.005, 0.02, 0.3, 3.0, 1e4):
        zeta = math.sqrt(z2)
        try:
            t = weights(ModelParams(M=M, zeta=zeta))
        except DegenerateSpectrumError:
            continue
        accepted += 1
        rows = np.array([E for E, _, _ in level_rows(M, zeta)], dtype=complex)
        assert np.array_equal(np.array(t.energies, dtype=complex).view(np.uint64), rows.view(np.uint64))
    assert accepted


@pytest.mark.parametrize("M", range(2, 41, 2))
def test_even_m_conjugate_levels_carry_conjugate_weights(M):
    # each even-M level and its conjugate row carry exactly conjugate
    # weights, signed zeros included; a level with Im E == 0 stands for its
    # own conjugate, so its two rows carry omega and conj(omega)
    accepted = 0
    for g in (0.1, 1.0, 1.4, 10.0):
        try:
            t = weights(ModelParams(M=M, zeta=g / M))
        except DegenerateSpectrumError:
            continue
        accepted += 1
        rows = Counter((repr(E), repr(w)) for E, w in zip(t.energies, t.weights))
        partners = Counter(
            (repr(E.conjugate() if E.imag else E), repr(w.conjugate())) for E, w in zip(t.energies, t.weights)
        )
        assert rows == partners
    assert accepted


@pytest.mark.parametrize("M", range(1, 42, 2))
def test_real_odd_m_levels_carry_weights_with_positive_zero_imag(M):
    # a real level's eigenvector is complex with Im +0, and (a + 0j)^2 has
    # Im -0 for a < 0; its weight's imaginary part must still be +0.  Every
    # M zeta here lies below the first merger (1.4688), so no table is refused
    for g in (0.3, 0.7, 1.0, 1.4):
        t = weights(ModelParams(M=M, zeta=g / M))
        for E, w in zip(t.energies, t.weights):
            if E.imag == 0.0:
                assert math.copysign(1.0, w.imag) == 1.0, (M, g, E, w)


@pytest.mark.parametrize("M", [3, 4])
def test_a_level_with_vanishing_xsx_is_refused(monkeypatch, M):
    # x = (1, 1) on a two-row block has x^T S x = 1 - 1 == 0: the level is
    # refused as ill-conditioned, with no division by zero on the way
    solve = spectra._geev_vectors

    def null(block):
        levels, X = solve(block)
        X = X.copy()
        X[:, 0] = 1.0
        return levels, X

    monkeypatch.setattr(spectra, "_geev_vectors", null)
    with pytest.raises(DegenerateSpectrumError, match="condition number inf"):
        weights(ModelParams(M=M, zeta=0.1))


def test_weights_that_miss_their_sum_are_refused(monkeypatch):
    # a level whose weight is off by 1e-6 (relative) makes the weights miss
    # sum_k omega_k = 1 by about 1e-6 of that weight, well-conditioned as
    # every level is at M = 3, zeta^2 = 0.01
    solve = norms._eig

    def skewed(M, zeta):
        (E, label, w, kappa), *rows = solve(M, zeta)
        return [(E, label, w * (1 + 1e-6), kappa), *rows]

    monkeypatch.setattr(norms, "_eig", skewed)
    with pytest.raises(ValueError, match=r"the weights sum to .*, not 1 within 1e-08, at zeta\^2=0\.01"):
        weights(ModelParams(M=3, zeta=math.sqrt(0.01)))


@pytest.mark.parametrize(
    "call, member",
    [
        (lambda: norm(1, ModelParams(M=3, zeta=1e200)), "R Gram norm h_1"),
        (lambda: norm(40, ModelParams(M=41, zeta=1e40)), "R Gram norm h_4"),
        (lambda: weights(ModelParams(M=3, zeta=1e100)), "R Gram norm h_2"),
        (lambda: pq_norms(ModelParams(M=41, zeta=1e155), "P"), "P Gram norm h_2"),
        (lambda: pq_norms(ModelParams(M=41, zeta=1e155), "Q"), "Q Gram norm h_2"),
    ],
)
def test_overflowing_gram_norms_are_refused(call, member):
    with pytest.raises(ValueError, match=rf"{member} is not finite at zeta\^2="):
        call()


@pytest.mark.parametrize("M", range(1, 10))
def test_gram_matrix_is_the_sum_over_support_points(M):
    # G[i, j] = sum_k omega_k R_i(E_k) R_j(E_k), built here by running
    # family_values at each support point and taking the same matrix
    # product: gram_matrix matches it bit for bit wherever the guards accept
    # the weights.
    accepted = 0
    for z2 in (1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0):
        params = ModelParams(M=M, zeta=math.sqrt(z2))
        try:
            t = weights(params)
        except (DegenerateSpectrumError, ValueError):
            continue
        accepted += 1
        vals = np.array([family_values("R", params, E, M) for E in t.energies], dtype=complex)
        w = np.array(t.weights, dtype=complex)
        assert gram_matrix(t).tobytes() == (vals.T @ (w[:, None] * vals)).tobytes()
    assert accepted


def test_weight_table_is_a_frozen_record():
    # the hand-written __init__ keeps the generated dataclass behaviour:
    # fields, repr, equality, hashing, replace and refused assignment
    t = weights(ModelParams(M=3, zeta=0.1))
    values = {"params": t.params, "energies": t.energies, "weights": t.weights, "gamma": t.gamma}
    assert [f.name for f in dataclasses.fields(t)] == list(values)
    assert repr(t) == "WeightTable(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    twin = norms.WeightTable(*values.values())
    assert twin == t and hash(twin) == hash(t)
    assert dataclasses.replace(t, gamma=(2.0,)) == norms.WeightTable(**{**values, "gamma": (2.0,)})
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.gamma = ()
