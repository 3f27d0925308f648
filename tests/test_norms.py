import itertools
import math

import numpy as np
import pytest

from ptqes.model import ModelParams
from ptqes.norms import (
    DegenerateSpectrumError,
    gram_matrix,
    norm,
    pq_norms,
    weights,
)
from ptqes.recursion import build_R
from ptqes.polyengine import evaluate


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
    with pytest.raises(DegenerateSpectrumError):
        weights(ModelParams(M=4, zeta=0.0))  # levels coincide in pairs


# Weights at these cells miss the reference by 1.8e-7, 1.9e-5, 1.8e-6 and
# 3.2e-7 of the largest weight, so they must be refused.
@pytest.mark.parametrize("M, z2", [(6, 0.005), (7, 0.005), (7, 0.01), (7, 0.02)])
def test_unresolvable_weights_refused(M, z2):
    with pytest.raises(DegenerateSpectrumError):
        weights(ModelParams(M=M, zeta=math.sqrt(z2)))


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
        assert abs(got.pop(E) - w_ref) <= 1e-8 * scale


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
