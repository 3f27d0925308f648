"""Property tests over M in 1..61 and zeta^2 in [0, 1].

Hypothesis runs derandomized with a bounded example count, so the suite
draws the same cases on every run.
"""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ptqes.duality import dual_spectrum
from ptqes.model import ModelParams
from ptqes.polyengine import evaluate
from ptqes.recursion import build_bar, build_P, build_Q, build_R, family_values, recurrence_b, step_table
from ptqes.spectra import level_arrays, level_rows, qes_spectrum

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

Ms = st.integers(min_value=1, max_value=61)
odd_Ms = st.integers(min_value=0, max_value=30).map(lambda k: 2 * k + 1)
zeta2s = st.floats(min_value=0.0, max_value=1.0)


@PROPERTY
@given(M=Ms, z2=zeta2s)
def test_level_sum_is_the_trace(M, z2):
    # sum E = tr T = sum_j b_j = sum_j [M^2 - zeta^2 - 4 (j - (M-1)/2)^2]
    params = ModelParams(M=M, zeta=math.sqrt(z2))
    energies = qes_spectrum(params).energies
    trace = sum(M * M - z2 - 4 * (j - (M - 1) / 2) ** 2 for j in range(M))
    bound = 1e-12 * sum(abs(recurrence_b(n, params)) for n in range(M))
    assert abs(sum(E.real for E in energies) - trace) <= bound
    assert abs(sum(E.imag for E in energies)) <= bound


def _hex(tagged):
    return [(E.real.hex(), E.imag.hex(), label, real) for E, label, real in tagged]


def _stacked_rows(M, zetas):
    """Each coupling's (E, label, is_real) rows, read off the stacked level
    arrays."""
    E, labels, real = level_arrays(M, zetas)
    return [list(zip(*row)) for row in zip(E.tolist(), labels.tolist(), real.tolist())]


@PROPERTY
@given(M=Ms, z2=zeta2s, others=st.lists(zeta2s, max_size=6))
def test_spectrum_depends_on_zeta_through_zeta2_only(M, z2, others):
    zeta = math.sqrt(z2)
    plus = qes_spectrum(ModelParams(M=M, zeta=zeta))
    minus = qes_spectrum(ModelParams(M=M, zeta=-zeta))
    assert plus.levels == minus.levels
    assert plus.degenerate_pairs == minus.degenerate_pairs
    assert _hex(level_rows(M, zeta)) == _hex((lvl.E, lvl.label, lvl.is_real) for lvl in plus.levels)
    # a stacked solve, of one coupling or of several, gives each coupling
    # the levels of its own solve, bit for bit
    for zetas in ([zeta], [zeta, -zeta, *map(math.sqrt, others)]):
        rows = _stacked_rows(M, zetas)
        assert len(rows) == len(zetas)
        for row, one in zip(rows, zetas):
            assert _hex(row) == _hex(level_rows(M, one))
            # each row carries the structural reality flag: Im E exactly 0
            # for odd M, zeta = 0 for even M
            assert all(real == (E.imag == 0.0 if M % 2 else one == 0.0) for E, _, real in row)


@PROPERTY
@given(M=odd_Ms, z2=zeta2s)
def test_dual_spectrum_is_the_negated_reversed_spectrum(M, z2):
    params = ModelParams(M=M, zeta=math.sqrt(z2))
    base = qes_spectrum(params)
    dual = dual_spectrum(params)
    assert dual.params == params
    assert dual.energies == tuple(-E for E in reversed(base.energies))
    assert [lvl.label for lvl in dual.levels] == [lvl.label for lvl in reversed(base.levels)]
    assert [lvl.is_real for lvl in dual.levels] == [lvl.is_real for lvl in reversed(base.levels)]
    assert [lvl.source_index for lvl in dual.levels] == list(range(M - 1, -1, -1))
    # the map applied twice is the identity, exactly
    assert tuple(-Ehat for Ehat in reversed(dual.energies)) == base.energies


BUILDERS = {"P": build_P, "Q": build_Q, "R": build_R, "Rbar": functools.partial(build_bar, "R")}


def _absolute_values(family, params, r, count):
    """The recursion with every term made positive, run at |E| = r: it bounds
    the sum of |c_i| r^i over every intermediate coefficient of the build,
    and so the rounding error of both routes, by about 3 n eps times it."""
    cur, prev = 1.0, 0.0
    out = [cur]
    for lin, tail in step_table(family, params, count):
        cur, prev = (r + abs(lin)) * cur + abs(tail) * prev, cur
        out.append(cur)
    return out


@PROPERTY
@given(
    family=st.sampled_from(sorted(BUILDERS)),
    M=Ms,
    z2=zeta2s,
    x=st.floats(min_value=-1.0, max_value=2.0),
    y=st.floats(min_value=-1.0, max_value=1.0),
)
def test_family_values_match_coefficients(family, M, z2, x, y):
    # The recursion at a point against Horner on the expanded coefficients,
    # at a real and at a complex E of the size of the levels, relative to
    # the scale that bounds the rounding of both routes.  (Measured against
    # sum |c_i| |E|^i alone, the coefficients' own rounding shows: at M = 40,
    # zeta = 0, E = 1600 the recursion gives P_39 = 0 exactly and Horner
    # 1.2e-12 of that sum.)
    params = ModelParams(M=M, zeta=math.sqrt(z2))
    count = M + 1
    fam = BUILDERS[family](params, count - 1)
    for E in (complex(x * M * M), complex(x, y) * M * M):
        got = family_values(family, params, E, count)
        assert len(got) == count
        scales = _absolute_values(family, params, abs(E), count)
        for poly, value, scale in zip(fam, got, scales):
            assert abs(value - evaluate(poly, E)) <= 1e-12 * scale
