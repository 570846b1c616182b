"""Property tests for the NPMLE solver and its KKT-gap certificate.

The certificate is recomputed here in plain numpy, never through
ebpolicy, and checked against a plain multiplicative EM reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ebpolicy.npmle import _em, fit_npmle

TOLS = st.sampled_from([1e-3, 1e-6, 1e-9])


@st.composite
def likelihoods(draw):
    """Positive J x K likelihoods; some columns (never the first) are
    scaled toward underflow, as far-off grid atoms are."""
    J = draw(st.integers(1, 8))
    K = draw(st.integers(1, 6))
    L = draw(arrays(np.float64, (J, K), elements=st.floats(1e-4, 10.0)))
    tiny = draw(arrays(np.bool_, K))
    tiny[0] = False
    L[:, tiny] *= draw(st.sampled_from([1e-30, 1e-150, 1e-300]))
    return L


@st.composite
def starts(draw, K):
    """Simplex starting weights with some exact zeros."""
    w = draw(arrays(np.float64, K, elements=st.floats(0.0, 1.0)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, K - 1))] = 1.0
    return w / w.sum()


def loglik(L, w):
    return float(np.mean(np.log(L @ w)))


def kkt_gap(L, w):
    return float(np.max(L.T @ (1.0 / (L @ w)))) / L.shape[0] - 1.0


def plain_em(L, iters=3000):
    """Reference: multiplicative EM from uniform weights, no acceleration."""
    w = np.full(L.shape[1], 1.0 / L.shape[1])
    for _ in range(iters):
        w = w * (L.T @ (1.0 / (L @ w))) / L.shape[0]
    return w


def check_certificate(L, w, gap, trace):
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(trace) >= -1e-12)
    assert trace[-1] == pytest.approx(loglik(L, w), rel=1e-12, abs=1e-12)
    ref = kkt_gap(L, w)
    assert gap == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert gap >= -1e-12
    # the gap bounds the distance to the NPMLE, so no other point beats w by more
    assert loglik(L, w) >= loglik(L, plain_em(L)) - gap - 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(L=likelihoods(), tol=TOLS, max_iter=st.integers(0, 300))
def test_fit_npmle_certificate(L, tol, max_iter):
    prior, diag = fit_npmle(L, tol=tol, max_iter=max_iter)
    w, trace = prior.weights, np.array(diag.loglik_trace)
    check_certificate(L, w, diag.kkt_gap, trace)
    assert diag.log_likelihood == trace[-1]
    assert diag.converged == (diag.kkt_gap <= tol)
    assert diag.iterations <= max_iter
    assert diag.converged or diag.iterations == max_iter


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), L=likelihoods(), tol=TOLS)
def test_em_from_sparse_start(data, L, tol):
    w0 = data.draw(starts(L.shape[1]))
    w, trace, iterations, gap = _em(L, w0, tol, 2000)
    check_certificate(L, w, gap, np.array(trace))
    assert gap <= tol or iterations == 2000


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_readmits_atom_zeroed_at_start(tol):
    # the optimum puts all mass on atom 1, which the start zeroes exactly
    L = np.array([[0.1, 0.5]])
    w, trace, _, gap = _em(L, np.array([1.0, 0.0]), tol, 2000)
    assert gap <= tol
    assert kkt_gap(L, w) <= tol
    # here the gap is at least 0.8 * w[0]
    assert w[0] <= 1.25 * tol
