"""Acceptance gate: every criterion at its stated tolerance, one test each.

Each test prints its PASS/FAIL line (visible with ``pytest -s`` and in the
CLI ``selftest``) and asserts the criterion outcome.
"""
import hashlib
import sys

import pytest

from qrevivals import acceptance

THREADS = 4


def _run(criterion):
    result = criterion(threads=THREADS)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.name} [{result.seconds:.1f}s] :: {result.details}")
    sys.stdout.flush()
    assert result.passed, f"criterion {result.name}: {result.details}"


def test_criterion_1_random_field_periodic():
    _run(acceptance.criterion_1)


def test_criterion_2_random_field_decoherent():
    _run(acceptance.criterion_2)


def test_criterion_3_static_noise_echo():
    _run(acceptance.criterion_3)


def test_criterion_4_ou_finite_correlation():
    # The echo under exponentially correlated noise leaves a residual phase
    # variance (~4 sigma^2 tbar^3 / (3 tau)), so the criterion checks the path
    # oracle's recovery against the exact limit exp(-Var/2), E_f(2*tbar) ~= 0.9403
    # at sigma*tau = 1000, not against the static-noise value 1.
    _run(acceptance.criterion_4)


def test_criterion_5_rtn():
    _run(acceptance.criterion_5)


def test_criterion_6_tripartite_flows():
    _run(acceptance.criterion_6)


def test_criterion_7_hidden_entanglement():
    _run(acceptance.criterion_7)


def test_criterion_8_stroboscopic():
    _run(acceptance.criterion_8)


def test_criterion_9_channel_properties():
    _run(acceptance.criterion_9)


def test_criterion_10_determinism():
    _run(acceptance.criterion_10)


@pytest.mark.parametrize("threads", [1, 8])
def test_oracle_means_pinned(threads):
    # SHA-256 of the OU and stroboscopic means of criterion 10's configs
    # (numpy 2.4, x86-64), recorded as the real part of the oracles' former
    # complex estimate: a rewrite that keeps the draws and cosine sums must
    # not move a bit
    _, _, ou_mean, _, strobo_mean, _ = acceptance._oracle_outputs(threads)
    assert hashlib.sha256(ou_mean.tobytes()).hexdigest() == (
        "d8e1a672174ecdd1e3583263672fa16b353bad7f9fdf843fd7c18d5f0eba981a")
    assert hashlib.sha256(strobo_mean.tobytes()).hexdigest() == (
        "513fde766f71dc9f92c0581728dd51f2fa639b2ba2fa4bc9560cd6d818c9465a")
