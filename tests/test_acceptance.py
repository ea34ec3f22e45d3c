"""Acceptance suite: one test per headline criterion, each asserting on the
matching check of ``aht verify``.

The suite runs once in-process at a fixed seed (each check timed on its
own); criteria 1-9 assert that their check passed, and criterion 10 runs
``aht verify`` in a fresh interpreter and compares its report byte for
byte.  Each test prints a single PASS line once its assertions hold, so
``pytest -s tests/test_acceptance.py`` gives a criterion-by-criterion
report.
"""
import subprocess
import sys
import time

import pytest

from aht import verify

SEED = 11
ENSEMBLE = 500  # the aht verify default


@pytest.fixture(scope="module")
def suite():
    """``{name: (check, seconds)}`` for one in-process suite run."""
    results = {}
    for name, fn in verify._CHECKS:
        start = time.perf_counter()
        check = verify._run_check(name, fn, SEED, ENSEMBLE)
        results[name] = check, time.perf_counter() - start
    return results


def assert_criterion(suite, number, name, max_seconds=None):
    check, seconds = suite[name]
    assert check.passed, check.detail
    if max_seconds is not None:
        assert seconds < max_seconds
    print(f"PASS criterion {number}: {check.detail}")


def test_criterion_1_projector_laws(suite):
    assert_criterion(suite, 1, "projector_laws", max_seconds=5.0)


def test_criterion_2_whh4_averaging(suite):
    assert_criterion(suite, 2, "whh4_averaging")


def test_criterion_3_magnus_order_scaling(suite):
    assert_criterion(suite, 3, "magnus_orders", max_seconds=10.0)


def test_criterion_4_ns_identity(suite):
    assert_criterion(suite, 4, "ns_identity")


def test_criterion_5_dfs_identity(suite):
    assert_criterion(suite, 5, "dfs_identity")


def test_criterion_6_encoded_sequence_selectivity(suite):
    assert_criterion(suite, 6, "sequence_selectivity")


def test_criterion_7_pulse_correspondence(suite):
    assert_criterion(suite, 7, "pulse_correspondence")


def test_criterion_8_universality(suite):
    assert_criterion(suite, 8, "universality")


def test_criterion_9_encoded_suppression(suite):
    assert_criterion(suite, 9, "noise_suppression", max_seconds=120.0)


def test_criterion_10_verify_reproducibility(suite):
    proc = subprocess.run(
        [sys.executable, "-m", "aht", "verify", "--seed", str(SEED)],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    in_process = [check for check, _ in suite.values()]
    assert proc.stdout == verify.format_report(in_process, SEED).encode()
    assert b"9/9 checks passed" in proc.stdout
    print("PASS criterion 10: aht verify in a new interpreter repeats the report byte for byte")
