"""Shared fixtures: run a test on the compiled kernels and on the fallback.

``REPRO_REQUIRE_CKERNELS`` pins what a CI leg expects, following the
``REPRO_REQUIRE_ZSTD`` precedent: ``1`` fails the compiled cases when the C
library did not build, ``0`` asserts it did not (a ``CC=false`` leg runs
the whole suite on the Python kernels).  Unset, the compiled cases run
wherever a compiler is available and skip elsewhere.  The library itself
reads no such variable.
"""

import os

import pytest

from repro.engine import ckernels


def _require_compiled() -> None:
    """Skip (or, under ``REPRO_REQUIRE_CKERNELS=1``, fail) without the C
    library."""
    if not ckernels.available():
        if os.environ.get("REPRO_REQUIRE_CKERNELS") == "1":
            pytest.fail("REPRO_REQUIRE_CKERNELS=1 but the compiled cache "
                        "kernels did not build")
        pytest.skip("compiled cache kernels unavailable (no C compiler)")


@pytest.fixture
def compiled_tier():
    """A test that needs the compiled kernels."""
    _require_compiled()


@pytest.fixture(params=["compiled", "fallback"])
def kernel_path(request, monkeypatch):
    """Parametrize a test over the compiled kernels and the Python fallback.

    The fallback is reached through the one seam the engine offers,
    ``ckernels.available()``.
    """
    if request.param == "compiled":
        _require_compiled()
    else:
        monkeypatch.setattr(ckernels, "available", lambda: False)
    return request.param


@pytest.fixture(scope="session")
def ledger_results():
    """Every experiment of the claims ledger, run once per session on the
    vectorized engine."""
    from repro.experiments.claims import run_experiments

    return run_experiments("vectorized")
