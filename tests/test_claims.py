"""The paper's claims ledger (:mod:`repro.experiments.claims`)."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.claims import CLAIMS, check_claims, run_experiments


class TestLedger:
    def test_every_claim_holds_on_the_vectorized_engine(self, ledger_results):
        ledger = check_claims(ledger_results)
        assert ledger.failure_report() == ""
        assert len({claim.id for claim, _ in ledger.rows}) == len(CLAIMS)
        assert {claim.experiment for claim in CLAIMS} == set(ledger_results)
        assert not any(claim.holds(math.nan) for claim in CLAIMS)

    def test_readme_carries_the_rendered_ledger(self, ledger_results):
        """Re-paste ``repro-experiments claims`` when a row changes."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert check_claims(ledger_results).render() in readme.read_text()

    @pytest.mark.slow
    def test_reference_engine_measures_the_same_ledger(self, ledger_results):
        reference = check_claims(run_experiments("reference"))
        vectorized = check_claims(ledger_results)
        assert ([value for _, value in reference.rows]
                == [value for _, value in vectorized.rows])
        assert reference.render() == vectorized.render()

    def test_repro_experiments_does_not_load_the_ledger(self):
        code = ("import sys, repro.experiments; "
                "print('repro.experiments.claims' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"
