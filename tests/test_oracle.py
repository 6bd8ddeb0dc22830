"""Census self-tests: fixed small boxes, partition determinism, budget."""

import ast
import inspect
from fractions import Fraction

import pytest

from nhc import oracle
from nhc.heights import CALIBRATED, UNCALIBRATED
from nhc.oracle import ScanBudgetError, brute_census, brute_minimal, scan_budget


class TestCensus:
    def test_calibrated_7000_box(self):
        c = brute_census(CALIBRATED, 7000)
        assert c.total_elliptic == 820
        assert c.singular_points == 5
        assert (c.box.x_bound, c.box.y_bound) == (12, 16)

    def test_box_partition_identity(self):
        c = brute_census(UNCALIBRATED, 5000)
        points = (2 * c.box.x_bound + 1) * (2 * c.box.y_bound + 1)
        assert c.total_elliptic + c.singular_points == points

    def test_tiny_boxes(self):
        assert brute_census(UNCALIBRATED, 1).total_elliptic == 8
        c = brute_census(CALIBRATED, 27, tracked_j=[0])
        assert c.per_j[Fraction(0)] == (2, 2)  # y^2 = x^3 +- 1

    def test_per_j_with_collection(self):
        c = brute_census(CALIBRATED, 10**6, tracked_j=[-3375], collect_curves=True)
        assert c.per_j[Fraction(-3375)] == (2, 2)
        assert c.curves_by_j[Fraction(-3375)] == [(-35, -98), (-35, 98)]

    def test_fractional_j_tracking(self):
        j = Fraction(20, 3)
        c = brute_census(UNCALIBRATED, 10**4, tracked_j=[j])
        tilde, rep = c.per_j[j]
        assert tilde >= 0 and rep <= tilde

    @pytest.mark.parametrize("stripes", [1, 2, 8])
    def test_partition_determinism(self, stripes):
        baseline = brute_census(CALIBRATED, 10**4, tracked_j=[0, 1728, -3375])
        result = brute_census(CALIBRATED, 10**4, tracked_j=[0, 1728, -3375], stripes=stripes)
        assert result == baseline

    def test_parallel_workers_match_serial(self):
        serial = brute_census(UNCALIBRATED, 10**3, tracked_j=[0, -3375])
        parallel = brute_census(
            UNCALIBRATED, 10**3, tracked_j=[0, -3375], stripes=4, workers=2
        )
        assert parallel == serial

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # the stripe count stays as requested; only the pool size is capped
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                pools.append(len(jobs))
                return map(fn, jobs)

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
        serial = brute_census(UNCALIBRATED, 10**3, tracked_j=[0, 1728, -3375])
        pooled = brute_census(
            UNCALIBRATED, 10**3, tracked_j=[0, 1728, -3375], stripes=8, workers=64
        )
        assert pools == [3, 8]
        assert pooled == serial

    def test_census_imports_no_formula_code(self):
        imported = {
            node.module
            for node in ast.walk(ast.parse(inspect.getsource(oracle)))
            if isinstance(node, ast.ImportFrom) and node.level
        }
        assert imported == {"exactarith", "heights"}


class TestBudget:
    def test_refusal_with_estimate(self):
        with pytest.raises(ScanBudgetError, match="lattice points"):
            brute_census(CALIBRATED, 10**12)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("NHC_ORACLE_CAP", "50")
        assert scan_budget() == 50
        with pytest.raises(ScanBudgetError):
            brute_census(CALIBRATED, 7000)
        monkeypatch.setenv("NHC_ORACLE_CAP", "10000")
        assert brute_census(CALIBRATED, 7000).total_elliptic == 820

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
    def test_bad_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("NHC_ORACLE_CAP", value)
        with pytest.raises(ValueError, match="NHC_ORACLE_CAP"):
            scan_budget()

    def test_default_budget_allows_large_boxes(self):
        assert scan_budget() > 10**8


class TestBruteMinimal:
    def test_examples(self):
        found = brute_minimal(-3375, CALIBRATED, 10**6)
        assert found is not None
        pair, h = found
        assert set(pair) == {(-35, 98), (-35, -98)}
        assert h == 259308

        assert brute_minimal(54000, CALIBRATED, 10**4) is None  # min height 13500

        found = brute_minimal(0, CALIBRATED, 30)
        assert found == (((0, 1), (0, -1)), 27)

    def test_matches_formula(self):
        from nhc.families import minimal_curves

        for j in (54000, 287496, 8000):
            pair, h = brute_minimal(j, CALIBRATED, 10**6)
            curves, expected_h = minimal_curves(j, CALIBRATED)
            assert h == expected_h
            assert set(pair) == {tuple(c) for c in curves}
