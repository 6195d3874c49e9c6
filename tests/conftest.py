import pytest

from spdeg import catalog, degeneration

from helpers import curve_instances


@pytest.fixture(scope="session")
def hasse_report():
    return degeneration.hasse()


@pytest.fixture(scope="session")
def theorem_b_records():
    return degeneration.theorem_b_search(samples=500)


@pytest.fixture(scope="session")
def nondeg_checks():
    return degeneration.non_degeneration_suite(samples=1000)


@pytest.fixture(scope="session")
def curve_reports():
    return [degeneration.verify_curve(inst)
            for spec in catalog.curves() for inst in curve_instances(spec)]
