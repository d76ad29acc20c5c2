import pytest
from hypothesis import settings

from t2spline import demo_document

# A heavy run of the properties that set no example count of their own:
# pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=20_000)


@pytest.fixture
def demo_doc():
    return demo_document()


@pytest.fixture
def demo_model(demo_doc):
    return demo_doc.to_model()


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"[acceptance] {name}: {status}", flush=True)
