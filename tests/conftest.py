"""Fixtures shared by the test modules."""

from tests.kir_reference import reference_engine  # noqa: F401  (fixture)
