"""Tier-1 tests; a package so that helpers in conftest.py import by a unique name."""
