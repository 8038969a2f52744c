"""Layered benchmark of the repro analysis system (see README.md)."""
