"""Fixture: a whole package whose hot regions have gone stale (P-STALE)."""
