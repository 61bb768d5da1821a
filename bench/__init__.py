"""Served end-to-end benchmark of the telemetry monitor (see README.md)."""
