"""End-to-end benchmark of the symbol-store stack; run ``perfbench/run.py``."""
