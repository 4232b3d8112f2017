"""Open-loop, quality-aware serving benchmark (run ``perfbench/run.py``)."""
