"""Name of the Toeplitz kernel backend, kept for the benchmark's run record.

Every kernel lives in `toeplitz.py` as numpy code; there is one backend.
`entrobench/child.py` still reads `BACKEND` for its environment record, so
the name stays until that reader goes.  Nothing in the package imports it.
"""

BACKEND = "python"
