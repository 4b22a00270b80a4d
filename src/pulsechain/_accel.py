"""Name of the kernel backend, for provenance.

Both sequential inner loops run in numpy, in the modules whose physics they
compute: the shaper's segment loop in ``envelope.simulate_circuit`` and the
RK4 excitation scan in ``atom``.  Only this constant remains here, because
the benchmark in ``chainbench/`` reads it for its provenance line.
"""

BACKEND = "numpy"
