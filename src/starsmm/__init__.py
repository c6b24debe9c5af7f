"""Analytic error and cost toolkit for SMM-based analog rotation gates.

Submodules:

* :mod:`starsmm.zchan` -- exact algebra of Z-rotation mixtures (the oracle).
* :mod:`starsmm.tmr` -- transversal multi-rotation output model.
* :mod:`starsmm.pcec` -- probabilistic coherent error cancellation.
* :mod:`starsmm.smm` -- the two-stage rotation-gate engine and sampler.
* :mod:`starsmm.mitigation` -- PEC cost budgets and feasibility bounds.
* :mod:`starsmm.tepai` -- TE-PAI gate counts and resource estimation.
* :mod:`starsmm.hamcat` -- target-system catalog and Hubbard terms.
* :mod:`starsmm.verify` -- the oracle checks that ``starsmm verify`` runs.
* :mod:`starsmm.cli` -- command-line sweeps, resource tables and ``verify``.
"""

import os
import sys

if "numpy" not in sys.modules:
    # numpy starts its OpenBLAS worker threads at import and they spin for
    # about 0.1 s of CPU, though starsmm makes no BLAS or LAPACK call.  A
    # value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import hamcat, mitigation, pcec, smm, tepai, tmr, zchan

__all__ = ["cli", "hamcat", "mitigation", "pcec", "smm", "tepai", "tmr", "verify", "zchan"]
__version__ = "0.1.0"
