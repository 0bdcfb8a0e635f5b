"""Quantum optimal control with CV-QNN free functions over TFC collocation."""

import os as _os

# Cap BLAS thread pools before numpy loads, at one thread unless CVQOC_THREADS
# asks for more; a variable already set wins, and once numpy is loaded this
# has no effect.  cli.main rejects a CVQOC_THREADS that is not a positive count.
_threads = _os.environ.get("CVQOC_THREADS", "1")
if _threads.isdigit() and int(_threads) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import cvqnn, fock, lindblad, optimize, pmp, problems, tfc

__all__ = ["cvqnn", "fock", "lindblad", "optimize", "pmp", "problems", "tfc"]
__version__ = "0.1.0"
