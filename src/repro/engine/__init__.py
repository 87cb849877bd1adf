"""Execution engines for the AdaWave pipeline.

The pipeline stages (quantize, per-dimension wavelet transform, threshold,
connected components, lookup) exist in two interchangeable implementations:

* the **vectorized engine** -- COO arrays, batched DWT, sort-based neighbour
  joins and an array union-find, spread across :mod:`repro.grid`,
  :mod:`repro.core.transform` and :mod:`repro.spatial`; every
  :class:`~repro.core.adawave.AdaWave` fit runs it;
* the **reference engine** (:mod:`repro.engine.reference`) -- the literal
  per-cell Python implementations on plain dicts, used by the
  golden-regression and equivalence tests as the ground truth; run it via
  :func:`repro.engine.reference.fit_reference`.

This package also provides :class:`BatchRunner`, which clusters many
datasets through one shared pipeline: the wavelet filter bank is built once
and reused across datasets instead of being rebuilt per fit.
"""

from repro.engine.batch import BatchRunner
from repro.engine import reference

__all__ = ["BatchRunner", "reference"]
