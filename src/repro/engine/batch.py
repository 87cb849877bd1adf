"""Shared-pipeline batch clustering.

Serving many clustering requests (or sweeping many datasets in an
experiment) through fresh :class:`~repro.core.adawave.AdaWave` instances
would construct the wavelet filter bank once per dataset.
:class:`BatchRunner` builds it once in the constructor and fits every
dataset with it, optionally fanning the datasets out over threads, while
keeping the per-dataset results completely independent.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.adawave import AdaWave, AdaWaveResult
from repro.wavelets.filters import build_wavelet


class BatchRunner:
    """Cluster many datasets through one reusable AdaWave pipeline.

    Parameters
    ----------
    **adawave_params:
        Constructor arguments forwarded to :class:`AdaWave` for every run
        (``scale``, ``wavelet``, ``level``, ``threshold_method``, ...).

    Examples
    --------
    >>> runner = BatchRunner(scale=64)
    >>> results = runner.run_many([X_monday, X_tuesday, X_wednesday])
    >>> [r.n_clusters for r in results]
    """

    def __init__(self, **adawave_params) -> None:
        self._params = dict(adawave_params)
        # Resolve the wavelet once; AdaWave accepts the built bank directly,
        # so every run skips the name lookup / construction entirely.
        self._params["wavelet"] = build_wavelet(self._params.get("wavelet", "bior2.2"))
        self.n_runs_: int = 0

    def _fit(self, X) -> AdaWaveResult:
        """One fit on a fresh estimator (safe to run on a pool thread)."""
        return AdaWave(**self._params).fit(X).result_

    def run(self, X) -> AdaWaveResult:
        """Cluster one dataset and return its full :class:`AdaWaveResult`."""
        result = self._fit(X)
        self.n_runs_ += 1
        return result

    def run_many(
        self, datasets: Iterable[np.ndarray], n_workers: Optional[int] = None
    ) -> List[AdaWaveResult]:
        """Cluster every dataset in ``datasets`` through the shared pipeline.

        With ``n_workers`` greater than one the datasets fan out over a
        :class:`~concurrent.futures.ThreadPoolExecutor` -- each worker fits
        a fresh estimator, so the runs stay independent while the
        numpy-heavy stages (which release the GIL) overlap.
        Results are returned in input order either way.
        """
        datasets = list(datasets)
        if n_workers is None or n_workers <= 1 or len(datasets) <= 1:
            return [self.run(X) for X in datasets]
        with ThreadPoolExecutor(max_workers=min(n_workers, len(datasets))) as pool:
            results = list(pool.map(self._fit, datasets))
        self.n_runs_ += len(datasets)
        return results

    def run_stream(
        self, batches: Iterable[np.ndarray], bounds: Sequence, finalize_every: Optional[int] = None
    ) -> AdaWave:
        """Feed ``batches`` through one streaming estimator.

        ``bounds`` is forwarded to :class:`AdaWave` (streaming requires
        explicit bounds).  When ``finalize_every`` is given, the estimator is
        finalized after every that-many batches, so intermediate clusterings
        are available on the returned estimator while it keeps ingesting;
        the final :meth:`AdaWave.finalize` is always applied.
        """
        params = dict(self._params)
        params["bounds"] = bounds
        model = AdaWave(**params)
        count = 0
        for batch in batches:
            model.partial_fit(batch)
            count += 1
            if finalize_every and count % finalize_every == 0 and model.n_seen_:
                model.finalize()
        if model.n_seen_ == 0:
            raise ValueError("run_stream received no non-empty batches.")
        model.finalize()
        self.n_runs_ += 1
        return model
