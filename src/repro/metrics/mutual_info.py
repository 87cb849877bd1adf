"""Mutual-information based clustering metrics.

Implements mutual information, its expectation under the hypergeometric
(permutation) model, the Adjusted Mutual Information of Vinh, Epps & Bailey
(the metric every experiment in the paper reports), normalized mutual
information and the adjusted Rand index.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.contingency import contingency_matrix, entropy_from_counts


def mutual_info(labels_true, labels_pred) -> float:
    """Mutual information (in nats) between two labelings."""
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    return _mutual_info_from_table(table)


def _mutual_info_from_table(table: np.ndarray) -> float:
    total = table.sum()
    if total == 0:
        return 0.0
    joint = table / total
    row_marginal = joint.sum(axis=1, keepdims=True)
    col_marginal = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.log(joint) - np.log(row_marginal) - np.log(col_marginal)
    mask = joint > 0
    return float(np.sum(joint[mask] * log_term[mask]))


def expected_mutual_info(row_sums: np.ndarray, col_sums: np.ndarray) -> float:
    """Expected MI of two labelings with fixed marginals (permutation model).

    Follows Vinh et al. (2010): for every pair of clusters ``(i, j)`` the
    intersection size ``n_ij`` follows a hypergeometric distribution; the
    expectation sums ``P(n_ij) * (n_ij / N) * log(N n_ij / (a_i b_j))`` over
    all feasible ``n_ij``.  Log-gamma arithmetic keeps the factorial ratios
    stable for the dataset sizes used in the experiments.
    """
    # Imported here, its only use, so ``import repro`` does not load scipy.
    from scipy.special import gammaln

    row_sums = np.asarray(row_sums, dtype=np.float64)
    col_sums = np.asarray(col_sums, dtype=np.float64)
    total = row_sums.sum()
    if total != col_sums.sum():
        raise ValueError("row and column marginals must sum to the same total.")
    if total == 0:
        return 0.0

    expected = 0.0
    log_total = np.log(total)
    # Precompute the log-factorials that only depend on the marginals.
    gln_row = gammaln(row_sums + 1)
    gln_row_complement = gammaln(total - row_sums + 1)
    gln_col = gammaln(col_sums + 1)
    gln_col_complement = gammaln(total - col_sums + 1)
    gln_total = gammaln(total + 1)

    for i, a in enumerate(row_sums):
        for j, b in enumerate(col_sums):
            start = max(1.0, a + b - total)
            end = min(a, b)
            if end < start:
                continue
            nij = np.arange(start, end + 1.0)
            term_information = (nij / total) * (np.log(nij) + log_total - np.log(a) - np.log(b))
            log_probability = (
                gln_row[i]
                + gln_col[j]
                + gln_row_complement[i]
                + gln_col_complement[j]
                - gln_total
                - gammaln(nij + 1)
                - gammaln(a - nij + 1)
                - gammaln(b - nij + 1)
                - gammaln(total - a - b + nij + 1)
            )
            expected += float(np.sum(term_information * np.exp(log_probability)))
    return expected


def _generalized_mean(first: float, second: float, method: str) -> float:
    if method == "arithmetic":
        return 0.5 * (first + second)
    if method == "max":
        return max(first, second)
    if method == "min":
        return min(first, second)
    if method == "geometric":
        return float(np.sqrt(first * second))
    raise ValueError(
        f"average_method must be 'arithmetic', 'max', 'min' or 'geometric'; got {method!r}."
    )


def adjusted_mutual_info(labels_true, labels_pred, average_method: str = "arithmetic") -> float:
    """Adjusted Mutual Information (AMI) between two labelings.

    ``AMI = (MI - E[MI]) / (mean(H(U), H(V)) - E[MI])`` where the expectation
    is taken under the permutation model.  Returns 1.0 for identical
    partitions and values near 0 for independent ones; slightly negative
    values are possible for worse-than-chance agreement.
    """
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    row_sums = table.sum(axis=1)
    col_sums = table.sum(axis=0)
    # Degenerate single-cluster cases: both trivial partitions agree perfectly.
    if len(row_sums) == 1 and len(col_sums) == 1:
        return 1.0
    mi = _mutual_info_from_table(table)
    emi = expected_mutual_info(row_sums, col_sums)
    h_true = entropy_from_counts(row_sums)
    h_pred = entropy_from_counts(col_sums)
    denominator = _generalized_mean(h_true, h_pred, average_method) - emi
    if abs(denominator) < 1e-15:
        # Matches the convention of returning 1.0 when both partitions carry
        # no information beyond chance and agree, and 0.0 otherwise.
        return 1.0 if abs(mi - emi) < 1e-15 else 0.0
    return float((mi - emi) / denominator)


def normalized_mutual_info(labels_true, labels_pred, average_method: str = "arithmetic") -> float:
    """Normalized Mutual Information ``MI / mean(H(U), H(V))``."""
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    return normalized_mutual_info_from_table(table, average_method=average_method)


def normalized_mutual_info_from_table(
    table: np.ndarray, average_method: str = "arithmetic"
) -> float:
    """NMI computed directly from a (possibly weighted) contingency table.

    Accepts any non-negative table whose entries need not be integer counts.
    This is the entry point for mass-weighted comparisons -- e.g. the tuning
    subsystem compares the clusterings of two grid resolutions over the
    occupied base cells, weighting each cell by its density, without ever
    expanding back to per-point label vectors.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"contingency table must be 2-D; got shape {table.shape}.")
    if np.any(table < 0):
        raise ValueError("contingency table entries must be non-negative.")
    row_sums = table.sum(axis=1)
    col_sums = table.sum(axis=0)
    if len(row_sums) == 1 and len(col_sums) == 1:
        return 1.0
    mi = _mutual_info_from_table(table)
    h_true = entropy_from_counts(row_sums)
    h_pred = entropy_from_counts(col_sums)
    denominator = _generalized_mean(h_true, h_pred, average_method)
    if denominator <= 1e-15:
        return 1.0 if mi <= 1e-15 else 0.0
    return float(mi / denominator)


def adjusted_rand_index(labels_true, labels_pred) -> float:
    """Adjusted Rand Index, chance-corrected pair-counting agreement."""
    table = contingency_matrix(labels_true, labels_pred).astype(np.float64)
    total = table.sum()
    if total < 2:
        return 1.0
    sum_comb_cells = float(np.sum(table * (table - 1))) / 2.0
    row_sums = table.sum(axis=1)
    col_sums = table.sum(axis=0)
    sum_comb_rows = float(np.sum(row_sums * (row_sums - 1))) / 2.0
    sum_comb_cols = float(np.sum(col_sums * (col_sums - 1))) / 2.0
    total_pairs = total * (total - 1) / 2.0
    expected = sum_comb_rows * sum_comb_cols / total_pairs
    maximum = 0.5 * (sum_comb_rows + sum_comb_cols)
    if abs(maximum - expected) < 1e-15:
        return 1.0
    return float((sum_comb_cells - expected) / (maximum - expected))
