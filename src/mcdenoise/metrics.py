"""Clinical evaluation metrics for denoised dose maps.

All comparisons happen in normalized units: ``evaluate`` divides both
volumes by the ground truth's target-volume D95 before computing anything
else, so the ground truth's own D95 is exactly 1. The cumulative DVH is
binned over [0, 1.3] with 100 bins by default; the bin layout is part of
the metric contract because the DVH area error depends on it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

DVH_BINS = 100
DVH_MAX_DOSE = 1.3
ISODOSE_LEVELS = (10, 30, 50, 70, 80, 90)


def _as_values(volume) -> np.ndarray:
    values = getattr(volume, "values", volume)
    return np.asarray(values, dtype=np.float64)


def mse(a, b) -> float:
    """Mean squared voxel difference."""
    av, bv = _as_values(a), _as_values(b)
    if av.shape != bv.shape:
        raise ContractError(f"mse: extent mismatch {av.shape} vs {bv.shape}")
    diff = av - bv
    return float(np.mean(np.square(diff, out=diff)))


@dataclass
class DVHCurve:
    """Cumulative dose-volume histogram: fraction of structure at or above each edge."""

    edges: np.ndarray  # left bin edges, uniform width
    values: np.ndarray  # fraction of structure voxels with dose >= edge

    @property
    def bin_width(self) -> float:
        return float(self.edges[1] - self.edges[0])


def dvh(volume, mask, bins: int = DVH_BINS) -> DVHCurve:
    """Cumulative DVH of the masked voxels over ``bins`` bins of [0, DVH_MAX_DOSE]."""
    values = _as_values(volume)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ContractError(f"dvh: mask extent mismatch {mask.shape} vs {values.shape}")
    if not mask.any():
        raise ContractError("dvh: empty structure mask")
    if bins < 1:
        raise ContractError("dvh: bins must be >= 1")
    doses = np.sort(values[mask])
    n = doses.size
    edges = np.arange(bins) * (DVH_MAX_DOSE / bins)
    at_or_above = n - np.searchsorted(doses, edges, side="left")
    return DVHCurve(edges, at_or_above / n)


def dvh_error(a: DVHCurve, b: DVHCurve) -> float:
    """Area between two DVH curves: sum of |difference| times bin width."""
    if a.edges.shape != b.edges.shape or not np.array_equal(a.edges, b.edges):
        raise ContractError("dvh_error: curves use different binnings")
    return float(np.sum(np.abs(a.values - b.values)) * a.bin_width)


def d_number(volume, mask, percent: float) -> float:
    """Largest dose received by at least ``percent`` % of the structure.

    Computed on the sorted voxel list without interpolation; ties break
    toward the lower value, so a uniform structure returns its dose for
    every percent.
    """
    values = _as_values(volume)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise ContractError("d_number: mask extent mismatch")
    if not mask.any():
        raise ContractError("d_number: empty structure mask")
    if not (0.0 < percent <= 100.0):
        raise ContractError(f"d_number: percent must be in (0, 100], got {percent}")
    doses = np.sort(values[mask])
    n = doses.size
    k = int(np.ceil(n * percent / 100.0))  # minimum covered voxel count
    return float(doses[n - k])


def isodose_dice(a, b, level_percent: float, reference_dose: float) -> float:
    """Dice overlap of the binary masks above level * reference dose.

    Both masks empty counts as perfect agreement (1.0); exactly one empty
    counts as total disagreement (0.0).
    """
    av, bv = _as_values(a), _as_values(b)
    if av.shape != bv.shape:
        raise ContractError(f"isodose_dice: extent mismatch {av.shape} vs {bv.shape}")
    if reference_dose <= 0.0:
        raise ContractError("isodose_dice: reference dose must be positive")
    threshold = level_percent / 100.0 * reference_dose
    ma = av >= threshold
    mb = bv >= threshold
    na, nb = int(np.count_nonzero(ma)), int(np.count_nonzero(mb))
    if na + nb == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(np.logical_and(ma, mb, out=ma))) / (na + nb)


@dataclass
class MetricsReport:
    """All metrics for one volume judged against one ground truth."""

    mse: float
    dvh_error: dict[str, float]  # structure -> area error
    d95: float
    d98: float
    d99: float
    isodose_dice: dict[int, float]  # level percent -> dice
    dice_mean: float
    d95_reference: float  # raw ground-truth target D95 used for normalization

    def as_dict(self) -> dict[str, float]:
        flat = {
            "mse": self.mse,
            "dvh_error_ptv": self.dvh_error["ptv"],
            "dvh_error_body": self.dvh_error["body"],
            "d95": self.d95,
            "d98": self.d98,
            "d99": self.d99,
        }
        for level in ISODOSE_LEVELS:
            flat[f"dice_{level}"] = self.isodose_dice[level]
        flat["dice_mean"] = self.dice_mean
        return flat


METRIC_COLUMNS = tuple(
    ["mse", "dvh_error_ptv", "dvh_error_body", "d95", "d98", "d99"]
    + [f"dice_{level}" for level in ISODOSE_LEVELS]
    + ["dice_mean"]
)


def evaluate(denoised, ground_truth, ptv_mask, body_mask) -> MetricsReport:
    """Normalize by the ground truth's target D95, then compute every metric."""
    dv, gv = _as_values(denoised), _as_values(ground_truth)
    ptv_mask = np.asarray(ptv_mask, dtype=bool)
    body_mask = np.asarray(body_mask, dtype=bool)
    if dv.shape != gv.shape or ptv_mask.shape != gv.shape or body_mask.shape != gv.shape:
        raise ContractError("evaluate: volume and mask extents must match")
    reference = d_number(gv, ptv_mask, 95)
    if reference <= 0.0:
        raise ContractError("evaluate: ground-truth target D95 is not positive")
    dn = dv / reference
    gn = gv / reference

    errors = {}
    for structure, mask in (("ptv", ptv_mask), ("body", body_mask)):
        errors[structure] = dvh_error(dvh(dn, mask), dvh(gn, mask))
    dice = {level: isodose_dice(dn, gn, level, 1.0) for level in ISODOSE_LEVELS}
    return MetricsReport(
        mse=mse(dn, gn),
        dvh_error=errors,
        d95=d_number(dn, ptv_mask, 95),
        d98=d_number(dn, ptv_mask, 98),
        d99=d_number(dn, ptv_mask, 99),
        isodose_dice=dice,
        dice_mean=float(np.mean([dice[level] for level in ISODOSE_LEVELS])),
        d95_reference=reference,
    )


def summary_table(rows: dict[str, list[MetricsReport]]) -> str:
    """Aligned text table of per-source means and standard deviations."""
    columns = ["mse", "dvh_error_ptv", "d95", "d98", "d99", "dice_mean"]
    header = ["source"] + columns
    lines = []
    for source, reports in rows.items():
        cells = [source]
        for col in columns:
            values = np.array([r.as_dict()[col] for r in reports])
            cells.append(f"{values.mean():.4g}({values.std():.2g})")
        lines.append(cells)
    widths = [max(len(r[i]) for r in [header] + lines) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header)]
    out += [fmt.format(*row) for row in lines]
    return "\n".join(out) + "\n"
