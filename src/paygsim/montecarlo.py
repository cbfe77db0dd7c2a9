"""Monte Carlo simulation driver.

Each replication owns one counter-based random stream keyed by (seed,
replication index), so any replication can be reproduced in isolation and
results do not depend on how the batch is chunked or parallelized. Within a
replication the draw order is fixed: first the arrival shocks, year-major
with one (population, enrolment, graduation, admission, membership) block
per sex; then the mortality shocks, year-major over the mortality table;
then the return shocks. Every block is always drawn, whether or not its
shock family is switched on, so toggling one family never perturbs the
draws of another.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .cashflows import ledger_columns, to_cents
from .config import ScenarioConfig, StochasticFlags
from .engine import (CohortSystem, admin_path, build_system, entrants_matrix,
                     return_rates, simulate_flows)
from .entrants import DRAWS_PER_CELL
from .errors import ConfigError
from .stochastic import NormalSource

DEFAULT_CHUNK = 500


@dataclass
class ShockBlocks:
    """Raw standard-normal draws for a batch of replications."""

    rep_indices: np.ndarray
    entrants: np.ndarray    # (n, n_years, n_sex, DRAWS_PER_CELL)
    mortality: np.ndarray   # (n, n_years, n_sex, n_mort_ages)
    returns: np.ndarray     # (n, n_years)


def draw_shock_blocks(cfg: ScenarioConfig, rep_indices) -> ShockBlocks:
    """Draw every replication's shocks in the documented order."""
    reps = np.asarray(list(rep_indices), dtype=int)
    n_years = len(cfg.years)
    n_sex = len(cfg.sexes)
    n_mort = cfg.mortality.max_age - cfg.mortality.min_age + 1
    ent = np.empty((len(reps), n_years, n_sex, DRAWS_PER_CELL))
    mort = np.empty((len(reps), n_years, n_sex, n_mort))
    ret = np.empty((len(reps), n_years))
    for i, rep in enumerate(reps):
        src = NormalSource(cfg.run.seed, stream_id=int(rep))
        ent[i] = src.standard_normal((n_years, n_sex, DRAWS_PER_CELL))
        mort[i] = src.standard_normal((n_years, n_sex, n_mort))
        ret[i] = src.standard_normal(n_years)
    return ShockBlocks(rep_indices=reps, entrants=ent, mortality=mort, returns=ret)


def _run_chunk(cfg: ScenarioConfig, system: CohortSystem, lo: int, hi: int) -> dict:
    """Simulate replications [lo, hi) and return their per-year arrays."""
    blocks = draw_shock_blocks(cfg, range(lo, hi))
    flags = cfg.run.flags
    eps_ent = blocks.entrants if flags.entrants else np.zeros_like(blocks.entrants)
    ne = entrants_matrix(cfg, eps_ent)
    flows = simulate_flows(system, ne, blocks.mortality if flags.mortality else None)
    rates = return_rates(cfg, blocks.returns, stochastic=flags.returns)
    cols = ledger_columns(int(to_cents(cfg.economics.initial_assets)),
                          flows["subjective"], flows["integrative"],
                          flows["disbursements"], admin_path(cfg), rates)
    return {"ledger": cols, "entrants": ne,
            "actives": flows["actives"], "retirees": flows["retirees"]}


@dataclass
class SimulationResult:
    """All replications of one run, as (n_reps, n_years) arrays.

    `series` holds the tracked output series in euros or headcounts;
    `ledger` the nine statement columns in integer cents.
    """

    first_year: int
    years: np.ndarray
    n_reps: int
    seed: int
    flags: StochasticFlags
    series: dict[str, np.ndarray] = field(repr=False)
    ledger: dict[str, np.ndarray] = field(repr=False)

    @property
    def series_names(self) -> tuple[str, ...]:
        return tuple(self.series)

    def fan_chart(self, name: str, probes) -> dict:
        """Percentile bands of one series across replications, per year."""
        values = percentile_bands(self.series[name], probes, axis=0)
        return {"series": name, "probes": tuple(float(p) for p in probes),
                "years": self.years.copy(), "values": values}

    def moments(self, name: str, years=None) -> dict:
        """Distribution moments of one series, optionally at selected years."""
        years = self.years if years is None else np.asarray(list(years), dtype=int)
        idx = [int(y) - self.first_year for y in years]
        for y, t in zip(years, idx):
            if not 0 <= t < len(self.years):
                raise ValueError(f"year {y} outside the simulated horizon")
        out = distribution_moments(self.series[name][:, idx], axis=0)
        out["series"] = name
        out["years"] = np.asarray(years)
        return out


def simulation_series(cfg: ScenarioConfig, ledger: dict, entrants: np.ndarray,
                      actives: np.ndarray, retirees: np.ndarray) -> dict[str, np.ndarray]:
    """Tracked series in output units: money in euros, counts as they are."""
    series = {
        "fund_value": ledger["value_end"] / 100.0,
        "total_balance": ledger["total_balance"] / 100.0,
        "pension_balance": ledger["pension_balance"] / 100.0,
    }
    for si, s in enumerate(cfg.sexes):
        series[f"entrants_{s}"] = entrants[:, :, si].copy()
    series["entrants_total"] = entrants.sum(axis=2)
    series["actives"] = actives
    series["retirees"] = retirees
    return series


def run_simulation(cfg: ScenarioConfig, workers: int | None = None,
                   chunk_size: int = DEFAULT_CHUNK) -> SimulationResult:
    """Run the configured number of replications, optionally across processes.

    Results are identical whatever `workers` or `chunk_size` is: each
    replication's stream depends only on (seed, replication index).
    """
    if workers is not None and workers < 1:
        raise ConfigError([f"workers: must be >= 1, got {workers}"])
    n = cfg.run.n_reps
    system = build_system(cfg)
    spans = [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]
    if workers is not None and workers > 1 and len(spans) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, repeat(cfg), repeat(system),
                                  *zip(*spans)))
    else:
        parts = [_run_chunk(cfg, system, lo, hi) for lo, hi in spans]
    ledger = {k: np.concatenate([p["ledger"][k] for p in parts])
              for k in parts[0]["ledger"]}
    entrants = np.concatenate([p["entrants"] for p in parts])
    actives = np.concatenate([p["actives"] for p in parts])
    retirees = np.concatenate([p["retirees"] for p in parts])
    return SimulationResult(
        first_year=cfg.first_year, years=np.array(cfg.years), n_reps=n,
        seed=cfg.run.seed, flags=cfg.run.flags,
        series=simulation_series(cfg, ledger, entrants, actives, retirees),
        ledger=ledger)


# ---------------------------------------------------------------------------
# Distribution summaries


def percentile_bands(sample: np.ndarray, probes, axis: int = 0) -> np.ndarray:
    """Percentiles with linear interpolation between order statistics.

    Probes are percents in [0, 100] (0 is the minimum, 100 the maximum) and
    must be given in increasing order, so band rows come out nested.
    """
    probes = [float(p) for p in probes]
    if not probes:
        raise ValueError("at least one probe is required")
    for p in probes:
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"probes must lie between 0 and 100, got {p}")
    if probes != sorted(probes):
        raise ValueError("probes must be increasing")
    sample = np.asarray(sample)
    if sample.shape[axis] == 0:
        raise ValueError("cannot take percentiles of an empty sample")
    return np.percentile(sample, probes, axis=axis, method="linear")


def distribution_moments(sample: np.ndarray, axis: int = 0) -> dict:
    """Sample mean, standard deviation and standardized shape moments.

    Standard deviation uses the n-1 divisor; skewness is m3 / m2^(3/2) and
    excess kurtosis m4 / m2^2 - 3 with biased central moments m_k. Where the
    sample has zero variance the shape moments are reported as 0 and the
    `degenerate` flag is set.
    """
    sample = np.asarray(sample, dtype=float)
    n = sample.shape[axis]
    if n < 2:
        raise ValueError(f"need at least 2 observations along axis {axis}, got {n}")
    mean = sample.mean(axis=axis)
    centered = sample - np.expand_dims(mean, axis)
    m2 = np.mean(centered ** 2, axis=axis)
    m3 = np.mean(centered ** 3, axis=axis)
    m4 = np.mean(centered ** 4, axis=axis)
    degenerate = m2 == 0.0
    denom2 = np.where(degenerate, 1.0, m2)
    skew = np.where(degenerate, 0.0, m3 / denom2 ** 1.5)
    kurt = np.where(degenerate, 0.0, m4 / denom2 ** 2 - 3.0)
    return {"n": n, "mean": mean, "std": sample.std(axis=axis, ddof=1),
            "skewness": skew, "excess_kurtosis": kurt, "degenerate": degenerate}
