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

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .cashflows import LedgerRow, ledger_columns, to_cents
from .config import ScenarioConfig, StochasticFlags
from .engine import (CohortSystem, admin_path, build_system, entrant_moment_tables,
                     entrant_product, return_rates, simulate_flows)
from .entrants import DRAWS_PER_CELL
from .errors import ConfigError
from .stochastic import open_streams

DEFAULT_CHUNK = 500  # replications per task handed to a worker
SUB_BLOCK = 100      # replications drawn and simulated together within a chunk


@dataclass
class ShockBlocks:
    """Raw standard-normal draws for a batch of replications."""

    rep_indices: np.ndarray
    entrants: np.ndarray    # (n, n_years, n_sex, DRAWS_PER_CELL)
    mortality: np.ndarray   # (n, n_years, n_sex, n_mort_ages)
    returns: np.ndarray     # (n, n_years)


def draw_shock_blocks(cfg: ScenarioConfig, rep_indices,
                      out: ShockBlocks | None = None) -> ShockBlocks:
    """Draw every replication's shocks in the documented order.

    With `out`, the draws fill the leading rows of its arrays, which must
    have room for them, and the blocks returned are views of those rows.
    """
    reps = np.asarray(list(rep_indices), dtype=int)
    if out is None:
        n_mort = cfg.mortality.max_age - cfg.mortality.min_age + 1
        shape = (len(reps), len(cfg.years), len(cfg.sexes))
        out = ShockBlocks(rep_indices=reps, entrants=np.empty(shape + (DRAWS_PER_CELL,)),
                          mortality=np.empty(shape + (n_mort,)),
                          returns=np.empty(shape[:2]))
    blocks = ShockBlocks(rep_indices=reps, entrants=out.entrants[:len(reps)],
                         mortality=out.mortality[:len(reps)], returns=out.returns[:len(reps)])
    for i, gen in enumerate(open_streams(cfg.run.seed, reps)):
        gen.standard_normal(out=blocks.entrants[i])
        gen.standard_normal(out=blocks.mortality[i])
        gen.standard_normal(out=blocks.returns[i])
    return blocks


def entrant_paths(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """Arrivals per sex, (n_reps, n_years), of replications 0..n_reps-1.

    Each replication's stream opens with its entrant block, so these are the
    arrivals `run_simulation` draws for the same replications when entrant
    shocks are on. The blocks are drawn SUB_BLOCK replications at a time
    into one reused buffer.
    """
    n = cfg.run.n_reps
    mean, sigma = entrant_moment_tables(cfg)
    paths = {s: np.empty((n, len(cfg.years))) for s in cfg.sexes}
    eps = np.empty((min(n, SUB_BLOCK),) + mean.shape)
    for lo in range(0, n, SUB_BLOCK):
        block = eps[:min(SUB_BLOCK, n - lo)]
        for row, gen in zip(block, open_streams(cfg.run.seed, range(lo, lo + len(block)))):
            gen.standard_normal(out=row)
        ne = entrant_product(mean, sigma, block)
        for si, path in enumerate(paths.values()):
            path[lo:lo + len(block)] = ne[:, :, si]
    return paths


def _run_chunk(cfg: ScenarioConfig, system: CohortSystem, lo: int, hi: int) -> dict:
    """Simulate replications [lo, hi) and return their per-year arrays.

    The replications are drawn and simulated SUB_BLOCK at a time into one
    set of shock buffers, so the working set does not grow with the chunk.
    """
    flags, n_years = cfg.run.flags, len(cfg.years)
    mean, sigma = entrant_moment_tables(cfg)
    admin, opening = admin_path(cfg), int(to_cents(cfg.economics.initial_assets))
    part = {"ledger": {k: np.empty((hi - lo, n_years), dtype=np.int64)
                       for k in LedgerRow.COLUMNS},
            "entrants": np.empty((hi - lo, n_years, len(cfg.sexes))),
            "actives": np.empty((hi - lo, n_years)),
            "retirees": np.empty((hi - lo, n_years))}
    blocks = None
    for a in range(lo, hi, SUB_BLOCK):
        b = min(a + SUB_BLOCK, hi)
        blocks = draw_shock_blocks(cfg, range(a, b), out=blocks)
        eps_ent = blocks.entrants if flags.entrants else np.zeros_like(blocks.entrants)
        ne = entrant_product(mean, sigma, eps_ent)
        flows = simulate_flows(system, ne, blocks.mortality if flags.mortality else None)
        rates = return_rates(cfg, blocks.returns, stochastic=flags.returns)
        cols = ledger_columns(opening, flows["subjective"], flows["integrative"],
                              flows["disbursements"], admin, rates)
        rows = slice(a - lo, b - lo)
        for k, col in cols.items():
            part["ledger"][k][rows] = col
        part["entrants"][rows] = ne
        part["actives"][rows] = flows["actives"]
        part["retirees"][rows] = flows["retirees"]
    return part


_worker_args: tuple = ()  # (cfg, system) in a pool worker, set once by its initializer


def _init_worker(cfg: ScenarioConfig, system: CohortSystem) -> None:
    global _worker_args
    _worker_args = (cfg, system)


def _run_pooled_chunk(lo: int, hi: int) -> dict:
    return _run_chunk(*_worker_args, lo, hi)


# money series in euros, read from the ledger column of the same amount in cents
LEDGER_SERIES = {"fund_value": "value_end", "total_balance": "total_balance",
                 "pension_balance": "pension_balance"}


@dataclass
class SimulationResult:
    """All replications of one run, as (n_reps, n_years) arrays.

    The result holds each number once: `ledger` the nine statement columns
    in integer cents, `entrants` the arrivals per sex (in sex order), and
    `actives` and `retirees` the headcounts, all read-only. `series` maps
    the tracked output series to their arrays; the money series and
    `entrants_total` are computed from the held arrays each time they are
    read.
    """

    first_year: int
    years: np.ndarray
    n_reps: int
    seed: int
    flags: StochasticFlags
    ledger: dict[str, np.ndarray] = field(repr=False)
    entrants: dict[str, np.ndarray] = field(repr=False)
    actives: np.ndarray = field(repr=False)
    retirees: np.ndarray = field(repr=False)

    @property
    def series_names(self) -> tuple[str, ...]:
        return (tuple(LEDGER_SERIES) + tuple(f"entrants_{s}" for s in self.entrants)
                + ("entrants_total", "actives", "retirees"))

    @property
    def series(self) -> "SeriesView":
        return SeriesView(self)

    def columns(self, name: str, idx=slice(None), order: str = "K") -> np.ndarray:
        """One series at the year indices `idx` (anything that indexes the
        year axis), computing only those columns of a derived series.

        A held series comes back as a view of its read-only array (a copy
        for a list of indices), a derived one as a new array in the memory
        `order` asked for; the default keeps the layout the indexing gave,
        which fixes the order in which the moments sum over replications.
        """
        if name in LEDGER_SERIES:
            return np.divide(self.ledger[LEDGER_SERIES[name]][:, idx], 100.0, order=order)
        if name == "entrants_total":
            first, *rest = (path[:, idx] for path in self.entrants.values())
            total = first.copy(order=order)
            for path in rest:  # added in sex order
                total += path
            return total
        if name in ("actives", "retirees"):
            return getattr(self, name)[:, idx]
        sex = name.removeprefix("entrants_")
        if sex != name and sex in self.entrants:
            return self.entrants[sex][:, idx]
        raise KeyError(name)

    def fan_chart(self, name: str, probes) -> dict:
        """Percentile bands of one series across replications, per year."""
        derived = name in LEDGER_SERIES or name == "entrants_total"
        # a derived series is computed for this call alone, year by year
        # contiguous, so it may be sorted in place instead of copied
        values = percentile_bands(self.columns(name, order="F"), probes, axis=0,
                                  overwrite_input=derived)
        return {"series": name, "probes": tuple(float(p) for p in probes),
                "years": self.years.copy(), "values": values}

    def moments(self, name: str, years=None) -> dict:
        """Distribution moments of one series, optionally at selected years."""
        years = self.years if years is None else np.asarray(list(years), dtype=int)
        idx = [int(y) - self.first_year for y in years]
        for y, t in zip(years, idx):
            if not 0 <= t < len(self.years):
                raise ValueError(f"year {y} outside the simulated horizon")
        out = distribution_moments(self.columns(name, idx), axis=0)
        out["series"] = name
        out["years"] = np.asarray(years)
        return out


class SeriesView(Mapping):
    """Read-only mapping from series name to its (n_reps, n_years) array,
    in `series_names` order. Derived series are computed on every read and
    not kept."""

    def __init__(self, result: SimulationResult):
        self._result = result

    def __getitem__(self, name: str) -> np.ndarray:
        return self._result.columns(name)

    def __contains__(self, name) -> bool:
        return name in self._result.series_names

    def __iter__(self):
        return iter(self._result.series_names)

    def __len__(self) -> int:
        return len(self._result.series_names)


def run_simulation(cfg: ScenarioConfig, workers: int | None = None) -> SimulationResult:
    """Run the configured number of replications, optionally across processes.

    Results are identical whatever `workers` or `DEFAULT_CHUNK` is: each
    replication's stream depends only on (seed, replication index). The
    result is allocated once and each chunk's rows are copied into place as
    the chunk finishes, in chunk order; pool workers receive `cfg` and the
    cohort system once, when they start.
    """
    if workers is not None and workers < 1:
        raise ConfigError([f"workers: must be >= 1, got {workers}"])
    n, n_years = cfg.run.n_reps, len(cfg.years)
    system = build_system(cfg)
    spans = [(lo, min(lo + DEFAULT_CHUNK, n)) for lo in range(0, n, DEFAULT_CHUNK)]
    ledger = {k: np.empty((n, n_years), dtype=np.int64) for k in LedgerRow.COLUMNS}
    entrants = {s: np.empty((n, n_years)) for s in cfg.sexes}
    actives, retirees = np.empty((n, n_years)), np.empty((n, n_years))

    def store(parts):
        for (lo, hi), part in zip(spans, parts):
            for k, col in part["ledger"].items():
                ledger[k][lo:hi] = col
            for si, path in enumerate(entrants.values()):
                path[lo:hi] = part["entrants"][:, :, si]
            actives[lo:hi] = part["actives"]
            retirees[lo:hi] = part["retirees"]

    if workers is not None and workers > 1 and len(spans) > 1:
        # imported here, so that serial runs never load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(cfg, system)) as pool:
            store(pool.map(_run_pooled_chunk, *zip(*spans)))
    else:
        store(_run_chunk(cfg, system, lo, hi) for lo, hi in spans)
    for a in (*ledger.values(), *entrants.values(), actives, retirees):
        a.flags.writeable = False
    return SimulationResult(
        first_year=cfg.first_year, years=np.array(cfg.years), n_reps=n,
        seed=cfg.run.seed, flags=cfg.run.flags, ledger=ledger, entrants=entrants,
        actives=actives, retirees=retirees)


# ---------------------------------------------------------------------------
# Distribution summaries


def percentile_bands(sample: np.ndarray, probes, axis: int = 0,
                     overwrite_input: bool = False) -> np.ndarray:
    """Percentiles with linear interpolation between order statistics.

    Probes are percents in [0, 100] (0 is the minimum, 100 the maximum) and
    must be given in increasing order, so band rows come out nested. With
    `overwrite_input` the sample is sorted in place rather than copied; the
    bands are the same. They are `np.percentile`'s bit for bit, except that
    a sample holding both 0.0 and -0.0 may give a zero band either sign.
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
    # a band depends only on the values along `axis`, so they are sorted
    # first, each run contiguous in the copy, and np.percentile's selection
    # then finds every order statistic in place
    work = np.moveaxis(sample, axis, -1)
    if not overwrite_input:
        work = work.copy(order="C")
    work.sort(axis=-1)
    return np.percentile(work, probes, axis=-1, method="linear", overwrite_input=True)


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
