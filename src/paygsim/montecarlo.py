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

import queue
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .cashflows import LEDGER_COLUMNS, ledger_columns, to_cents
from .config import ScenarioConfig, StochasticFlags
from .engine import (CohortSystem, admin_path, build_system, entrant_moment_tables,
                     entrant_product, return_rates, simulate_flows, survival_rates)
from .entrants import DRAWS_PER_CELL
from .errors import ConfigError, CoverageError
from .stochastic import open_streams

DEFAULT_CHUNK = 50  # replications drawn, simulated and handed to a worker together


@dataclass
class ShockBlocks:
    """Raw standard-normal draws for a batch of replications."""

    entrants: np.ndarray    # (n, n_years, n_sex, DRAWS_PER_CELL)
    mortality: np.ndarray   # (n, n_years, n_sex, n_mort_ages)
    returns: np.ndarray     # (n, n_years)


def draw_shock_blocks(cfg: ScenarioConfig, rep_indices) -> ShockBlocks:
    """Draw every replication's shocks in the documented order."""
    reps = np.asarray(list(rep_indices), dtype=int)
    n_mort = cfg.mortality.max_age - cfg.mortality.min_age + 1
    shape = (len(reps), len(cfg.years), len(cfg.sexes))
    blocks = ShockBlocks(entrants=np.empty(shape + (DRAWS_PER_CELL,)),
                         mortality=np.empty(shape + (n_mort,)), returns=np.empty(shape[:2]))
    for i, gen in enumerate(open_streams(cfg.run.seed, reps)):
        gen.standard_normal(out=blocks.entrants[i])
        gen.standard_normal(out=blocks.mortality[i])
        gen.standard_normal(out=blocks.returns[i])
    return blocks


def entrant_paths(cfg: ScenarioConfig,
                  moments: tuple[np.ndarray, np.ndarray]) -> dict[str, np.ndarray]:
    """Arrivals per sex, (n_reps, n_years), of replications 0..n_reps-1.

    Each replication's stream opens with its entrant block, so these are the
    arrivals `run_simulation` draws for the same replications when entrant
    shocks are on. `moments` is the `entrant_moment_tables(cfg)` pair. The
    blocks are drawn DEFAULT_CHUNK replications at a time.
    """
    n = cfg.run.n_reps
    mean, sigma = moments
    paths = {s: np.empty((n, len(cfg.years))) for s in cfg.sexes}
    for lo in range(0, n, DEFAULT_CHUNK):
        block = np.empty((min(DEFAULT_CHUNK, n - lo),) + mean.shape)
        for row, gen in zip(block, open_streams(cfg.run.seed, range(lo, lo + len(block)))):
            gen.standard_normal(out=row)
        ne = entrant_product(mean, sigma, block)
        for si, path in enumerate(paths.values()):
            path[lo:lo + len(block)] = ne[:, :, si]
    return paths


def _run_chunk(cfg: ScenarioConfig, system: CohortSystem,
               moments: tuple[np.ndarray, np.ndarray], admin: np.ndarray, opening: int,
               lo: int, hi: int) -> dict:
    """Draw and simulate replications [lo, hi) together: one work unit."""
    return _compose(cfg, system, moments, admin, opening, draw_shock_blocks(cfg, range(lo, hi)))


def _compose(cfg: ScenarioConfig, system: CohortSystem,
             moments: tuple[np.ndarray, np.ndarray], admin: np.ndarray, opening: int,
             blocks: ShockBlocks) -> dict:
    """Simulate one unit's replications from their shock blocks and return
    their per-year arrays, from the run-wide inputs `run_simulation` builds
    once: entrant moment tables, administration costs and opening value in
    cents. The mortality block is overwritten with survival probabilities.
    Of the ledger, only the columns a `SimulationResult` holds come back."""
    flags = cfg.run.flags
    ne = entrant_product(*moments, blocks.entrants if flags.entrants
                         else np.zeros_like(blocks.entrants))
    survival = (survival_rates(system, blocks.mortality, out=blocks.mortality)
                if flags.mortality else None)
    flows = simulate_flows(system, ne, survival)
    rates = return_rates(cfg, blocks.returns, stochastic=flags.returns)
    ledger = ledger_columns(opening, flows["subjective"], flows["integrative"],
                            flows["disbursements"], admin, rates)
    return {"ledger": {k: ledger[k] for k in _HELD_COLUMNS}, "entrants": ne,
            "actives": flows["actives"], "retirees": flows["retirees"]}


class _Drawer(threading.Thread):
    """Draws shock blocks on a thread of its own: the blocks of each span put
    on `todo`, in turn, until None is put there."""

    def __init__(self, cfg: ScenarioConfig):
        super().__init__(name="paygsim-draw")
        self._cfg, self.todo, self._done = cfg, queue.SimpleQueue(), queue.SimpleQueue()
        self.start()

    def run(self) -> None:
        while (span := self.todo.get()) is not None:
            try:
                out = draw_shock_blocks(self._cfg, range(*span))
            except BaseException as exc:  # raised again by `result`, in the caller
                out = exc
            self._done.put(out)

    def result(self) -> ShockBlocks:
        """The blocks of the earliest span not yet handed over, or its error."""
        out = self._done.get()
        if isinstance(out, BaseException):
            raise out
        return out


_worker_args: tuple = ()  # `_run_chunk`'s run-wide arguments in a pool worker, set once


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _run_pooled_chunk(lo: int, hi: int) -> dict:
    return _run_chunk(*_worker_args, lo, hi)


# the ledger columns a result holds (B, C, E, H and I); the statement's
# identities give the other four from these, the opening value and the admin costs
_HELD_COLUMNS = ("contrib_subjective", "contrib_integrative", "pension_balance",
                 "total_balance", "value_end")

# money series in euros, read from the ledger column of the same amount in cents
LEDGER_SERIES = {"fund_value": "value_end", "total_balance": "total_balance",
                 "pension_balance": "pension_balance"}


@dataclass
class SimulationResult:
    """All replications of one run, as (n_reps, n_years) arrays.

    The result holds each number once, all read-only: `held_ledger` five of
    the nine statement columns in integer cents (B, C, E, H and I), with the
    run's `opening_cents` and per-year `admin_cents`; `entrants` the
    arrivals per sex (in sex order); and `actives` and `retirees` the
    headcounts. `ledger` maps all nine columns, in `LEDGER_COLUMNS`
    order, and derives the other four exactly in int64 each time they are
    read: A is I a year earlier (the opening value in the first year),
    D = (B + C) - E, F = (H + G) - E and G the admin costs of every
    replication. `series` maps the tracked output series to their arrays;
    the money series and `entrants_total` are likewise computed when read.
    """

    first_year: int
    years: np.ndarray
    n_reps: int
    seed: int
    flags: StochasticFlags
    held_ledger: dict[str, np.ndarray] = field(repr=False)
    opening_cents: int
    admin_cents: np.ndarray = field(repr=False)
    entrants: dict[str, np.ndarray] = field(repr=False)
    actives: np.ndarray = field(repr=False)
    retirees: np.ndarray = field(repr=False)

    @property
    def series_names(self) -> tuple[str, ...]:
        return (tuple(LEDGER_SERIES) + tuple(f"entrants_{s}" for s in self.entrants)
                + ("entrants_total", "actives", "retirees"))

    @property
    def series(self) -> "SeriesView":
        return SeriesView(self.series_names, self.columns)

    @property
    def ledger(self) -> "SeriesView":
        return SeriesView(LEDGER_COLUMNS, self._ledger_column)

    def _ledger_column(self, name: str) -> np.ndarray:
        # each sum starts from an amount `ledger_columns` checked for int64
        # overflow: B + C is the gross contributions, H + G is E + F
        held = self.held_ledger
        if name in held:
            return held[name]
        if name == "admin_costs":
            return np.broadcast_to(self.admin_cents, held["value_end"].shape)
        if name == "value_start":
            col = np.empty_like(held["value_end"])
            col[:, 0] = self.opening_cents
            col[:, 1:] = held["value_end"][:, :-1]
        elif name == "disbursements":
            col = held["contrib_subjective"] + held["contrib_integrative"]
            col -= held["pension_balance"]
        elif name == "investment_income":
            col = held["total_balance"] + self.admin_cents
            col -= held["pension_balance"]
        else:
            raise KeyError(name)
        col.flags.writeable = False
        return col

    def columns(self, name: str, idx=slice(None), order: str = "K") -> np.ndarray:
        """One series at the year indices `idx` (anything that indexes the
        year axis), computing only those columns of a derived series.

        A held series comes back as a view of its read-only array (a copy
        for a list of indices), a derived one as a new array in the memory
        `order` asked for; the default keeps the layout the indexing gave,
        which fixes the order in which the moments sum over replications.
        """
        if name in LEDGER_SERIES:
            return np.divide(self.held_ledger[LEDGER_SERIES[name]][:, idx], 100.0, order=order)
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
                raise CoverageError(f"year {y} outside the simulated horizon")
        out = distribution_moments(self.columns(name, idx), axis=0)
        out["series"] = name
        out["years"] = np.asarray(years)
        return out


class SeriesView(Mapping):
    """Read-only mapping from name to its (n_reps, n_years) array, in the
    order of `names`. `read(name)` gives each array; a derived one is
    computed on every read and not kept."""

    def __init__(self, names: tuple[str, ...], read):
        self._names, self._read = names, read

    def __getitem__(self, name: str) -> np.ndarray:
        return self._read(name)

    def __contains__(self, name) -> bool:
        return name in self._names

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def run_simulation(cfg: ScenarioConfig, workers: int | None = None) -> SimulationResult:
    """Run the configured number of replications, optionally across processes.

    Results are identical whatever `workers` or `DEFAULT_CHUNK` is: each
    replication's stream depends only on (seed, replication index). The
    replications run DEFAULT_CHUNK at a time, one pool task each; the result
    is allocated once and each chunk's rows are copied into place as the
    chunk finishes, in chunk order. `cfg`, the cohort system and the other
    run-wide inputs are built once, and pool workers receive them once, when
    they start. A serial run draws each chunk's shocks on one helper thread,
    at most one chunk ahead of the chunk being simulated, which has exited
    when this returns or raises; an error in either thread is raised here.
    """
    if workers is not None and workers < 1:
        raise ConfigError([f"workers: must be >= 1, got {workers}"])
    n, n_years = cfg.run.n_reps, len(cfg.years)
    admin, opening = admin_path(cfg), int(to_cents(cfg.economics.initial_assets))
    shared = (cfg, build_system(cfg), entrant_moment_tables(cfg), admin, opening)
    spans = [(lo, min(lo + DEFAULT_CHUNK, n)) for lo in range(0, n, DEFAULT_CHUNK)]
    ledger = {k: np.empty((n, n_years), dtype=np.int64) for k in _HELD_COLUMNS}
    entrants = {s: np.empty((n, n_years)) for s in cfg.sexes}
    actives, retirees = np.empty((n, n_years)), np.empty((n, n_years))

    def store(lo, hi, part):
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
                                 initargs=shared) as pool:
            for span, part in zip(spans, pool.map(_run_pooled_chunk, *zip(*spans))):
                store(*span, part)
    else:
        # numpy fills a normal block with the GIL released, so a helper
        # thread draws the next chunk while this one simulates the current
        # chunk; it is sent the next chunk only once the current chunk's
        # blocks are taken and the previous chunk's released, so at most two
        # chunks are in flight
        drawer = _Drawer(cfg)
        try:
            drawer.todo.put(spans[0])
            for i, span in enumerate(spans):
                blocks = drawer.result()
                if i + 1 < len(spans):
                    drawer.todo.put(spans[i + 1])
                store(*span, _compose(*shared, blocks))
        finally:
            drawer.todo.put(None)
            drawer.join()
    admin_cents = to_cents(admin)  # the quantization `ledger_columns` applies
    for a in (*ledger.values(), admin_cents, *entrants.values(), actives, retirees):
        a.flags.writeable = False
    return SimulationResult(
        first_year=cfg.first_year, years=np.array(cfg.years), n_reps=n,
        seed=cfg.run.seed, flags=cfg.run.flags, held_ledger=ledger,
        opening_cents=opening, admin_cents=admin_cents, entrants=entrants,
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
