"""The benchmark's workloads: which `paygsim` command each one runs.

Every workload runs the bundled scenario (2006-2046, 214 cohorts, two sexes,
a 77-age mortality table). The workload seed reaches the program only as the
command's `--seed` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1  # run.seed of the bundled scenario; the golden digests use it


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # argv for `paygsim.cli.main`, without --seed/--out
    reps: int                 # replications per `cli.main` call (1 for `project`)
    loops: int                # `cli.main` calls per sample process
    seeded: bool              # whether the command takes --seed
    seed_free_files: tuple[str, ...] = ()  # outputs whose bytes no seed changes

    @property
    def parallel(self) -> bool:
        return "--workers" in self.command

    def argv(self, seed: int, out: str, command=None) -> list[str]:
        argv = list(self.command if command is None else command)
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", out]

    def serial_command(self) -> tuple[str, ...]:
        """The same command without --workers, which must give the same bytes."""
        cmd = list(self.command)
        if self.parallel:
            i = cmd.index("--workers")
            del cmd[i:i + 2]
        return tuple(cmd)


WORKLOADS = {w.name: w for w in (
    # Headline Monte Carlo path: shock draws plus the cohort flow kernel.
    Workload("mc_serial", ("simulate", "--reps", "2000"), reps=2000, loops=1,
             seeded=True),
    # The only ProcessPoolExecutor path: 40 chunks, each pickling cfg and
    # system, then the 20k-rep reductions and file emission in the parent.
    Workload("mc_parallel", ("simulate", "--reps", "20000", "--workers", "2"),
             reps=20000, loops=1, seeded=True),
    # Mostly set-up (load_config, build_system) and no draws; one call takes
    # about 0.1 s, so each sample process loops it.
    Workload("project", ("project",), reps=1, loops=10, seeded=False,
             seed_free_files=("ledger.csv", "ledger_raw.csv", "entrants.csv",
                              "summary.json", "manifest.json")),
    # The only workload on the scalar entrant sampler; bypasses the engine.
    # 200 replications per call and 10 calls per sample process: the same
    # 2000 replications per sample as one 2000-rep call, but ten timings, so
    # the run's median is not at the mercy of three or four slow calls.
    Workload("entrants_mc", ("entrants", "--reps", "200"), reps=200, loops=10,
             seeded=True, seed_free_files=("entrants.csv",)),
)}
