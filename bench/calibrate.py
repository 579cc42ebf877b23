"""Host-speed calibration: fixed reference jobs timed in every pass.

On a shared virtual machine the speed of a core drifts by tens of percent
over seconds to minutes, and the drift shows in processor time as well as
in wall time. On the 2-core reference host one pass of `series_1e6` took
4.5 s of processor time and, two minutes later, 6.9 s. A pass's raw times
therefore carry the host's speed as well as the program's.

So each step of each workload has a reference job here that does the same
kinds of work as the step's hot paths, in frozen code that never touches
the package: a change to the package cannot speed it up or slow it down.
Right before each timed step the pass runs the step's job JOBS_PER_STEP
times in the same fresh process, and the benchmark rescales the step's
times to a host on which one job takes REFERENCE_S seconds:

    normalised time = raw time * REFERENCE_S[workload][step] / (median job time)

Times are processor time of the pass's own process, so time it spends
waiting for a core counts in neither the job nor the pass. The jobs run
before the steps only: after a step, the heap the workload leaves behind
slows a job by a varying amount that has nothing to do with the host.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time

import numpy as np

#: processor seconds of one job (before step1, before step2) on the 2-core
#: reference host; constants, so they only set the scale of the results
REFERENCE_S = {"mc_reference": (0.06, 0.06), "series_1e6": (0.06, 0.06),
               "param_sweep": (0.045, 0.065)}

JOBS_PER_STEP = 3


def _philox(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _block_job(work: str, rows: int = 512, steps: int = 800) -> float:
    """Per-row Philox streams, then a recurrence down the columns of a
    rows x steps block (the block simulator), then row statistics."""
    eta = np.empty((rows, steps + 1))
    eps = np.empty((rows, steps + 1))
    for i in range(rows):
        eta[i] = _philox(i, 1).normal(0.0, math.sqrt(0.1), steps + 1)
        eps[i] = _philox(i, 2).normal(0.0, 1.0, steps + 1)
    path = 0.3 + 0.5 * eta[:, :-1] + eta[:, 1:]
    y = np.zeros(rows)
    x = np.empty((rows, steps))
    for t in range(steps):
        y = path[:, t] * y + eps[:, t + 1]
        x[:, t] = y
    return float(x.mean(axis=1) @ x.std(axis=1))


def _series_job(work: str, n: int = 10_000) -> float:
    """A scalar recurrence, then a `t,x` CSV written and parsed back."""
    rng = _philox(7, 1)
    path = (0.3 + rng.normal(0.0, 0.3, n)).tolist()
    eps = rng.normal(0.0, 1.0, n + 1).tolist()
    x = np.empty(n + 1)
    y = x[0] = eps[0]
    for t in range(1, n + 1):
        y = path[t - 1] * y + eps[t]
        x[t] = y
    name = os.path.join(work, "calibrate.csv")
    with open(name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x"])
        for t, value in enumerate(x):
            writer.writerow([t, f"{value:.17g}"])
    values = []
    with open(name, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, row in enumerate(reader):
            if int(row[0]) != t or not np.isfinite(value := float(row[1])):
                raise ValueError(f"calibration CSV row {t} did not round-trip")
            values.append(value)
    os.remove(name)
    return float(np.array(values) @ x)


def _draws_job(work: str, points: int = 8, draws: int = 100_000) -> float:
    """Per point: a seeded log-moment estimate over `draws` pairs and the
    spectral radii of a 3x3 and a 5x5 matrix (the hypothesis checks)."""
    acc = 0.0
    for k in range(points):
        rng = _philox(11, k)
        z = np.abs(0.3 + 0.5 * rng.normal(0.0, 0.3, draws) + rng.normal(0.0, 0.3, draws))
        logs = np.log(z)
        acc += float(logs.mean()) + 3.0 * float(logs.std(ddof=1)) / math.sqrt(draws)
        for size in (3, 5):
            acc += float(np.max(np.abs(np.linalg.eigvals(rng.uniform(-0.4, 0.4, (size, size))))))
    return acc


def _stack_job(work: str, points: int = 120) -> float:
    """Per point: small matrices built from Python lists, their solves and
    spectral radii, and closed-form moment sums over binomial expansions
    (the moment and covariance stack)."""
    acc = 0.0
    for k in range(points):
        theta, alpha = 0.3 + 0.01 * (k % 7), 0.5 - 0.01 * (k % 5)
        for size in (3, 5, 5):
            m = np.array([[theta ** (i + j) * alpha ** abs(i - j) / (1 + i + j)
                           for j in range(size)] for i in range(size)])
            sol = np.linalg.solve(np.eye(size) - 0.5 * m, np.ones(size))
            acc += float(np.max(np.abs(np.linalg.eigvals(m)))) + float(sol @ sol)
        for q in range(31):
            a, b = q % 3, q % 5
            acc += sum(math.comb(b + 2, j) * math.comb(j, i) * alpha ** i
                       * theta ** (a + j - i) / (1 + i + j)
                       for j in range(b + 3) for i in range(j + 1))
    return acc


#: per workload, the reference jobs run before step1 and before step2
JOBS = {"mc_reference": (_block_job, _block_job),
        "series_1e6": (_series_job, _series_job),
        "param_sweep": (_draws_job, _stack_job)}
STEPS = ("step1", "step2")


def job_seconds(workload: str, step: str, work: str,
                jobs: int = JOBS_PER_STEP) -> list[float]:
    """Processor seconds of `jobs` runs of the reference job for the
    workload's step, after one untimed warm-up run."""
    job = JOBS[workload][STEPS.index(step)]
    job(work)
    times = []
    for _ in range(jobs):
        t0 = time.process_time()
        job(work)
        times.append(time.process_time() - t0)
    return times


def speed_factor(workload: str, step: str, samples: list[float]) -> float:
    """The factor that turns the step's processor seconds into reference
    seconds, given the times of the reference jobs run before it."""
    return REFERENCE_S[workload][STEPS.index(step)] / statistics.median(samples)
