"""Production-shaped workload generation (ROADMAP item 4).

Everything the benchmarks drove before this package was a uniform
Poisson stream; production traffic is not uniform.  This package turns
a frozen, JSON-round-trippable :class:`WorkloadSpec` into a
deterministic transaction stream for **any** registered application
(:mod:`repro.apps.registry`):

* :mod:`~repro.workloads.zipf` — bounded Zipf key sampling by
  rejection inversion: O(1) per draw, so a million-key universe costs
  nothing to set up;
* :mod:`~repro.workloads.shapes` — diurnal sinusoids and flash-crowd
  spikes composed into a load curve, realized by Poisson thinning;
* :mod:`~repro.workloads.synth` — per-category transaction
  synthesizers with a configurable op mix (the airline ``uniform``
  spec reproduces the legacy runtime load generator draw-for-draw);
* :mod:`~repro.workloads.stream` — ``spec -> ((time, node, txn), ...)``,
  a pure function of the spec via named seeded streams.

The heavier execution layers are imported on demand, not here:
:mod:`~repro.workloads.runners` fans specs over the shared perf
process pool, :mod:`~repro.workloads.leaderboard` ranks the rows, and
``python -m repro.workloads --leaderboard`` (:mod:`~repro.workloads.cli`)
prints the per-category report.  ``python -m repro.perf.gate`` pins
the smoke leaderboard against the committed
``benchmarks/results/BENCH_workloads.json``.

Determinism contract (shardlint R3): every draw flows from
:class:`~repro.sim.rng.SeededStreams` or an injected seeded ``Random``;
a spec's stream is byte-identical across hosts, worker counts and
consumers (simulator vs live runtime).
"""

from ..apps.registry import APP_NAMES as CATEGORIES
from .shapes import (
    ConstantShape,
    DiurnalShape,
    FlashCrowd,
    LoadCurve,
    arrival_times,
    shape_from_dict,
)
from .spec import MAX_UNIFORM_UNIVERSE, WorkloadSpec
from .specs import DEFAULT_SPECS, MILLION, SMOKE_SPECS
from .stream import WorkloadEvent, generate_stream, stream_fingerprint
from .synth import Synthesizer, make_synthesizer, uniform_airline_spec
from .zipf import ZipfSampler

__all__ = [
    "CATEGORIES",
    "ConstantShape",
    "DEFAULT_SPECS",
    "DiurnalShape",
    "FlashCrowd",
    "LoadCurve",
    "MAX_UNIFORM_UNIVERSE",
    "MILLION",
    "SMOKE_SPECS",
    "Synthesizer",
    "WorkloadEvent",
    "WorkloadSpec",
    "ZipfSampler",
    "arrival_times",
    "generate_stream",
    "make_synthesizer",
    "shape_from_dict",
    "stream_fingerprint",
    "uniform_airline_spec",
]
