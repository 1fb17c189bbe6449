"""repro — reproduction of *Design and accuracy trade-offs in
Computational Statistics* (Xu, Cox, Rixner; IISWC 2025).

The paper compares binary64, log-space, and posit(64,ES) arithmetic for
statistical computations whose probabilities fall far below 2**-1074,
at three levels: individual operations, full applications (HMM forward
algorithm / Poisson-binomial p-values), and FPGA accelerators.

Package map (README.md's "Package map" table has a row per package):

* :mod:`repro.bigfloat` — arbitrary-precision oracle (MPFR substitute)
* :mod:`repro.formats` — posit / IEEE / log-space number formats
* :mod:`repro.arith` — format-generic arithmetic backends + the format
  registry (construction, batch pairing, capability flags)
* :mod:`repro.engine` — the execution plane: certified batch mirrors,
  :class:`~repro.engine.plan.ExecPlan`, parallel sweep runner
* :mod:`repro.nd` — the NumPy-style front end: format-tagged
  :class:`~repro.nd.FArray` arrays with registry-dispatched operators,
  plan-aware reductions, and ambient ``use_format``/``use_plan``
* :mod:`repro.core` — accuracy sweeps, bit-budget analysis, range tables
* :mod:`repro.apps` — forward algorithm (VICAR), PBD p-values (LoFreq)
* :mod:`repro.workloads` — semiring-parameterized workloads: Viterbi
  decoding, pair-HMM alignment, Kalman filtering
* :mod:`repro.data` — synthetic workload generators
* :mod:`repro.hw` — FPGA accelerator timing/resource models
* :mod:`repro.experiments` — one module per paper table/figure
* :mod:`repro.service` — arithmetic-as-a-service: asyncio server
  with cross-request microbatching, typed workload API, client,
  and load harness
* :mod:`repro.report` — text tables and CDFs
* :mod:`repro.faults` — deterministic fault injection + the
  graceful-degradation ladder (chaos testing for every layer above)

Quickstart::

    import repro.nd as nd
    with nd.use_format("posit(32,2)"):
        p = nd.asarray([0.5, 0.25, 0.125])
        print(nd.sum(p * (1 - p)).to_floats())
"""

__version__ = "1.2.0"

from . import arith, bigfloat, core, faults, formats, telemetry  # noqa: F401

#: NumPy-dependent subpackages load lazily (PEP 562) so the scalar
#: stack stays importable where the vectorized engine cannot run.
#: (:mod:`repro.telemetry` is stdlib-only, so it loads eagerly.)
_LAZY_SUBMODULES = ("apps", "engine", "experiments", "nd",
                    "service", "workloads")

__all__ = [  # noqa: PLE0604
    "arith", "bigfloat", "core", "faults", "formats", "telemetry",
    "__version__",
    *_LAZY_SUBMODULES,
]


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        import importlib
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
