"""Engine selection: objects vs columnar.

The ``engine`` field on :class:`~repro.sim.runner.ExperimentConfig`
accepts three values:

* ``"objects"`` — always route over the object-graph overlays.
* ``"columnar"`` — demand the vectorized engine; raises
  :class:`~repro.util.errors.ConfigurationError` with the blocking
  reason when the cell is unsupported (Kademlia, faults active,
  oversized id space, ...).
* ``"auto"`` (default) — columnar when the cell is supported *and*
  large enough that the batch setup cost amortizes
  (:data:`COLUMNAR_AUTO_THRESHOLD` nodes); objects otherwise. The
  oracle-dispatch pattern from PR 1's scalar-vs-vectorized kernels:
  small inputs take the transparent path, big inputs the fast one, and
  both produce bit-identical results.

Supportability is intentionally conservative. The columnar engine
freezes the overlay before routing, so anything that mutates routing
state mid-stream — fault planes (evictions, message drops), churn,
retry policies with observable backoff — stays on the object path.
Telemetry/trace instrumentation also forces objects: the per-hop
callback surface is exactly what the frontier batches away. A global
budget plan does not: ``stable_cell`` installs the plan's per-node
quotas on the object overlay before it picks the engine, and the
snapshot copies the installed tables verbatim.
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError

__all__ = [
    "COLUMNAR_AUTO_THRESHOLD",
    "COLUMNAR_MAX_BITS",
    "ENGINES",
    "columnar_support",
    "resolve_engine",
]

ENGINES = ("auto", "objects", "columnar")

#: ``auto`` switches to columnar at this many nodes. Below it the object
#: path wins or ties: snapshot construction is O(total table entries)
#: and the frontier pays fixed per-step numpy overhead.
COLUMNAR_AUTO_THRESHOLD = 512

#: The vectorized routers hold ids in int64 and take bit lengths through
#: the float64 mantissa (``np.frexp``), which is exact only below 2**53.
#: 52 bits covers the paper's 32-bit spaces with a margin; larger spaces
#: stay on the object path (``IdSpace`` itself allows up to 256 bits).
COLUMNAR_MAX_BITS = 52

def columnar_support(config) -> tuple[bool, str]:
    """``(supported, reason)`` — can this stable cell run columnar?

    ``reason`` is empty when supported, else the first blocking rule
    (the message an explicit ``engine="columnar"`` request fails with).
    """
    if getattr(config, "overlay", None) == "kademlia":
        return False, "the columnar engine implements chord and pastry routing only"
    if getattr(config, "duration", None) is not None and hasattr(config, "queries_per_second"):
        return False, "churn mode mutates routing state mid-stream"
    if config.faults_active:
        return False, "fault injection mutates routing state mid-stream"
    if config.retry is not None:
        return False, "an explicit retry policy is only observable on the object path"
    if config.bits > COLUMNAR_MAX_BITS:
        return False, (
            f"bits={config.bits} exceeds the columnar engine's exact-arithmetic "
            f"limit of {COLUMNAR_MAX_BITS}"
        )
    return True, ""


def resolve_engine(config, telemetry_active: bool = False) -> str:
    """Resolve ``config.engine`` to ``"objects"`` or ``"columnar"``.

    ``telemetry_active`` marks a run that observes or acts per lookup
    (a telemetry runtime, a trace recorder, online learning or a
    per-lookup hook); the columnar engine has no per-hop surface, so such
    a run forces (or, for explicit ``columnar``, refuses) objects.
    """
    engine = getattr(config, "engine", "auto")
    if engine == "objects":
        return "objects"
    supported, reason = columnar_support(config)
    if engine == "columnar":
        if telemetry_active:
            raise ConfigurationError(
                "engine='columnar' cannot run with telemetry, a trace recorder "
                "or a per-lookup hook attached: the vectorized frontier has no "
                "per-hop instrumentation surface"
            )
        if not supported:
            raise ConfigurationError(f"engine='columnar' unsupported for this cell: {reason}")
        return "columnar"
    # auto
    if telemetry_active or not supported or config.n < COLUMNAR_AUTO_THRESHOLD:
        return "objects"
    return "columnar"
