"""Error-tolerance metrics: ER, ES, RS (Section I of the paper).

* **Error rate (ER)** -- fraction of input vectors for which any
  observed output deviates from the fault-free response.
* **Error significance (ES)** -- the maximum amount by which the
  weighted numerical value of the (data) outputs can deviate from the
  fault-free value.
* **Rate-significance (RS)** -- the composite metric RS = ER x ES
  (equation (1)); the paper's acceptance threshold is expressed on RS.
* **%RS** -- RS as a percentage of the maximum possible RS of the
  circuit, where RS_max assumes ER = 1 and ES equal to the summed
  weight of all data outputs.  Table II sweeps %RS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from ..circuit import Circuit

__all__ = ["ErrorMetrics", "rs_max", "rs_percent"]


def rs_max(circuit: Circuit, value_outputs: Optional[Sequence[str]] = None) -> int:
    """Maximum possible RS of a circuit: ER = 1 and ES = the summed
    ``|weight|`` of the value outputs (a negative weight moves the value
    just as far).

    ``value_outputs`` defaults to the circuit's data outputs (all
    outputs when unannotated).
    """
    if value_outputs is None:
        value_outputs = circuit.value_outputs
    return sum(abs(w) for w in circuit.weights_of(value_outputs))


def rs_percent(rs: float, maximum: int) -> float:
    """RS as a percentage of the maximum possible RS."""
    if maximum <= 0:
        return 0.0
    return 100.0 * rs / maximum


@dataclass(frozen=True)
class ErrorMetrics:
    """One measurement of a circuit version against the original.

    Attributes
    ----------
    er:
        Estimated error rate in [0, 1].
    es:
        Error significance (conservative when produced by the ATPG
        sweep, else the largest simulated deviation).
    observed_es:
        Largest absolute deviation actually seen during simulation
        (a lower bound on the true ES).
    rs:
        ER x ES.
    rs_maximum:
        The circuit's RS_max used for normalization.
    num_vectors:
        Simulation batch size behind the ER estimate.
    es_mode:
        How ES was obtained: "simulated", "atpg", or "exact".
    """

    er: float
    es: int
    observed_es: int
    rs_maximum: int
    num_vectors: int
    es_mode: str
    es_bound: Optional[int] = None

    @property
    def rs(self) -> float:
        """Rate-significance, equation (1)."""
        return self.er * self.es

    @property
    def rs_bound(self) -> Optional[float]:
        """Proven upper bound on RS, when a threshold query refuted a
        larger ES (``es_bound`` is the proven ES ceiling)."""
        if self.es_bound is None:
            return None
        return self.er * self.es_bound

    @property
    def rs_pct(self) -> float:
        """RS as a percentage of the maximum possible RS."""
        return rs_percent(self.rs, self.rs_maximum)

    def within(self, rs_threshold: float) -> bool:
        """True when this measurement satisfies an absolute RS budget."""
        return self.rs <= rs_threshold

    def er_confidence(
        self, z: float = 1.96, exact: bool = False
    ) -> Tuple[float, float]:
        """Wilson-score confidence interval for the sampled ER.

        ``exact=True`` marks the measurement as exhaustive-batch (no
        sampling error): the interval collapses to the point estimate.
        The detection count is recovered from ``er * num_vectors``.
        """
        from ..obs.quality import er_interval

        return er_interval(self.er, self.num_vectors, z=z, exact=exact)

    def rs_confidence(
        self, z: float = 1.96, exact: bool = False
    ) -> Tuple[float, float]:
        """The RS band implied by :meth:`er_confidence` at this ES."""
        lo, hi = self.er_confidence(z=z, exact=exact)
        return (lo * self.es, hi * self.es)

    def __str__(self) -> str:
        return (
            f"ER={self.er:.4f} ES={self.es} RS={self.rs:.2f} "
            f"(%RS={self.rs_pct:.4g}, es_mode={self.es_mode})"
        )
