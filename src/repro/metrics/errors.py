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
from typing import Optional, Sequence

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
        Error significance: the largest absolute deviation seen during
        simulation (a lower bound on the true ES).
    rs_maximum:
        The circuit's RS_max used for normalization.
    num_vectors:
        Simulation batch size behind the ER estimate.
    es_bound:
        The proven ES ceiling when the ES-ATPG refuted the threshold.
    """

    er: float
    es: int
    rs_maximum: int
    num_vectors: int
    es_bound: Optional[int] = None

    @property
    def observed_es(self) -> int:
        """The simulated ES: the same value as :attr:`es`."""
        return self.es

    @property
    def rs(self) -> float:
        """Rate-significance, equation (1)."""
        return self.er * self.es

    @property
    def rs_pct(self) -> float:
        """RS as a percentage of the maximum possible RS."""
        return rs_percent(self.rs, self.rs_maximum)

    def __str__(self) -> str:
        return (
            f"ER={self.er:.4f} ES={self.es} RS={self.rs:.2f} "
            f"(%RS={self.rs_pct:.4g})"
        )
