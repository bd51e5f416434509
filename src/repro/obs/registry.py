"""The metrics registry: one source of truth per simulated stack.

A :class:`MetricsRegistry` owns every instrument of one system under
test (a KAML SSD plus its caching layer, or a baseline block device).
Components reach it through their stack root (``ssd.metrics``,
``device.ftl.metrics``) so benchmarks, tests, and exporters all read the
same numbers.  Request-scoped spans live in :mod:`repro.obs.trace`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    LabelsKey,
    labels_key,
)


class MetricsRegistry:
    """Named, labelled instruments: counters, gauges and histograms."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelsKey], Instrument] = {}
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Instrument access (create-on-first-use)
    # ------------------------------------------------------------------

    def _get(self, factory, name: str, labels: Dict[str, object], **kwargs) -> Instrument:
        key = (name, labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            kind = self._kinds.get(name)
            if kind is not None and kind != factory.kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}, "
                    f"not a {factory.kind}"
                )
            self._kinds[name] = factory.kind
            instrument = factory(name, key[1], **kwargs)
            self._instruments[key] = instrument
        elif instrument.kind != factory.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {instrument.kind}, "
                f"not a {factory.kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        if buckets is not None:
            return self._get(Histogram, name, labels, buckets=buckets)
        return self._get(Histogram, name, labels)

    def observe(self, name: str, value: float, **labels) -> None:
        """Shorthand for ``histogram(name, **labels).observe(value)``."""
        self.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def instruments(self, prefix: str = "") -> Iterator[Instrument]:
        """All instruments whose name starts with ``prefix``, sorted."""
        for (name, _labels), instrument in sorted(self._instruments.items()):
            if name.startswith(prefix):
                yield instrument

    def family(self, name: str) -> Dict[LabelsKey, Instrument]:
        """Every labelled instrument of one metric name."""
        return {
            labels: instrument
            for (metric, labels), instrument in self._instruments.items()
            if metric == name
        }

    def value(self, name: str, **labels) -> float:
        """Scalar value of a counter/gauge, 0.0 if never touched."""
        instrument = self._instruments.get((name, labels_key(labels)))
        return instrument.value if instrument is not None else 0.0

    def total(self, name: str, **labels) -> float:
        """Sum of a counter family's values across every label set whose
        labels are a superset of ``labels`` (e.g. all namespaces)."""
        want = set(labels.items())
        result = 0.0
        for instrument in self.family(name).values():
            if want <= set(instrument.labels):
                result += instrument.value
        return result
