"""Tenant policies, budget defaults, and SLO breach attribution."""

import pytest

from repro.cluster.errors import ClusterError
from repro.cluster.qos import QosManager, TenantPolicy
from repro.obs import MetricsRegistry, Tracer


def make_qos():
    metrics = MetricsRegistry()
    tracer = Tracer(clock=lambda: 0.0)
    return QosManager(metrics, tracer.recorder), metrics


def test_queue_budget_defaults_to_half_the_latency_budget():
    policy = TenantPolicy("gold", latency_budget_us=10_000.0)
    assert policy.queue_budget_us == 5_000.0
    explicit = TenantPolicy("silver", latency_budget_us=10_000.0,
                            queue_budget_us=1_000.0)
    assert explicit.queue_budget_us == 1_000.0


def test_non_positive_budget_is_rejected():
    with pytest.raises(ClusterError):
        TenantPolicy("broke", latency_budget_us=0.0)


def test_register_installs_an_slo_per_cluster_op():
    qos, _metrics = make_qos()
    qos.register(TenantPolicy("gold", latency_budget_us=5_000.0))
    ops = {policy.op for policy in qos.slo.policies}
    assert ops == set(QosManager.OPS)
    with pytest.raises(ClusterError):
        qos.register(TenantPolicy("gold", latency_budget_us=1.0))


def test_queue_budget_is_uncapped_for_unknown_tenants():
    qos, _metrics = make_qos()
    qos.register(TenantPolicy("gold", latency_budget_us=5_000.0))
    assert qos.queue_budget("gold") == 2_500.0
    assert qos.queue_budget("guest") is None
    assert qos.queue_budget(None) is None


def test_attach_namespace_tracks_ownership_once():
    qos, _metrics = make_qos()
    qos.register(TenantPolicy("gold", latency_budget_us=5_000.0))
    qos.attach_namespace("gold", "gold-data")
    qos.attach_namespace("gold", "gold-data")
    assert qos.tenant("gold").namespaces == ["gold-data"]
    with pytest.raises(ClusterError):
        qos.attach_namespace("nobody", "x")


def test_breaches_are_counted_against_their_tenant():
    qos, metrics = make_qos()
    qos.register(TenantPolicy("gold", latency_budget_us=100.0))
    qos.register(TenantPolicy("bronze", latency_budget_us=10_000.0))
    # gold breaches its 100us budget; bronze stays inside its own.
    qos.record("cluster.get", "gold", start_us=0.0, end_us=500.0)
    qos.record("cluster.get", "gold", start_us=0.0, end_us=50.0)
    qos.record("cluster.get", "bronze", start_us=0.0, end_us=500.0)
    assert qos.breach_counts() == {"gold": 1, "bronze": 0}
    assert metrics.total("slo.breaches") == 1
