"""Tests for pricing ledger, providers and deployment services."""

import pytest

from repro.cloud import (
    Cluster,
    CostLedger,
    DeploymentService,
    PROVIDERS,
    execution_cost,
    get_instance,
    get_provider,
)


class TestProviders:
    def test_registry(self):
        assert set(PROVIDERS) == {"aws", "azure", "gcp"}
        assert get_provider("aws").deployment_service == "EMR"
        assert get_provider("azure").deployment_service == "HDInsight"
        assert get_provider("gcp").deployment_service == "Dataproc"

    def test_unknown_provider(self):
        with pytest.raises(KeyError):
            get_provider("oracle")

    def test_instances_scoped(self):
        aws = get_provider("aws")
        assert all(t.provider == "aws" for t in aws.instances())
        assert "m5" in aws.families()

    def test_sustained_use_discount(self):
        gcp = get_provider("gcp")
        inst = get_instance("n1-standard.xlarge")
        short = gcp.effective_hourly_price(inst, hours=10)
        long = gcp.effective_hourly_price(inst, hours=400)
        assert long < short

    def test_cross_provider_price_rejected(self):
        gcp = get_provider("gcp")
        with pytest.raises(ValueError):
            gcp.effective_hourly_price(get_instance("m5.large"), 10)


class TestCostLedger:
    def test_charges_accumulate(self):
        ledger = CostLedger()
        cluster = Cluster.of("m5.xlarge", 4)
        c1 = ledger.charge_tuning(cluster, 3600)
        c2 = ledger.charge_production(cluster, 1800)
        assert c1 == pytest.approx(cluster.price_per_hour)
        assert ledger.tuning_runs == 1
        assert ledger.production_runs == 1
        assert ledger.total_cost == pytest.approx(c1 + c2)

    def test_breakeven(self):
        ledger = CostLedger()
        cluster = Cluster.of("m5.large", 1)
        for _ in range(10):
            ledger.charge_tuning(cluster, 3600)  # 10 hours of tuning
        # Tuned config saves half the hourly price per run.
        saving = cluster.price_per_hour / 2
        runs = ledger.breakeven_runs(cluster.price_per_hour, saving)
        assert runs == pytest.approx(20)

    def test_breakeven_no_saving_is_infinite(self):
        ledger = CostLedger()
        ledger.charge_tuning(Cluster.of("m5.large", 1), 100)
        assert ledger.breakeven_runs(1.0, 2.0) == float("inf")

    def test_execution_cost_helper(self):
        cluster = Cluster.of("m5.large", 2)
        assert execution_cost(cluster, 3600) == pytest.approx(cluster.price_per_hour)


class TestDeploymentService:
    def test_provision(self):
        svc = DeploymentService.for_provider("aws")
        cluster = svc.provision("h1.4xlarge", 4, tenant="t1")
        assert cluster.count == 4
        assert len(svc.provisioning_log()) == 1
        assert svc.provisioning_log()[0].tenant == "t1"

    def test_rejects_cross_provider(self):
        svc = DeploymentService.for_provider("azure")
        with pytest.raises(ValueError):
            svc.provision("m5.xlarge", 2)

    def test_enforces_quota(self):
        svc = DeploymentService.for_provider("aws")
        with pytest.raises(ValueError):
            svc.provision("m5.large", 1000)
        with pytest.raises(ValueError):
            svc.provision("m5.large", 0)
