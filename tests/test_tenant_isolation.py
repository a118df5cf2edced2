"""No cross-tenant read succeeds on any ``/v1`` route that names a resource.

Two tenants hold the same roles.  The first creates one resource of each
kind: a compute job, an ingestion job, a push subscription and a study.
For every route whose handler takes a resource id, the second tenant must
get the same 404 status and body for the first tenant's id as for an
unknown id.  The routes are read from the gateway, so a route added later
to any of these surfaces is checked without editing this test.
"""

import inspect

import pytest

from repro import HealthCloudPlatform
from repro.blockchain import ShardedBlockchainNetwork
from repro.cloudsim.healthplane.events import EventBus
from repro.compute import (ComputeApi, JobSubmitRequest, TaskGraph,
                           standard_scheduler)
from repro.core.api import ApiRequest
from repro.federation import (DeltStudyConfig, FederatedStudyService,
                              StudiesApi, StudyProposalRequest,
                              build_institutions)
from repro.fhir import Bundle, Patient
from repro.ingestion import encrypt_bundle_for_upload
from repro.rbac import (Action, ExternalIdentityProvider, Permission, Scope,
                        ScopeKind)
from repro.streaming import (SubscriptionApi, SubscriptionFilter,
                             SubscriptionRegistry)
from repro.workloads.emr import generate_emr_cohort

ID_PARAMS = ("job_id", "sub_id", "study_id")
RESOURCE_TYPES = ("compute-jobs", "platform-status", "subscriptions",
                  "studies")
GROUP = "grp-isolation"
UNKNOWN_ID = "no-such-id"


@pytest.fixture(scope="module")
def world():
    platform = HealthCloudPlatform(seed=61, use_blockchain=False)
    scheduler = standard_scheduler(clock=platform.clock,
                                   monitoring=platform.monitoring)
    cohort = generate_emr_cohort(n_patients=24, n_drugs=6, n_lowering=2,
                                 seed=7)
    institutions = build_institutions(3, platform.clock, GROUP,
                                      patients=cohort.patients, seed=7)
    network = ShardedBlockchainNetwork(1, seed=61, clock=platform.clock,
                                       monitoring=platform.monitoring)
    studies = FederatedStudyService(
        clock=platform.clock, network=network, scheduler=scheduler,
        institutions=institutions, monitoring=platform.monitoring, seed=61,
        delt_config=DeltStudyConfig(n_drugs=6, max_iterations=2))
    registry = SubscriptionRegistry(
        EventBus(platform.clock, monitoring=platform.monitoring))
    gateway = platform.build_api_gateway(
        compute=ComputeApi(scheduler),
        subscriptions=SubscriptionApi(registry,
                                      monitoring=platform.monitoring),
        studies=StudiesApi(studies))

    idp = ExternalIdentityProvider("lab-idp", b"lab-key-0123456789",
                                   platform.clock)
    platform.federation.approve_idp("lab-idp", b"lab-key-0123456789")
    tenants = {}
    for name in ("owner", "other"):
        tenant = platform.register_tenant(name)
        user = platform.rbac.register_user(tenant.tenant.tenant_id, name)
        scope = Scope(ScopeKind.TENANT, tenant.tenant.tenant_id)
        platform.rbac.define_role(f"{name}-role", [
            Permission(action, resource, scope)
            for action in (Action.READ, Action.WRITE)
            for resource in RESOURCE_TYPES])
        platform.rbac.bind_role(user.user_id, tenant.default_org.org_id,
                                tenant.default_env.env_id, f"{name}-role")
        platform.federation.link_identity("lab-idp", f"{name}@lab",
                                          user.user_id)
        tenants[name] = tenant

    def call(name, path, **params):
        tenant = tenants[name]
        return gateway.dispatch(ApiRequest(
            path=path, token=idp.issue_token(f"{name}@lab"),
            scope_entity_id=tenant.tenant.tenant_id,
            org_id=tenant.default_org.org_id,
            env_id=tenant.default_env.env_id, params=params))

    graph = TaskGraph("probe")
    graph.add_data("x", 5, nbytes=64)
    graph.add_task("double", lambda ins: ins["x"] * 2, inputs=("x",),
                   cost_s=0.01)
    group = platform.rbac.create_group(tenants["owner"].tenant.tenant_id,
                                       "cohort")
    registration = platform.ingestion.register_client("clinic")
    bundle = Bundle(id="b").add(Patient(
        id="pt-1", name={"family": "X"}, birthDate="1980-01-01",
        gender="male"))
    owned = {
        "compute": call("owner", "/compute/submit",
                        request=JobSubmitRequest(graph=graph)
                        ).body["job_id"],
        "ingestion": platform.ingestion.upload(
            "clinic", encrypt_bundle_for_upload(bundle, registration),
            group.group_id).job_id,
        "subscriptions": call("owner", "/subscriptions/register",
                              criteria=SubscriptionFilter()
                              ).body["sub_id"],
        "studies": call("owner", "/studies/propose",
                        request=StudyProposalRequest(
                            analysis="delt", group_id=GROUP,
                            participants=("inst-00", "inst-01"),
                            threshold=1)).body["study_id"],
    }
    return gateway, call, owned


def id_routes(gateway):
    """(versioned path, id parameter, other required parameters) for every
    route whose handler takes a resource id."""
    routes = []
    for path in gateway.routes():
        parameters = inspect.signature(
            gateway._routes[path].handler).parameters
        id_param = next((p for p in ID_PARAMS if p in parameters), None)
        if id_param is None:
            continue
        required = [name for name, p in parameters.items()
                    if name not in ("context", id_param)
                    and p.default is inspect.Parameter.empty]
        routes.append((path, id_param, required))
    return routes


def test_every_id_route_of_every_surface_is_checked(world):
    gateway, _, owned = world
    checked = {path.split("/")[2] for path, _, _ in id_routes(gateway)}
    assert checked == set(owned)


def test_no_cross_tenant_read_on_any_id_route(world):
    gateway, call, owned = world
    leaks, unreal = [], []
    for path, id_param, required in id_routes(gateway):
        resource_id = owned[path.split("/")[2]]
        extra = {name: "probe" for name in required}

        def outcome(caller, some_id):
            """Status and body, with a 404's id masked for comparison."""
            response = call(caller, path, **{id_param: some_id}, **extra)
            if response.status != 404:
                return response.status, response.body
            return 404, response.body["error"].replace(some_id, "<id>")

        missing = outcome("other", UNKNOWN_ID)
        assert missing[0] == 404, path
        foreign = outcome("other", resource_id)
        if foreign != missing:
            leaks.append(f"{path}: foreign id -> {foreign}, "
                         f"unknown id -> {missing}")
        # The id is real: its owner is not told that it does not exist.
        if outcome("owner", resource_id) == missing:
            unreal.append(path)
    assert not leaks, "\n".join(leaks)
    assert not unreal, unreal
