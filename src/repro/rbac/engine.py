"""RBAC registry and access-decision engine (Section II-B).

The engine owns all RBAC entities for the platform and answers the single
question every API call asks: *may this user perform this action on this
resource type in this scope?*  Decisions honour the scope hierarchy —
a tenant-scoped permission covers every organization and group under that
tenant; an organization- or group-scoped permission covers only itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.errors import (
    AlreadyExistsError,
    AuthorizationError,
    NotFoundError,
)
from ..core.ids import IdFactory
from .model import (
    Action,
    Environment,
    Group,
    Organization,
    Permission,
    Role,
    Scope,
    ScopeKind,
    Tenant,
    User,
)


@dataclass(frozen=True)
class AccessDecision:
    """Outcome of an authorization check, with the grant that satisfied it."""

    allowed: bool
    user_id: str
    action: Action
    resource_type: str
    scope: Scope
    granted_by: Optional[str] = None  # role name, when allowed


class RbacEngine:
    """Registry + decision engine for the platform's RBAC system."""

    def __init__(self, ids: Optional[IdFactory] = None) -> None:
        self._ids = ids if ids is not None else IdFactory()
        self.tenants: Dict[str, Tenant] = {}
        self.organizations: Dict[str, Organization] = {}
        self.groups: Dict[str, Group] = {}
        self.environments: Dict[str, Environment] = {}
        self.users: Dict[str, User] = {}
        self.roles: Dict[str, Role] = {}
        self._decisions: List[AccessDecision] = []

    # -- entity management ----------------------------------------------------

    def create_tenant(self, name: str) -> Tenant:
        tenant = Tenant(self._ids.new("tenant"), name)
        self.tenants[tenant.tenant_id] = tenant
        return tenant

    def create_organization(self, tenant_id: str, name: str) -> Organization:
        tenant = self._tenant(tenant_id)
        org = Organization(self._ids.new("org"), tenant_id, name)
        self.organizations[org.org_id] = org
        tenant.organization_ids.add(org.org_id)
        return org

    def create_group(self, tenant_id: str, name: str) -> Group:
        self._tenant(tenant_id)
        group = Group(self._ids.new("group"), tenant_id, name)
        self.groups[group.group_id] = group
        return group

    def create_environment(self, org_id: str, name: str,
                           kind: str = "development") -> Environment:
        org = self._org(org_id)
        env = Environment(self._ids.new("env"), org_id, name, kind)
        self.environments[env.env_id] = env
        org.environment_ids.add(env.env_id)
        return env

    def register_user(self, tenant_id: str, name: str,
                      external_identity: Optional[str] = None) -> User:
        tenant = self._tenant(tenant_id)
        user = User(self._ids.new("user"), tenant_id, name,
                    external_identity=external_identity)
        self.users[user.user_id] = user
        tenant.user_ids.add(user.user_id)
        return user

    def define_role(self, name: str, permissions: Iterable[Permission]) -> Role:
        if name in self.roles:
            raise AlreadyExistsError(f"role {name!r} already defined")
        role = Role(name, frozenset(permissions))
        self.roles[name] = role
        return role

    def bind_role(self, user_id: str, org_id: str, env_id: str,
                  role_name: str) -> None:
        """Give a user a role in one environment of one organization."""
        user = self._user(user_id)
        org = self._org(org_id)
        if env_id not in org.environment_ids:
            raise NotFoundError(f"env {env_id} not in org {org_id}")
        if role_name not in self.roles:
            raise NotFoundError(f"role {role_name!r} not defined")
        user.bind_role(org_id, env_id, role_name)

    def add_group_member(self, group_id: str, user_id: str) -> None:
        self._group(group_id).member_user_ids.add(self._user(user_id).user_id)

    # -- decisions -----------------------------------------------------------

    def check(self, user_id: str, action: Action, resource_type: str,
              scope: Scope, org_id: str, env_id: str) -> AccessDecision:
        """Decide whether a user may act, given their roles in (org, env).

        A role grants access if it holds a permission whose scope equals the
        requested scope *or* covers it from above (tenant over org/group).
        Group-scoped PHI access additionally requires group membership,
        since groups are "healthcare studies/programs to which PHI data is
        consented" — holding a role is not enough to see a study's data you
        are not a member of.
        """
        user = self._user(user_id)
        candidate_scopes = self._covering_scopes(scope)
        decision = AccessDecision(False, user_id, action, resource_type, scope)
        for role_name in user.roles_in(org_id, env_id):
            role = self.roles.get(role_name)
            if role is None:
                continue
            for cover in candidate_scopes:
                if role.allows(action, resource_type, cover):
                    decision = AccessDecision(True, user_id, action,
                                              resource_type, scope,
                                              granted_by=role_name)
                    break
            if decision.allowed:
                break
        if (decision.allowed and scope.kind is ScopeKind.GROUP
                and user_id not in self._group(scope.entity_id).member_user_ids):
            decision = AccessDecision(False, user_id, action, resource_type,
                                      scope)
        self._decisions.append(decision)
        return decision

    def require(self, user_id: str, action: Action, resource_type: str,
                scope: Scope, org_id: str, env_id: str) -> AccessDecision:
        """Like :meth:`check` but raises on denial."""
        decision = self.check(user_id, action, resource_type, scope,
                              org_id, env_id)
        if not decision.allowed:
            raise AuthorizationError(
                f"user {user_id} denied {action.value} on {resource_type} "
                f"in {scope.kind.value}:{scope.entity_id}")
        return decision

    def decision_log(self) -> List[AccessDecision]:
        return list(self._decisions)

    def _covering_scopes(self, scope: Scope) -> List[Scope]:
        """The requested scope plus every ancestor that would cover it."""
        scopes = [scope]
        if scope.kind is ScopeKind.ORGANIZATION:
            org = self._org(scope.entity_id)
            scopes.append(Scope(ScopeKind.TENANT, org.tenant_id))
        elif scope.kind is ScopeKind.GROUP:
            group = self._group(scope.entity_id)
            scopes.append(Scope(ScopeKind.TENANT, group.tenant_id))
        return scopes

    # -- lookups ------------------------------------------------------------------

    def _tenant(self, tenant_id: str) -> Tenant:
        try:
            return self.tenants[tenant_id]
        except KeyError:
            raise NotFoundError(f"tenant {tenant_id} not found") from None

    def _org(self, org_id: str) -> Organization:
        try:
            return self.organizations[org_id]
        except KeyError:
            raise NotFoundError(f"organization {org_id} not found") from None

    def _group(self, group_id: str) -> Group:
        try:
            return self.groups[group_id]
        except KeyError:
            raise NotFoundError(f"group {group_id} not found") from None

    def _user(self, user_id: str) -> User:
        try:
            return self.users[user_id]
        except KeyError:
            raise NotFoundError(f"user {user_id} not found") from None
