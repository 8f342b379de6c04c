//! Events accepted by the tuning service, addressed by tenant.

use simdb::index::IndexSet;
use simdb::query::Statement;
use std::sync::Arc;

/// Identifier of a tenant registered with the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// Identifier of one tuning session within a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId {
    /// The owning tenant.
    pub tenant: TenantId,
    /// Position of the session within the tenant (registration order).
    pub index: usize,
}

impl SessionId {
    /// Address session `index` of `tenant`.
    pub fn new(tenant: TenantId, index: usize) -> Self {
        Self { tenant, index }
    }
}

/// One unit of work submitted to the service.
///
/// Statements travel as `Arc<Statement>` so fanning one event out to every
/// session of a tenant never clones the (potentially large) bound statement.
#[derive(Debug, Clone)]
pub enum Event {
    /// A workload statement observed on a tenant's database.  Every session
    /// of the tenant analyzes it and updates its recommendation.
    Query {
        /// The tenant whose workload produced the statement.
        tenant: TenantId,
        /// The bound statement.
        statement: Arc<Statement>,
    },
    /// DBA feedback for a tenant: positive votes for `approve`, negative
    /// votes for `reject`, delivered to every session of the tenant.
    Vote {
        /// The tenant the votes apply to.
        tenant: TenantId,
        /// Indices the DBA endorses.
        approve: IndexSet,
        /// Indices the DBA vetoes.
        reject: IndexSet,
    },
}

impl Event {
    /// A query event.
    pub fn query(tenant: TenantId, statement: Arc<Statement>) -> Self {
        Event::Query { tenant, statement }
    }

    /// A feedback event.
    pub fn vote(tenant: TenantId, approve: IndexSet, reject: IndexSet) -> Self {
        Event::Vote {
            tenant,
            approve,
            reject,
        }
    }

    /// The tenant the event is addressed to.
    pub fn tenant(&self) -> TenantId {
        match self {
            Event::Query { tenant, .. } | Event::Vote { tenant, .. } => *tenant,
        }
    }

    /// Whether the admission gate may drop this event under overload.
    /// Queries are sheddable — a replayed workload statement can be lost
    /// without violating any contract; votes are high-priority DBA feedback
    /// and are **never** shed (see [`crate::ingress`]).
    pub fn is_sheddable(&self) -> bool {
        matches!(self, Event::Query { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_route_by_tenant() {
        let t = TenantId(3);
        let vote = Event::vote(t, IndexSet::empty(), IndexSet::empty());
        assert_eq!(vote.tenant(), t);
        assert_eq!(SessionId::new(t, 1).tenant, t);
    }

    #[test]
    fn votes_outrank_queries() {
        let vote = Event::vote(TenantId(0), IndexSet::empty(), IndexSet::empty());
        assert!(!vote.is_sheddable());
    }
}
