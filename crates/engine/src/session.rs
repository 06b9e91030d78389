//! Per-tenant sessions and quotas for the network frontend.
//!
//! The [`crate::service::QueryService`] admission gates protect the
//! *process* — bounded queue, aggregate memory budget, deadline
//! shedding. They say nothing about *who* is submitting: one client can
//! fill the queue and starve everyone else while staying under every
//! global limit. This module adds the missing per-principal layer:
//! every network request carries a **tenant id** (the `X-Tenant` header;
//! absent means the `"default"` tenant), resolved to a [`TenantQuotas`]
//! record, and must take a [`SessionPermit`] *before* the service's own
//! admission runs. A permit enforces three independent budgets:
//!
//! * **concurrency** — at most `max_concurrent` queries in flight per
//!   tenant (queued + running, counted from permit grant to drop);
//! * **reservation share** — the sum of the tenant's in-flight memory
//!   reservations stays under `max_reserved_bytes`, so one tenant
//!   cannot monopolize the service's aggregate memory budget;
//! * **request rate** — a token bucket (`rate_per_sec` steady state,
//!   `burst` capacity) refused *before* any queue slot is consumed.
//!
//! Refusals are [`QuotaError`]s carrying the stable `XQRG0009` code —
//! deliberately distinct from the service-wide `XQRG0007` so a client
//! can tell "over *your* budget, back off and retry" (429) from "the
//! service is full" — and count into the process metrics
//! (`tenant_rejections`). Permits are RAII: dropping one (on reply,
//! disconnect, or panic unwind) releases the concurrency slot and the
//! reservation share, so a hostile client that vanishes mid-query can
//! never leak quota.
//!
//! Tenants may also carry their own default [`Limits`]
//! ([`TenantQuotas::limits`]), applied to requests that do not bring
//! their own — a cheap way to give untrusted tenants tighter deadlines
//! and memory caps than in-process callers.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xqr_xml::limits::ERR_TENANT;
use xqr_xml::metrics::metrics;
use xqr_xml::Limits;

/// Per-tenant admission budgets. `0` disables the corresponding gate
/// (unlimited), so `TenantQuotas::default()` admits everything — quotas
/// are opt-in per deployment.
#[derive(Clone, Debug, Default)]
pub struct TenantQuotas {
    /// Queries in flight (permit granted, not yet dropped) at once;
    /// 0 = unlimited.
    pub max_concurrent: usize,
    /// Sum of in-flight memory reservations; 0 = unlimited.
    pub max_reserved_bytes: u64,
    /// Steady-state requests per second for the token bucket;
    /// 0 = unlimited (the bucket is bypassed).
    pub rate_per_sec: u32,
    /// Bucket capacity — the tolerated burst above the steady rate.
    /// Clamped up to 1 whenever rate limiting is active.
    pub burst: u32,
    /// Default [`Limits`] for this tenant's requests that do not carry
    /// their own; `None` falls through to the service default.
    pub limits: Option<Limits>,
}

impl TenantQuotas {
    pub fn with_max_concurrent(mut self, n: usize) -> TenantQuotas {
        self.max_concurrent = n;
        self
    }

    pub fn with_max_reserved_bytes(mut self, n: u64) -> TenantQuotas {
        self.max_reserved_bytes = n;
        self
    }

    pub fn with_rate(mut self, per_sec: u32, burst: u32) -> TenantQuotas {
        self.rate_per_sec = per_sec;
        self.burst = burst;
        self
    }

    pub fn with_limits(mut self, limits: Limits) -> TenantQuotas {
        self.limits = Some(limits);
        self
    }
}

/// Tenant resolution table for a [`SessionManager`]: named tenants get
/// their own quotas, everyone else shares `default_quotas`.
#[derive(Clone, Debug, Default)]
pub struct SessionConfig {
    /// Quotas for tenants without an explicit entry (including the
    /// implicit `"default"` tenant of requests with no `X-Tenant`).
    pub default_quotas: TenantQuotas,
    /// Per-tenant overrides, keyed by tenant id.
    pub tenants: HashMap<String, TenantQuotas>,
}

impl SessionConfig {
    pub fn with_default_quotas(mut self, q: TenantQuotas) -> SessionConfig {
        self.default_quotas = q;
        self
    }

    pub fn with_tenant(mut self, id: impl Into<String>, q: TenantQuotas) -> SessionConfig {
        self.tenants.insert(id.into(), q);
        self
    }
}

/// Why a tenant's request was refused. All variants map to the stable
/// `XQRG0009` code ([`QuotaError::code`]) and an HTTP 429 at the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuotaError {
    /// `max_concurrent` in-flight queries already held.
    Concurrency { tenant: String, limit: usize },
    /// Granting `asked` reservation bytes would push the tenant's
    /// in-flight total past `max_reserved_bytes`.
    Reservation {
        tenant: String,
        asked: u64,
        held: u64,
        limit: u64,
    },
    /// The token bucket is empty; retry after roughly `retry_after_ms`.
    Rate { tenant: String, retry_after_ms: u64 },
}

impl QuotaError {
    /// The stable error code (`XQRG0009`) carried in structured replies.
    pub fn code(&self) -> &'static str {
        ERR_TENANT
    }

    /// Client back-off hint in milliseconds (the server's `Retry-After`
    /// source): rate refusals know their refill time; concurrency and
    /// reservation refusals suggest a generic short wait.
    pub fn retry_after_ms(&self) -> u64 {
        match self {
            QuotaError::Rate { retry_after_ms, .. } => (*retry_after_ms).max(1),
            _ => 1000,
        }
    }
}

impl std::fmt::Display for QuotaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotaError::Concurrency { tenant, limit } => write!(
                f,
                "[{}] tenant {tenant:?} is at its concurrency limit ({limit} in flight)",
                ERR_TENANT
            ),
            QuotaError::Reservation {
                tenant,
                asked,
                held,
                limit,
            } => write!(
                f,
                "[{}] tenant {tenant:?} reservation share exhausted: \
                 {asked} bytes asked, {held} held, {limit} allowed",
                ERR_TENANT
            ),
            QuotaError::Rate {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "[{}] tenant {tenant:?} is over its request rate; retry in ~{retry_after_ms} ms",
                ERR_TENANT
            ),
        }
    }
}

impl std::error::Error for QuotaError {}

/// Live admission state for one tenant.
struct TenantState {
    in_flight: usize,
    reserved: u64,
    /// Token bucket: fractional tokens remaining and the last refill
    /// instant. Initialized full (burst capacity).
    tokens: f64,
    last_refill: Instant,
}

struct Inner {
    cfg: SessionConfig,
    state: Mutex<HashMap<String, TenantState>>,
}

impl Inner {
    fn quotas_for(&self, tenant: &str) -> &TenantQuotas {
        self.cfg
            .tenants
            .get(tenant)
            .unwrap_or(&self.cfg.default_quotas)
    }
}

/// Resolves tenant ids to quotas and hands out RAII [`SessionPermit`]s.
/// Cheap to clone (shared interior); one per [`crate::server::QueryServer`].
#[derive(Clone)]
pub struct SessionManager {
    inner: Arc<Inner>,
}

impl SessionManager {
    pub fn new(cfg: SessionConfig) -> SessionManager {
        SessionManager {
            inner: Arc::new(Inner {
                cfg,
                state: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The tenant's default [`Limits`], if its quotas carry one.
    pub fn limits_for(&self, tenant: &str) -> Option<Limits> {
        self.inner.quotas_for(tenant).limits.clone()
    }

    /// Takes a permit for one query by `tenant` reserving `reservation`
    /// bytes, enforcing rate, concurrency, and reservation-share gates
    /// in that order (rate first: a rate-limited client should be turned
    /// away as cheaply as possible). Refusals count into the process
    /// `tenant_rejections` metric.
    pub fn admit(&self, tenant: &str, reservation: u64) -> Result<SessionPermit, QuotaError> {
        self.admit_at(tenant, reservation, Instant::now())
    }

    /// [`Self::admit`] with an explicit clock, for deterministic tests.
    pub(crate) fn admit_at(
        &self,
        tenant: &str,
        reservation: u64,
        now: Instant,
    ) -> Result<SessionPermit, QuotaError> {
        let q = self.inner.quotas_for(tenant).clone();
        let mut map = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        let st = map
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                in_flight: 0,
                reserved: 0,
                tokens: f64::from(q.burst.max(1)),
                last_refill: now,
            });
        let refuse = |e: QuotaError| {
            metrics().record_tenant_rejection();
            Err(e)
        };
        if q.rate_per_sec > 0 {
            let cap = f64::from(q.burst.max(1));
            let elapsed = now.saturating_duration_since(st.last_refill);
            st.tokens = (st.tokens + elapsed.as_secs_f64() * f64::from(q.rate_per_sec)).min(cap);
            st.last_refill = now;
            if st.tokens < 1.0 {
                let deficit = 1.0 - st.tokens;
                let retry_after_ms = (deficit / f64::from(q.rate_per_sec) * 1000.0).ceil() as u64;
                return refuse(QuotaError::Rate {
                    tenant: tenant.to_string(),
                    retry_after_ms,
                });
            }
            st.tokens -= 1.0;
        }
        if q.max_concurrent > 0 && st.in_flight >= q.max_concurrent {
            return refuse(QuotaError::Concurrency {
                tenant: tenant.to_string(),
                limit: q.max_concurrent,
            });
        }
        if q.max_reserved_bytes > 0
            && st.reserved.saturating_add(reservation) > q.max_reserved_bytes
        {
            return refuse(QuotaError::Reservation {
                tenant: tenant.to_string(),
                asked: reservation,
                held: st.reserved,
                limit: q.max_reserved_bytes,
            });
        }
        st.in_flight += 1;
        st.reserved += reservation;
        Ok(SessionPermit {
            inner: Arc::clone(&self.inner),
            tenant: tenant.to_string(),
            reservation,
        })
    }

    /// `(in_flight, reserved_bytes)` for a tenant (diagnostics / tests).
    pub fn tenant_load(&self, tenant: &str) -> (usize, u64) {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(tenant)
            .map(|s| (s.in_flight, s.reserved))
            .unwrap_or((0, 0))
    }
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("tenants", &self.inner.cfg.tenants.len())
            .finish_non_exhaustive()
    }
}

/// One granted admission: holds a concurrency slot and a reservation
/// share until dropped. Dropping on *any* path — reply sent, client
/// disconnected, worker panicked — releases both, so quota can never
/// leak past a query's lifetime.
pub struct SessionPermit {
    inner: Arc<Inner>,
    tenant: String,
    reservation: u64,
}

impl std::fmt::Debug for SessionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPermit")
            .field("tenant", &self.tenant)
            .field("reservation", &self.reservation)
            .finish()
    }
}

impl SessionPermit {
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        let mut map = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(st) = map.get_mut(&self.tenant) {
            st.in_flight = st.in_flight.saturating_sub(1);
            st.reserved = st.reserved.saturating_sub(self.reservation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn mgr(q: TenantQuotas) -> SessionManager {
        SessionManager::new(SessionConfig::default().with_tenant("t", q))
    }

    #[test]
    fn default_quotas_admit_everything() {
        let m = SessionManager::new(SessionConfig::default());
        let permits: Vec<_> = (0..64)
            .map(|_| m.admit("anyone", 1 << 30).unwrap())
            .collect();
        assert_eq!(m.tenant_load("anyone").0, 64);
        drop(permits);
        assert_eq!(m.tenant_load("anyone"), (0, 0));
    }

    #[test]
    fn concurrency_gate_refuses_and_releases() {
        let m = mgr(TenantQuotas::default().with_max_concurrent(2));
        let p1 = m.admit("t", 0).unwrap();
        let _p2 = m.admit("t", 0).unwrap();
        let err = m.admit("t", 0).unwrap_err();
        assert!(matches!(err, QuotaError::Concurrency { limit: 2, .. }));
        assert_eq!(err.code(), ERR_TENANT);
        drop(p1);
        assert!(m.admit("t", 0).is_ok());
        // An unrelated tenant is untouched by t's quotas.
        assert!(m.admit("other", 0).is_ok());
    }

    #[test]
    fn reservation_share_gate_counts_bytes() {
        let m = mgr(TenantQuotas::default().with_max_reserved_bytes(100));
        let p1 = m.admit("t", 60).unwrap();
        let err = m.admit("t", 60).unwrap_err();
        assert!(matches!(
            err,
            QuotaError::Reservation {
                asked: 60,
                held: 60,
                limit: 100,
                ..
            }
        ));
        drop(p1);
        assert!(m.admit("t", 60).is_ok());
    }

    #[test]
    fn rate_gate_is_a_token_bucket() {
        let m = mgr(TenantQuotas::default().with_rate(10, 2));
        let t0 = Instant::now();
        // Burst of 2 passes, the third is refused with a refill hint.
        assert!(m.admit_at("t", 0, t0).is_ok());
        assert!(m.admit_at("t", 0, t0).is_ok());
        let err = m.admit_at("t", 0, t0).unwrap_err();
        match &err {
            QuotaError::Rate { retry_after_ms, .. } => {
                assert!(*retry_after_ms >= 1 && *retry_after_ms <= 100, "{err}");
            }
            other => panic!("expected rate refusal, got {other}"),
        }
        // 100 ms refills one token at 10/s.
        assert!(m.admit_at("t", 0, t0 + Duration::from_millis(150)).is_ok());
        assert!(m.admit_at("t", 0, t0 + Duration::from_millis(150)).is_err());
    }

    #[test]
    fn permits_release_on_drop_even_after_panic_unwind() {
        let m = mgr(TenantQuotas::default().with_max_concurrent(1));
        let m2 = m.clone();
        let _ = std::panic::catch_unwind(move || {
            let _p = m2.admit("t", 0).unwrap();
            panic!("query blew up");
        });
        assert_eq!(m.tenant_load("t"), (0, 0));
        assert!(m.admit("t", 0).is_ok());
    }

    #[test]
    fn tenant_limits_resolve() {
        let m = mgr(TenantQuotas::default().with_limits(Limits::default().with_max_tuples(7)));
        assert_eq!(m.limits_for("t").unwrap().max_tuples, Some(7));
        assert!(m.limits_for("untracked").is_none());
        // Rejections are metered.
        let before = metrics().snapshot().tenant_rejections;
        let m = mgr(TenantQuotas::default().with_max_concurrent(1));
        let _p = m.admit("t", 0).unwrap();
        let _ = m.admit("t", 0).unwrap_err();
        assert!(metrics().snapshot().tenant_rejections > before);
    }
}
