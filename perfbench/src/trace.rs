//! In-memory span tracing around the calls the benchmark makes into each
//! layer, plus the two wrappers that put spans inside a service session:
//! [`TimedAdvisor`] (around a boxed advisor) and [`TimedEnv`] (around the
//! session's [`TenantEnv`]).
//!
//! A span records its kind, a label, start and end (ns since the tracer was
//! created), its parent span and the event it belongs to.  Spans opened on a
//! thread with no open span become children of the current root (the poll
//! round in progress), which is how analyze spans on the service's worker
//! thread nest under the poll span opened by the benchmark's own thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ibg::IndexBenefitGraph;
use service::TenantEnv;
use simdb::index::{IndexId, IndexSet};
use simdb::optimizer::PlanCost;
use simdb::query::Statement;
use wfit_core::{IndexAdvisor, SharedIbg, TuningEnv};

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `TuningService::poll` round.
    Poll,
    /// One `IndexAdvisor::analyze_query` call of a session.
    Analyze,
    /// One `IndexAdvisor::feedback` call of a session.
    Feedback,
    /// One index benefit graph build.
    Ibg,
    /// One what-if call issued by an advisor.
    Whatif,
    /// One `submit` into the service ingress.
    Submit,
    /// One `TuningService::snapshot`.
    Snapshot,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Poll => "poll",
            Kind::Analyze => "analyze",
            Kind::Feedback => "feedback",
            Kind::Ibg => "ibg",
            Kind::Whatif => "whatif",
            Kind::Submit => "submit",
            Kind::Snapshot => "snapshot",
        }
    }
}

/// No parent / no event.
pub const NONE: u32 = u32::MAX;
pub const NO_EVENT: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// Index into the benchmark's session-label table (analyze/feedback).
    pub label: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// `tenant << 32 | position in the tenant's event stream`.
    pub event: u64,
    /// Nodes of a built graph (IBG spans only).
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    root: AtomicU32,
}

thread_local! {
    /// Open spans of this thread: `(span index, event id)`.
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 18)),
            root: AtomicU32::new(NONE),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.  `event` is inherited
    /// from the enclosing span when `NO_EVENT` is passed.
    pub fn open(&self, kind: Kind, label: u16, event: u64) -> SpanGuard<'_> {
        self.open_under(kind, label, event, self.root.load(Ordering::Relaxed))
    }

    /// Open a span that never attaches to the current root: for threads
    /// (the traffic generator) that run beside a poll round, not inside it.
    pub fn open_top(&self, kind: Kind, event: u64) -> SpanGuard<'_> {
        self.open_under(kind, 0, event, NONE)
    }

    fn open_under(&self, kind: Kind, label: u16, event: u64, root: u32) -> SpanGuard<'_> {
        let (parent, inherited) =
            STACK.with(|s| s.borrow().last().copied().unwrap_or((root, NO_EVENT)));
        let event = if event == NO_EVENT { inherited } else { event };
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("tracer lock poisoned");
            spans.push(Span {
                kind,
                label,
                start_ns,
                end_ns: start_ns,
                parent,
                event,
                count: 0,
            });
            (spans.len() - 1) as u32
        };
        STACK.with(|s| s.borrow_mut().push((index, event)));
        SpanGuard {
            tracer: self,
            index,
            count: 0,
        }
    }

    /// Open a root span (a poll round): spans opened on other threads while
    /// it is open become its children.
    pub fn open_root(&self, kind: Kind) -> SpanGuard<'_> {
        let guard = self.open_top(kind, NO_EVENT);
        self.root.store(guard.index, Ordering::Relaxed);
        guard
    }

    /// Take every recorded span, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("tracer lock poisoned"))
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
    count: u32,
}

impl SpanGuard<'_> {
    pub fn set_count(&mut self, count: usize) {
        self.count = count as u32;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        // Guards are scoped, so the span closing is the top of the stack.
        STACK.with(|s| s.borrow_mut().pop());
        let _ = self.tracer.root.compare_exchange(
            self.index,
            NONE,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        if let Ok(mut spans) = self.tracer.spans.lock() {
            if let Some(span) = spans.get_mut(self.index as usize) {
                span.end_ns = end_ns;
                span.count = self.count;
            }
        }
    }
}

/// A timing decorator around one session's advisor: every analyze and
/// feedback call becomes a span carrying the session label and event id.
pub struct TimedAdvisor {
    inner: Box<dyn IndexAdvisor + Send>,
    tracer: Arc<Tracer>,
    label: u16,
    tenant: u32,
    /// Events this session has seen: the position of the next one.
    position: u64,
}

impl TimedAdvisor {
    pub fn new(
        inner: Box<dyn IndexAdvisor + Send>,
        tracer: Arc<Tracer>,
        label: u16,
        tenant: u32,
    ) -> Self {
        Self {
            inner,
            tracer,
            label,
            tenant,
            position: 0,
        }
    }

    fn next_event(&mut self) -> u64 {
        let event = (u64::from(self.tenant) << 32) | self.position;
        self.position += 1;
        event
    }
}

impl IndexAdvisor for TimedAdvisor {
    fn analyze_query(&mut self, stmt: &Statement) {
        let event = self.next_event();
        let _span = self.tracer.open(Kind::Analyze, self.label, event);
        self.inner.analyze_query(stmt);
    }

    fn recommend(&self) -> IndexSet {
        self.inner.recommend()
    }

    fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        let event = self.next_event();
        let _span = self.tracer.open(Kind::Feedback, self.label, event);
        self.inner.feedback(positive, negative);
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn safety_fallbacks(&self) -> u64 {
        self.inner.safety_fallbacks()
    }
}

/// A timing environment around a session's [`TenantEnv`]: what-if calls and
/// IBG builds become spans.  `ibg` builds through
/// [`IndexBenefitGraph::build`] over this environment's own `whatif` (the
/// trait default, and `TenantEnv`'s path when IBG reuse is off), so what-if
/// spans nest under IBG spans.
#[derive(Clone)]
pub struct TimedEnv {
    inner: TenantEnv,
    tracer: Arc<Tracer>,
}

impl TimedEnv {
    pub fn new(inner: TenantEnv, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl TuningEnv for TimedEnv {
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        let _span = self.tracer.open(Kind::Whatif, 0, NO_EVENT);
        self.inner.whatif(stmt, config)
    }

    fn ibg(&self, stmt: &Statement, relevant: IndexSet) -> SharedIbg {
        let mut span = self.tracer.open(Kind::Ibg, 0, NO_EVENT);
        let graph = IndexBenefitGraph::build(relevant, |cfg| self.whatif(stmt, cfg));
        span.set_count(graph.node_count());
        SharedIbg::fresh(graph)
    }

    fn create_cost(&self, id: IndexId) -> f64 {
        self.inner.create_cost(id)
    }

    fn drop_cost(&self, id: IndexId) -> f64 {
        self.inner.drop_cost(id)
    }

    fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        self.inner.transition_cost(from, to)
    }

    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        self.inner.extract_candidates(stmt)
    }

    fn describe_index(&self, id: IndexId) -> String {
        self.inner.describe_index(id)
    }
}

/// Self time of every span: its duration minus the durations of its
/// children.  Children of one span never overlap (every layer below a poll
/// round runs on the round's single worker), so their sum is the part of the
/// parent's interval they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NONE {
            child[span.parent as usize] += span.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}
