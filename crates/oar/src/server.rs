//! The OAR server: submission, planning, lifecycle, status queries.
//!
//! Scheduling is FCFS with conservative backfilling over per-node
//! reservation timelines: each waiting job is planned at the earliest
//! instant where its resource request is satisfiable given existing
//! reservations, and the reservation is kept (never re-planned) so later
//! jobs can backfill around it.
//!
//! Two queries matter to the paper's external test scheduler (slide 17):
//! "are this request's resources available *right now*?" and "did the job I
//! just submitted actually start immediately?" — both are first-class here.

use crate::ast::{Count, Expr, Level, RequestGroup, ResourceRequest};
use crate::eval::eval;
use crate::gantt::{EndIndex, NodeTimeline};
use crate::job::{Job, JobId, JobKind, JobState, Queue};
// detlint: allow(no-unordered-iteration) -- HashMap/HashSet here back the match cache and waiting-set membership test only; neither is ever iterated
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, RwLock};
use ttt_refapi::{all_properties, PropertyMap, TestbedDescription};
use ttt_sim::{Buggify, EventQueue, SimDuration, SimTime};
use ttt_testbed::{ClusterId, NodeId, Testbed};

/// OAR node states (slide 21's `oarstate` family checks these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Available for scheduling.
    Alive,
    /// Administratively removed (maintenance).
    Absent,
    /// Failed a health check; excluded until re-verified.
    Suspected,
    /// Hardware dead.
    Dead,
}

/// Errors returned at submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No combination of testbed resources can ever satisfy the request.
    Unsatisfiable,
    /// The request is structurally invalid (e.g. zero nodes).
    InvalidRequest(String),
    /// Transient refusal (buggify chaos): the server or gateway dropped
    /// the submission. Retrying later succeeds — callers treat it like any
    /// other failed submission (users move on, the campaign backs off).
    TransientlyRefused,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Unsatisfiable => f.write_str("request can never be satisfied"),
            SubmitError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            SubmitError::TransientlyRefused => f.write_str("submission transiently refused"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug, Clone, Copy)]
enum OarEvent {
    JobShouldStart(JobId),
    JobShouldEnd(JobId),
}

/// The immutable resource database a server (or a whole federation of
/// per-site servers) plans against: node properties from the Reference
/// API, the `ClusterId` index space, and the per-filter match-set cache.
///
/// The database is loaded once and never mutated afterwards (the
/// *description* drifts, the DB does not — that inconsistency is the
/// paper's subject), so a federation shares one `Arc<ResourceDb>` across
/// every site's server instead of cloning 894 property maps per domain.
/// `Arc` (not `Rc`) and an `RwLock`ed match cache (not a `RefCell`) keep
/// the database `Send + Sync`, so a campaign that owns it can be built and
/// run on any worker thread of a seed fan-out. A fill computes the same
/// value for the same filter, so even a racing double-insert would be
/// value-deterministic.
/// Liveness and reservations are per-server state, filtered per query.
pub struct ResourceDb {
    /// Host-name-keyed properties from the Reference API.
    props: Vec<PropertyMap>,
    /// Owning cluster per node. The per-cluster caches are indexed by
    /// `ClusterId` directly (dense copy type), so the per-node hot paths
    /// never hash a cluster-name string.
    cluster_of_node: Vec<ClusterId>,
    /// Cluster names in `ClusterId` order (index space of the caches).
    cluster_names: Vec<String>,
    /// Cluster name → id, used once when resolving a filter's string
    /// cluster reference; everything downstream carries the `ClusterId`.
    cluster_ids: BTreeMap<String, ClusterId>,
    /// Node ids per cluster (`ClusterId`-indexed), in node order.
    nodes_of_cluster: Vec<Vec<NodeId>>,
    /// All node ids (scan fallback for cluster-agnostic filters).
    all_nodes: Vec<NodeId>,
    /// Cached match-sets: filter → nodes whose properties satisfy it.
    /// Property-only (state filtered per query), hence valid across every
    /// domain sharing the database.
    // detlint: allow(no-unordered-iteration) -- lookup-only cache on the placement hot path (Expr is not Ord); never iterated, so its order cannot leak
    match_cache: RwLock<HashMap<Expr, Arc<Vec<NodeId>>>>,
}

impl ResourceDb {
    /// Load the database from a testbed and its published description.
    pub fn load(tb: &Testbed, desc: &TestbedDescription) -> Self {
        let by_name = all_properties(desc);
        let mut props = Vec::with_capacity(tb.nodes().len());
        let mut cluster_of_node = Vec::with_capacity(tb.nodes().len());
        for node in tb.nodes() {
            props.push(by_name.get(&node.name).cloned().unwrap_or_default());
            cluster_of_node.push(node.cluster);
        }
        // The testbed's ClusterIds are dense, so they ARE the cache index
        // space — no separate interning pass.
        ResourceDb {
            props,
            cluster_of_node,
            cluster_names: tb.clusters().iter().map(|c| c.name.clone()).collect(),
            cluster_ids: tb
                .clusters()
                .iter()
                .map(|c| (c.name.clone(), c.id))
                .collect(),
            nodes_of_cluster: tb.clusters().iter().map(|c| c.nodes.clone()).collect(),
            all_nodes: (0..tb.nodes().len()).map(NodeId::from).collect(),
            // detlint: allow(no-unordered-iteration) -- see the field: lookup-only cache, never iterated
            match_cache: RwLock::new(HashMap::new()),
        }
    }

    /// Number of nodes in the database.
    pub fn node_count(&self) -> usize {
        self.all_nodes.len()
    }

    /// The nodes whose (immutable) properties satisfy `filter`, cached
    /// per distinct filter: the first query pays one scan + eval pass,
    /// every later query is a hash lookup. Node order is preserved.
    fn matching_nodes(&self, filter: &Expr) -> Arc<Vec<NodeId>> {
        if let Some(hit) = self.match_cache.read().expect("match cache").get(filter) {
            return Arc::clone(hit);
        }
        let set: Arc<Vec<NodeId>> = Arc::new(
            self.scan_range(filter)
                .iter()
                .copied()
                .filter(|n| eval(filter, &self.props[n.index()]))
                .collect(),
        );
        self.match_cache
            .write()
            .expect("match cache")
            .insert(filter.clone(), Arc::clone(&set));
        set
    }

    /// The node ids a filter can possibly match: its implied cluster's
    /// nodes, or every node when the filter may span clusters.
    fn scan_range(&self, filter: &Expr) -> &[NodeId] {
        match filter
            .implied_cluster()
            .and_then(|name| self.cluster_ids.get(name))
        {
            Some(&c) => &self.nodes_of_cluster[c.index()],
            None => &self.all_nodes,
        }
    }
}

/// The OAR server.
pub struct OarServer {
    /// The shared immutable resource database.
    db: Arc<ResourceDb>,
    node_states: Vec<NodeState>,
    timelines: Vec<NodeTimeline>,
    /// Per-cluster cache of upcoming reservation ends — the planner's
    /// candidate instants — invalidated on reserve/release/truncate.
    ends: EndIndex,
    jobs: BTreeMap<JobId, Job>,
    /// Jobs currently in `Waiting` state, FCFS order. Cancellation removes
    /// from `waiting_set` only; stale deque entries are skipped lazily, so
    /// no O(n) `retain` runs per job.
    waiting: VecDeque<JobId>,
    // detlint: allow(no-unordered-iteration) -- hot membership test mirroring `waiting` (which owns the order); never iterated
    waiting_set: HashSet<JobId>,
    /// Scratch deque reused by scheduling passes.
    waiting_scratch: VecDeque<JobId>,
    next_job: u64,
    events: EventQueue<OarEvent>,
    now: SimTime,
    /// Planning horizon: jobs not placeable within this window stay Waiting.
    horizon: SimDuration,
    /// Last instant up to which horizon-entry re-planning was checked.
    last_replan_check: SimTime,
    /// Last reservation-history garbage collection.
    last_gc: SimTime,
    /// Whether this server's OAR *process* is accepting calls. A crashed
    /// process refuses submissions and placement probes, but the nodes
    /// underneath stay alive — deliberately distinct from a site blackout,
    /// where `alive_nodes()` drops to zero.
    process_up: bool,
    /// Chaos hook: when armed, a submission can be transiently refused.
    /// Off by default; rate 0 keeps unarmed campaigns byte-identical.
    buggify: Buggify,
    /// Monotone count of submission attempts — the rng-free buggify salt.
    /// A refused submission retried later draws a fresh salt, so chaos
    /// delays work but can never starve it.
    submit_attempts: u64,
}

impl OarServer {
    /// Build a server for a testbed, loading properties from the Reference
    /// API description (slide 7: "OAR database filled from Reference API").
    pub fn new(tb: &Testbed, desc: &TestbedDescription) -> Self {
        Self::with_db(Arc::new(ResourceDb::load(tb, desc)))
    }

    /// Build a server over an already-loaded (possibly shared) resource
    /// database — what a federation does once per site.
    pub fn with_db(db: Arc<ResourceDb>) -> Self {
        let n = db.node_count();
        OarServer {
            ends: EndIndex::new(db.cluster_names.len()),
            db,
            node_states: vec![NodeState::Alive; n],
            timelines: (0..n).map(|_| NodeTimeline::new()).collect(),
            jobs: BTreeMap::new(),
            waiting: VecDeque::new(),
            // detlint: allow(no-unordered-iteration) -- see the field: membership only
            waiting_set: HashSet::new(),
            waiting_scratch: VecDeque::new(),
            next_job: 1,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimDuration::from_days(7),
            last_replan_check: SimTime::ZERO,
            last_gc: SimTime::ZERO,
            process_up: true,
            buggify: Buggify::off(),
            submit_attempts: 0,
        }
    }

    /// Arm (or disarm) the submission chaos hook. The campaign driver
    /// fans this out to every domain's server at construction.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// Whether the OAR server process itself is up (accepting calls).
    pub fn process_up(&self) -> bool {
        self.process_up
    }

    /// Flip the server-process liveness flag. Already-booked reservations
    /// and running jobs keep progressing — only *new* interactions
    /// (submission, placement probes) are refused while down, matching a
    /// daemon crash that leaves the resource state on disk intact.
    pub fn set_process_up(&mut self, up: bool) {
        self.process_up = up;
    }

    /// Current virtual time of the server.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// All jobs ever submitted, by id.
    pub fn jobs(&self) -> &BTreeMap<JobId, Job> {
        &self.jobs
    }

    /// One job.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// The resource-database properties of one node (as loaded from the
    /// Reference API). The `oarproperties` test family audits these.
    pub fn properties(&self, node: NodeId) -> &PropertyMap {
        &self.db.props[node.index()]
    }

    /// Cluster names in the dense index order used by the planner caches.
    pub fn cluster_names(&self) -> &[String] {
        &self.db.cluster_names
    }

    /// Per-node state.
    pub fn node_state(&self, node: NodeId) -> NodeState {
        self.node_states[node.index()]
    }

    /// Set a node's administrative state (Absent/Suspected handling).
    pub fn set_node_state(&mut self, node: NodeId, state: NodeState) {
        self.node_states[node.index()] = state;
    }

    /// Synchronize node states with testbed reality: dead hardware becomes
    /// `Dead`, previously-dead-now-repaired hardware returns to `Alive`.
    /// Running jobs on newly dead nodes fail.
    ///
    /// Full-testbed scan; orchestrators that track which nodes flipped
    /// should call [`OarServer::sync_dirty_nodes`] with the testbed's
    /// alive-dirty set instead.
    pub fn sync_node_states(&mut self, tb: &Testbed) {
        let all: Vec<NodeId> = tb.nodes().iter().map(|n| n.id).collect();
        self.sync_nodes_inner(tb, &all);
        self.schedule();
    }

    /// Diff-based sync: reconcile only `dirty` (nodes whose alive flag
    /// flipped since the last sync, from [`Testbed::take_alive_dirty`]).
    /// No-op — not even a scheduling pass — when `dirty` is empty.
    pub fn sync_dirty_nodes(&mut self, tb: &Testbed, dirty: &[NodeId]) {
        if dirty.is_empty() {
            return;
        }
        self.sync_nodes_inner(tb, dirty);
        self.schedule();
    }

    fn sync_nodes_inner(&mut self, tb: &Testbed, nodes: &[NodeId]) {
        let mut to_fail = Vec::new();
        for &id in nodes {
            let idx = id.index();
            // Effective reachability: hardware death and site power
            // outages are indistinguishable from the server's viewpoint.
            let alive = tb.node_alive(id);
            match (alive, self.node_states[idx]) {
                (false, NodeState::Dead) => {}
                (false, _) => {
                    self.node_states[idx] = NodeState::Dead;
                    if let Some(r) = self.timelines[idx].active_at(self.now) {
                        to_fail.push(r.job);
                    }
                }
                (true, NodeState::Dead) => self.node_states[idx] = NodeState::Alive,
                (true, _) => {}
            }
        }
        for job in to_fail {
            self.fail_job(job);
        }
    }

    /// Number of nodes busy (running a job) right now.
    pub fn busy_nodes(&self) -> usize {
        self.timelines
            .iter()
            .filter(|tl| tl.busy_at(self.now))
            .count()
    }

    /// Number of nodes currently in the `Alive` state.
    pub fn alive_nodes(&self) -> usize {
        self.node_states
            .iter()
            .filter(|s| matches!(s, NodeState::Alive))
            .count()
    }

    /// Fraction of alive nodes currently busy.
    pub fn utilization(&self) -> f64 {
        let alive = self.alive_nodes();
        if alive == 0 {
            0.0
        } else {
            self.busy_nodes() as f64 / alive as f64
        }
    }

    /// Number of jobs currently waiting — the queue-depth view a campaign
    /// snapshot captures. O(1): `waiting_set` holds exactly the live
    /// waiting ids, while the deque may carry stale entries.
    pub fn waiting_count(&self) -> usize {
        self.waiting_set.len()
    }

    /// Jobs currently waiting (unplanned), FCFS order.
    pub fn waiting_jobs(&self) -> Vec<JobId> {
        self.waiting
            .iter()
            .filter(|id| self.waiting_set.contains(id))
            .copied()
            .collect()
    }

    /// The next instant at which this server's state can change on its own:
    /// the earliest pending job start/end event, or the instant a
    /// beyond-horizon reservation end slides into the planning window and
    /// re-planning of waiting jobs becomes worthwhile. `None` when nothing
    /// is pending — an event-driven orchestrator can skip ahead freely.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let replan = if self.waiting_set.is_empty() {
            None
        } else {
            // End `e` enters the horizon at `e - horizon`.
            self.ends
                .first_beyond(self.last_replan_check + self.horizon)
                .map(|e| e - self.horizon)
        };
        match (self.events.peek_time(), replan) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Jobs currently running.
    pub fn running_jobs(&self) -> Vec<JobId> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect()
    }

    /// Submit a job. It will be planned at the next scheduling pass (which
    /// runs immediately).
    pub fn submit(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: ResourceRequest,
    ) -> Result<JobId, SubmitError> {
        // Buggify: the server transiently refuses a submission (dropped
        // RPC, briefly saturated daemon). Hashed from a monotone attempt
        // counter — no RNG draw, identical across engines, and a retry
        // gets a fresh salt. User arrivals count it as a rejection; the
        // campaign's test path marks the build unstable and backs off.
        self.submit_attempts += 1;
        if self.buggify.fire_hashed("oar-submit", self.submit_attempts) {
            return Err(SubmitError::TransientlyRefused);
        }
        self.validate(&request)?;
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                user: user.to_string(),
                queue,
                kind,
                request,
                state: JobState::Waiting,
                submitted_at: self.now,
                scheduled_start: None,
                started_at: None,
                ended_at: None,
                assigned: Vec::new(),
            },
        );
        self.waiting.push_back(id);
        self.waiting_set.insert(id);
        self.schedule();
        Ok(id)
    }

    /// Would `request` start immediately if submitted right now? Returns the
    /// assignment without booking anything. This is the availability check
    /// the external test scheduler polls before triggering a build.
    pub fn immediate_assignment(&self, request: &ResourceRequest) -> Option<Vec<NodeId>> {
        self.find_assignment(request, self.now)
    }

    /// Whether this server's resources can *ever* satisfy `request`
    /// (ignoring current reservations). A federation uses this to decide
    /// which scheduling domain a request may queue on.
    pub fn can_satisfy(&self, request: &ResourceRequest) -> bool {
        self.validate(request).is_ok()
    }

    /// Cancel a job (waiting, scheduled or running).
    pub fn cancel(&mut self, id: JobId) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        if job.state.is_final() {
            return false;
        }
        let was_active = matches!(job.state, JobState::Running | JobState::Scheduled);
        if job.state == JobState::Waiting {
            // The deque entry goes stale and is skipped lazily.
            self.waiting_set.remove(&id);
        }
        job.state = JobState::Canceled;
        job.ended_at = Some(self.now);
        let assigned = job.assigned.clone();
        if was_active {
            for n in assigned {
                if let Some(end) = self.timelines[n.index()].end_of(id) {
                    self.ends.remove(self.db.cluster_of_node[n.index()].index(), end);
                }
                self.timelines[n.index()].release(id);
            }
        }
        self.schedule();
        true
    }

    /// A running job finished early (tests usually do).
    pub fn complete_early(&mut self, id: JobId) -> bool {
        let now = self.now;
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        if job.state != JobState::Running {
            return false;
        }
        job.state = JobState::Terminated;
        job.ended_at = Some(now);
        let assigned = job.assigned.clone();
        for n in assigned {
            let cluster = self.db.cluster_of_node[n.index()].index();
            let old = self.timelines[n.index()].end_of(id);
            self.timelines[n.index()].truncate(id, now);
            match (old, self.timelines[n.index()].end_of(id)) {
                (Some(from), Some(to)) if from != to => self.ends.move_end(cluster, from, to),
                (Some(from), None) => self.ends.remove(cluster, from),
                _ => {}
            }
        }
        self.schedule();
        true
    }

    fn fail_job(&mut self, id: JobId) {
        let now = self.now;
        if let Some(job) = self.jobs.get_mut(&id) {
            if job.state.is_final() {
                return;
            }
            if job.state == JobState::Waiting {
                self.waiting_set.remove(&id);
            }
            job.state = JobState::Error;
            job.ended_at = Some(now);
            let assigned = job.assigned.clone();
            for n in assigned {
                if let Some(end) = self.timelines[n.index()].end_of(id) {
                    self.ends.remove(self.db.cluster_of_node[n.index()].index(), end);
                }
                self.timelines[n.index()].release(id);
                self.timelines[n.index()].truncate(id, now);
            }
        }
    }

    /// Advance virtual time to `to`, firing job starts/ends on the way.
    pub fn advance(&mut self, to: SimTime) {
        assert!(to >= self.now, "time cannot go backwards");
        while let Some((t, ev)) = self.events.pop_due(to) {
            self.now = t;
            match ev {
                OarEvent::JobShouldStart(id) => self.start_job(id),
                OarEvent::JobShouldEnd(id) => {
                    let running = self
                        .jobs
                        .get(&id)
                        .map(|j| j.state == JobState::Running)
                        .unwrap_or(false);
                    if running {
                        let now = self.now;
                        if let Some(job) = self.jobs.get_mut(&id) {
                            job.state = JobState::Terminated;
                            job.ended_at = Some(now);
                        }
                        self.schedule();
                    }
                }
            }
        }
        self.now = to;
        // A reservation end sliding into the planning horizon can unblock a
        // job that was unplaceable on every earlier pass: re-plan exactly
        // when one enters the window.
        if !self.waiting_set.is_empty() {
            let prev = self.last_replan_check;
            if self
                .ends
                .first_beyond(prev + self.horizon)
                .is_some_and(|e| e <= to + self.horizon)
            {
                self.schedule();
            }
        }
        self.last_replan_check = to;
        // Daily GC of finished reservations keeps timelines short over
        // months-long campaigns.
        if to.since(self.last_gc) >= SimDuration::from_days(1) {
            self.last_gc = to;
            // Keep a one-minute grace window so `busy_at(now)` queries on
            // just-finished reservations stay accurate.
            let horizon = if to.as_secs() > 60 {
                to - SimDuration::from_secs(60)
            } else {
                SimTime::ZERO
            };
            for tl in &mut self.timelines {
                tl.gc(horizon);
            }
            self.ends.gc(horizon);
        }
    }

    fn start_job(&mut self, id: JobId) {
        let Some(job) = self.jobs.get(&id) else { return };
        if job.state != JobState::Scheduled {
            return;
        }
        // If an assigned node died since planning, the job errors out.
        let dead = job
            .assigned
            .iter()
            .any(|n| !matches!(self.node_states[n.index()], NodeState::Alive));
        if dead {
            self.fail_job(id);
            self.schedule();
            return;
        }
        let now = self.now;
        let walltime = job.request.walltime;
        let job = self.jobs.get_mut(&id).unwrap();
        job.state = JobState::Running;
        job.started_at = Some(now);
        self.events.push(now + walltime, OarEvent::JobShouldEnd(id));
    }

    /// Plan every waiting job (FCFS, conservative backfilling).
    fn schedule(&mut self) {
        // Anything a pass can place is derived from candidates within
        // `now + horizon`; later entries are caught by the re-plan check.
        self.last_replan_check = self.now;
        if self.waiting_set.is_empty() {
            self.waiting.clear();
            return;
        }
        let mut still = std::mem::take(&mut self.waiting_scratch);
        still.clear();
        while let Some(id) = self.waiting.pop_front() {
            if !self.waiting_set.contains(&id) {
                // Cancelled while queued: stale entry.
                continue;
            }
            let request = self.jobs[&id].request.clone();
            if let Some((start, assignment)) = self.earliest_assignment(&request) {
                self.waiting_set.remove(&id);
                let walltime = request.walltime;
                for &n in &assignment {
                    self.timelines[n.index()].reserve(start, walltime, id);
                    self.ends
                        .add(self.db.cluster_of_node[n.index()].index(), start + walltime);
                }
                let job = self.jobs.get_mut(&id).unwrap();
                job.assigned = assignment;
                job.scheduled_start = Some(start);
                job.state = JobState::Scheduled;
                if start == self.now {
                    // Start immediately (same instant) — no event needed,
                    // which keeps `next_event_time` free of stale entries.
                    self.start_job_now(id);
                } else {
                    self.events.push(start, OarEvent::JobShouldStart(id));
                }
            } else {
                // Stays Waiting; re-planned on the next pass.
                still.push_back(id);
            }
        }
        self.waiting_scratch = std::mem::replace(&mut self.waiting, still);
    }

    /// Immediate start path for jobs planned at `now` (avoids waiting for
    /// the event loop when submit+start happen at the same instant).
    fn start_job_now(&mut self, id: JobId) {
        self.start_job(id);
    }

    /// Earliest `(start, assignment)` for a request within the horizon.
    ///
    /// Candidate start instants: now plus every reservation end within the
    /// horizon (a free window can only open when something ends). The ends
    /// come from the [`EndIndex`] cache instead of a scan over every node
    /// timeline, narrowed to the clusters the request can touch: an end on
    /// an unrelated cluster never changes this request's feasibility, and
    /// feasibility between two relevant ends is monotone non-increasing, so
    /// dropping irrelevant instants cannot change the answer.
    fn earliest_assignment(&self, request: &ResourceRequest) -> Option<(SimTime, Vec<NodeId>)> {
        let limit = self.now + self.horizon;
        let mut candidates: Vec<SimTime> = vec![self.now];
        match request.implied_clusters() {
            Some(names) => {
                for name in names {
                    // Unknown cluster names contribute no nodes, hence no
                    // candidate instants either.
                    if let Some(&c) = self.db.cluster_ids.get(name) {
                        self.ends
                            .candidates_into(c.index(), self.now, limit, &mut candidates);
                    }
                }
                candidates.sort_unstable();
                candidates.dedup();
            }
            // Global keys are already ascending and unique, and all > now.
            None => self.ends.global_candidates_into(self.now, limit, &mut candidates),
        }
        for t in candidates {
            if let Some(assignment) = self.find_assignment(request, t) {
                return Some((t, assignment));
            }
        }
        None
    }

    /// Find a full assignment for `request` starting exactly at `start`.
    fn find_assignment(&self, request: &ResourceRequest, start: SimTime) -> Option<Vec<NodeId>> {
        let mut taken: Vec<NodeId> = Vec::new();
        for group in &request.groups {
            let picked = self.find_group(group, start, request.walltime, &taken)?;
            taken.extend(picked);
        }
        Some(taken)
    }

    /// Nodes eligible for a group at `start` for `duration`: alive, match
    /// the filter, free on their timeline, not already taken.
    fn eligible(
        &self,
        filter: &Expr,
        start: SimTime,
        duration: SimDuration,
        taken: &[NodeId],
    ) -> Vec<NodeId> {
        self.db.matching_nodes(filter)
            .iter()
            .copied()
            .filter(|n| matches!(self.node_states[n.index()], NodeState::Alive))
            .filter(|n| !taken.contains(n))
            .filter(|n| self.timelines[n.index()].is_free(start, duration))
            .collect()
    }

    /// All alive nodes matching the filter, regardless of reservations
    /// (used for `ALL` semantics and satisfiability checks).
    fn matching_alive(&self, filter: &Expr, taken: &[NodeId]) -> Vec<NodeId> {
        self.db.matching_nodes(filter)
            .iter()
            .copied()
            .filter(|n| matches!(self.node_states[n.index()], NodeState::Alive))
            .filter(|n| !taken.contains(n))
            .collect()
    }

    fn find_group(
        &self,
        group: &RequestGroup,
        start: SimTime,
        duration: SimDuration,
        taken: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        let eligible = self.eligible(&group.filter, start, duration, taken);
        match group.hierarchy.as_slice() {
            [(Level::Nodes, Count::Exact(n))] => {
                let n = *n as usize;
                (eligible.len() >= n).then(|| eligible[..n].to_vec())
            }
            [(Level::Nodes, Count::All)] => {
                // ALL = every alive node matching the filter must be free.
                let all = self.matching_alive(&group.filter, taken);
                if all.is_empty() {
                    return None;
                }
                let free = all
                    .iter()
                    .all(|n| self.timelines[n.index()].is_free(start, duration));
                free.then_some(all)
            }
            [(Level::Cluster, Count::Exact(c)), (Level::Nodes, count)] => {
                let mut by_cluster: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
                for n in &eligible {
                    by_cluster
                        .entry(self.db.cluster_names[self.db.cluster_of_node[n.index()].index()].as_str())
                        .or_default()
                        .push(*n);
                }
                let mut picked = Vec::new();
                let mut clusters_done = 0usize;
                for (cluster, free_nodes) in &by_cluster {
                    if clusters_done == *c as usize {
                        break;
                    }
                    match count {
                        Count::Exact(n) => {
                            if free_nodes.len() >= *n as usize {
                                picked.extend(&free_nodes[..*n as usize]);
                                clusters_done += 1;
                            }
                        }
                        Count::All => {
                            // Every alive member of this cluster must be
                            // free (intersection computed on the cached
                            // match-set — no ad-hoc filter expression).
                            let members: Vec<NodeId> = self
                                .db
                                .matching_nodes(&group.filter)
                                .iter()
                                .copied()
                                .filter(|n| {
                                    self.db.cluster_names[self.db.cluster_of_node[n.index()].index()]
                                        == *cluster
                                })
                                .filter(|n| {
                                    matches!(self.node_states[n.index()], NodeState::Alive)
                                })
                                .filter(|n| !taken.contains(n))
                                .collect();
                            if !members.is_empty()
                                && members
                                    .iter()
                                    .all(|n| self.timelines[n.index()].is_free(start, duration))
                            {
                                picked.extend(members);
                                clusters_done += 1;
                            }
                        }
                    }
                }
                (clusters_done == *c as usize).then_some(picked)
            }
            // Core/CPU-level or exotic hierarchies: allocate whole nodes
            // for the equivalent node count (at least one).
            other => {
                let needed = group.node_count().unwrap_or(1).max(1) as usize;
                let _ = other;
                (eligible.len() >= needed).then(|| eligible[..needed].to_vec())
            }
        }
    }

    /// Debug/property-test validation: the end-index cache must exactly
    /// mirror a linear scan over every node timeline — same multiset of
    /// reservation ends, globally and per cluster.
    pub fn check_end_index_consistency(&self) -> Result<(), String> {
        let mut want_global: BTreeMap<SimTime, u32> = BTreeMap::new();
        let mut want_cluster: Vec<BTreeMap<SimTime, u32>> =
            vec![BTreeMap::new(); self.db.cluster_names.len()];
        for (i, tl) in self.timelines.iter().enumerate() {
            for r in tl.reservations() {
                *want_global.entry(r.end).or_insert(0) += 1;
                *want_cluster[self.db.cluster_of_node[i].index()]
                    .entry(r.end)
                    .or_insert(0) += 1;
            }
        }
        if self.ends.global_counts() != &want_global {
            return Err(format!(
                "global end-index diverged: cached {:?}, scanned {:?}",
                self.ends.global_counts(),
                want_global
            ));
        }
        for (c, want) in want_cluster.iter().enumerate() {
            if self.ends.cluster_counts(c) != want {
                return Err(format!(
                    "cluster {} ({}) end-index diverged: cached {:?}, scanned {:?}",
                    c,
                    self.db.cluster_names[c],
                    self.ends.cluster_counts(c),
                    want
                ));
            }
        }
        Ok(())
    }

    fn validate(&self, request: &ResourceRequest) -> Result<(), SubmitError> {
        if request.groups.is_empty() {
            return Err(SubmitError::InvalidRequest("no resource groups".into()));
        }
        if request.walltime.is_zero() {
            return Err(SubmitError::InvalidRequest("zero walltime".into()));
        }
        // Satisfiability against the full (unreserved) testbed.
        let mut taken: Vec<NodeId> = Vec::new();
        for group in &request.groups {
            let all = self.matching_alive(&group.filter, &taken);
            let needed = group.node_count().map(|n| n as usize).unwrap_or(1).max(1);
            if all.len() < needed {
                return Err(SubmitError::Unsatisfiable);
            }
            taken.extend(all.into_iter().take(needed));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_refapi::describe;
    use ttt_testbed::TestbedBuilder;

    fn setup() -> (Testbed, OarServer) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let server = OarServer::new(&tb, &desc);
        (tb, server)
    }

    fn nodes_req(filter: Expr, n: u32, hours: u64) -> ResourceRequest {
        ResourceRequest::nodes(filter, n, SimDuration::from_hours(hours))
    }

    #[test]
    fn immediate_start_on_empty_testbed() {
        let (_tb, mut s) = setup();
        let id = s
            .submit("alice", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1))
            .unwrap();
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        assert_eq!(s.job(id).unwrap().assigned.len(), 2);
        assert_eq!(s.busy_nodes(), 2);
    }

    #[test]
    fn job_ends_at_walltime() {
        let (_tb, mut s) = setup();
        let id = s
            .submit("alice", Queue::Default, JobKind::User, nodes_req(Expr::True, 1, 2))
            .unwrap();
        s.advance(SimTime::from_hours(1));
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        s.advance(SimTime::from_hours(3));
        assert_eq!(s.job(id).unwrap().state, JobState::Terminated);
        assert_eq!(s.busy_nodes(), 0);
        assert_eq!(
            s.job(id).unwrap().runtime().unwrap(),
            SimDuration::from_hours(2)
        );
    }

    #[test]
    fn fcfs_queues_when_full() {
        let (_tb, mut s) = setup();
        // Fill the whole testbed (14 nodes).
        let first = s
            .submit("alice", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 2))
            .unwrap();
        let second = s
            .submit("bob", Queue::Default, JobKind::User, nodes_req(Expr::True, 4, 1))
            .unwrap();
        assert_eq!(s.job(first).unwrap().state, JobState::Running);
        // Second is planned for when the first ends.
        let j2 = s.job(second).unwrap();
        assert_eq!(j2.state, JobState::Scheduled);
        assert_eq!(j2.scheduled_start, Some(SimTime::from_hours(2)));
        s.advance(SimTime::from_hours(2));
        assert_eq!(s.job(second).unwrap().state, JobState::Running);
        assert_eq!(
            s.job(second).unwrap().waiting_time().unwrap(),
            SimDuration::from_hours(2)
        );
    }

    #[test]
    fn backfilling_uses_gaps() {
        let (_tb, mut s) = setup();
        // Job A takes all 14 nodes for 2h.
        s.submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 2))
            .unwrap();
        // Job B wants all 14 nodes for 4h → starts at t=2.
        let b = s
            .submit("b", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 4))
            .unwrap();
        assert_eq!(s.job(b).unwrap().scheduled_start, Some(SimTime::from_hours(2)));
        // Job C wants 14 nodes for 1h → must go after B (t=6), FCFS order
        // is preserved because B's reservation is conservative.
        let c = s
            .submit("c", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        assert_eq!(s.job(c).unwrap().scheduled_start, Some(SimTime::from_hours(6)));
    }

    #[test]
    fn cluster_filter_restricts_nodes() {
        let (tb, mut s) = setup();
        let id = s
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("cluster", "alpha"), 2, 1),
            )
            .unwrap();
        let job = s.job(id).unwrap();
        let alpha = tb.cluster_by_name("alpha").unwrap();
        assert!(job.assigned.iter().all(|n| alpha.nodes.contains(n)));
    }

    #[test]
    fn all_nodes_of_cluster() {
        let (tb, mut s) = setup();
        let req = ResourceRequest::all_nodes(
            Expr::eq("cluster", "beta"),
            SimDuration::from_hours(1),
        );
        let id = s.submit("ci", Queue::Admin, JobKind::Test, req).unwrap();
        let beta = tb.cluster_by_name("beta").unwrap();
        assert_eq!(s.job(id).unwrap().assigned.len(), beta.nodes.len());
    }

    #[test]
    fn all_nodes_waits_for_every_member() {
        let (_tb, mut s) = setup();
        // Occupy one beta node for 3 hours.
        s.submit(
            "user",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "beta"), 1, 3),
        )
        .unwrap();
        // ALL-beta request cannot start now.
        let req = ResourceRequest::all_nodes(
            Expr::eq("cluster", "beta"),
            SimDuration::from_hours(1),
        );
        assert!(s.immediate_assignment(&req).is_none());
        let id = s.submit("ci", Queue::Admin, JobKind::Test, req).unwrap();
        assert_eq!(s.job(id).unwrap().state, JobState::Scheduled);
        assert_eq!(
            s.job(id).unwrap().scheduled_start,
            Some(SimTime::from_hours(3))
        );
    }

    #[test]
    fn multi_group_request_spans_clusters() {
        let (tb, mut s) = setup();
        let req = ResourceRequest {
            groups: vec![
                RequestGroup {
                    filter: Expr::eq("cluster", "alpha"),
                    hierarchy: vec![(Level::Nodes, Count::Exact(1))],
                },
                RequestGroup {
                    filter: Expr::eq("cluster", "gamma"),
                    hierarchy: vec![(Level::Nodes, Count::Exact(2))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        let id = s.submit("x", Queue::Default, JobKind::User, req).unwrap();
        let job = s.job(id).unwrap();
        assert_eq!(job.assigned.len(), 3);
        let alpha = tb.cluster_by_name("alpha").unwrap();
        let gamma = tb.cluster_by_name("gamma").unwrap();
        assert_eq!(job.assigned.iter().filter(|n| alpha.nodes.contains(n)).count(), 1);
        assert_eq!(job.assigned.iter().filter(|n| gamma.nodes.contains(n)).count(), 2);
    }

    #[test]
    fn cluster_hierarchy_level() {
        let (_tb, mut s) = setup();
        let req = ResourceRequest {
            groups: vec![RequestGroup {
                filter: Expr::True,
                hierarchy: vec![(Level::Cluster, Count::Exact(2)), (Level::Nodes, Count::Exact(2))],
            }],
            walltime: SimDuration::from_hours(1),
        };
        let id = s.submit("x", Queue::Default, JobKind::User, req).unwrap();
        assert_eq!(s.job(id).unwrap().assigned.len(), 4);
    }

    #[test]
    fn unsatisfiable_is_rejected() {
        let (_tb, mut s) = setup();
        let err = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 1000, 1))
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        let err = s
            .submit(
                "x",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::eq("cluster", "nope"), 1, 1),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
    }

    #[test]
    fn zero_walltime_invalid() {
        let (_tb, mut s) = setup();
        let err = s
            .submit(
                "x",
                Queue::Default,
                JobKind::User,
                ResourceRequest::nodes(Expr::True, 1, SimDuration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidRequest(_)));
    }

    #[test]
    fn cancel_releases_resources() {
        let (_tb, mut s) = setup();
        let id = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 5))
            .unwrap();
        assert_eq!(s.busy_nodes(), 14);
        assert!(s.cancel(id));
        assert_eq!(s.busy_nodes(), 0);
        assert_eq!(s.job(id).unwrap().state, JobState::Canceled);
        assert!(!s.cancel(id)); // idempotent
    }

    #[test]
    fn early_completion_frees_timeline() {
        let (_tb, mut s) = setup();
        let a = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 10))
            .unwrap();
        let b = s
            .submit("y", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        assert_eq!(s.job(b).unwrap().scheduled_start, Some(SimTime::from_hours(10)));
        s.advance(SimTime::from_hours(1));
        assert!(s.complete_early(a));
        // b is still conservatively scheduled at hour 10; but after a new
        // pass triggered by completion, b can be re-planned only if it was
        // Waiting. Conservative backfilling keeps the reservation: verify
        // it still runs at its reserved time.
        s.advance(SimTime::from_hours(10));
        assert_eq!(s.job(b).unwrap().state, JobState::Running);
    }

    #[test]
    fn dead_node_fails_running_job() {
        let (mut tb, mut s) = setup();
        let id = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 5))
            .unwrap();
        let victim = s.job(id).unwrap().assigned[0];
        tb.apply_fault(
            ttt_testbed::FaultKind::NodeDead,
            ttt_testbed::FaultTarget::Node(victim),
            SimTime::ZERO,
        )
        .unwrap();
        s.sync_node_states(&tb);
        assert_eq!(s.job(id).unwrap().state, JobState::Error);
        assert_eq!(s.node_state(victim), NodeState::Dead);
    }

    #[test]
    fn immediate_assignment_does_not_book() {
        let (_tb, s) = setup();
        let req = nodes_req(Expr::True, 3, 1);
        assert!(s.immediate_assignment(&req).is_some());
        assert_eq!(s.busy_nodes(), 0);
    }

    #[test]
    fn cancel_waiting_job_is_lazy_but_correct() {
        let (_tb, mut s) = setup();
        // Fill the testbed far beyond the horizon so followers stay Waiting.
        s.submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 24 * 30))
            .unwrap();
        let b = s
            .submit("b", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        let c = s
            .submit("c", Queue::Default, JobKind::User, nodes_req(Expr::True, 1, 1))
            .unwrap();
        assert_eq!(s.waiting_jobs(), vec![b, c]);
        assert!(s.cancel(b));
        assert_eq!(s.waiting_jobs(), vec![c]);
        assert_eq!(s.job(b).unwrap().state, JobState::Canceled);
    }

    #[test]
    fn next_event_time_tracks_starts_and_ends() {
        let (_tb, mut s) = setup();
        assert_eq!(s.next_event_time(), None);
        let id = s
            .submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 3))
            .unwrap();
        // Job started immediately: next event is its walltime end.
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        assert_eq!(s.next_event_time(), Some(SimTime::from_hours(3)));
    }

    #[test]
    fn replan_happens_when_end_enters_horizon() {
        let (_tb, mut s) = setup();
        // A 10-day job: its end is outside the 7-day planning horizon.
        let long = s
            .submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 240))
            .unwrap();
        assert_eq!(s.job(long).unwrap().state, JobState::Running);
        // A full-testbed follower cannot be planned within the horizon.
        let follower = s
            .submit("b", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        assert_eq!(s.job(follower).unwrap().state, JobState::Waiting);
        // The server knows when re-planning becomes possible: day 10 end
        // enters the 7-day horizon at day 3.
        assert_eq!(
            s.next_event_time(),
            Some(SimTime::from_hours(240) - SimDuration::from_days(7))
        );
        // Advancing past that instant plans the follower at the long job's
        // end, without any other state change having occurred.
        s.advance(SimTime::from_days(4));
        let j = s.job(follower).unwrap();
        assert_eq!(j.state, JobState::Scheduled);
        assert_eq!(j.scheduled_start, Some(SimTime::from_hours(240)));
    }

    #[test]
    fn sync_dirty_nodes_matches_full_sync() {
        let (mut tb, mut s) = setup();
        let id = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 5))
            .unwrap();
        let victim = s.job(id).unwrap().assigned[0];
        tb.apply_fault(
            ttt_testbed::FaultKind::NodeDead,
            ttt_testbed::FaultTarget::Node(victim),
            SimTime::ZERO,
        )
        .unwrap();
        let dirty = tb.take_alive_dirty();
        assert_eq!(dirty, vec![victim]);
        s.sync_dirty_nodes(&tb, &dirty);
        assert_eq!(s.job(id).unwrap().state, JobState::Error);
        assert_eq!(s.node_state(victim), NodeState::Dead);
        // Empty dirty set: nothing to reconcile, nothing changes.
        s.sync_dirty_nodes(&tb, &[]);
        assert_eq!(s.node_state(victim), NodeState::Dead);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let (_tb, mut s) = setup();
        assert_eq!(s.utilization(), 0.0);
        s.submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 7, 1))
            .unwrap();
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }
}
