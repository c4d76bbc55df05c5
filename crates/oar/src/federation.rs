//! Multi-site federation: one OAR server per site, with site-affine
//! placement and saturation spillover.
//!
//! The real testbed is federated — every site runs its own OAR instance
//! over its own clusters, and the campaign driver (like the paper's
//! external scheduler) spreads work across them. This module makes that
//! structure first-class:
//!
//! * each [`SiteDomain`] wraps an [`OarServer`] scoped to one site (remote
//!   nodes are administratively `Absent`, so they are never eligible);
//! * [`Federation::submit`] places a request on its *home* domain (derived
//!   from the request's implied cluster/site, or passed explicitly), and
//!   spills over to a remote domain when the home site cannot start it
//!   immediately but a remote one can;
//! * requests whose groups statically span several sites (the global
//!   kavlan configuration) are *co-allocated*: split into per-site parts
//!   that must all start at the same instant, mirroring `oargridsub`;
//! * [`Federation::next_event_time`] is the earliest pending instant
//!   across every domain's queues, so an event-driven campaign engine can
//!   sleep across the whole federation at once.

use crate::ast::ResourceRequest;
use crate::job::{Job, JobId, JobKind, JobState, Queue};
use crate::server::{NodeState, OarServer, ResourceDb, SubmitError};
use std::collections::BTreeMap;
use std::sync::Arc;
use ttt_refapi::TestbedDescription;
use ttt_sim::{Buggify, SimTime};
use ttt_testbed::{NodeId, ServiceKind, SiteId, Testbed};

/// One site's scheduling domain.
pub struct SiteDomain {
    /// The site this domain schedules.
    pub site: SiteId,
    /// Site name (home-affinity keys are names).
    pub name: String,
    /// The site's own OAR server. Remote nodes are `Absent` here.
    pub oar: OarServer,
}

/// A job handle spanning the federation: one `(domain, job)` part for
/// ordinary jobs, several for co-allocated cross-site jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FedJob {
    /// `(domain index, per-domain job id)` parts, in group order.
    pub parts: Vec<(usize, JobId)>,
}

impl FedJob {
    /// The domain a single-part job ran on (first part for co-allocations).
    pub fn primary_domain(&self) -> usize {
        self.parts[0].0
    }
}

/// Aggregate lifecycle state of a federated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedJobState {
    /// At least one part is still waiting or scheduled.
    Pending,
    /// Every part is running.
    Running,
    /// Every part terminated normally.
    Done,
    /// Some part failed, was cancelled, or is unknown.
    Failed,
}

/// Where [`Federation::place`] decided a request should go.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Starts immediately on this domain.
    Immediate(usize),
    /// Satisfiable on this domain, but must queue.
    Queued(usize),
    /// Cross-site co-allocation: every `(domain, part)` starts immediately.
    Split(Vec<(usize, ResourceRequest)>),
    /// No domain can place it now (cross-site parts not all immediate, or
    /// nothing satisfiable).
    Nowhere,
}

/// Read-only availability view the external scheduler polls: "could this
/// request start right now, given its home site?". Implemented by the
/// single-server world (tests, harnesses) and by the federation.
pub trait AvailabilityProbe {
    /// Whether the request would start immediately if submitted now.
    fn can_start_now(&self, home_site: &str, request: &ResourceRequest) -> bool;
}

impl AvailabilityProbe for OarServer {
    fn can_start_now(&self, _home_site: &str, request: &ResourceRequest) -> bool {
        self.immediate_assignment(request).is_some()
    }
}

impl AvailabilityProbe for Federation {
    fn can_start_now(&self, home_site: &str, request: &ResourceRequest) -> bool {
        let home = self.domain_by_name(home_site);
        self.place_now(home, request).is_some()
    }
}

/// The federated resource layer: every site's OAR server plus placement.
pub struct Federation {
    domains: Vec<SiteDomain>,
    /// Cluster name → owning domain index.
    domain_of_cluster: BTreeMap<String, usize>,
    /// Site name → domain index.
    domain_of_site: BTreeMap<String, usize>,
    /// Jobs placed off their home domain (the spillover counter is an
    /// engine-equivalence observable).
    spillovers: u64,
    /// Spillovers received per domain: `spillovers_in[d]` counts jobs that
    /// landed on domain `d` away from their home site.
    spillovers_in: Vec<u64>,
    /// Cross-site co-allocations booked (`oargridsub`-style splits).
    co_allocations: u64,
    /// Backbone reachability between domains, row-major `n × n`, refreshed
    /// by [`Federation::sync_backbone`]. `None` — the default, and always
    /// the case under the ideal link model — means the backbone is free
    /// and placement ignores it entirely (the historical behavior).
    backbone: Option<Vec<bool>>,
    now: SimTime,
    /// Chaos hook: when armed, the federation gateway can lose a
    /// submission before placement. Off by default.
    buggify: Buggify,
    /// Monotone count of gateway submission attempts (rng-free buggify
    /// salt; retries draw fresh salts — delay, never starvation).
    submit_attempts: u64,
}

impl Federation {
    /// Build one scheduling domain per site of the testbed. Every domain
    /// sees the full node arena (ids stay global) but only its own site's
    /// nodes are schedulable; the rest are `Absent`.
    pub fn new(tb: &Testbed, desc: &TestbedDescription) -> Self {
        // One shared resource database: per-site servers differ only in
        // node state and reservations, never in properties.
        let db = Arc::new(ResourceDb::load(tb, desc));
        let mut domains = Vec::with_capacity(tb.sites().len());
        let mut domain_of_site = BTreeMap::new();
        let mut domain_of_cluster = BTreeMap::new();
        for (i, site) in tb.sites().iter().enumerate() {
            let mut oar = OarServer::with_db(Arc::clone(&db));
            for node in tb.nodes() {
                if node.site != site.id {
                    oar.set_node_state(node.id, NodeState::Absent);
                }
            }
            domain_of_site.insert(site.name.clone(), i);
            for &cid in &site.clusters {
                domain_of_cluster.insert(tb.cluster(cid).name.clone(), i);
            }
            domains.push(SiteDomain {
                site: site.id,
                name: site.name.clone(),
                oar,
            });
        }
        let n = domains.len();
        Federation {
            domains,
            domain_of_cluster,
            domain_of_site,
            spillovers: 0,
            spillovers_in: vec![0; n],
            co_allocations: 0,
            backbone: None,
            now: SimTime::ZERO,
            buggify: Buggify::off(),
            submit_attempts: 0,
        }
    }

    /// Arm (or disarm) chaos on the federation gateway and fan the switch
    /// out to every domain's OAR server. The campaign driver calls this
    /// once at construction; rate 0 keeps everything byte-identical.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
        for d in &mut self.domains {
            d.oar.set_buggify(buggify);
        }
    }

    /// The scheduling domains, in site order.
    pub fn domains(&self) -> &[SiteDomain] {
        &self.domains
    }

    /// One domain.
    pub fn domain(&self, i: usize) -> &SiteDomain {
        &self.domains[i]
    }

    /// Number of domains (= sites).
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the federation has no domains (never true for a built
    /// testbed, but keeps the API honest).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jobs placed off their home domain so far.
    pub fn spillovers(&self) -> u64 {
        self.spillovers
    }

    /// Spillovers received per domain, in site order: how many jobs each
    /// site absorbed away from their home site.
    pub fn spillovers_by_domain(&self) -> &[u64] {
        &self.spillovers_in
    }

    /// Waiting-queue depth per domain, in site order — the per-site view
    /// a campaign snapshot captures for the read plane.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.domains.iter().map(|d| d.oar.waiting_count()).collect()
    }

    /// Cross-site co-allocations booked so far.
    pub fn co_allocations(&self) -> u64 {
        self.co_allocations
    }

    /// Number of domains with no alive node left (blacked-out sites).
    /// A crashed OAR *process* does not count — its nodes are still
    /// powered; see [`Federation::sync_process_liveness`].
    pub fn dead_domains(&self) -> usize {
        self.domains.iter().filter(|d| d.oar.alive_nodes() == 0).count()
    }

    /// Number of domains whose OAR server process is down right now.
    pub fn down_processes(&self) -> usize {
        self.domains.iter().filter(|d| !d.oar.process_up()).count()
    }

    /// Reconcile per-domain OAR process liveness from the testbed's
    /// process registry. A domain whose `oar-server` process is down stops
    /// taking placements and submissions while its nodes stay alive and
    /// its booked jobs keep running — the "site powered but scheduler
    /// unreachable" failure mode, distinct from a site power outage.
    pub fn sync_process_liveness(&mut self, tb: &Testbed) {
        for domain in &mut self.domains {
            domain
                .oar
                .set_process_up(tb.process_up(domain.site, ServiceKind::OarServer));
        }
    }

    /// Refresh the backbone reachability view from the testbed's link
    /// model and partition state. Under the ideal model the view clears to
    /// `None` and placement is byte-identical to a federation that never
    /// called this; under a real model, spillover and co-allocation only
    /// consider domain pairs whose backbone path is usable
    /// ([`Testbed::backbone_reachable`]), so a partition — or a
    /// mostly-dead modelled link — degrades placement instead of being
    /// invisible to it.
    pub fn sync_backbone(&mut self, tb: &Testbed) {
        if tb.link_model().is_ideal() {
            self.backbone = None;
            return;
        }
        let n = self.domains.len();
        let mut matrix = vec![true; n * n];
        for a in 0..n {
            for b in 0..n {
                matrix[a * n + b] =
                    tb.backbone_reachable(self.domains[a].site, self.domains[b].site);
            }
        }
        self.backbone = Some(matrix);
    }

    /// Whether the backbone path between two domains is usable for
    /// placement. Always true with no reachability view installed.
    fn backbone_ok(&self, a: usize, b: usize) -> bool {
        match &self.backbone {
            None => true,
            Some(m) => a == b || m[a * self.domains.len() + b],
        }
    }

    /// The domain owning a site name.
    pub fn domain_by_name(&self, site: &str) -> Option<usize> {
        self.domain_of_site.get(site).copied()
    }

    /// The home domain a request implies: the site owning its implied
    /// cluster, or the site its filter pins via `site='…'`. `None` when
    /// the request is site-agnostic (plain `nodes=N` user jobs).
    pub fn home_of_request(&self, request: &ResourceRequest) -> Option<usize> {
        for group in &request.groups {
            if let Some(cluster) = group.filter.implied_cluster() {
                if let Some(&d) = self.domain_of_cluster.get(cluster) {
                    return Some(d);
                }
            }
            if let Some(site) = group.filter.implied_eq("site") {
                if let Some(&d) = self.domain_of_site.get(site) {
                    return Some(d);
                }
            }
        }
        None
    }

    /// The domain a request group must run on, if statically pinned.
    fn group_domain(&self, group: &crate::ast::RequestGroup) -> Option<usize> {
        if let Some(cluster) = group.filter.implied_cluster() {
            return self.domain_of_cluster.get(cluster).copied();
        }
        group
            .filter
            .implied_eq("site")
            .and_then(|site| self.domain_of_site.get(site).copied())
    }

    /// Split a request whose groups span several sites into per-domain
    /// parts. `None` unless every group is pinned and ≥ 2 domains appear.
    fn split_by_site(&self, request: &ResourceRequest) -> Option<Vec<(usize, ResourceRequest)>> {
        let mut parts: Vec<(usize, ResourceRequest)> = Vec::new();
        for group in &request.groups {
            let d = self.group_domain(group)?;
            match parts.iter_mut().find(|(pd, _)| *pd == d) {
                Some((_, part)) => part.groups.push(group.clone()),
                None => parts.push((
                    d,
                    ResourceRequest {
                        groups: vec![group.clone()],
                        walltime: request.walltime,
                    },
                )),
            }
        }
        (parts.len() >= 2).then_some(parts)
    }

    /// Decide where `request` goes, without booking anything.
    ///
    /// Deterministic policy: the home domain wins when it can start the
    /// request immediately; otherwise the first remote domain (ascending
    /// site order) that can start it now takes it (spillover); otherwise
    /// the request queues on its home domain when satisfiable there, else
    /// on the first domain that could ever satisfy it. Requests statically
    /// spanning several sites are co-allocated and only place when every
    /// part can start at this instant.
    pub fn place(&self, home: Option<usize>, request: &ResourceRequest) -> Placement {
        if let Some(now) = self.place_now(home, request) {
            return now;
        }
        if request.groups.len() > 1 && self.split_by_site(request).is_some() {
            // Cross-site co-allocations never queue (oargridsub semantics:
            // all parts or nothing, now).
            return Placement::Nowhere;
        }
        for &d in &self.candidate_order(home) {
            if self.domains[d].oar.process_up() && self.domains[d].oar.can_satisfy(request) {
                return Placement::Queued(d);
            }
        }
        Placement::Nowhere
    }

    /// The immediate-start part of [`Federation::place`]: `Some` iff the
    /// request (or every part of a cross-site split) can start at this
    /// instant. The external scheduler's availability probe only needs
    /// this answer, so it skips the queued-fallback validation sweep that
    /// `place` would run across every domain on a saturated testbed.
    fn place_now(&self, home: Option<usize>, request: &ResourceRequest) -> Option<Placement> {
        if request.groups.len() > 1 {
            if let Some(parts) = self.split_by_site(request) {
                // Every part's scheduling process must be reachable; a
                // co-allocation cannot book around a crashed domain.
                if parts.iter().any(|(d, _)| !self.domains[*d].oar.process_up()) {
                    return None;
                }
                // All parts must be mutually reachable over the backbone —
                // a co-allocation spanning a partition can never start.
                for (i, &(a, _)) in parts.iter().enumerate() {
                    for &(b, _) in &parts[i + 1..] {
                        if !self.backbone_ok(a, b) {
                            return None;
                        }
                    }
                }
                let all_immediate = parts
                    .iter()
                    .all(|(d, part)| self.domains[*d].oar.immediate_assignment(part).is_some());
                return all_immediate.then_some(Placement::Split(parts));
            }
        }
        // Domains whose OAR process is down refuse probes outright.
        self.candidate_order(home)
            .into_iter()
            .filter(|&d| self.domains[d].oar.process_up())
            .find(|&d| self.domains[d].oar.immediate_assignment(request).is_some())
            .map(Placement::Immediate)
    }

    /// Home-first, then every other domain in ascending site order. With a
    /// backbone reachability view installed and a known home, remote
    /// domains the home site cannot reach are not candidates — a job
    /// cannot spill over (or queue remotely) across a dead backbone path.
    fn candidate_order(&self, home: Option<usize>) -> Vec<usize> {
        let mut order: Vec<usize> = Vec::with_capacity(self.domains.len());
        if let Some(h) = home {
            if h < self.domains.len() {
                order.push(h);
            }
        }
        for d in 0..self.domains.len() {
            if Some(d) != home && home.is_none_or(|h| self.backbone_ok(h, d)) {
                order.push(d);
            }
        }
        order
    }

    /// Submit a request: place it (home affinity + spillover), then book
    /// it on the chosen domain(s).
    ///
    /// The chosen domain's own scheduler re-derives the assignment that
    /// `place` probed — both run at the same instant so they agree, and
    /// keeping the booking path identical to a direct `OarServer::submit`
    /// is what the engine-equivalence and conservation oracles lean on.
    /// The duplicated planning pass is the accepted price of placement
    /// (gated by the `campaign/multi_site/one_day` bench criterion).
    pub fn submit(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: ResourceRequest,
        home: Option<usize>,
    ) -> Result<FedJob, SubmitError> {
        // Buggify: the grid gateway loses the submission before placement
        // (the oargridsub wrapper's RPC never reaches a server). Hashed
        // from a monotone attempt counter — engine-order independent, and
        // a retried submission draws a fresh salt.
        self.submit_attempts += 1;
        if self.buggify.fire_hashed("fed-submit", self.submit_attempts) {
            return Err(SubmitError::TransientlyRefused);
        }
        let home = home.or_else(|| self.home_of_request(&request));
        match self.place(home, &request) {
            Placement::Immediate(d) | Placement::Queued(d) => {
                if home.is_some_and(|h| h != d) {
                    self.spillovers += 1;
                    self.spillovers_in[d] += 1;
                }
                let id = self.domains[d].oar.submit(user, queue, kind, request)?;
                Ok(FedJob { parts: vec![(d, id)] })
            }
            Placement::Split(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                for (d, part) in parts {
                    match self.domains[d].oar.submit(user, queue, kind, part) {
                        Ok(id) => out.push((d, id)),
                        Err(e) => {
                            // Roll the already-booked parts back; a
                            // half-placed co-allocation must not linger.
                            for &(pd, pid) in &out {
                                self.domains[pd].oar.cancel(pid);
                            }
                            return Err(e);
                        }
                    }
                }
                self.co_allocations += 1;
                Ok(FedJob { parts: out })
            }
            Placement::Nowhere => Err(SubmitError::Unsatisfiable),
        }
    }

    /// Aggregate state of a federated job.
    pub fn job_state(&self, job: &FedJob) -> FedJobState {
        let mut running = 0;
        let mut done = 0;
        for &(d, id) in &job.parts {
            match self.domains[d].oar.job(id).map(|j| j.state) {
                Some(JobState::Running) => running += 1,
                Some(JobState::Terminated) => done += 1,
                Some(JobState::Waiting) | Some(JobState::Scheduled) => {}
                Some(JobState::Error) | Some(JobState::Canceled) | None => {
                    return FedJobState::Failed
                }
            }
        }
        let n = job.parts.len();
        if running == n {
            FedJobState::Running
        } else if done == n {
            FedJobState::Done
        } else if running + done == n {
            // Mixed running/terminated parts count as still running — the
            // co-allocation is over only when every part is.
            FedJobState::Running
        } else {
            FedJobState::Pending
        }
    }

    /// All nodes assigned to a federated job, parts concatenated.
    pub fn assigned_nodes(&self, job: &FedJob) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &(d, id) in &job.parts {
            if let Some(j) = self.domains[d].oar.job(id) {
                out.extend(j.assigned.iter().copied());
            }
        }
        out
    }

    /// Complete every running part early. Returns true if any part changed.
    pub fn complete_early(&mut self, job: &FedJob) -> bool {
        let mut any = false;
        for &(d, id) in &job.parts {
            any |= self.domains[d].oar.complete_early(id);
        }
        any
    }

    /// Cancel every part. Returns true if any part changed.
    pub fn cancel(&mut self, job: &FedJob) -> bool {
        let mut any = false;
        for &(d, id) in &job.parts {
            any |= self.domains[d].oar.cancel(id);
        }
        any
    }

    /// Advance every domain to `to`.
    pub fn advance(&mut self, to: SimTime) {
        for d in &mut self.domains {
            d.oar.advance(to);
        }
        self.now = to;
    }

    /// Earliest pending instant across all domains' queues.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.domains
            .iter()
            .filter_map(|d| d.oar.next_event_time())
            .min()
    }

    /// Reconcile node liveness, handing each domain only its own site's
    /// flipped nodes (a remote flip never concerns a domain — its remote
    /// nodes are `Absent` and must stay so).
    pub fn sync_dirty_nodes(&mut self, tb: &Testbed, dirty: &[NodeId]) {
        if dirty.is_empty() {
            return;
        }
        let mut scratch: Vec<NodeId> = Vec::with_capacity(dirty.len());
        for domain in &mut self.domains {
            scratch.clear();
            scratch.extend(
                dirty
                    .iter()
                    .copied()
                    .filter(|&n| tb.node(n).site == domain.site),
            );
            domain.oar.sync_dirty_nodes(tb, &scratch);
        }
    }

    /// Fraction of alive nodes busy across the whole federation.
    pub fn utilization(&self) -> f64 {
        let mut busy = 0usize;
        let mut alive = 0usize;
        for d in &self.domains {
            busy += d.oar.busy_nodes();
            alive += d.oar.alive_nodes();
        }
        if alive == 0 {
            0.0
        } else {
            busy as f64 / alive as f64
        }
    }

    /// Iterate every job of every domain, in `(domain, job)` order.
    pub fn all_jobs(&self) -> impl Iterator<Item = (usize, &Job)> {
        self.domains
            .iter()
            .enumerate()
            .flat_map(|(i, d)| d.oar.jobs().values().map(move |j| (i, j)))
    }
}

// Compile-time guard: whole campaigns are the unit of parallel work (swarm
// seeds, fuzz batches), and a campaign owns its federation, so these must
// stay `Send + Sync` for a caller to build or run a campaign on a worker
// thread — a reintroduced `Rc`/`RefCell` fails to build right here.
fn _assert_send<T: Send>() {}
fn _assert_sync<T: Sync>() {}
const _: [fn(); 6] = [
    _assert_send::<ResourceDb>,
    _assert_sync::<ResourceDb>,
    _assert_send::<OarServer>,
    _assert_sync::<OarServer>,
    _assert_send::<Federation>,
    _assert_sync::<Federation>,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use ttt_refapi::describe;
    use ttt_sim::SimDuration;
    use ttt_testbed::{FaultKind, FaultTarget, TestbedBuilder};

    fn setup() -> (Testbed, Federation) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let fed = Federation::new(&tb, &desc);
        (tb, fed)
    }

    fn nodes_req(filter: Expr, n: u32, hours: u64) -> ResourceRequest {
        ResourceRequest::nodes(filter, n, SimDuration::from_hours(hours))
    }

    #[test]
    fn one_domain_per_site_with_remote_nodes_absent() {
        let (tb, fed) = setup();
        assert_eq!(fed.len(), tb.sites().len());
        for (i, domain) in fed.domains().iter().enumerate() {
            assert_eq!(domain.site, tb.sites()[i].id);
            for node in tb.nodes() {
                let state = domain.oar.node_state(node.id);
                if node.site == domain.site {
                    assert_eq!(state, NodeState::Alive);
                } else {
                    assert_eq!(state, NodeState::Absent);
                }
            }
        }
    }

    #[test]
    fn cluster_affine_requests_stay_home() {
        let (tb, mut fed) = setup();
        // gamma lives on "west" (domain 1).
        let req = nodes_req(Expr::eq("cluster", "gamma"), 2, 1);
        assert_eq!(fed.home_of_request(&req), Some(1));
        let job = fed
            .submit("alice", Queue::Default, JobKind::User, req, None)
            .unwrap();
        assert_eq!(job.parts.len(), 1);
        assert_eq!(job.primary_domain(), 1);
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        assert_eq!(fed.spillovers(), 0);
        let gamma = tb.cluster_by_name("gamma").unwrap();
        assert!(fed
            .assigned_nodes(&job)
            .iter()
            .all(|n| gamma.nodes.contains(n)));
    }

    #[test]
    fn saturated_home_site_spills_over() {
        let (_tb, mut fed) = setup();
        // Fill every east node (alpha 4 + beta 4) for 10 hours.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "east"), 8, 10),
            None,
        )
        .unwrap();
        // A site-agnostic request homed on east must spill to west and
        // start immediately there.
        let home = fed.domain_by_name("east");
        let job = fed
            .submit("bob", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1), home)
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        assert_eq!(fed.spillovers(), 1);
        // The receiving domain is credited, not the saturated home.
        assert_eq!(fed.spillovers_by_domain(), &[0, 1]);
    }

    #[test]
    fn cluster_pinned_requests_never_spill() {
        let (_tb, mut fed) = setup();
        // Saturate alpha.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "alpha"), 4, 10),
            None,
        )
        .unwrap();
        // A further alpha request queues at home; it cannot run elsewhere.
        let job = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("cluster", "alpha"), 4, 1),
                None,
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 0);
        assert_eq!(fed.job_state(&job), FedJobState::Pending);
        assert_eq!(fed.spillovers(), 0);
    }

    #[test]
    fn cross_site_request_is_co_allocated() {
        let (tb, mut fed) = setup();
        let req = ResourceRequest {
            groups: vec![
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "east"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "west"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        let job = fed
            .submit("ci", Queue::Admin, JobKind::Test, req, None)
            .unwrap();
        assert_eq!(job.parts.len(), 2);
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        assert_eq!(fed.co_allocations(), 1);
        assert_eq!(fed.spillovers(), 0);
        let assigned = fed.assigned_nodes(&job);
        assert_eq!(assigned.len(), 2);
        let sites: std::collections::HashSet<_> =
            assigned.iter().map(|&n| tb.node(n).site).collect();
        assert_eq!(sites.len(), 2, "one node per site");
        // Completing completes every part.
        assert!(fed.complete_early(&job));
        assert_eq!(fed.job_state(&job), FedJobState::Done);
    }

    #[test]
    fn cross_site_request_needs_all_parts_immediately() {
        let (_tb, mut fed) = setup();
        // Saturate west entirely.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "west"), 6, 10),
            None,
        )
        .unwrap();
        let req = ResourceRequest {
            groups: vec![
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "east"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "west"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        let err = fed
            .submit("ci", Queue::Admin, JobKind::Test, req, None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        // Nothing half-booked lingers.
        assert_eq!(
            fed.all_jobs()
                .filter(|(_, j)| j.kind == JobKind::Test)
                .count(),
            0
        );
    }

    #[test]
    fn dead_site_routes_everything_elsewhere() {
        let (mut tb, mut fed) = setup();
        let east = tb.sites()[0].id;
        tb.apply_fault(FaultKind::SitePowerOutage, FaultTarget::Site(east), SimTime::ZERO)
            .unwrap();
        let dirty = tb.take_alive_dirty();
        fed.sync_dirty_nodes(&tb, &dirty);
        // East's domain has no alive nodes left: one blacked-out site.
        assert_eq!(fed.domain(0).oar.alive_nodes(), 0);
        assert_eq!(fed.dead_domains(), 1);
        // A site-agnostic request homed on east lands on west.
        let job = fed
            .submit(
                "bob",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::True, 2, 1),
                fed.domain_by_name("east"),
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        // An east-pinned request is unsatisfiable anywhere.
        let err = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("site", "east"), 1, 1),
                None,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
    }

    #[test]
    fn crashed_oar_process_is_not_a_blackout() {
        let (mut tb, mut fed) = setup();
        let east = tb.sites()[0].id;
        // A job already running on east keeps running through the crash.
        let resident = fed
            .submit(
                "alice",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::eq("site", "east"), 2, 5),
                None,
            )
            .unwrap();
        tb.apply_fault(
            FaultKind::ServiceCrash,
            FaultTarget::Service(east, ttt_testbed::ServiceKind::OarServer),
            SimTime::ZERO,
        )
        .unwrap();
        fed.sync_process_liveness(&tb);
        // Nodes are still powered: this is NOT a dead domain.
        assert_eq!(fed.dead_domains(), 0);
        assert_eq!(fed.down_processes(), 1);
        assert!(fed.domain(0).oar.alive_nodes() > 0);
        assert_eq!(fed.job_state(&resident), FedJobState::Running);
        // New site-agnostic work homed on east spills to west instead.
        let job = fed
            .submit(
                "bob",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::True, 2, 1),
                fed.domain_by_name("east"),
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        // East-pinned work cannot be booked anywhere while the process is
        // down...
        let err = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("site", "east"), 1, 1),
                None,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        assert!(!fed.can_start_now("east", &nodes_req(Expr::eq("site", "east"), 1, 1)));
        // ...and flows again once the process is repaired.
        let f = tb.active_faults()[0].clone();
        tb.repair(f.id);
        fed.sync_process_liveness(&tb);
        assert_eq!(fed.down_processes(), 0);
        let job = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("site", "east"), 1, 1),
                None,
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 0);
    }

    #[test]
    fn next_event_spans_all_domains() {
        let (_tb, mut fed) = setup();
        assert_eq!(fed.next_event_time(), None);
        fed.submit(
            "a",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "alpha"), 1, 5),
            None,
        )
        .unwrap();
        fed.submit(
            "b",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "gamma"), 1, 2),
            None,
        )
        .unwrap();
        // The earliest end lives on west (2 h < 5 h).
        assert_eq!(fed.next_event_time(), Some(SimTime::from_hours(2)));
        fed.advance(SimTime::from_hours(3));
        assert_eq!(fed.next_event_time(), Some(SimTime::from_hours(5)));
    }

    #[test]
    fn utilization_aggregates_sites() {
        let (_tb, mut fed) = setup();
        // 7 of 14 nodes busy across both sites.
        fed.submit(
            "a",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "east"), 4, 1),
            None,
        )
        .unwrap();
        fed.submit(
            "b",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "west"), 3, 1),
            None,
        )
        .unwrap();
        assert!((fed.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partitioned_backbone_blocks_spillover_under_a_real_model() {
        let (mut tb, mut fed) = setup();
        let (east, west) = (tb.sites()[0].id, tb.sites()[1].id);
        tb.set_link_model(ttt_testbed::LinkModelSpec::Uniform {
            latency_s: 0.01,
            loss_prob: 0.0,
        });
        tb.topology_mut().set_site_link(east, west, false);
        fed.sync_backbone(&tb);
        // Saturate east; a site-agnostic request homed there used to spill
        // to west, but the backbone is down: it queues at home instead.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "east"), 8, 10),
            None,
        )
        .unwrap();
        let home = fed.domain_by_name("east");
        let job = fed
            .submit("bob", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1), home)
            .unwrap();
        assert_eq!(job.primary_domain(), 0);
        assert_eq!(fed.job_state(&job), FedJobState::Pending);
        assert_eq!(fed.spillovers(), 0);
        // Healing the link and re-syncing restores spillover.
        tb.topology_mut().set_site_link(east, west, true);
        fed.sync_backbone(&tb);
        let job = fed
            .submit("carol", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1), home)
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        assert_eq!(fed.spillovers(), 1);
    }

    #[test]
    fn partitioned_backbone_blocks_co_allocation_under_a_real_model() {
        let (mut tb, mut fed) = setup();
        let (east, west) = (tb.sites()[0].id, tb.sites()[1].id);
        let req = || ResourceRequest {
            groups: vec![
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "east"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "west"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        tb.set_link_model(ttt_testbed::LinkModelSpec::DistanceTiered);
        tb.topology_mut().set_site_link(east, west, false);
        fed.sync_backbone(&tb);
        let err = fed
            .submit("ci", Queue::Admin, JobKind::Test, req(), None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        // Under the ideal model the same partition is invisible (the
        // historical behavior): sync clears the view, the split books.
        tb.set_link_model(ttt_testbed::LinkModelSpec::Ideal);
        fed.sync_backbone(&tb);
        let job = fed
            .submit("ci", Queue::Admin, JobKind::Test, req(), None)
            .unwrap();
        assert_eq!(job.parts.len(), 2);
    }

    #[test]
    fn probe_agrees_with_placement() {
        let (_tb, mut fed) = setup();
        let req = nodes_req(Expr::eq("cluster", "alpha"), 4, 1);
        assert!(fed.can_start_now("east", &req));
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "alpha"), 4, 10),
            None,
        )
        .unwrap();
        assert!(!fed.can_start_now("east", &req));
        // Site-agnostic work still reports availability via spillover.
        assert!(fed.can_start_now("east", &nodes_req(Expr::True, 2, 1)));
    }
}
