//! The hybrid distributed kernel (§5.2).
//!
//! For scalability across machines, the paper first divides the topology
//! into coarse per-host partitions synchronized with the conservative
//! barrier algorithm, and runs Unison *inside* each host over a further
//! fine-grained partition. The window of Eq. (2) is computed by an
//! all-reduce over the per-host minima.
//!
//! This in-process reproduction models each cluster host as a *group* of
//! worker threads that only ever claim LPs of their own host's partition
//! (no load balancing across hosts — the hybrid kernel's semantic
//! difference from plain Unison), while the round window remains global.
//! The MPI transport is replaced by the same shared-memory mailboxes; the
//! all-reduce is the main thread's reduction at the phase-4 barrier, which
//! is exactly what `MPI_Allreduce` computes on a cluster.
//!
//! Hosts are assigned by splitting the fine-grained LP sequence into
//! `hosts` contiguous, node-balanced ranges: LP ids follow node-creation
//! order, so contiguous ranges preserve spatial locality like the paper's
//! coarse pre-partition.
//!
//! Telemetry flows through [`run_grouped`] unchanged: per-worker span sinks
//! and the scheduler-decision log are created there, so a hybrid run's
//! decision log carries one entry per *host group* per re-sort (the
//! [`crate::telemetry::SchedDecision::group`] field is the host id).
//!
//! Claims are likewise per group: `run_grouped` builds one
//! [`crate::sched::LjfCursor`] per host, and a host's workers only claim
//! from their own host's cursor, so load balancing never crosses host
//! boundaries — exactly the paper's "balance within a host" deployment
//! constraint.

use crate::error::SimError;
use crate::metrics::RunReport;
use crate::world::{SimNode, World};

use super::unison::{run_grouped, Grouping};
use super::{build_partition, KernelError, RunConfig};

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    hosts: usize,
    threads_per_host: usize,
) -> Result<(World<N>, RunReport), SimError> {
    if hosts == 0 || threads_per_host == 0 {
        return Err(KernelError::InvalidConfig(
            "hybrid kernel needs hosts >= 1 and threads_per_host >= 1".into(),
        )
        .into());
    }
    // Pre-compute the partition (the same one `run_grouped` will build) to
    // derive the host assignment from LP weights.
    let partition = build_partition(&world, &cfg.partition)?;
    let lp_count = partition.lp_count as usize;
    let hosts = hosts.min(lp_count.max(1));

    // Contiguous ranges balanced by node count.
    let total_nodes: usize = partition.lp_nodes.iter().map(|v| v.len()).sum();
    let target = (total_nodes as f64 / hosts as f64).max(1.0);
    let mut lp_group = vec![0u32; lp_count];
    let mut acc = 0.0f64;
    let mut host = 0u32;
    for (lp, nodes) in partition.lp_nodes.iter().enumerate() {
        if acc >= target && (host as usize) < hosts - 1 {
            host += 1;
            acc = 0.0;
        }
        lp_group[lp] = host;
        acc += nodes.len() as f64;
    }
    let groups = host as usize + 1;

    let threads = groups * threads_per_host;
    let mut worker_group = Vec::with_capacity(threads);
    for g in 0..groups {
        for _ in 0..threads_per_host {
            worker_group.push(g as u32);
        }
    }
    // Worker 0 (the main thread) must belong to group 0: it does, because
    // groups are filled in order.
    let grouping = Grouping {
        lp_group,
        worker_group,
        groups,
    };
    run_grouped(world, cfg, threads, Some(grouping), "hybrid")
}
