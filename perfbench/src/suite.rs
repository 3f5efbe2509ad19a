//! Workloads: scenario files, their golden digests, and the seed rule.
//!
//! A suite is a directory holding one `<workload>.toml` scenario per
//! workload plus `goldens.toml`, which records for each workload the seed
//! its golden digest was taken at:
//!
//! ```toml
//! [fattree_incast]
//! seed = 7
//! digest = "0123456789abcdef"
//! ```
//!
//! At a workload's golden seed the scenario runs exactly as committed. At
//! any other seed `s`, the workload's flows — the `[traffic]` block's
//! generated flows followed by the explicit `[[flow]]` list — each start
//! later by a jitter in `[0, 50 us)` drawn from `s`. Sizes, endpoints and
//! offered load stay those of the file, so the amount of work stays that of
//! the workload while the event interleaving, and with it the digest,
//! changes with the seed.

use std::path::{Path, PathBuf};

use unison_core::{KernelKind, Rng, Time};
use unison_netsim::NetworkBuilder;
use unison_scenario::toml::Table;
use unison_scenario::{parse_scenario, ScenarioSpec};
use unison_topology::Topology;

/// Largest start-time jitter applied to a flow off the golden seed, ns.
const FLOW_JITTER_NS: u64 = 50_000;

/// One workload of a suite.
pub struct Workload {
    /// Workload name (the scenario file's stem).
    pub name: String,
    /// Path of the scenario file.
    pub path: PathBuf,
    /// Seed the golden digest was recorded at.
    pub golden_seed: u64,
    /// Golden final-state digest at `golden_seed`.
    pub golden_digest: u64,
}

impl Workload {
    /// Looks `name` up in `suite`: the scenario file must exist and
    /// `goldens.toml` must hold a golden for it.
    pub fn load(suite: &Path, name: &str) -> Result<Workload, String> {
        let path = suite.join(format!("{name}.toml"));
        if !path.is_file() {
            return Err(format!("no workload `{name}` ({} missing)", path.display()));
        }
        let goldens_path = suite.join("goldens.toml");
        let table = goldens(suite)?
            .into_iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("{}: no golden for `{name}`", goldens_path.display()))?;
        let golden_seed = table
            .get_int("seed")
            .and_then(|s| u64::try_from(s).ok())
            .ok_or_else(|| format!("{}: `{name}` needs `seed`", goldens_path.display()))?;
        let golden_digest = table
            .get_str("digest")
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or_else(|| format!("{}: `{name}` needs a hex `digest`", goldens_path.display()))?;
        Ok(Workload {
            name: name.to_string(),
            path,
            golden_seed,
            golden_digest,
        })
    }

    /// Parses the scenario source.
    pub fn spec(&self, src: &str) -> Result<ScenarioSpec, String> {
        parse_scenario(src).map_err(|e| format!("{}: {e}", self.path.display()))
    }

    /// Applies `seed` to `spec` (see the module docs); `topo` is the
    /// scenario's own topology.
    pub fn apply_seed(&self, spec: &mut ScenarioSpec, topo: &Topology, seed: u64) {
        if seed == self.golden_seed {
            return;
        }
        // Generate the traffic block's flows exactly as the network builder
        // would, ahead of the explicit ones, then jitter them all.
        if let Some(traffic) = spec.traffic.take() {
            let host_rate = NetworkBuilder::new(topo).host_rate();
            let mut flows = traffic.to_config().generate(topo, host_rate);
            flows.append(&mut spec.flows);
            spec.flows = flows;
        }
        let mut rng = Rng::new(seed);
        for flow in &mut spec.flows {
            let jitter = Time::from_nanos(rng.next_below(FLOW_JITTER_NS));
            flow.start = flow.start.saturating_add(jitter);
        }
    }
}

/// The workload names of `suite`, in `goldens.toml` order.
pub fn workload_names(suite: &Path) -> Result<Vec<String>, String> {
    Ok(goldens(suite)?.into_iter().map(|t| t.name).collect())
}

/// The tables of `suite`'s `goldens.toml`, one per workload.
fn goldens(suite: &Path) -> Result<Vec<Table>, String> {
    let path = suite.join("goldens.toml");
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tables =
        unison_scenario::toml::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    // The parser reports a root table before the first header.
    Ok(tables.into_iter().filter(|t| !t.name.is_empty()).collect())
}

/// Worker threads a kernel runs: the configured count for the thread-pool
/// kernels, 1 for the sequential one. `None` for the barrier and
/// null-message kernels, which pin one thread per LP and so cannot be held
/// to the host's core count.
pub fn kernel_threads(kernel: &KernelKind) -> Option<usize> {
    match kernel {
        KernelKind::Unison { threads } | KernelKind::AsyncCons { threads } => Some(*threads),
        KernelKind::Hybrid {
            hosts,
            threads_per_host,
        } => Some(hosts * threads_per_host),
        KernelKind::Sequential { .. } => Some(1),
        KernelKind::Barrier | KernelKind::NullMessage => None,
    }
}

/// `kernel` with its worker count replaced, for the kernels that have one.
pub fn with_threads(kernel: &KernelKind, threads: usize) -> KernelKind {
    match kernel {
        KernelKind::Unison { .. } => KernelKind::Unison { threads },
        KernelKind::AsyncCons { .. } => KernelKind::AsyncCons { threads },
        other => other.clone(),
    }
}

/// Host CPUs usable by this process (`available_parallelism`, 1 if unknown).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
