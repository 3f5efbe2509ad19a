//! unison-telemetry: the analysis and export side of the run profiler.
//!
//! The *recording* side lives in `unison-core` (`unison_core::telemetry`):
//! per-worker bounded span buffers written lock-free from the kernels' hot
//! loops, plus the control thread's scheduler-decision log. This crate
//! consumes the merged [`unison_core::RunTelemetry`] attached to a
//! [`unison_core::RunReport`] and provides:
//!
//! - [`Timeline`]: the analysis view (barrier-wait share per worker,
//!   per-round LP costs, estimate-vs-actual scheduling regret, the mailbox
//!   traffic matrix);
//! - [`chrome_trace_json`]: Chrome-trace/Perfetto JSON export (and
//!   [`validate_chrome_trace`], its round-trip validator);
//! - [`write_report`]: the textual profiler (the `profile-report` binary).
//!
//! See DESIGN.md §4.3 for the observability contract: recording is
//! provably non-perturbing (one writer per buffer, no new synchronization
//! edges), zero-cost when disabled, and compiled out entirely without the
//! `telemetry` cargo feature of `unison-core`.

pub mod chrome;
pub mod json;
pub mod report;
pub mod timeline;

pub use chrome::{chrome_trace_json, chrome_trace_value, validate_chrome_trace, TraceSummary};
pub use report::{report_string, write_report};
pub use timeline::{RoundRegret, Timeline, WorkerWait};
