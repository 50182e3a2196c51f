//! Structured simulation tracing for the elastic-scheduling workspace.
//!
//! This crate is the observability layer the simulator and schedulers
//! record into: a typed event taxonomy ([`TraceEvent`]), a bounded
//! ring-buffer sink ([`TraceSink`]), allocation-free log-bucketed
//! histograms ([`LogHistogram`]), and exporters for JSONL and Chrome
//! `trace_event` JSON ([`export`]).
//!
//! It sits at the bottom of the dependency order — below the simulator
//! — so both the engine and the scheduling policies can emit events
//! through one macro without a dependency cycle.
//!
//! # Cost model
//!
//! Tracing must cost ~nothing when off, because the engine's hot path
//! is measured in nanoseconds per event (the repository benchmark's
//! `events_per_s`, gated by `repro perf-gate`):
//!
//! * **disabled at runtime** (the default): every [`trace_event!`] call
//!   site is one branch on an `Option` that is `None`; no event is
//!   constructed, no clock is read;
//! * **compiled out** (`--features off` on this crate): the macro body
//!   is guarded by `if `[`COMPILED_IN`]` { ... }` with `COMPILED_IN =
//!   false`, a constant branch the optimizer deletes entirely;
//! * **enabled**: recording is a bounds check and a slot write into the
//!   ring; the per-cycle wall-clock read is gated separately by
//!   [`TraceSink::timing`] and `Cycle` spans by the 1-in-N sampling
//!   knob ([`TraceSink::set_cycle_sampling`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod postmortem;
pub mod profile;
pub mod serve;
pub mod sink;

pub use event::{DpKernel, EccTag, TraceEvent};
pub use export::{from_jsonl, to_chrome_trace, to_jsonl};
pub use hist::{LogHistogram, HIST_BUCKETS};
pub use metrics::{MetricId, MetricKind, MetricSpec, MetricsRegistry, MetricsSnapshot};
pub use postmortem::{read_postmortem, write_postmortem, PostmortemSnapshot};
pub use profile::{Phase, PhaseProfile};
pub use serve::{MetricsServer, StatusDoc};
pub use sink::{TraceSink, DEFAULT_CAPACITY};

/// False when this crate is built with the `off` feature, turning every
/// [`trace_event!`] body into a constant-false branch the optimizer
/// removes.
pub const COMPILED_IN: bool = cfg!(not(feature = "off"));

/// Record a [`TraceEvent`] into an optional sink, if tracing is
/// compiled in and the sink is present.
///
/// The first argument is any expression yielding
/// `Option<&mut TraceSink>` — typically `ctx.trace()` inside a
/// scheduler or `self.trace.as_deref_mut()` inside the engine. The rest
/// is the event expression, which is **not evaluated** when the sink is
/// absent, so call sites may build `Vec`s or format strings freely:
///
/// ```
/// use elastisched_trace::{trace_event, TraceEvent, TraceSink};
///
/// let mut sink = TraceSink::new();
/// let mut maybe: Option<&mut TraceSink> = Some(&mut sink);
/// trace_event!(maybe.as_deref_mut(), TraceEvent::Queued { job: 1, at: 0 });
/// trace_event!(None::<&mut TraceSink>, TraceEvent::Queued { job: 2, at: 0 });
/// assert_eq!(sink.len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($sink:expr, $($ev:tt)+) => {
        if $crate::COMPILED_IN {
            if let ::core::option::Option::Some(__trace_sink) = $sink {
                let __trace_sink: &mut $crate::TraceSink = __trace_sink;
                __trace_sink.record($($ev)+);
            }
        }
    };
}

/// Touch the process-global [`metrics::MetricsRegistry`], if metrics
/// are compiled in and a registry has been installed.
///
/// The body binds the identifier you name to `&MetricsRegistry` and is
/// **not evaluated** when no registry is installed — the same zero-cost
/// discipline as [`trace_event!`]: compiled out under `--features off`,
/// one branch on a `None` otherwise:
///
/// ```
/// use elastisched_trace::metric;
/// use elastisched_trace::metrics::keys;
///
/// // No registry installed: the body does not run.
/// metric!(|reg| reg.counter_add(keys::RUNS_TOTAL, 1));
/// ```
#[macro_export]
macro_rules! metric {
    (|$reg:ident| $($body:tt)+) => {
        if $crate::COMPILED_IN {
            if let ::core::option::Option::Some($reg) = $crate::metrics::global() {
                let $reg: &$crate::metrics::MetricsRegistry = $reg;
                $($body)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_records_into_present_sink() {
        let mut sink = TraceSink::new();
        trace_event!(Some(&mut sink), TraceEvent::Queued { job: 7, at: 3 });
        assert_eq!(sink.len(), if COMPILED_IN { 1 } else { 0 });
    }

    #[test]
    fn macro_skips_event_construction_when_absent() {
        let mut built = false;
        trace_event!(None::<&mut TraceSink>, {
            built = true;
            TraceEvent::Queued { job: 1, at: 1 }
        });
        assert!(!built, "event expression must not run without a sink");
    }

    #[test]
    fn metric_macro_branches_on_global_install() {
        use std::sync::Arc;

        // Before any install, the body must not be evaluated.
        let mut ran = false;
        if metrics::global().is_none() {
            metric!(|_reg| {
                ran = true;
            });
            assert!(!ran, "metric! body must not run without a registry");
        }

        // First install wins, the second is refused.
        let installed = metrics::install_global(Arc::new(metrics::MetricsRegistry::standard()));
        assert!(installed, "no other trace unit test installs a registry");
        assert!(!metrics::install_global(Arc::new(
            metrics::MetricsRegistry::standard()
        )));

        metric!(|reg| reg.counter_add(metrics::keys::RUNS_TOTAL, 2));
        if COMPILED_IN {
            let reg = metrics::global().expect("installed above");
            assert!(reg.counter_value(metrics::keys::RUNS_TOTAL) >= 2);
        }
    }
}
