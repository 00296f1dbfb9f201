//! The benchmark's own layer timers.
//!
//! A traced run wraps every call into `seldel-core`, `seldel-chain` and
//! `seldel-crypto` in [`Tracer::start`]/[`Tracer::stop`]; an untraced run
//! never reads the clock for them. Spans live in memory and are summarised
//! once, after the timed phase.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::percentile;

/// One layer call site: every recorded duration plus failures.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Wall time of each call, in nanoseconds.
    pub samples: Vec<u64>,
    /// Calls that returned an error.
    pub failures: u64,
}

impl Layer {
    /// Total busy time, in nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Nearest-rank percentile of the call durations, in nanoseconds.
    pub fn pct_ns(&self, p: f64) -> f64 {
        let values: Vec<f64> = self.samples.iter().map(|&v| v as f64).collect();
        percentile(&values, p)
    }
}

/// Layer timers, switched on per window of ops.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether calls are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a span when recording is on.
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Ends a span started by [`Tracer::start`] under `name`.
    pub fn stop(&mut self, name: &'static str, started: Option<Instant>, ok: bool) {
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            let layer = self.layers.entry(name).or_default();
            layer.samples.push(ns);
            if !ok {
                layer.failures += 1;
            }
        }
    }

    /// Times `f` under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = self.start();
        let out = f();
        self.stop(name, t0, true);
        out
    }

    /// Times a fallible call under `name`, counting an `Err` as a failure.
    pub fn call<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let t0 = self.start();
        let out = f();
        self.stop(name, t0, out.is_ok());
        out
    }

    /// The recorded layers, by name.
    pub fn layers(&self) -> &BTreeMap<&'static str, Layer> {
        &self.layers
    }

    /// Busy time of every layer whose name starts with one of `prefixes`.
    pub fn busy_ns_of(&self, prefixes: &[&str]) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, l)| l.busy_ns())
            .sum()
    }

    /// Forgets every layer whose name does not start with `prefix`.
    pub fn keep_only(&mut self, prefix: &str) {
        self.layers.retain(|name, _| name.starts_with(prefix));
    }
}
