//! Retry with capped exponential backoff — the availability mechanism
//! Dynamo-style stores (and Swift itself) lean on for transient faults.
//!
//! A [`RetryPolicy`] re-runs an operation while it fails with a
//! *retryable* error ([`H2Error::is_retryable`]: `Conflict` or
//! `Unavailable`); terminal errors propagate immediately. Backoff between
//! attempts grows exponentially from `base_backoff`, capped at
//! `max_backoff`, with deterministic jitter derived from `(seed, op,
//! attempt)` — no wall-clock or RNG state, so identical runs replay
//! identical schedules.
//!
//! Two execution modes match the workspace's two notions of time:
//!
//! * [`RetryPolicy::run_virtual`] charges the backoff to an [`OpCtx`] as
//!   virtual latency — for client-path cloud ops under the cost model.
//! * [`RetryPolicy::run_real`] sleeps through the clock facade
//!   ([`crate::clock::wall_sleep`]) — for real background threads such as
//!   the gossip worker.
//!
//! Both record `op_retries` / `op_gave_up` counters and the
//! `retry_backoff_ms` histogram when given a [`MetricsRegistry`].

use std::time::Duration;

use crate::cost::OpCtx;
use crate::error::{H2Error, Result};
use crate::hash::hash64_seeded;
use crate::metrics::MetricsRegistry;
use crate::trace::{Note, Stage};

/// Counter bumped once per re-attempt.
pub const OP_RETRIES: &str = "op_retries";
/// Counter bumped when a retryable error exhausts its attempts.
pub const OP_GAVE_UP: &str = "op_gave_up";
/// Histogram of individual backoff delays.
pub const RETRY_BACKOFF_MS: &str = "retry_backoff_ms";

/// Capped-exponential-backoff retry schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first re-attempt.
    pub base_backoff: Duration,
    /// Ceiling for the exponential growth.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Seed for the jitter draws; derive per component so independent
    /// retry streams decorrelate.
    pub seed: u64,
}

impl RetryPolicy {
    /// The workspace default: 5 attempts, 10 ms → 160 ms backoff, 50%
    /// jitter. Survives four consecutive transient faults per op, which
    /// at ≤5% injected error rate makes giving up vanishingly rare.
    pub fn new(seed: u64) -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
            seed,
        }
    }

    /// A policy that never retries (attempt once, propagate everything).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// The delay before re-attempt number `attempt` (1-based: the backoff
    /// taken after the `attempt`-th failure) of operation `op`.
    /// Deterministic in `(seed, op, attempt)`.
    pub fn backoff(&self, op: &str, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20))
            .min(self.max_backoff);
        if self.jitter <= 0.0 {
            return exp;
        }
        let bits = hash64_seeded(op.as_bytes(), self.seed ^ u64::from(attempt));
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(1.0 - self.jitter * unit)
    }

    /// Run `f` under this policy, charging backoff as *virtual* latency on
    /// `ctx`, in a [`Stage::Backoff`] span — the client-path flavour.
    pub fn run_virtual<T, F>(
        &self,
        ctx: &mut OpCtx,
        metrics: Option<&MetricsRegistry>,
        op: &'static str,
        mut f: F,
    ) -> Result<T>
    where
        F: FnMut(&mut OpCtx) -> Result<T>,
    {
        let mut attempt = 1u32;
        loop {
            match f(ctx) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if let Some(delay) = self.next_backoff(metrics, op, &e, attempt) {
                        ctx.span(Stage::Backoff, op, |ctx| {
                            ctx.span_note("retry", || Note::U64(attempt.into()));
                            ctx.span_note("error", || Note::Text(e.to_string().into()));
                            ctx.charge_time(delay);
                            Ok(())
                        })?;
                        attempt += 1;
                    } else {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Run `f` under this policy, sleeping real time between attempts via
    /// the clock facade — the background-thread flavour.
    pub fn run_real<T, F>(&self, metrics: Option<&MetricsRegistry>, op: &str, mut f: F) -> Result<T>
    where
        F: FnMut() -> Result<T>,
    {
        let mut attempt = 1u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if let Some(delay) = self.next_backoff(metrics, op, &e, attempt) {
                        crate::clock::wall_sleep(delay);
                        attempt += 1;
                    } else {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Shared bookkeeping: `Some(delay)` if the error should be retried
    /// after that backoff, `None` if it must propagate (recording
    /// `op_gave_up` when propagation is due to exhausted attempts).
    fn next_backoff(
        &self,
        metrics: Option<&MetricsRegistry>,
        op: &str,
        e: &H2Error,
        attempt: u32,
    ) -> Option<Duration> {
        if !e.is_retryable() {
            return None;
        }
        if attempt >= self.max_attempts {
            if let Some(m) = metrics {
                m.counter(OP_GAVE_UP).incr();
            }
            return None;
        }
        let delay = self.backoff(op, attempt);
        if let Some(m) = metrics {
            m.counter(OP_RETRIES).incr();
            m.record(RETRY_BACKOFF_MS, delay);
        }
        Some(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaky(fail_times: u32) -> impl FnMut() -> Result<u32> {
        let mut left = fail_times;
        move || {
            if left > 0 {
                left -= 1;
                Err(H2Error::Unavailable("injected".into()))
            } else {
                Ok(7)
            }
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::new(0)
        };
        assert_eq!(p.backoff("op", 1), Duration::from_millis(10));
        assert_eq!(p.backoff("op", 2), Duration::from_millis(20));
        assert_eq!(p.backoff("op", 3), Duration::from_millis(40));
        assert_eq!(p.backoff("op", 10), Duration::from_millis(500));
        assert_eq!(p.backoff("op", 60), Duration::from_millis(500));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::new(11);
        for attempt in 1..6 {
            let a = p.backoff("submit_patch", attempt);
            let b = p.backoff("submit_patch", attempt);
            assert_eq!(a, b);
            let exp = RetryPolicy { jitter: 0.0, ..p }.backoff("submit_patch", attempt);
            assert!(a <= exp && a >= exp.mul_f64(0.5 - 1e-9), "{a:?} vs {exp:?}");
        }
        // Different ops decorrelate.
        assert_ne!(p.backoff("submit_patch", 1), p.backoff("read_ring", 1));
    }

    #[test]
    fn virtual_retries_charge_ctx_and_count() {
        let m = MetricsRegistry::new();
        let mut ctx = OpCtx::for_test();
        let p = RetryPolicy::new(1);
        let mut f = flaky(3);
        let out = p
            .run_virtual(&mut ctx, Some(&m), "op", |_ctx| f())
            .expect("succeeds on 4th attempt");
        assert_eq!(out, 7);
        assert_eq!(m.counter_value(OP_RETRIES), 3);
        assert_eq!(m.counter_value(OP_GAVE_UP), 0);
        assert_eq!(m.histogram(RETRY_BACKOFF_MS).count(), 3);
        // The three backoffs were charged as virtual latency.
        let expected: Duration = (1..=3).map(|a| p.backoff("op", a)).sum();
        assert_eq!(ctx.elapsed(), expected);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let m = MetricsRegistry::new();
        let mut ctx = OpCtx::for_test();
        let p = RetryPolicy::new(2);
        let mut f = flaky(99);
        let err = p.run_virtual(&mut ctx, Some(&m), "op", |_ctx| f());
        assert!(matches!(err, Err(H2Error::Unavailable(_))));
        assert_eq!(m.counter_value(OP_RETRIES), u64::from(p.max_attempts) - 1);
        assert_eq!(m.counter_value(OP_GAVE_UP), 1);
    }

    #[test]
    fn terminal_errors_do_not_retry() {
        let m = MetricsRegistry::new();
        let mut ctx = OpCtx::for_test();
        let p = RetryPolicy::new(3);
        let mut calls = 0;
        let err: Result<()> = p.run_virtual(&mut ctx, Some(&m), "op", |_ctx| {
            calls += 1;
            Err(H2Error::NotFound("x".into()))
        });
        assert!(matches!(err, Err(H2Error::NotFound(_))));
        assert_eq!(calls, 1);
        assert_eq!(m.counter_value(OP_RETRIES), 0);
        // NotFound is terminal, not an exhausted retry: no gave-up.
        assert_eq!(m.counter_value(OP_GAVE_UP), 0);
        assert_eq!(ctx.elapsed(), Duration::ZERO);
    }

    #[test]
    fn run_real_retries_without_ctx() {
        let p = RetryPolicy {
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            ..RetryPolicy::new(4)
        };
        let f = flaky(2);
        assert_eq!(p.run_real(None, "gossip", f).expect("converges"), 7);
    }

    #[test]
    fn none_policy_is_single_shot() {
        let p = RetryPolicy::none();
        let mut ctx = OpCtx::for_test();
        let mut f = flaky(1);
        let err = p.run_virtual(&mut ctx, None, "op", |_ctx| f());
        assert!(matches!(err, Err(H2Error::Unavailable(_))));
    }
}
