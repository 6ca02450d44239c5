//! Service counters behind `/healthz`, registered as `MetricSpec`s in
//! `smtsim-obs` (`SERVE_METRICS`) so METRICS.md documents them (D8).
//! Plain relaxed atomics: these are operator-facing tallies, not part
//! of any deterministic result, and never feed back into simulation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one server instance.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// `serve.queue_depth` — connections accepted but not yet picked
    /// up by a worker.
    pub queue_depth: AtomicU64,
    /// `serve.cache_hits` — answers served from the result cache.
    pub cache_hits: AtomicU64,
    /// `serve.cache_misses` — requests that had to simulate (a
    /// coalesced follower counts under the leader's miss).
    pub cache_misses: AtomicU64,
    /// `serve.shed_total` — requests refused 429/503 under load or
    /// drain.
    pub shed_total: AtomicU64,
    /// `serve.connections_total` — connections accepted, shed ones
    /// included.
    pub connections_total: AtomicU64,
    /// `serve.requests_total` — requests read whole, on any
    /// connection. Its running value is each request's fault-plan
    /// ordinal.
    pub requests_total: AtomicU64,
    /// Jobs actually simulated (not a registered metric; the dedup
    /// test pins it to prove coalescing never re-simulates).
    pub jobs_simulated: AtomicU64,
}

impl ServeCounters {
    /// Render the `/healthz` body. Key order is fixed so the body is
    /// byte-stable for a given counter state.
    pub fn healthz_json(&self, draining: bool) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{{\"status\":\"{}\",\"serve.queue_depth\":{},\"serve.cache_hits\":{},\"serve.cache_misses\":{},\"serve.shed_total\":{},\"serve.connections_total\":{},\"serve.requests_total\":{},\"jobs_simulated\":{}}}\n",
            if draining { "draining" } else { "ok" },
            g(&self.queue_depth),
            g(&self.cache_hits),
            g(&self.cache_misses),
            g(&self.shed_total),
            g(&self.connections_total),
            g(&self.requests_total),
            g(&self.jobs_simulated),
        )
    }

    /// Bump a counter by one.
    pub fn bump_tally(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthz_lists_every_registered_serve_metric() {
        let c = ServeCounters::default();
        ServeCounters::bump_tally(&c.cache_hits);
        ServeCounters::bump_tally(&c.connections_total);
        for _ in 0..3 {
            ServeCounters::bump_tally(&c.requests_total);
        }
        let body = c.healthz_json(false);
        for spec in smtsim_obs::SERVE_METRICS {
            assert!(
                body.contains(&format!("\"{}\":", spec.name)),
                "healthz body missing {}: {body}",
                spec.name
            );
        }
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"serve.cache_hits\":1"));
        assert!(body.contains("\"serve.connections_total\":1"));
        assert!(body.contains("\"serve.requests_total\":3"));
        assert!(c.healthz_json(true).contains("\"status\":\"draining\""));
    }
}
