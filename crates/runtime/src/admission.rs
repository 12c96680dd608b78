//! Admission control: when may the host open the next queued session?
//!
//! PR 4's `SessionHost` pre-spawned every session at activation — `k`
//! pipelined beacon epochs meant `k` live elections from the first
//! delivery.  The sharded runtime instead holds a queue of *pending*
//! sessions and asks an [`AdmissionPolicy`] before opening each one, so a
//! pipelined workload becomes a stream of admitted sessions whose
//! concurrency (and therefore peak memory and cross-session interference)
//! is a policy knob rather than a workload constant.

/// Decides when the host may open the next pending session.
///
/// The host calls [`AdmissionPolicy::admit`] whenever it has a pending
/// session and a free moment (at start-up and after every session close);
/// a `true` return *consumes* the admission (token-bucket policies debit a
/// token).  [`AdmissionPolicy::on_deliveries`] ticks the policy's clock:
/// a session runs to its close in one piece, so the host reports all of a
/// closed session's deliveries at once, and the clock advances in
/// session-sized steps.
pub trait AdmissionPolicy: Send {
    /// May a new session be opened, given `active` sessions currently live?
    /// Returning `true` commits the admission.
    fn admit(&mut self, active: usize) -> bool;

    /// Advances the policy clock by the `n` deliveries of a closed session.
    fn on_deliveries(&mut self, _n: u64) {}

    /// A session closed (completed, quiesced, or exhausted its budget).
    fn on_session_closed(&mut self) {}

    /// The policy's current token balance, for policies that meter
    /// admissions (`None` for verdict-only policies) — recorded on the
    /// host's admission-decision trace events.
    fn token_state(&self) -> Option<u64> {
        None
    }
}

/// Admits every session immediately — the PR 4 pre-spawn behaviour.
#[derive(Debug, Clone, Default)]
pub struct Unlimited;

impl AdmissionPolicy for Unlimited {
    fn admit(&mut self, _active: usize) -> bool {
        true
    }
}

/// Caps the number of concurrently live sessions: session `j` opens once
/// fewer than `limit` sessions are live — the natural policy for pipelined
/// epochs (a sliding window over the epoch stream).
#[derive(Debug, Clone)]
pub struct MaxConcurrent(pub usize);

impl AdmissionPolicy for MaxConcurrent {
    fn admit(&mut self, active: usize) -> bool {
        active < self.0
    }
}

/// A token bucket over the delivery clock: an admission costs one token,
/// and one token is refilled every `refill_every` delivered messages (up to
/// `capacity`).  Rate-limits session churn under load: a burst of cheap
/// sessions cannot stampede the host faster than the network actually
/// drains traffic.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: u64,
    tokens: u64,
    refill_every: u64,
    clock: u64,
}

impl TokenBucket {
    /// Creates a bucket starting (and capped) at `capacity` tokens, refilled
    /// every `refill_every` deliveries.
    pub fn new(capacity: u64, refill_every: u64) -> Self {
        assert!(capacity > 0, "a zero-capacity bucket never admits anything");
        assert!(refill_every > 0, "refill interval must be positive");
        TokenBucket { capacity, tokens: capacity, refill_every, clock: 0 }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }
}

impl AdmissionPolicy for TokenBucket {
    fn admit(&mut self, _active: usize) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    fn on_deliveries(&mut self, n: u64) {
        // One refill per `refill_every` boundary the clock crosses.
        let refills = (self.clock + n) / self.refill_every - self.clock / self.refill_every;
        self.clock += n;
        self.tokens = (self.tokens + refills).min(self.capacity);
    }

    fn token_state(&self) -> Option<u64> {
        Some(self.tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_admits() {
        let mut p = Unlimited;
        assert!(p.admit(0));
        assert!(p.admit(10_000));
    }

    #[test]
    fn max_concurrent_caps_live_sessions() {
        let mut p = MaxConcurrent(2);
        assert!(p.admit(0));
        assert!(p.admit(1));
        assert!(!p.admit(2));
        p.on_session_closed();
        assert!(p.admit(1));
    }

    #[test]
    fn token_bucket_debits_and_refills_on_the_delivery_clock() {
        let mut p = TokenBucket::new(2, 10);
        assert!(p.admit(0));
        assert!(p.admit(0));
        assert!(!p.admit(0), "bucket empty");
        for _ in 0..9 {
            p.on_deliveries(1);
            assert_eq!(p.tokens(), 0);
        }
        p.on_deliveries(1);
        assert_eq!(p.tokens(), 1, "one token per refill interval");
        assert!(p.admit(0));
        // A session-sized tick crossing two boundaries refills two tokens,
        // and refills never exceed the capacity.
        p.on_deliveries(5);
        p.on_deliveries(15);
        assert_eq!(p.tokens(), 2);
        assert!(p.admit(0) && p.admit(0));
        p.on_deliveries(1_000);
        assert_eq!(p.tokens(), 2);
    }
}
