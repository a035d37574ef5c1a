//! Retry policy: timeout + capped exponential backoff + bounded attempts.

/// How a sender reacts to a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seconds the sender waits for an acknowledgement before declaring an
    /// attempt dead. A transfer slower than this *always* times out.
    pub timeout_s: f64,
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_multiplier: f64,
    /// Ceiling on any single backoff.
    pub max_backoff_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            timeout_s: 5.0,
            max_attempts: 4,
            base_backoff_s: 0.25,
            backoff_multiplier: 2.0,
            max_backoff_s: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never times out — the ideal-network
    /// default wired into [`crate::Fabric::ideal`].
    pub fn no_retry() -> Self {
        Self {
            timeout_s: f64::INFINITY,
            max_attempts: 1,
            base_backoff_s: 0.0,
            backoff_multiplier: 1.0,
            max_backoff_s: 0.0,
        }
    }

    /// Backoff slept before retry number `retry` (1-based), capped.
    pub fn backoff_s(&self, retry: u32) -> f64 {
        if retry == 0 || self.base_backoff_s <= 0.0 {
            return 0.0;
        }
        let grown = self.base_backoff_s * self.backoff_multiplier.powi(retry as i32 - 1);
        grown.min(self.max_backoff_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            base_backoff_s: 0.5,
            backoff_multiplier: 2.0,
            max_backoff_s: 3.0,
            ..Default::default()
        };
        assert_eq!(p.backoff_s(0), 0.0);
        assert!((p.backoff_s(1) - 0.5).abs() < 1e-12);
        assert!((p.backoff_s(2) - 1.0).abs() < 1e-12);
        assert!((p.backoff_s(3) - 2.0).abs() < 1e-12);
        assert!((p.backoff_s(4) - 3.0).abs() < 1e-12, "capped");
        assert!((p.backoff_s(10) - 3.0).abs() < 1e-12, "stays capped");
    }

    #[test]
    fn no_retry_is_inert() {
        let p = RetryPolicy::no_retry();
        assert_eq!(p.max_attempts, 1);
        assert!(p.timeout_s.is_infinite());
        assert_eq!(p.backoff_s(1), 0.0);
    }
}
