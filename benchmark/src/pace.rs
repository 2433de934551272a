//! Open-loop schedule: op `i` is due at `i / rate` seconds after the
//! start, whether or not earlier ops have completed. Latency is taken
//! from the due time, so a stall charges every op that became due
//! during it, and the gap between due and actual send is reported as
//! generator lag.
//!
//! The pacer never reads a clock: callers pass `now`, which is what
//! lets the tests inject a stall.

/// A fixed-rate schedule over nanoseconds since its start.
#[derive(Debug, Clone)]
pub struct Pacer {
    per_second: u64,
    next: u64,
}

/// One op handed out by [`Pacer::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// Position in the schedule.
    pub index: u64,
    /// When it was due, ns since the schedule's start.
    pub due_ns: u64,
    /// How late it is being sent, ns.
    pub lag_ns: u64,
}

impl Pacer {
    /// A schedule of `per_second` ops per second.
    ///
    /// # Panics
    ///
    /// Panics on a zero rate.
    pub fn new(per_second: u64) -> Self {
        assert!(per_second > 0, "an open loop needs a rate");
        Pacer {
            per_second,
            next: 0,
        }
    }

    /// Due time of op `index`, ns since the start. Computed from the
    /// index (not accumulated), so rounding never drifts the rate.
    pub fn due_ns(&self, index: u64) -> u64 {
        (u128::from(index) * 1_000_000_000 / u128::from(self.per_second)) as u64
    }

    /// The next op if it is due at `now_ns`. Call until `None`: after a
    /// stall, every op that became due meanwhile comes out at once,
    /// each with its own (past) due time.
    pub fn poll(&mut self, now_ns: u64) -> Option<Due> {
        let due_ns = self.due_ns(self.next);
        if due_ns > now_ns {
            return None;
        }
        let index = self.next;
        self.next += 1;
        Some(Due {
            index,
            due_ns,
            lag_ns: now_ns - due_ns,
        })
    }

    /// Nanoseconds from `now_ns` until the next op is due (0 if one
    /// already is).
    pub fn until_next(&self, now_ns: u64) -> u64 {
        self.due_ns(self.next).saturating_sub(now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_without_drift() {
        let p = Pacer::new(3);
        assert_eq!(p.due_ns(0), 0);
        assert_eq!(p.due_ns(1), 333_333_333);
        assert_eq!(p.due_ns(3), 1_000_000_000);
        assert_eq!(p.due_ns(3_000_000), 1_000_000 * 1_000_000_000);
    }

    #[test]
    fn on_time_generator_has_no_lag() {
        let mut p = Pacer::new(1000);
        for i in 0..5u64 {
            let now = i * 1_000_000;
            let due = p.poll(now).expect("due exactly now");
            assert_eq!((due.index, due.due_ns, due.lag_ns), (i, now, 0));
            assert_eq!(p.poll(now), None, "one op per millisecond");
            assert_eq!(p.until_next(now), 1_000_000);
        }
    }

    #[test]
    fn a_stall_charges_every_op_that_became_due_during_it() {
        let mut p = Pacer::new(1000);
        assert_eq!(p.poll(0).map(|d| d.index), Some(0));
        // The generator is held up for 50 ms.
        let now = 50_000_000;
        let mut late = Vec::new();
        while let Some(due) = p.poll(now) {
            late.push(due);
        }
        assert_eq!(late.len(), 50, "ops 1..=50 were due meanwhile");
        assert_eq!(late[0].due_ns, 1_000_000);
        assert_eq!(late[0].lag_ns, 49_000_000, "the first waited longest");
        assert_eq!(late[49].lag_ns, 0);
        // A reply arriving right now is timed from the due instant, so
        // op 1's latency includes the 49 ms it sat unsent.
        let latency_of_first = now - late[0].due_ns;
        assert_eq!(latency_of_first, 49_000_000);
        // The schedule itself did not slip: op 51 is still due at 51 ms.
        assert_eq!(p.until_next(now), 1_000_000);
    }
}
