//! What the Dimmunix core reports to the runtime hosting it: events for
//! the host to read, wakes for it to apply.

use crate::ids::ThreadId;
use crate::signature::Signature;

/// What Dimmunix reports to its host beyond a request's outcome and
/// wakes. Lock operations themselves are not reported: [`crate::CoreStats`]
/// counts them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The detection module found a deadlock and extracted its signature.
    DeadlockDetected {
        /// The extracted signature (already added to the history).
        signature: Signature,
    },
    /// The false-positive detector flagged a signature (§III-C1: ≥100
    /// instantiations, no true positive, >10 instantiations in some 1 s
    /// window).
    FalsePositiveSuspect {
        /// History index of the suspect signature.
        sig_index: usize,
    },
}

/// A wake-up instruction for the hosting runtime: a parked thread's
/// request has concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The thread now owns the lock it requested; unpark it.
    Granted(ThreadId),
    /// The thread's request was aborted as a deadlock victim; its lock
    /// operation must fail so the application can unwind.
    Aborted(ThreadId),
}

impl Wake {
    /// The thread this wake targets.
    pub fn thread(&self) -> ThreadId {
        match self {
            Wake::Granted(t) | Wake::Aborted(t) => *t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_thread_accessor() {
        assert_eq!(Wake::Granted(ThreadId(4)).thread(), ThreadId(4));
        assert_eq!(Wake::Aborted(ThreadId(5)).thread(), ThreadId(5));
    }
}
