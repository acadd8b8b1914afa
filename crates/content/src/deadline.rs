//! The deadline clock: the **only** module on the serving path that reads
//! wall-clock time. The cooperative budget discipline (PR 7) depends on
//! every serving walk routing its time reads through the strided, lazily
//! armed [`Deadline`] — a stray `Instant::now()` on a hot loop both costs
//! a vDSO call per member and bypasses the chunk-granular check cadence
//! the E12 overhead gate was measured against. The `clock_confined` rule
//! of `socialscope_analysis` enforces this boundary: serving crates may
//! read `Instant::now()` / `SystemTime::now()` only here (or under an
//! inline `// lint: allow(clock_confined, ...)` pragma naming the reason).

/// Deadline-check granularity, applied at two levels: the serving walks
/// call [`Deadline::expired`] once per `DEADLINE_CHECK_STRIDE`-member
/// chunk (exact-index members serve in tens of nanoseconds — even a
/// per-member branch on an armed budget costs more than the serving it
/// guards), and an armed [`Deadline`] reads the monotonic clock on its
/// first check and then every `DEADLINE_CHECK_STRIDE`th. Together the
/// budget overhead stays under the sub-percent noise floor while
/// expiry-detection lag stays bounded (at most `STRIDE × STRIDE` members
/// past the actual instant — and an already-expired budget still degrades
/// every member, because the first check always reads the clock).
pub(crate) const DEADLINE_CHECK_STRIDE: usize = 32;

/// The armed (or unarmed) deadline clock of one batch call, built once at
/// the `query_batch_opts` entry and copied into every serving worker.
/// Without a budget, [`Self::expired`] is a single branch on a `None` —
/// the unbounded path stays effectively free. With one, the clock is
/// armed *lazily*: a worker's first cooperative check reads the monotonic
/// clock once (so an already-expired budget, e.g. zero, still degrades
/// every member), then every [`DEADLINE_CHECK_STRIDE`]th check re-reads
/// it. Batch calls that never reach a serving walk — e.g. keyword sets
/// that resolve to nothing and take the defined-empty early return —
/// never read the clock at all. The [`crate::faults::DEADLINE`] failpoint
/// fires on *every* check — stride or not — so fault-injection tests
/// count cooperative checks, not clock reads.
#[derive(Clone, Copy)]
pub(crate) struct Deadline {
    /// The armed budget; `None` = unbounded.
    budget: Option<std::time::Duration>,
    /// The absolute expiry instant, armed by the first clock read.
    at: Option<std::time::Instant>,
    /// Checks remaining before the next clock read; 0 = read now.
    until_check: u32,
}

impl Deadline {
    pub(crate) fn new(budget: Option<std::time::Duration>) -> Self {
        Deadline { budget, at: None, until_check: 0 }
    }

    /// One cooperative check. Once true, every later check is also true
    /// (time is monotonic, the injected-fault clock is sticky, and the
    /// stride counter only rearms after a *non*-expired clock read).
    pub(crate) fn expired(&mut self) -> bool {
        let Some(budget) = self.budget else { return false };
        if crate::faults::fire(crate::faults::DEADLINE).is_err() {
            return true;
        }
        if self.until_check > 0 {
            self.until_check -= 1;
            return false;
        }
        let now = std::time::Instant::now();
        let Some(at) = self.at.or_else(|| now.checked_add(budget)) else {
            // An expiry past the clock's range never comes: the budget
            // disarms and the batch serves unbounded.
            self.budget = None;
            return false;
        };
        self.at = Some(at);
        let expired = now >= at;
        if !expired {
            self.until_check = DEADLINE_CHECK_STRIDE as u32 - 1;
        }
        expired
    }
}
