//! Deterministic fault injection for the message-passing substrate.
//!
//! Roadrunner-scale campaigns only completed because VPIC could survive the
//! machine's mean time between interrupts; to *test* that survival in-process
//! a run can be handed a [`FaultPlan`]: a seed-driven, reproducible schedule
//! of message faults (drop / delay / duplicate / corrupt) and rank kills.
//!
//! Semantics:
//!
//! * Message faults apply on the **sending** rank, to application traffic
//!   only — never to the recovery rendezvous protocol (real resilience
//!   layers harden their control channel the same way).
//! * [`Trigger::AtStep`] and [`Trigger::OnMessage`] rules are **one-shot**:
//!   they fire for a single message (or a single kill) and are then spent,
//!   so a rolled-back-and-replayed campaign does not re-injure itself on
//!   the same deterministic trigger.
//! * [`Trigger::WithProbability`] rules draw from a splitmix64 stream seeded
//!   from `(plan.seed, rank)` and keep firing for the whole run; the stream
//!   is *not* rewound by rollback, so replays see fresh (but reproducible
//!   given the whole history) draws.
//! * A kill takes effect at the victim's next [`Comm::tick`](crate::Comm::tick):
//!   step-triggered kills fire at the first tick with `step >= n`, and
//!   count-triggered ([`Trigger::OnMessage`]) kills arm on the matching send
//!   (the message itself is still delivered) and land at the following tick.
//!   From then on every communication call on that rank returns
//!   [`CommError::Killed`](crate::CommError::Killed) until the rank is
//!   revived by [`Comm::recover`](crate::Comm::recover).

use std::sync::Arc;
use std::time::Duration;

/// What to do to a message (or rank) when a rule fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Silently discard the message (the receiver times out).
    Drop,
    /// Deliver the message after sleeping this long.
    Delay(Duration),
    /// Deliver the message twice.
    Duplicate,
    /// Deliver the message flagged corrupt; the receiver's integrity check
    /// rejects it with [`CommError::Corrupt`](crate::CommError::Corrupt).
    Corrupt,
    /// Kill the rank (takes effect at `tick`, not per message).
    Kill,
}

/// When a rule fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// First opportunity at or after campaign step `n` (one-shot).
    AtStep(u64),
    /// The `n`-th message sent by the rank, counting from 1 (one-shot).
    OnMessage(u64),
    /// Every message independently with probability `p` (never spent).
    WithProbability(f64),
}

/// One fault rule: `kind` happens on `rank` when `trigger` fires.
#[derive(Clone, Debug)]
pub struct FaultRule {
    pub rank: usize,
    pub kind: FaultKind,
    pub trigger: Trigger,
}

/// A frame-level network partition: every message between ranks `a` and
/// `b` (both directions) is silently dropped for steps in
/// `[from_step, until_step)`. Receivers see timeouts; the link heals when
/// the window ends. Not one-shot — the cut holds for the whole window,
/// including across rollback replays of those steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionRule {
    pub a: usize,
    pub b: usize,
    pub from_step: u64,
    pub until_step: u64,
}

/// A reproducible schedule of injected faults for one run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
    pub partitions: Vec<PartitionRule>,
}

impl FaultPlan {
    /// Empty plan with the given probability-stream seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Add an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Kill `rank` at its first `tick` with step `>= step`.
    pub fn kill(self, rank: usize, step: u64) -> Self {
        self.rule(FaultRule {
            rank,
            kind: FaultKind::Kill,
            trigger: Trigger::AtStep(step),
        })
    }

    /// Drop the `nth` message (1-based) sent by `rank`.
    pub fn drop_message(self, rank: usize, nth: u64) -> Self {
        self.rule(FaultRule {
            rank,
            kind: FaultKind::Drop,
            trigger: Trigger::OnMessage(nth),
        })
    }

    /// Drop each message sent by `rank` with probability `p`.
    pub fn drop_messages(self, rank: usize, p: f64) -> Self {
        self.rule(FaultRule {
            rank,
            kind: FaultKind::Drop,
            trigger: Trigger::WithProbability(p),
        })
    }

    /// Corrupt the `nth` message (1-based) sent by `rank`.
    pub fn corrupt_message(self, rank: usize, nth: u64) -> Self {
        self.rule(FaultRule {
            rank,
            kind: FaultKind::Corrupt,
            trigger: Trigger::OnMessage(nth),
        })
    }

    /// Deliver the `nth` message (1-based) sent by `rank` twice.
    pub fn duplicate_message(self, rank: usize, nth: u64) -> Self {
        self.rule(FaultRule {
            rank,
            kind: FaultKind::Duplicate,
            trigger: Trigger::OnMessage(nth),
        })
    }

    /// Cut the link between ranks `a` and `b` (both directions) for steps
    /// in `[from_step, until_step)`.
    pub fn partition(mut self, a: usize, b: usize, from_step: u64, until_step: u64) -> Self {
        self.partitions.push(PartitionRule {
            a,
            b,
            from_step,
            until_step,
        });
        self
    }

    /// Delay each message sent by `rank` with probability `p` by `by`.
    pub fn delay_messages(self, rank: usize, p: f64, by: Duration) -> Self {
        self.rule(FaultRule {
            rank,
            kind: FaultKind::Delay(by),
            trigger: Trigger::WithProbability(p),
        })
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-rank live fault-injection state (plan + probability stream + spent
/// flags + message/step counters).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: Option<Arc<FaultPlan>>,
    rank: usize,
    rng: u64,
    msg_seq: u64,
    step: u64,
    spent: Vec<bool>,
    /// Armed by a count-triggered kill rule on the send path; consumed by
    /// the next `kill_due` (ticks live on the step path, where the message
    /// counter is not advanced).
    pending_kill: bool,
}

impl FaultState {
    pub(crate) fn new(plan: Option<Arc<FaultPlan>>, rank: usize) -> Self {
        let (rng, n_rules) = match &plan {
            Some(p) => (
                p.seed ^ (0xD6E8_FEB8_6659_FD93u64.wrapping_mul(rank as u64 + 1)),
                p.rules.len(),
            ),
            None => (0, 0),
        };
        FaultState {
            plan,
            rank,
            rng,
            msg_seq: 0,
            step: 0,
            spent: vec![false; n_rules],
            pending_kill: false,
        }
    }

    pub(crate) fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Does a (not yet spent) kill rule fire for this rank at `step`?
    pub(crate) fn kill_due(&mut self, step: u64) -> bool {
        self.step = step;
        if self.pending_kill {
            self.pending_kill = false;
            return true;
        }
        let Some(plan) = self.plan.clone() else {
            return false;
        };
        for (i, rule) in plan.rules.iter().enumerate() {
            if self.spent[i] || rule.rank != self.rank || rule.kind != FaultKind::Kill {
                continue;
            }
            let due = match rule.trigger {
                Trigger::AtStep(n) => step >= n,
                // Count-based kills arm in `on_send`, where the message
                // counter lives; nothing to check on the step path.
                Trigger::OnMessage(_) => false,
                Trigger::WithProbability(p) => self.draw() < p,
            };
            if due {
                self.spent[i] = true;
                return true;
            }
        }
        false
    }

    /// Decide the fate of the next outgoing application message. Returns
    /// the first matching fault, if any. Count-triggered kill rules arm
    /// here (the message is still delivered) and fire at the next tick.
    pub(crate) fn on_send(&mut self) -> Option<FaultKind> {
        self.msg_seq += 1;
        let plan = self.plan.clone()?;
        for (i, rule) in plan.rules.iter().enumerate() {
            if self.spent[i] || rule.rank != self.rank {
                continue;
            }
            if rule.kind == FaultKind::Kill {
                if let Trigger::OnMessage(n) = rule.trigger {
                    if self.msg_seq == n {
                        self.spent[i] = true;
                        self.pending_kill = true;
                    }
                }
                continue;
            }
            let (fires, one_shot) = match rule.trigger {
                Trigger::OnMessage(n) => (self.msg_seq == n, true),
                Trigger::AtStep(n) => (self.step >= n, true),
                Trigger::WithProbability(p) => (self.draw() < p, false),
            };
            if fires {
                if one_shot {
                    self.spent[i] = true;
                }
                return Some(rule.kind.clone());
            }
        }
        None
    }

    /// Is the link from this rank to `to` cut by a partition window at the
    /// current step? (Symmetric: the rule matches either orientation.)
    pub(crate) fn partitioned(&self, to: usize) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        plan.partitions.iter().any(|p| {
            ((p.a == self.rank && p.b == to) || (p.b == self.rank && p.a == to))
                && self.step >= p.from_step
                && self.step < p.until_step
        })
    }

    fn draw(&mut self) -> f64 {
        (splitmix64(&mut self.rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_rules_fire_exactly_once() {
        let plan = Arc::new(FaultPlan::new(1).drop_message(0, 2).kill(0, 5));
        let mut st = FaultState::new(Some(plan), 0);
        assert_eq!(st.on_send(), None); // message 1
        assert_eq!(st.on_send(), Some(FaultKind::Drop)); // message 2
        assert_eq!(st.on_send(), None); // message 3: spent
        assert!(!st.kill_due(4));
        assert!(st.kill_due(6)); // >= 5
        assert!(!st.kill_due(7)); // spent
    }

    #[test]
    fn rules_only_apply_to_their_rank() {
        let plan = Arc::new(FaultPlan::new(1).drop_message(3, 1).kill(2, 0));
        let mut st = FaultState::new(Some(plan), 0);
        assert_eq!(st.on_send(), None);
        assert!(!st.kill_due(10));
    }

    #[test]
    fn every_message_fault_kind_fires_on_its_numbered_message() {
        // Round trip each message-fault kind through the send path: the
        // rule must fire on exactly the (1-based) message its trigger
        // names — not one early, not one late — and exactly once.
        let kinds = [
            FaultKind::Drop,
            FaultKind::Corrupt,
            FaultKind::Duplicate,
            FaultKind::Delay(Duration::from_millis(1)),
        ];
        for kind in kinds {
            let plan = FaultPlan::new(1).rule(FaultRule {
                rank: 0,
                kind: kind.clone(),
                trigger: Trigger::OnMessage(3),
            });
            let mut st = FaultState::new(Some(Arc::new(plan)), 0);
            assert_eq!(st.on_send(), None, "{kind:?} fired on message 1");
            assert_eq!(st.on_send(), None, "{kind:?} fired on message 2");
            assert_eq!(
                st.on_send(),
                Some(kind.clone()),
                "{kind:?} missed message 3"
            );
            assert_eq!(st.on_send(), None, "{kind:?} fired twice");
        }
    }

    #[test]
    fn on_message_trigger_is_one_based() {
        let plan = Arc::new(FaultPlan::new(1).drop_message(0, 1));
        let mut st = FaultState::new(Some(plan), 0);
        assert_eq!(
            st.on_send(),
            Some(FaultKind::Drop),
            "nth=1 is the first message"
        );
        assert_eq!(st.on_send(), None);
    }

    #[test]
    fn count_triggered_kill_arms_on_send_and_fires_at_next_tick() {
        let plan = Arc::new(FaultPlan::new(1).rule(FaultRule {
            rank: 0,
            kind: FaultKind::Kill,
            trigger: Trigger::OnMessage(2),
        }));
        let mut st = FaultState::new(Some(plan), 0);
        assert!(!st.kill_due(0));
        assert_eq!(st.on_send(), None); // message 1
        assert!(!st.kill_due(0));
        assert_eq!(st.on_send(), None); // message 2: arms, still delivered
        assert!(st.kill_due(1), "armed kill did not land at the next tick");
        assert!(!st.kill_due(2), "one-shot kill fired twice");
    }

    #[test]
    fn partition_window_is_symmetric_and_heals() {
        let plan = Arc::new(FaultPlan::new(1).partition(0, 2, 3, 6));
        for rank in [0usize, 2] {
            let other = 2 - rank;
            let mut st = FaultState::new(Some(Arc::clone(&plan)), rank);
            st.set_step(2);
            assert!(!st.partitioned(other), "cut before the window opened");
            st.set_step(3);
            assert!(st.partitioned(other), "window start is inclusive");
            assert!(!st.partitioned(1), "unrelated link cut");
            st.set_step(5);
            assert!(st.partitioned(other));
            st.set_step(6);
            assert!(!st.partitioned(other), "window end is exclusive");
        }
        // A rank outside the pair is never cut.
        let mut st = FaultState::new(Some(plan), 1);
        st.set_step(4);
        assert!(!st.partitioned(0) && !st.partitioned(2));
    }

    #[test]
    fn probability_stream_is_deterministic_per_rank() {
        let plan = Arc::new(FaultPlan::new(99).drop_messages(1, 0.5));
        let fates = |rank| {
            let mut st = FaultState::new(Some(Arc::clone(&plan)), rank);
            (0..32).map(|_| st.on_send().is_some()).collect::<Vec<_>>()
        };
        assert_eq!(fates(1), fates(1));
        // Rank 0 has no matching rule: never fires.
        assert!(fates(0).iter().all(|f| !f));
        // Roughly half of rank 1's messages are dropped.
        let hits = fates(1).iter().filter(|f| **f).count();
        assert!((8..=24).contains(&hits), "{hits} of 32");
    }
}
