//! Wall-clock profiling of the data plane: per-PE event rings and
//! contention meters.
//!
//! The modeled meters of `tricount-comm` are deliberately blind to wall
//! time — they are bit-compared across schedules. This module is the
//! complementary instrument: when a plane is built by
//! [`crate::threads::endpoints`] with a ring capacity, every
//! endpoint carries a fixed-capacity [`ProbeRing`] recording sends,
//! receives and barrier enter/exit with nanosecond wall stamps, plus a set
//! of [`ContentionMeters`] (queue lock-wait, occupancy high-water, barrier
//! wait). Everything is thread-local to the owning PE — recording is a
//! bounds check and a `Vec::push`, never a lock — and the logs are drained
//! *after* the run, when the rank threads have been joined.
//!
//! Overflow discipline: a full ring counts the drop and moves on. The
//! profiler must never stall or reorder the data plane it observes; the
//! non-perturbation tests in `tricount-verify` hold the modeled counters of
//! profiled runs bit-equal to unprofiled ones.

use std::sync::{Arc, Mutex, PoisonError};

/// Default per-PE ring capacity (events), used when the caller passes 0.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What happened, from the recording PE's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallEventKind {
    /// This PE pushed a message onto the queue towards `to`.
    Send {
        /// Destination rank.
        to: usize,
        /// Per-`(src, dst)` sequence number of the message.
        seq: u64,
        /// Payload length in machine words.
        words: u64,
    },
    /// This PE popped a message that `from` had pushed.
    Recv {
        /// Source rank.
        from: usize,
        /// Per-`(src, dst)` sequence number of the message.
        seq: u64,
        /// Payload length in machine words.
        words: u64,
    },
    /// This PE arrived at the barrier.
    BarrierEnter,
    /// The barrier released this PE.
    BarrierExit,
}

/// One recorded event: what happened and when (nanoseconds since the
/// transport's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallEvent {
    /// The event.
    pub kind: WallEventKind,
    /// Wall nanoseconds since the data plane was built.
    pub t_nanos: u64,
}

/// A fixed-capacity event log. Overflow is a counted drop, never a stall:
/// the ring exists to observe the transport, not to throttle it.
#[derive(Debug)]
pub struct ProbeRing {
    events: Vec<WallEvent>,
    capacity: usize,
    dropped: u64,
}

impl ProbeRing {
    /// A ring holding at most `capacity` events (0 selects
    /// [`DEFAULT_RING_CAPACITY`]).
    pub fn new(capacity: usize) -> ProbeRing {
        let capacity = if capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            capacity
        };
        ProbeRing {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event, or counts a drop when full.
    #[inline]
    pub fn record(&mut self, kind: WallEventKind, t_nanos: u64) {
        if self.events.len() < self.capacity {
            self.events.push(WallEvent { kind, t_nanos });
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[WallEvent] {
        &self.events
    }

    /// Events that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring into its recorded events and drop count.
    pub fn into_events(self) -> (Vec<WallEvent>, u64) {
        (self.events, self.dropped)
    }
}

/// Per-PE contention meters, fixed-size regardless of traffic volume (they
/// survive ring overflow untouched).
#[derive(Debug, Clone)]
pub struct ContentionMeters {
    /// Nanoseconds spent acquiring the outgoing queue lock, per destination.
    pub send_lock_wait_nanos: Vec<u64>,
    /// Nanoseconds spent acquiring the incoming queue lock, per source.
    pub recv_lock_wait_nanos: Vec<u64>,
    /// High-water occupancy (messages) of each outgoing queue, per
    /// destination, observed at push time.
    pub occupancy_highwater: Vec<u64>,
    /// Nanoseconds spent waiting at the barrier (the name predates the
    /// blocking barrier; exported metric names keep it).
    pub barrier_spin_nanos: u64,
    /// Barrier waits performed.
    pub barrier_waits: u64,
}

impl ContentionMeters {
    /// Zeroed meters for a `p`-PE run.
    pub fn new(p: usize) -> ContentionMeters {
        ContentionMeters {
            send_lock_wait_nanos: vec![0; p],
            recv_lock_wait_nanos: vec![0; p],
            occupancy_highwater: vec![0; p],
            barrier_spin_nanos: 0,
            barrier_waits: 0,
        }
    }
}

/// One PE's complete wall-clock log, deposited when its endpoint drops.
#[derive(Debug)]
pub struct PeWallLog {
    /// The owning rank.
    pub rank: usize,
    /// Recorded events in program order.
    pub events: Vec<WallEvent>,
    /// Events the ring could not hold.
    pub dropped: u64,
    /// The PE's contention meters.
    pub meters: ContentionMeters,
}

/// Post-run deposit area: one slot per rank, filled by each endpoint's
/// `Drop`. The runtime joins every rank thread before draining, so a full
/// run always yields `p` logs.
#[derive(Debug)]
pub struct WallCollector {
    slots: Vec<Mutex<Option<PeWallLog>>>,
    ring_capacity: usize,
}

impl WallCollector {
    /// A collector for a `p`-PE run (capacity 0 selects the default).
    pub fn new(p: usize, ring_capacity: usize) -> WallCollector {
        let ring_capacity = if ring_capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            ring_capacity
        };
        WallCollector {
            slots: (0..p).map(|_| Mutex::new(None)).collect(),
            ring_capacity,
        }
    }

    /// The per-PE ring capacity this run profiles with.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// Deposits one PE's log (called from the endpoint's `Drop`).
    pub fn deposit(&self, log: PeWallLog) {
        let rank = log.rank;
        *self.slots[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(log);
    }

    /// Drains the deposited logs into a [`WallProfile`]. Ranks that never
    /// deposited (a panicked run) come back as empty logs, so the profile
    /// is always structurally complete.
    pub fn drain(self: Arc<Self>) -> WallProfile {
        let p = self.slots.len();
        let ring_capacity = self.ring_capacity;
        let per_pe: Vec<PeWallLog> = self
            .slots
            .iter()
            .enumerate()
            .map(|(rank, slot)| {
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .unwrap_or(PeWallLog {
                        rank,
                        events: Vec::new(),
                        dropped: 0,
                        meters: ContentionMeters::new(p),
                    })
            })
            .collect();
        WallProfile {
            p,
            ring_capacity,
            per_pe,
        }
    }
}

/// The drained wall-clock record of one profiled run.
#[derive(Debug)]
pub struct WallProfile {
    /// Number of PEs.
    pub p: usize,
    /// Per-PE ring capacity the run recorded under.
    pub ring_capacity: usize,
    /// One log per rank, indexed by rank.
    pub per_pe: Vec<PeWallLog>,
}

impl WallProfile {
    /// Events recorded over all PEs.
    pub fn events_recorded(&self) -> u64 {
        self.per_pe.iter().map(|l| l.events.len() as u64).sum()
    }

    /// Events dropped over all PEs (ring overflow).
    pub fn events_dropped(&self) -> u64 {
        self.per_pe.iter().map(|l| l.dropped).sum()
    }

    /// Folds the per-PE meters into the compact [`ContentionSummary`] that
    /// rides on `RunStats`.
    pub fn contention(&self) -> ContentionSummary {
        let p = self.p;
        let mut s = ContentionSummary {
            p,
            send_lock_wait_nanos: vec![0; p],
            recv_lock_wait_nanos: vec![0; p],
            occupancy_highwater: vec![0; p],
            barrier_spin_nanos: vec![0; p],
            barrier_waits: vec![0; p],
            pair_lock_wait_nanos: vec![vec![0; p]; p],
            events_recorded: self.events_recorded(),
            events_dropped: self.events_dropped(),
        };
        for log in &self.per_pe {
            let r = log.rank;
            s.send_lock_wait_nanos[r] = log.meters.send_lock_wait_nanos.iter().sum();
            s.recv_lock_wait_nanos[r] = log.meters.recv_lock_wait_nanos.iter().sum();
            s.occupancy_highwater[r] = log
                .meters
                .occupancy_highwater
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            s.barrier_spin_nanos[r] = log.meters.barrier_spin_nanos;
            s.barrier_waits[r] = log.meters.barrier_waits;
            for (dst, &w) in log.meters.send_lock_wait_nanos.iter().enumerate() {
                s.pair_lock_wait_nanos[r][dst] = w;
            }
        }
        s
    }
}

/// Contention summary of one profiled run, carried on
/// `tricount_comm::RunStats` and rendered into Prometheus. All quantities
/// are *measured* wall properties of the host — deliberately outside the
/// modeled `Counters`, which stay bit-identical whether or not this record
/// exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionSummary {
    /// Number of PEs.
    pub p: usize,
    /// Per-PE send-side queue lock-wait nanoseconds (summed over peers).
    pub send_lock_wait_nanos: Vec<u64>,
    /// Per-PE receive-side queue lock-wait nanoseconds (summed over peers).
    pub recv_lock_wait_nanos: Vec<u64>,
    /// Per-PE high-water occupancy over that PE's outgoing queues.
    pub occupancy_highwater: Vec<u64>,
    /// Per-PE nanoseconds spent waiting at barriers.
    pub barrier_spin_nanos: Vec<u64>,
    /// Per-PE barrier waits.
    pub barrier_waits: Vec<u64>,
    /// Send-side lock-wait nanoseconds per ordered pair:
    /// `pair_lock_wait_nanos[src][dst]`.
    pub pair_lock_wait_nanos: Vec<Vec<u64>>,
    /// Events recorded over all rings.
    pub events_recorded: u64,
    /// Events dropped over all rings (overflow).
    pub events_dropped: u64,
}

impl ContentionSummary {
    /// Total queue lock-wait seconds over all PEs, both directions.
    pub fn lock_wait_seconds(&self) -> f64 {
        let nanos: u64 = self.send_lock_wait_nanos.iter().sum::<u64>()
            + self.recv_lock_wait_nanos.iter().sum::<u64>();
        nanos as f64 / 1e9
    }

    /// Total barrier wait seconds over all PEs.
    pub fn barrier_spin_seconds(&self) -> f64 {
        self.barrier_spin_nanos.iter().sum::<u64>() as f64 / 1e9
    }

    /// Largest outgoing-queue occupancy observed on any PE.
    pub fn max_occupancy(&self) -> u64 {
        self.occupancy_highwater.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overflow_counts_drops() {
        let mut ring = ProbeRing::new(2);
        for i in 0..5 {
            ring.record(WallEventKind::BarrierEnter, i);
        }
        assert_eq!(ring.events().len(), 2);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn zero_capacity_selects_default() {
        let ring = ProbeRing::new(0);
        assert_eq!(ring.capacity, DEFAULT_RING_CAPACITY);
        let coll = WallCollector::new(2, 0);
        assert_eq!(coll.ring_capacity(), DEFAULT_RING_CAPACITY);
    }

    #[test]
    fn collector_drains_missing_ranks_as_empty() {
        let coll = Arc::new(WallCollector::new(3, 8));
        coll.deposit(PeWallLog {
            rank: 1,
            events: vec![WallEvent {
                kind: WallEventKind::BarrierEnter,
                t_nanos: 5,
            }],
            dropped: 2,
            meters: ContentionMeters::new(3),
        });
        let profile = coll.drain();
        assert_eq!(profile.p, 3);
        assert_eq!(profile.per_pe.len(), 3);
        assert_eq!(profile.per_pe[1].events.len(), 1);
        assert_eq!(profile.events_dropped(), 2);
        assert!(profile.per_pe[0].events.is_empty());
    }

    #[test]
    fn contention_summary_folds_meters() {
        let mut log0 = PeWallLog {
            rank: 0,
            events: Vec::new(),
            dropped: 1,
            meters: ContentionMeters::new(2),
        };
        log0.meters.send_lock_wait_nanos[1] = 100;
        log0.meters.recv_lock_wait_nanos[1] = 50;
        log0.meters.occupancy_highwater[1] = 7;
        log0.meters.barrier_spin_nanos = 1_000;
        log0.meters.barrier_waits = 3;
        let profile = WallProfile {
            p: 2,
            ring_capacity: 8,
            per_pe: vec![
                log0,
                PeWallLog {
                    rank: 1,
                    events: Vec::new(),
                    dropped: 0,
                    meters: ContentionMeters::new(2),
                },
            ],
        };
        let s = profile.contention();
        assert_eq!(s.send_lock_wait_nanos, vec![100, 0]);
        assert_eq!(s.pair_lock_wait_nanos[0][1], 100);
        assert_eq!(s.occupancy_highwater, vec![7, 0]);
        assert_eq!(s.barrier_waits, vec![3, 0]);
        assert_eq!(s.events_dropped, 1);
        assert!((s.lock_wait_seconds() - 150e-9).abs() < 1e-15);
        assert!((s.barrier_spin_seconds() - 1e-6).abs() < 1e-12);
        assert_eq!(s.max_occupancy(), 7);
    }
}
