//! The data plane: thread-per-PE over shared memory.
//!
//! Point-to-point traffic flows through one SPSC queue per ordered PE pair
//! — a single producer (the sending rank) and a single consumer (the
//! receiving rank) per queue, never more. Each queue pairs a `VecDeque`
//! behind a mutex with an **atomic occupancy counter**: the receive poll
//! loop reads the counter and touches no lock until a message is actually
//! present, so an idle poll across `p − 1` sources is lock-free. (A
//! classic index-ring SPSC would drop the remaining per-message lock, but
//! needs `UnsafeCell` slots and this workspace forbids `unsafe`; with one
//! producer and one consumer the O(1) critical sections here are
//! contended only during the actual hand-off.) Per-pair queues are also
//! what gives the wall probe its per-peer lock-wait and occupancy meters.
//!
//! Barriers are the blocking [`PoisonBarrier`]; collectives deposit into
//! per-rank mutex cells bracketed by barriers (deposit → barrier →
//! collect → barrier).
//!
//! **Panic poisoning**: when a rank thread unwinds, its endpoint's `Drop`
//! poisons the shared barrier with its rank. Every sibling blocked in a
//! barrier — and every subsequent `try_recv`/`send` — panics immediately
//! instead of waiting on a peer that will never arrive, so the runtime can
//! join all PEs and report the rank that failed first. No leaked threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::barrier::PoisonBarrier;
use crate::profile::{
    ContentionMeters, PeWallLog, ProbeRing, WallCollector, WallEventKind, WallProfile,
};
use crate::Msg;

/// One directed SPSC channel: `src → dst`.
struct PairQueue {
    /// Messages in flight, FIFO.
    q: Mutex<VecDeque<Msg>>,
    /// Occupancy hint: incremented after push, decremented after pop. The
    /// consumer skips the lock entirely while this reads 0.
    len: AtomicUsize,
}

impl PairQueue {
    fn new() -> PairQueue {
        PairQueue {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn push(&self, msg: Msg) {
        self.q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(msg);
        self.len.fetch_add(1, Ordering::Release);
    }

    fn pop(&self) -> Option<Msg> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let msg = self
            .q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        if msg.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        msg
    }

    /// [`PairQueue::push`] plus contention metering: returns the
    /// nanoseconds spent acquiring the lock and the queue depth right
    /// after the push (for occupancy high-water tracking). The data-plane
    /// effect is identical to the unprofiled path.
    fn push_timed(&self, msg: Msg) -> (u64, u64) {
        let t0 = Instant::now();
        let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
        let lock_wait = t0.elapsed().as_nanos() as u64;
        q.push_back(msg);
        let depth = q.len() as u64;
        drop(q);
        self.len.fetch_add(1, Ordering::Release);
        (lock_wait, depth)
    }

    /// [`PairQueue::pop`] plus contention metering: additionally returns
    /// the nanoseconds spent acquiring the lock (0 when the occupancy hint
    /// short-circuits the poll). The data-plane effect is identical to the
    /// unprofiled path.
    fn pop_timed(&self) -> (Option<Msg>, u64) {
        if self.len.load(Ordering::Acquire) == 0 {
            return (None, 0);
        }
        let t0 = Instant::now();
        let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
        let lock_wait = t0.elapsed().as_nanos() as u64;
        let msg = q.pop_front();
        drop(q);
        if msg.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        (msg, lock_wait)
    }
}

/// State shared by all endpoints of one run.
struct Mesh {
    p: usize,
    /// `chan[src * p + dst]` — the SPSC queue from `src` to `dst`.
    chan: Vec<PairQueue>,
    barrier: PoisonBarrier,
    /// Collective deposit slots (allgather rendezvous), one per rank.
    slots: Vec<Mutex<Vec<u64>>>,
    /// All-to-all deposit rows, `mat[src]` holding what `src` sends.
    mat: Vec<Mutex<Vec<Vec<u64>>>>,
}

/// The run-side handle on a data plane: what the runtime keeps after the
/// endpoints have moved into the rank threads.
pub struct Plane {
    mesh: Arc<Mesh>,
    wall: Option<Arc<WallCollector>>,
}

impl Plane {
    /// The rank whose endpoint dropped first during a panic, if any.
    pub fn first_panicked(&self) -> Option<usize> {
        self.mesh.barrier.poisoned_by()
    }

    /// Drains the wall-clock profile of a profiled plane (`None` when the
    /// plane was built without one). Call after every rank thread has been
    /// joined: each endpoint deposits its log when it drops.
    pub fn drain_wall(self) -> Option<WallProfile> {
        self.wall.map(WallCollector::drain)
    }
}

/// Builds the data plane for a `p`-PE run and returns one endpoint per
/// rank (indexed by rank, ready to be moved into the rank threads) plus
/// the run-side [`Plane`] handle.
///
/// With `wall_ring = Some(capacity)` every endpoint carries a wall-clock
/// probe: an event ring of `capacity` entries (0 selects the default) plus
/// contention meters, drained through [`Plane::drain_wall`].
pub fn endpoints(p: usize, wall_ring: Option<usize>) -> (Vec<Endpoint>, Plane) {
    assert!(p > 0, "need at least one PE");
    let mesh = Arc::new(Mesh {
        p,
        chan: (0..p * p).map(|_| PairQueue::new()).collect(),
        barrier: PoisonBarrier::new(p),
        slots: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
        mat: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
    });
    let wall = wall_ring.map(|capacity| Arc::new(WallCollector::new(p, capacity)));
    let epoch = Instant::now();
    let eps = (0..p)
        .map(|rank| Endpoint {
            rank,
            mesh: Arc::clone(&mesh),
            cursor: 0,
            probe: wall.as_ref().map(|coll| ProbeState {
                epoch,
                ring: ProbeRing::new(coll.ring_capacity()),
                meters: ContentionMeters::new(p),
                collector: Arc::clone(coll),
            }),
        })
        .collect();
    (eps, Plane { mesh, wall })
}

/// Per-endpoint wall-clock probe: event ring, contention meters, and the
/// collector the log is deposited into when the endpoint drops. Owned by
/// the rank thread.
struct ProbeState {
    epoch: Instant,
    ring: ProbeRing,
    meters: ContentionMeters,
    collector: Arc<WallCollector>,
}

impl ProbeState {
    #[inline]
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One PE's handle on the data plane. Handed to the rank thread that owns
/// it; all methods are called from that thread only.
///
/// The contract:
///
/// * **Per-channel FIFO** — messages from a fixed `(src, dst)` pair are
///   received in send order (cross-channel order is unspecified, exactly
///   like MPI).
/// * **Loss-free between barriers** — a message sent before a barrier the
///   receiver passes is eventually returned by `try_recv`.
/// * **`exchange`/`exchange_matrix` are collectives** — every rank calls
///   them the same number of times in the same order; they synchronise
///   internally (deposit → barrier → collect → barrier).
pub struct Endpoint {
    rank: usize,
    mesh: Arc<Mesh>,
    /// Round-robin receive cursor over source ranks, for fairness under
    /// sustained traffic from multiple peers.
    cursor: usize,
    /// Wall-clock probe, present only on profiled runs.
    probe: Option<ProbeState>,
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // An endpoint dropped mid-unwind means its PE died with the
        // protocol incomplete: poison the transport so siblings fail fast
        // instead of waiting on a peer that will never arrive.
        if std::thread::panicking() {
            self.mesh.barrier.poison(self.rank);
        }
        // Deposit the wall log unconditionally (panicking or not): the
        // runtime joins every rank thread before draining the collector.
        if let Some(st) = self.probe.take() {
            let (events, dropped) = st.ring.into_events();
            st.collector.deposit(PeWallLog {
                rank: self.rank,
                events,
                dropped,
                meters: st.meters,
            });
        }
    }
}

impl Endpoint {
    /// Enqueues `msg` for delivery to `to`. Never blocks.
    pub fn send(&mut self, to: usize, msg: Msg) {
        self.mesh.barrier.check_poison();
        let q = &self.mesh.chan[self.rank * self.mesh.p + to];
        match &mut self.probe {
            None => q.push(msg),
            Some(st) => {
                let (seq, words) = (msg.seq, msg.words.len() as u64);
                let (lock_wait, depth) = q.push_timed(msg);
                let t = st.now_nanos();
                st.meters.send_lock_wait_nanos[to] += lock_wait;
                if depth > st.meters.occupancy_highwater[to] {
                    st.meters.occupancy_highwater[to] = depth;
                }
                st.ring.record(WallEventKind::Send { to, seq, words }, t);
            }
        }
    }

    /// Non-blocking receive of one pending message, or `None`.
    pub fn try_recv(&mut self) -> Option<Msg> {
        self.mesh.barrier.check_poison();
        let p = self.mesh.p;
        for i in 0..p {
            let src = (self.cursor + i) % p;
            if src == self.rank {
                continue;
            }
            let q = &self.mesh.chan[src * p + self.rank];
            let msg = match &mut self.probe {
                None => q.pop(),
                Some(st) => {
                    let (msg, lock_wait) = q.pop_timed();
                    st.meters.recv_lock_wait_nanos[src] += lock_wait;
                    if let Some(m) = &msg {
                        let t = st.now_nanos();
                        st.ring.record(
                            WallEventKind::Recv {
                                from: m.src,
                                seq: m.seq,
                                words: m.words.len() as u64,
                            },
                            t,
                        );
                    }
                    msg
                }
            };
            if let Some(msg) = msg {
                // resume the scan *after* the source that just delivered
                self.cursor = (src + 1) % p;
                return Some(msg);
            }
        }
        None
    }

    /// Synchronises all PEs (no cost accounting at this layer).
    pub fn barrier(&mut self) {
        let Some(st) = &mut self.probe else {
            self.mesh.barrier.wait();
            return;
        };
        let t_enter = st.now_nanos();
        st.ring.record(WallEventKind::BarrierEnter, t_enter);
        self.mesh.barrier.wait();
        let t_exit = st.now_nanos();
        st.ring.record(WallEventKind::BarrierExit, t_exit);
        st.meters.barrier_spin_nanos += t_exit.saturating_sub(t_enter);
        st.meters.barrier_waits += 1;
    }

    /// All-gather rendezvous: deposits `data`, returns every rank's
    /// contribution indexed by rank.
    pub fn exchange(&mut self, data: Vec<u64>) -> Vec<Vec<u64>> {
        *self.mesh.slots[self.rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = data;
        self.barrier();
        let out: Vec<Vec<u64>> = self
            .mesh
            .slots
            .iter()
            .map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        self.barrier();
        out
    }

    /// All-to-all rendezvous: `rows[d]` goes to rank `d`; returns what
    /// every rank sent here, indexed by source rank.
    pub fn exchange_matrix(&mut self, rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        *self.mesh.mat[self.rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = rows;
        self.barrier();
        let incoming: Vec<Vec<u64>> = (0..self.mesh.p)
            .map(|src| {
                let row = self.mesh.mat[src]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                row.get(self.rank).cloned().unwrap_or_default()
            })
            .collect();
        self.barrier();
        incoming
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_queue_is_fifo_under_load() {
        let q = Arc::new(PairQueue::new());
        let producer = Arc::clone(&q);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..10_000u64 {
                    producer.push(Msg {
                        src: 0,
                        seq: i,
                        words: vec![i],
                        arrival: 0.0,
                    });
                }
            });
            let mut expect = 0u64;
            while expect < 10_000 {
                if let Some(m) = q.pop() {
                    assert_eq!(m.seq, expect);
                    expect += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
    }

    /// A profiled 2-PE ping-pong: both rings record the traffic, the
    /// collector drains a structurally complete profile, and send→recv
    /// pairs match by sequence number.
    #[test]
    fn profiled_endpoints_record_traffic_and_barriers() {
        let (eps, plane) = endpoints(2, Some(0));
        std::thread::scope(|scope| {
            for (rank, mut ep) in eps.into_iter().enumerate() {
                scope.spawn(move || {
                    for seq in 0..5u64 {
                        ep.send(
                            1 - rank,
                            Msg {
                                src: rank,
                                seq,
                                words: vec![seq; 3],
                                arrival: 0.0,
                            },
                        );
                    }
                    let mut got = 0;
                    while got < 5 {
                        if ep.try_recv().is_some() {
                            got += 1;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    ep.barrier();
                });
            }
        });
        let profile = plane.drain_wall().unwrap();
        assert_eq!(profile.p, 2);
        assert_eq!(profile.events_dropped(), 0);
        for log in &profile.per_pe {
            let sends = log
                .events
                .iter()
                .filter(|e| matches!(e.kind, WallEventKind::Send { .. }))
                .count();
            let recvs = log
                .events
                .iter()
                .filter(|e| matches!(e.kind, WallEventKind::Recv { .. }))
                .count();
            assert_eq!(sends, 5, "rank {} sends", log.rank);
            assert_eq!(recvs, 5, "rank {} recvs", log.rank);
            assert_eq!(log.meters.barrier_waits, 1, "rank {}", log.rank);
        }
        let s = profile.contention();
        assert_eq!(s.events_recorded, profile.events_recorded());
        assert!(s.max_occupancy() >= 1, "at least one message was queued");
    }

    /// A tiny ring on a profiled run overflows into counted drops; the
    /// data plane itself is unaffected and every message still arrives.
    #[test]
    fn profiled_ring_overflow_drops_never_stalls() {
        let (eps, plane) = endpoints(2, Some(4));
        std::thread::scope(|scope| {
            for (rank, mut ep) in eps.into_iter().enumerate() {
                scope.spawn(move || {
                    for seq in 0..100u64 {
                        ep.send(
                            1 - rank,
                            Msg {
                                src: rank,
                                seq,
                                words: vec![seq],
                                arrival: 0.0,
                            },
                        );
                    }
                    let mut expect = 0u64;
                    while expect < 100 {
                        if let Some(m) = ep.try_recv() {
                            assert_eq!(m.seq, expect, "FIFO must survive profiling");
                            expect += 1;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        let profile = plane.drain_wall().unwrap();
        assert!(profile.events_dropped() > 0, "tiny ring must overflow");
        for log in &profile.per_pe {
            assert_eq!(log.events.len(), 4, "rank {} ring capacity", log.rank);
        }
    }

    #[test]
    fn peer_panic_poisons_the_transport() {
        let (eps, plane) = endpoints(3, None);
        // endpoints are consumed whole by the rank threads; unwind safety
        // is the very property under test
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            std::thread::scope(|scope| {
                for (rank, ep) in eps.into_iter().enumerate() {
                    scope.spawn(move || {
                        // bind the endpoint in the panicking thread so its
                        // Drop runs during the unwind
                        let mut ep = ep;
                        if rank == 1 {
                            panic!("rank 1 dies");
                        }
                        // siblings head into a barrier rank 1 never reaches
                        ep.barrier();
                    });
                }
            })
        }));
        assert!(outcome.is_err(), "scope must re-raise, not hang");
        assert_eq!(plane.first_panicked(), Some(1), "the poison names rank 1");
    }
}
