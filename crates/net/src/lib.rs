//! `tricount-net` — the data plane under the simulated runtime of
//! `tricount-comm`.
//!
//! Every distributed protocol in this workspace talks to a per-PE
//! communicator (`tricount_comm::Ctx`), which owns one [`Endpoint`] of
//! this crate's data plane: one OS thread per PE over shared memory,
//! point-to-point traffic through per-pair SPSC queues with an atomic
//! occupancy hint (the poll path touches no lock until a message is
//! actually present), a blocking generation barrier, and per-rank deposit
//! cells for the collectives. Peer panics *poison* the transport so
//! sibling PEs fail fast instead of waiting forever; the poison records
//! the first rank that panicked, so `tricount_comm::run_sim` can re-raise
//! the original panic and `run_guarded` can name the failed rank.
//!
//! Delivery control (perturbation, `DeliveryPick`), the deadlock watchdog
//! and the modeled α/β/t_op cost meters live *above* this layer, in the
//! communicator. The optional wall probe ([`profile`]) records per-PE
//! events and contention meters without changing what the plane delivers.
//! The probe binaries (`tricount-pingpong`, `tricount-allgather`) measure
//! the plane's real per-message latency and per-word bandwidth and emit a
//! JSON calibration report whose constants feed
//! `tricount_comm::CostModel::calibrated`.

#![warn(missing_docs)]

mod barrier;
pub mod profile;
pub mod threads;

pub use profile::{
    ContentionMeters, ContentionSummary, PeWallLog, WallCollector, WallEvent, WallEventKind,
    WallProfile,
};
pub use threads::{endpoints, Endpoint, Plane};

/// A raw point-to-point message: the sending rank and a word payload.
///
/// (Re-exported by `tricount-comm` as `RawMsg`; the transport moves it
/// verbatim and never inspects the payload.)
#[derive(Debug)]
pub struct Msg {
    /// Immediate sender (for relayed traffic this is the proxy, not the
    /// originator).
    pub src: usize,
    /// Per-`(src, dst)` sequence number assigned at send time; pairs the
    /// send with its delivery in traces and delivery-order hooks.
    pub seq: u64,
    /// Payload machine words.
    pub words: Vec<u64>,
    /// Simulated arrival time at the receiver (timed runs; 0 otherwise).
    pub arrival: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip() {
        let p = 4;
        let (eps, _) = endpoints(p, None);
        let results: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, mut ep)| {
                    scope.spawn(move || {
                        for d in 0..p {
                            if d != rank {
                                ep.send(
                                    d,
                                    Msg {
                                        src: rank,
                                        seq: 0,
                                        words: vec![rank as u64 + 1],
                                        arrival: 0.0,
                                    },
                                );
                            }
                        }
                        let mut sum = 0u64;
                        let mut got = 0usize;
                        while got < p - 1 {
                            if let Some(m) = ep.try_recv() {
                                sum += m.words[0];
                                got += 1;
                            } else {
                                std::thread::yield_now();
                            }
                        }
                        ep.barrier();
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: u64 = (1..=p as u64).sum();
        for (rank, sum) in results.iter().enumerate() {
            assert_eq!(*sum, total - (rank as u64 + 1), "rank {rank}");
        }
    }

    fn collectives() {
        let p = 3;
        let (eps, _) = endpoints(p, None);
        std::thread::scope(|scope| {
            for (rank, mut ep) in eps.into_iter().enumerate() {
                scope.spawn(move || {
                    // two consecutive exchanges must not smear into each other
                    for round in 0..2u64 {
                        let gathered = ep.exchange(vec![rank as u64 * 10 + round; rank + 1]);
                        for (src, v) in gathered.iter().enumerate() {
                            assert_eq!(v, &vec![src as u64 * 10 + round; src + 1]);
                        }
                    }
                    let rows: Vec<Vec<u64>> =
                        (0..p).map(|d| vec![(rank * 10 + d) as u64]).collect();
                    let incoming = ep.exchange_matrix(rows);
                    for (src, v) in incoming.iter().enumerate() {
                        assert_eq!(v, &vec![(src * 10 + rank) as u64]);
                    }
                });
            }
        });
    }

    #[test]
    fn threads_roundtrip_and_collectives() {
        roundtrip();
        collectives();
    }

    #[test]
    fn threads_preserves_pair_fifo() {
        let (eps, _) = endpoints(2, None);
        std::thread::scope(|scope| {
            let mut it = eps.into_iter();
            let mut a = it.next().unwrap();
            let mut b = it.next().unwrap();
            scope.spawn(move || {
                for seq in 0..1000u64 {
                    a.send(
                        1,
                        Msg {
                            src: 0,
                            seq,
                            words: vec![seq],
                            arrival: 0.0,
                        },
                    );
                }
                a.barrier();
            });
            scope.spawn(move || {
                let mut expect = 0u64;
                while expect < 1000 {
                    if let Some(m) = b.try_recv() {
                        assert_eq!(m.words[0], expect, "FIFO violated");
                        expect += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
                b.barrier();
            });
        });
    }
}
