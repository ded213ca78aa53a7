//! Ping-pong latency/bandwidth probe over the shared-memory transport.
//!
//! Two PE threads bounce messages of increasing payload size; the
//! half-round-trip times are fitted with least squares to the α + βℓ
//! machine model of the paper (§II-B). The resulting constants are what
//! `tricount_comm::CostModel::calibrated(alpha, beta, t_op)` expects, so a
//! calibrated model reflects *this machine's* shared-memory transport
//! rather than the SuperMUC-NG interconnect preset.
//!
//! Emits one JSON object on stdout:
//!
//! ```json
//! {"probe":"pingpong","transport":"threads","rounds":..,
//!  "points":[{"words":1,"seconds_per_msg":..},..],
//!  "alpha_seconds":..,"beta_seconds_per_word":..}
//! ```

use std::time::Instant;

use tricount_net::{endpoints, Msg};

/// Payload sizes swept (machine words). Spans latency-dominated to
/// bandwidth-dominated messages.
const SIZES: [usize; 6] = [1, 8, 64, 512, 4096, 32768];

/// Ping-pong rounds per payload size (per timed repetition).
const ROUNDS: usize = 200;

/// Timed repetitions per size; the minimum is kept (noise rejection).
const REPS: usize = 5;

fn time_size(words: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (eps, _) = endpoints(2, None);
        let elapsed = std::thread::scope(|scope| {
            let mut it = eps.into_iter();
            let mut a = match it.next() {
                Some(ep) => ep,
                None => return f64::INFINITY,
            };
            let mut b = match it.next() {
                Some(ep) => ep,
                None => return f64::INFINITY,
            };
            let pinger = scope.spawn(move || {
                a.barrier();
                let start = Instant::now();
                for seq in 0..ROUNDS as u64 {
                    a.send(
                        1,
                        Msg {
                            src: 0,
                            seq,
                            words: vec![seq; words],
                            arrival: 0.0,
                        },
                    );
                    loop {
                        if a.try_recv().is_some() {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
                start.elapsed().as_secs_f64()
            });
            scope.spawn(move || {
                b.barrier();
                for _ in 0..ROUNDS {
                    loop {
                        if let Some(m) = b.try_recv() {
                            b.send(0, m);
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            });
            pinger.join().unwrap_or(f64::INFINITY)
        });
        // one round = two messages, so per-message time is elapsed / (2·rounds)
        best = best.min(elapsed / (2.0 * ROUNDS as f64));
    }
    best
}

/// Ordinary least squares for `t = alpha + beta * words`.
fn fit(points: &[(usize, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|(w, _)| *w as f64).sum();
    let sy: f64 = points.iter().map(|(_, t)| *t).sum();
    let sxx: f64 = points.iter().map(|(w, _)| (*w as f64) * (*w as f64)).sum();
    let sxy: f64 = points.iter().map(|(w, t)| (*w as f64) * t).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return (sy / n, 0.0);
    }
    let beta = (n * sxy - sx * sy) / denom;
    let alpha = (sy - beta * sx) / n;
    // a noisy small-message sweep can fit a (meaningless) negative
    // intercept; clamp at zero rather than report negative latency
    (alpha.max(0.0), beta.max(0.0))
}

fn main() {
    let points: Vec<(usize, f64)> = SIZES.iter().map(|&w| (w, time_size(w))).collect();
    let (alpha, beta) = fit(&points);
    let mut json = String::from("{\"probe\":\"pingpong\",\"transport\":\"threads\"");
    json.push_str(&format!(",\"rounds\":{}", ROUNDS * REPS));
    json.push_str(",\"points\":[");
    for (i, (w, t)) in points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("{{\"words\":{w},\"seconds_per_msg\":{t:.3e}}}"));
    }
    json.push_str(&format!(
        "],\"alpha_seconds\":{alpha:.3e},\"beta_seconds_per_word\":{beta:.3e}}}"
    ));
    println!("{json}");
}
