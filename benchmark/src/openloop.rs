//! Open-loop load generation that times every request **from the instant
//! it was due**, not from when the generator got round to submitting it.
//!
//! `mdl_serve::loadgen::run_open` paces on absolute deadlines too, but it
//! reports the server's own submit→response latency: when a `submit`
//! stalls (full queue, slow router), every request queued up behind it
//! in the *generator* is submitted late and then looks fast. Here a stall
//! is charged to the requests it delayed, the generator's lateness is
//! recorded per request, and the offered request count never drops.
//!
//! Two threads, as the two-core box allows: the caller's thread paces
//! and submits, one collector thread receives. Responses can complete
//! out of order (class-ordered dispatch, two workers), so the collector
//! blocks on the oldest outstanding receiver for at most [`POLL`] and
//! then sweeps the others: an in-order response is stamped when it
//! arrives, an overtaking one at most `POLL` late.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, TryRecvError};
use mdl_serve::{arrival_schedule, SloClass};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Longest an overtaking response waits to be noticed.
const POLL: Duration = Duration::from_micros(200);

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// When the request is due, nanoseconds from the start of the run.
    pub due_ns: u64,
    /// Input row to send.
    pub row: usize,
    /// SLO class to submit under.
    pub class: SloClass,
    /// `false` for warm-up arrivals, which are sent but not counted.
    pub measured: bool,
}

/// What happened to one scheduled request. Times are nanoseconds from
/// the start of the run.
#[derive(Debug)]
pub struct Outcome<R> {
    /// Index into the schedule.
    pub index: usize,
    /// When the request was due.
    pub due_ns: u64,
    /// When the generator entered `submit`.
    pub submit_start_ns: u64,
    /// When `submit` returned.
    pub submit_end_ns: u64,
    /// When the collector held the response (or learnt there is none).
    pub received_ns: u64,
    /// The response; `None` if `submit` refused the request or the
    /// responder went away without answering.
    pub response: Option<R>,
}

struct InFlight<R> {
    index: usize,
    due_ns: u64,
    submit_start_ns: u64,
    submit_end_ns: u64,
    rx: Option<Receiver<R>>,
}

impl<R> InFlight<R> {
    fn finish(self, response: Option<R>, received_ns: u64) -> Outcome<R> {
        Outcome {
            index: self.index,
            due_ns: self.due_ns,
            submit_start_ns: self.submit_start_ns,
            submit_end_ns: self.submit_end_ns,
            received_ns,
            response,
        }
    }
}

/// A Poisson arrival schedule of `rps` requests per second: `warm_s`
/// seconds of uncounted warm-up, then `measure_s` measured seconds in
/// `slices` equal segments.
///
/// Each segment takes `mdl_serve::arrival_schedule`'s exponential gaps
/// and rescales them so the segment's last arrival lands on its end —
/// the Poisson process conditioned on its count. Every measured slice
/// therefore offers the same number of requests, for every seed, and
/// only the arrival pattern inside it (and with it burstiness and
/// queueing) varies. Rows are drawn uniformly; classes are `mix`
/// shuffled block by block, so the class shares are exact over every
/// `mix.len()` arrivals.
pub fn poisson_schedule(
    seed: u64,
    rps: f64,
    warm_s: f64,
    measure_s: f64,
    slices: usize,
    mix: &[SloClass],
    rows: usize,
) -> Vec<Arrival> {
    assert!(!mix.is_empty() && rows > 0 && slices > 0, "need a class mix, rows and slices");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0A11);
    let mut out = Vec::new();
    let mut block: Vec<SloClass> = Vec::new();
    let mut segment = |seg_seed: u64, from_s: f64, len_s: f64, measured: bool| {
        let n = (rps * len_s).round() as usize;
        let offsets = arrival_schedule(seg_seed, rps, n);
        let scale = len_s * 1e9 / offsets.last().copied().unwrap_or(1).max(1) as f64;
        for off in offsets {
            if block.is_empty() {
                block = mix.to_vec();
                block.shuffle(&mut rng);
            }
            out.push(Arrival {
                due_ns: (from_s * 1e9 + off as f64 * scale).round() as u64,
                row: rng.gen_range(0..rows),
                class: block.pop().expect("block refilled above"),
                measured,
            });
        }
    };
    segment(seed, 0.0, warm_s, false);
    let slice_s = measure_s / slices as f64;
    for i in 0..slices {
        segment(seed.wrapping_add(1 + i as u64), warm_s + i as f64 * slice_s, slice_s, true);
    }
    out
}

/// Drives `schedule` through `submit` and returns one [`Outcome`] per
/// scheduled request, in schedule order. `epoch` is the run's time zero:
/// arrivals are due relative to it and outcomes are stamped relative to it.
///
/// `submit` returns the receiver the response will arrive on, or `None`
/// if the request was refused. When the generator is behind schedule it
/// submits back to back until it has caught up; it never skips.
pub fn run_open<R: Send>(
    epoch: Instant,
    schedule: &[Arrival],
    mut submit: impl FnMut(&Arrival) -> Option<Receiver<R>>,
) -> Vec<Outcome<R>> {
    let since = move |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let (tx, inbox) = unbounded::<InFlight<R>>();

    let mut outcomes = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut pending: VecDeque<InFlight<R>> = VecDeque::new();
            let mut done: Vec<Outcome<R>> = Vec::with_capacity(schedule.len());
            loop {
                if pending.is_empty() {
                    match inbox.recv() {
                        Ok(f) => pending.push_back(f),
                        Err(_) => break,
                    }
                }
                while let Ok(f) = inbox.try_recv() {
                    pending.push_back(f);
                }
                // the oldest request: block briefly; the rest: sweep
                let oldest = pending.front().expect("non-empty above");
                let settled = match &oldest.rx {
                    None => Some(None),
                    Some(rx) => match rx.recv_timeout(POLL) {
                        Ok(r) => Some(Some(r)),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => Some(None),
                    },
                };
                let now = since(Instant::now());
                if let Some(response) = settled {
                    let f = pending.pop_front().expect("non-empty above");
                    done.push(f.finish(response, now));
                }
                let mut i = 0;
                while i < pending.len() {
                    let settled = match &pending[i].rx {
                        None => Some(None),
                        Some(rx) => match rx.try_recv() {
                            Ok(r) => Some(Some(r)),
                            Err(TryRecvError::Empty) => None,
                            Err(TryRecvError::Disconnected) => Some(None),
                        },
                    };
                    match settled {
                        Some(response) => {
                            let f = pending.remove(i).expect("index in range");
                            done.push(f.finish(response, now));
                        }
                        None => i += 1,
                    }
                }
            }
            done
        });

        for (index, arrival) in schedule.iter().enumerate() {
            let due = epoch + Duration::from_nanos(arrival.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let start = Instant::now();
            let rx = submit(arrival);
            let end = Instant::now();
            let sent = tx.send(InFlight {
                index,
                due_ns: arrival.due_ns,
                submit_start_ns: since(start),
                submit_end_ns: since(end),
                rx,
            });
            assert!(sent.is_ok(), "collector thread exited early");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    outcomes.sort_unstable_by_key(|o| o.index);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    fn every_ms(n: usize) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                due_ns: i as u64 * 1_000_000,
                row: 0,
                class: SloClass::Standard,
                measured: true,
            })
            .collect()
    }

    /// A sink that answers at once, except that one `submit` blocks.
    fn slow_sink(stall_at: usize, stall: Duration) -> impl FnMut(&Arrival) -> Option<Receiver<()>> {
        let mut seen = 0usize;
        move |_| {
            if seen == stall_at {
                std::thread::sleep(stall);
            }
            seen += 1;
            let (tx, rx) = bounded(1);
            tx.send(()).expect("receiver held");
            Some(rx)
        }
    }

    #[test]
    fn a_stalled_submit_shows_up_as_latency_not_as_a_lower_offered_rate() {
        let schedule = every_ms(200);
        let stall = Duration::from_millis(60);
        let outcomes = run_open(Instant::now(), &schedule, slow_sink(20, stall));

        // the offered count is untouched: nothing was skipped to catch up
        assert_eq!(outcomes.len(), 200);
        assert!(outcomes.iter().all(|o| o.response.is_some()));

        // the requests that were due during the stall carry it as latency...
        let late_ns = |o: &Outcome<()>| o.submit_start_ns.saturating_sub(o.due_ns);
        let delayed = outcomes
            .iter()
            .filter(|o| o.received_ns.saturating_sub(o.due_ns) >= 20_000_000)
            .count();
        assert!(delayed >= 30, "only {delayed} requests show the 60 ms stall");
        // ...and as recorded generator lateness
        let worst_late = outcomes.iter().map(late_ns).max().unwrap_or(0);
        assert!(worst_late >= 40_000_000, "lateness not recorded: {worst_late} ns");

        // whereas timing from submit (what `mdl_serve::loadgen::run_open`
        // reports) hides it: behind the stalled request everything looks
        // instantaneous
        let from_submit_slow = outcomes
            .iter()
            .filter(|o| o.index != 20)
            .filter(|o| o.received_ns.saturating_sub(o.submit_start_ns) >= 20_000_000)
            .count();
        assert_eq!(from_submit_slow, 0, "submit-timed latency should not see the stall");

        // and the generator caught up: the tail of the schedule is on time
        assert!(outcomes[190..].iter().all(|o| late_ns(o) < 20_000_000));
    }

    #[test]
    fn refused_and_abandoned_requests_are_reported_without_a_response() {
        let schedule = every_ms(6);
        let mut n = 0usize;
        let outcomes = run_open(Instant::now(), &schedule, |_| {
            n += 1;
            match n % 3 {
                0 => None, // refused at submit
                1 => {
                    let (tx, rx) = bounded::<u8>(1);
                    drop(tx); // responder went away
                    Some(rx)
                }
                _ => {
                    let (tx, rx) = bounded(1);
                    tx.send(7u8).expect("receiver held");
                    Some(rx)
                }
            }
        });
        assert_eq!(outcomes.len(), 6);
        assert_eq!(outcomes.iter().filter(|o| o.response == Some(7)).count(), 2);
        assert_eq!(outcomes.iter().filter(|o| o.response.is_none()).count(), 4);
    }

    #[test]
    fn schedule_is_seeded_sized_and_class_exact() {
        let mix =
            [SloClass::Interactive, SloClass::Standard, SloClass::BestEffort, SloClass::BestEffort];
        let a = poisson_schedule(9, 400.0, 0.5, 2.0, 4, &mix, 128);
        let b = poisson_schedule(9, 400.0, 0.5, 2.0, 4, &mix, 128);
        assert_eq!(a.len(), 200 + 800);
        assert!(a.iter().zip(&b).all(|(x, y)| x.due_ns == y.due_ns && x.row == y.row));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns), "non-decreasing");
        assert_eq!(a.iter().filter(|x| x.measured).count(), 800);
        // every measured slice of 0.5 s offers exactly 200 requests
        for slice in 0..4u64 {
            let (lo, hi) = (500_000_000 * (slice + 1), 500_000_000 * (slice + 2));
            let n = a.iter().filter(|x| x.measured && x.due_ns > lo && x.due_ns <= hi).count();
            assert_eq!(n, 200, "slice {slice}");
        }
        assert_eq!(a.last().map(|x| x.due_ns), Some(2_500_000_000));
        let be = a.iter().filter(|x| x.class == SloClass::BestEffort).count();
        assert_eq!(be, 500, "class shares are exact");
        let c = poisson_schedule(10, 400.0, 0.5, 2.0, 4, &mix, 128);
        assert!(a.iter().zip(&c).any(|(x, y)| x.due_ns != y.due_ns), "seed matters");
    }
}
