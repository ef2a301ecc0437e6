//! Open-loop request scheduling: each request has a due time, is sent no
//! earlier than that, and its latency is measured from the due time to its
//! response, so a stall also charges the requests that queued behind it.
//! The harness checks each response after its latency is taken.

use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Due<T> {
    /// Offset from the start of the schedule.
    pub at: Duration,
    /// What to send.
    pub item: T,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Sample<T, R> {
    /// The request.
    pub item: T,
    /// How late the generator sent it (`None` = never sent).
    pub lag: Option<Duration>,
    /// Due time to response (`None` = never sent).
    pub latency: Option<Duration>,
    /// The sender's verdict (`None` = never sent).
    pub result: Option<R>,
}

impl<T, R> Sample<T, R> {
    /// Latency in milliseconds, if the request was sent.
    pub fn latency_ms(&self) -> Option<f64> {
        self.latency.map(crate::metrics::ms)
    }
}

/// Run `schedule` (sorted by due time) open loop from `start`: `send`
/// makes a request and returns its response, and `check` turns the
/// response into a verdict once the latency is taken. Requests still
/// unsent at `deadline` are recorded as never sent.
pub fn run_open_loop<T: Clone, S, R>(
    start: Instant,
    deadline: Instant,
    schedule: &[Due<T>],
    mut send: impl FnMut(&T) -> S,
    mut check: impl FnMut(&T, S) -> R,
) -> Vec<Sample<T, R>> {
    let mut samples = Vec::with_capacity(schedule.len());
    for due in schedule {
        let due_at = start + due.at;
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let sent = Instant::now();
        if sent > deadline {
            samples.push(Sample {
                item: due.item.clone(),
                lag: None,
                latency: None,
                result: None,
            });
            continue;
        }
        let response = send(&due.item);
        let done = Instant::now();
        samples.push(Sample {
            item: due.item.clone(),
            lag: Some(sent.saturating_duration_since(due_at)),
            latency: Some(done.saturating_duration_since(due_at)),
            result: Some(check(&due.item, response)),
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_10ms(n: usize) -> Vec<Due<usize>> {
        (0..n)
            .map(|i| Due {
                at: Duration::from_millis(10 * i as u64),
                item: i,
            })
            .collect()
    }

    #[test]
    fn latency_counts_from_the_due_time_under_a_stall() {
        let start = Instant::now();
        let deadline = start + Duration::from_secs(60);
        // The first request stalls 60 ms; the rest answer at once.
        let samples = run_open_loop(
            start,
            deadline,
            &every_10ms(5),
            |&i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                i
            },
            |_, i| i,
        );
        for s in &samples {
            let at = Duration::from_millis(10 * s.item as u64);
            let stalled_behind = Duration::from_millis(60).saturating_sub(at);
            assert!(
                s.latency.unwrap() >= stalled_behind,
                "request {} due at {at:?} must carry the stall",
                s.item,
            );
            assert_eq!(s.result, Some(s.item));
        }
        // Request 1 was due at 10 ms and could only leave at 60 ms.
        assert!(samples[1].lag.unwrap() >= Duration::from_millis(50));
        assert!(samples[4].lag.unwrap() >= Duration::from_millis(20));
    }

    #[test]
    fn checking_a_response_is_not_part_of_its_latency() {
        let start = Instant::now();
        let deadline = start + Duration::from_secs(60);
        let schedule: Vec<Due<usize>> = (0..2)
            .map(|i| Due {
                at: Duration::from_millis(100 * i as u64),
                item: i,
            })
            .collect();
        // Each check takes 40 ms; the next request is due 100 ms later.
        let samples = run_open_loop(
            start,
            deadline,
            &schedule,
            |&i| i,
            |_, i| {
                std::thread::sleep(Duration::from_millis(40));
                i
            },
        );
        for s in &samples {
            assert!(s.latency.unwrap() < Duration::from_millis(40), "{s:?}");
        }
    }

    #[test]
    fn requests_unsent_by_the_deadline_are_never_sent() {
        let start = Instant::now();
        let deadline = start + Duration::from_millis(30);
        let samples = run_open_loop(
            start,
            deadline,
            &every_10ms(5),
            |&i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(80));
                }
            },
            |_, ()| (),
        );
        assert!(samples[0].result.is_some());
        assert!(samples[1..]
            .iter()
            .all(|s| s.result.is_none() && s.latency.is_none()));
    }
}
