//! The open-loop send schedule and how late the generator kept it.

/// A fixed schedule offering `rate` events/s in total, split round-robin
/// over `conns` connections: global slot `k` is due `k / rate` seconds
/// after the phase starts and belongs to connection `k % conns`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate: f64,
    conn: usize,
    conns: usize,
}

impl Schedule {
    pub fn new(rate: f64, conn: usize, conns: usize) -> Schedule {
        assert!(rate > 0.0 && conn < conns, "rate must be positive and conn < conns");
        Schedule { rate, conn, conns }
    }

    /// Due time, in seconds after the phase start, of this connection's
    /// `j`-th event.
    pub fn due_s(&self, j: usize) -> f64 {
        (j * self.conns + self.conn) as f64 / self.rate
    }
}

/// How late each event went out against its due time, in milliseconds
/// (an early send counts as on time).
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    pub samples_ms: Vec<f64>,
}

impl Lateness {
    pub fn record(&mut self, due_s: f64, sent_s: f64) {
        self.samples_ms.push(((sent_s - due_s) * 1e3).max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_share_the_slots_without_overlap() {
        let rate = 1000.0;
        let a = Schedule::new(rate, 0, 2);
        let b = Schedule::new(rate, 1, 2);
        let mut slots: Vec<f64> = (0..50).flat_map(|j| [a.due_s(j), b.due_s(j)]).collect();
        slots.sort_by(f64::total_cmp);
        for (k, due) in slots.iter().enumerate() {
            assert!((due - k as f64 / rate).abs() < 1e-12, "slot {k} due at {due}");
        }
        // Each connection runs at half the total rate.
        assert!((a.due_s(1) - a.due_s(0) - 2.0 / rate).abs() < 1e-12);
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let s = Schedule::new(100.0, 0, 1);
        let mut late = Lateness::default();
        late.record(s.due_s(3), 0.030); // on time
        late.record(s.due_s(4), 0.0425); // 2.5 ms late
        late.record(s.due_s(5), 0.049); // early
        assert_eq!(late.samples_ms.len(), 3);
        assert!(late.samples_ms[0].abs() < 1e-9);
        assert!((late.samples_ms[1] - 2.5).abs() < 1e-9);
        assert_eq!(late.samples_ms[2], 0.0);
    }
}
