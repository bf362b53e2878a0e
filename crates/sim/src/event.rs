//! A deterministic event calendar for continuous-time discrete-event
//! simulation.
//!
//! Events at equal timestamps are delivered in insertion order (a strictly
//! increasing sequence number breaks ties), which keeps runs reproducible
//! for a fixed seed.
//!
//! Each entry is ordered by one packed integer key, the time's bits above
//! the sequence number, so a heap comparison is a single `u128` compare.
//! A simulator typically schedules one follow-up for every event it
//! handles, so [`Calendar::next`] leaves the event it returns at the top
//! of the heap, and a [`Calendar::schedule`] before the next `next`
//! overwrites it in place: one sift-down instead of a pop and a push.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The packed ordering key of an event at `time` with sequence number
/// `seq`: the time's bits in the high half, `seq` in the low half.
///
/// For non-negative, non-NaN times (the only ones [`Calendar::schedule`]
/// accepts) the IEEE-754 bit pattern orders exactly like the value, so
/// comparing keys compares times first and then insertion order. Adding
/// `0.0` turns `-0.0`, whose sign bit would sort it after every other
/// time, into `+0.0`.
fn key(time: f64, seq: u64) -> u128 {
    (u128::from((time + 0.0).to_bits()) << 64) | u128::from(seq)
}

/// The time packed into `key`.
fn time_of(key: u128) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

/// A scheduled entry: packed key ([`key`]) and payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.key.cmp(&self.key)
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event calendar. Payloads are `Copy`, so that [`Calendar::next`]
/// can return one while its entry stays in the heap.
///
/// # Example
///
/// ```
/// use snoop_sim::event::Calendar;
///
/// let mut cal = Calendar::new();
/// cal.schedule(2.0, "late");
/// cal.schedule(1.0, "early");
/// assert_eq!(cal.next(), Some((1.0, "early")));
/// assert_eq!(cal.next(), Some((2.0, "late")));
/// assert_eq!(cal.next(), None);
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Whether the heap's top is the event [`Calendar::next`] last
    /// returned. It stays there until the next `schedule` overwrites it
    /// or the next `next` pops it; keys are unique, so either way the
    /// pop sequence is the one a plain pop-then-push calendar gives.
    spent: bool,
    seq: u64,
    now: f64,
}

impl<E: Copy> Calendar<E> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Calendar { heap: BinaryHeap::new(), spent: false, seq: 0, now: 0.0 }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time (events
    /// cannot be scheduled in the past).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule in the past: {time} < {}",
            self.now
        );
        let entry = Entry { key: key(time, self.seq), event };
        self.seq += 1;
        if std::mem::take(&mut self.spent) {
            *self.heap.peek_mut().expect("a spent top is still in the heap") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Pops the earliest event, advancing the clock.
    ///
    /// Named `next` on purpose (the calendar is iterator-like), but not an
    /// `Iterator` impl: popping mutates the clock and borrows rules make
    /// the explicit method clearer at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(f64, E)> {
        if std::mem::take(&mut self.spent) {
            self.heap.pop();
        }
        let top = self.heap.peek()?;
        self.spent = true;
        self.now = time_of(top.key);
        Some((self.now, top.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.spent)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Copy> Default for Calendar<E> {
    fn default() -> Self {
        Calendar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_time() {
        let mut c = Calendar::new();
        c.schedule(3.0, 3);
        c.schedule(1.0, 1);
        c.schedule(2.0, 2);
        assert_eq!(c.next().unwrap().1, 1);
        assert_eq!(c.next().unwrap().1, 2);
        assert_eq!(c.next().unwrap().1, 3);
    }

    #[test]
    fn equal_times_fifo() {
        let mut c = Calendar::new();
        for i in 0..10 {
            c.schedule(1.0, i);
        }
        for i in 0..10 {
            assert_eq!(c.next().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances() {
        let mut c = Calendar::new();
        c.schedule(5.0, ());
        assert_eq!(c.now(), 0.0);
        c.next();
        assert_eq!(c.now(), 5.0);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut c = Calendar::new();
        c.schedule(5.0, ());
        c.next();
        c.schedule(4.0, ());
    }

    #[test]
    fn len_and_empty() {
        let mut c: Calendar<()> = Calendar::new();
        assert!(c.is_empty());
        c.schedule(1.0, ());
        assert_eq!(c.len(), 1);
        c.next();
        assert!(c.is_empty());
        assert!(c.next().is_none());
    }

    #[test]
    fn negative_zero_sorts_as_zero() {
        let mut c = Calendar::new();
        c.schedule(-0.0, 0);
        c.schedule(0.0, 1);
        c.schedule(-0.0, 2);
        assert_eq!(c.next(), Some((0.0, 0)));
        assert_eq!(c.next(), Some((0.0, 1)));
        assert_eq!(c.next(), Some((0.0, 2)));
    }

    /// The calendar's contract as the simplest code that keeps it: a list
    /// searched for the earliest time, then the lowest insertion number.
    #[derive(Default)]
    struct Model {
        pending: Vec<(f64, u64)>,
        seq: u64,
        now: f64,
    }

    impl Model {
        fn schedule(&mut self, time: f64) -> u64 {
            self.pending.push((time, self.seq));
            self.seq += 1;
            self.seq - 1
        }

        fn next(&mut self) -> Option<(f64, u64)> {
            let (at, _) = self.pending.iter().enumerate().min_by(|(_, a), (_, b)| {
                a.0.partial_cmp(&b.0).expect("times are not NaN").then(a.1.cmp(&b.1))
            })?;
            let (time, id) = self.pending.remove(at);
            self.now = time;
            Some((time, id))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `schedule` and `next` pop exactly what
        /// the model pops. Op 0 is `next` (so runs of `next` with nothing
        /// scheduled between them, and schedules after the calendar
        /// empties, both occur); op 1 schedules `-0.0` while the clock is
        /// at zero and `now` after that; the rest schedule `now + delta`
        /// with deltas that include zero, so timestamps often tie.
        #[test]
        fn pops_in_the_order_of_the_reference_model(
            ops in prop::collection::vec((0u8..4, 0usize..4), 1..120),
        ) {
            let mut cal = Calendar::new();
            let mut model = Model::default();
            for (op, delta) in ops {
                match op {
                    0 => prop_assert_eq!(cal.next(), model.next()),
                    1 => {
                        let time = if model.now == 0.0 { -0.0 } else { model.now };
                        cal.schedule(time, model.schedule(time));
                    }
                    _ => {
                        let time = model.now + [0.0, 0.25, 1.0, 3.0][delta];
                        cal.schedule(time, model.schedule(time));
                    }
                }
                prop_assert_eq!(cal.len(), model.pending.len());
                prop_assert_eq!(cal.is_empty(), model.pending.is_empty());
                prop_assert_eq!(cal.now(), model.now);
            }
            while let Some(popped) = model.next() {
                prop_assert_eq!(cal.next(), Some(popped));
            }
            prop_assert_eq!(cal.next(), None);
        }
    }
}
